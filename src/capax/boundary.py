"""Tracing the level set |R(z)| = 1 and integrating along it.

For a good map the level set splits into n analytic Jordan curves, one around
each pole, and R restricted to each curve is a bijection onto the unit circle.
Each curve is therefore parametrized by t in [0, 2pi) through R(z(t)) = e^{it},
and all n curves are sampled on one uniform t grid by following the n roots of
R(z) = e^{it} as t advances.  Only the residues and poles of R enter.

The root sets come from numerics.solve_pf_rows, the partial-fraction Aberth
kernel (the one iteration for every row) with an eigensolver fallback.  Every
S-th node (S = min(8, N/64): 2 at N = 128, 8 from N = 512) is an anchor,
solved cold from the poles.  Each node between two anchors is solved warm from
a tangent predictor off its left anchor's raw roots; a row the warm iteration
does not settle goes to the eigensolver like any other.
One walk (_order_chain) then puts all N rows in order: from the first row it
matches every hop over the raw rows at their grid times in one batch, in the
solver's raw root order, by nearest neighbor with a factor-2 stability margin,
and composes the hop permutations.  A failed hop is bisected: its midpoint is
solved warm from the hop's left row, and only a half that still fails
is bisected again, down to a width at roundoff, before giving up.  The walk
closes on the first row at ts[0] + 2pi, where it must come back unpermuted.
Warm starts only save iterations: every row is matched as a raw root set, and
each row is solved independently of its batch.

Uniform-grid (periodic trapezoid) sums over these analytic curves converge
geometrically, with a rate set by the critical value v nearest the unit
circle: the error decays roughly like |v|^N (Trefethen & Weideman, SIAM Rev.
56, 2014).  By default trace therefore chooses N from the critical values it
already computes to classify the map (start_n): the floor AUTO_N_MIN = 128
serves every map with max |v| < 0.75, where |v|^128 is already below
AUTO_DECAY, and capacity.bounds_sequence doubles N while the quadrature error
is too large.  Each sampling stores its trapezoid weights
lam_i = |dz/dt|_i / N.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ComponentCountMismatch, NonConvergence, TrackingAmbiguity
from .ratmap import Goodness, is_n_good

DEFAULT_N = 4096  # the largest resolution chosen automatically
MAX_N = 1 << 16
AUTO_N_MIN = 128
AUTO_DECAY = 1e-16
NODE_RESIDUAL_TOL = 1e-9
STABILITY_RATIO = 2.0
_ANCHOR_STRIDE = 8


@dataclass(frozen=True)
class BoundaryCurve:
    component_id: int
    t: np.ndarray
    z: np.ndarray
    speed: np.ndarray  # |dz/dt| = 1/|R'(z)| > 0
    enclosed_pole: complex


@dataclass(frozen=True)
class BoundarySampling:
    curves: list
    N: int
    total_arclength: float
    weights: np.ndarray  # (n, N) trapezoid weights, row c for curves[c]

    def nodes(self):
        """All nodes and quadrature weights w_i with sum w_i = arclength/2pi."""
        z = np.concatenate([c.z for c in self.curves])
        return z, self.weights.ravel()


def start_n(max_cv_modulus):
    """The automatic resolution: the smallest power of two N >= AUTO_N_MIN
    with max_cv_modulus**N <= AUTO_DECAY, at most DEFAULT_N.

    The floor 128 serves every max_cv_modulus < 0.75; a map with max_cv_modulus
    in about (0.67, 0.75) may miss QUAD_TOL there, and bounds_sequence then
    doubles N to 256."""
    N = AUTO_N_MIN
    while N < DEFAULT_N and max_cv_modulus**N > AUTO_DECAY:
        N *= 2
    return N


def valid_n(N):
    """Whether N is a grid size trace accepts: a power of two in [64, MAX_N]."""
    return 64 <= N <= MAX_N and (N & (N - 1)) == 0


def _match_rows(prev, new):
    """Nearest-neighbor assignments prev[m, i] -> new[m, perm[m, i]] for a
    batch of (M, n) root sets.

    Returns (perm, ok).  ok[m] is False unless row m's assignment is
    injective and every nearest distance beats the second-nearest by
    STABILITY_RATIO.  Each row of a distance matrix is judged on its own, so
    reordering prev[m] only reorders perm[m].
    """
    # roots-major (n, n, M): D[j, i, m] = |new[m, j] - prev[m, i]|, so the
    # argmin, scatter and min over j run over leading axes
    D = np.abs(np.ascontiguousarray(new.T)[:, None, :] - np.ascontiguousarray(prev.T))
    perm = D.argmin(axis=0)
    hit = np.zeros(perm.shape, dtype=bool)
    np.put_along_axis(hit, perm, True, axis=0)
    ok = hit.all(axis=0)
    if len(perm) > 1:
        d1 = np.take_along_axis(D, perm[None], axis=0)[0]
        np.put_along_axis(D, perm[None], np.inf, axis=0)
        ok &= ~(D.min(axis=0) < STABILITY_RATIO * d1).any(axis=0)
    return perm.T, ok


def _compose(P):
    """Prefix compositions C[i] = P[i][P[i-1][...P[0]]] of the (M, n)
    permutation rows P.  Only the rows that move a root change the prefix
    (in solver order, few or none of a trace's hops do); their prefixes are
    taken by log-depth doubling behind an identity row."""
    n = P.shape[1]
    moved = np.flatnonzero((P != np.arange(n)).any(axis=1))
    C = np.vstack((np.arange(n), P[moved]))
    s = 1
    while s < len(C):
        C[s:] = np.take_along_axis(C[s:], C[:-s], axis=1)
        s *= 2
    return C[np.searchsorted(moved, np.arange(len(P)), side="right")]


def _refine_gap(left, t0, t1, target, solver):
    """Bisect the failed hop from the roots left at t0 to the raw roots
    target at t1: solve its midpoint warm from left, and bisect again
    only a half whose hop does not match stably.  No t is solved twice, and
    t1 not at all.  Returns the permutation with target[perm] ordered like
    left."""

    def hop(left, t0, t1, target):
        perm, ok = _match_rows(left[None], target[None])
        if ok[0]:
            return perm[0]
        tm = t0 + (t1 - t0) * 0.5
        # stop at a width tied to roundoff at 2pi, not when tm equals an
        # end: from t0 = 0 that only happens among the subnormals
        if t1 - t0 <= 64 * np.spacing(2.0 * np.pi):
            raise TrackingAmbiguity(
                f"continuation stayed ambiguous at t = {tm:.12f} down to a "
                f"step of {t1 - t0:.1e}"
            )
        Zm, solved = solver(np.exp(1j * np.array([tm])), left)
        if not solved[0]:
            raise TrackingAmbiguity(f"root solve failed at t = {tm:.12f} inside a hop")
        mid = Zm[0][hop(left, t0, tm, Zm[0])]
        return hop(mid, tm, t1, target)

    return hop(left, t0, t1, target)


def _order_chain(Z, ts, solver):
    """The one walk of trace: impose continuity in t on the raw root sets Z
    at the grid times ts, from Z[0] over Z[1:] and closing on Z[0] at
    ts[0] + 2pi.

    Every hop is matched in raw solver order at once; only the hops that
    fail go to _refine_gap.  The composed hop permutations order every row
    like Z[0], and the closing one must be the identity.  Returns the
    ordered (N, n) array; raises TrackingAmbiguity on irreparable ambiguity
    and ComponentCountMismatch when the walk comes back permuted.
    """
    W = np.roll(Z, -1, axis=0)
    tw = np.append(ts[1:], ts[0] + 2.0 * np.pi)
    perm, ok = np.empty(Z.shape, dtype=np.intp), np.empty(len(Z), dtype=bool)
    for b in numerics._row_blocks(*Z.shape):
        perm[b], ok[b] = _match_rows(Z[b], W[b])
    for i in np.flatnonzero(~ok):
        perm[i] = _refine_gap(Z[i], ts[i], tw[i], W[i], solver)
    C = _compose(perm)
    if np.any(C[-1] != np.arange(Z.shape[1])):
        raise ComponentCountMismatch(
            "tracking around the full circle permuted the roots; "
            "the level set does not split into n degree-1 curves"
        )
    return np.roll(np.take_along_axis(W, C, axis=1), 1, axis=0)


def _solve_grid(solver, ts, Z0=None):
    """Raw root sets at every t in ts, from the guess rows Z0 or cold;
    NonConvergence at the first failure."""
    Z, ok = solver(np.exp(1j * ts), Z0)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise NonConvergence(f"root solve failed at t = {ts[bad]:.6f}")
    return Z


def _windings(z_curve, points):
    """Winding numbers of the closed polygon through the nodes z_curve about
    each of points: the signed crossings of the ray to the right of each
    point, an edge counting when it goes up through the ray's line with the
    point on its left, or down with the point on its right."""
    a = z_curve[:, None] - np.asarray(points)
    b = np.roll(a, -1, axis=0)
    left = a.real * b.imag - a.imag * b.real  # > 0: the point is left of a -> b
    up = (a.imag <= 0) & (b.imag > 0) & (left > 0)
    down = (a.imag > 0) & (b.imag <= 0) & (left < 0)
    return up.sum(axis=0) - down.sum(axis=0)


def trace(R, N=None):
    """Sample all boundary curves of {|R| >= 1} on a uniform t grid of size N.

    An explicit N must be a power of two, 64 <= N <= 65536, and is used as
    given.  N=None uses start_n of the map's largest critical-value modulus.
    The map must classify as GOOD; a map caches its critical data, so
    classifying it again costs no root solve.

    Raises TrackingAmbiguity when continuation cannot be disambiguated even
    on steps bisected down to roundoff, ComponentCountMismatch when the
    curve/pole pairing is not one-to-one, and NonConvergence when node
    residuals miss NODE_RESIDUAL_TOL.
    """
    if N is not None:
        N = int(N)
        if not valid_n(N):
            raise ValueError(f"N must be a power of two in [64, {MAX_N}]")
    verdict = is_n_good(R)
    if verdict.status is not Goodness.GOOD:
        raise ComponentCountMismatch(
            f"map classifies as {verdict.status.value} "
            f"(margin {verdict.margin:.3e}); boundary tracing needs a good map"
        )
    if N is None:
        N = start_n(verdict.data.max_cv_modulus)
    return _trace(R, N)


def _row_solver(R):
    """trace's row kernel, from the residues and poles alone: solver(ws,
    Z0=None) returns the roots of R(z) = w for every w in ws and a success
    flag per row, from the guesses Z0 (one row, or one per w) or cold from
    the poles."""
    a, p, tol = R.residues, R.poles, numerics.DEFAULT_ROOT_TOL

    def solver(ws, Z0=None):
        return numerics.solve_pf_rows(a, p, ws, tol, Z0)

    return solver


def _trace(R, N):
    """trace at the grid size N, for a map already classified."""
    n = R.n
    solver = _row_solver(R)
    ts = 2.0 * np.pi * np.arange(N) / N
    S = min(_ANCHOR_STRIDE, N // 64)
    Z = _solve_grid(solver, ts[::S])
    if S > 1:
        # fill rows start from the tangent dz/dt = i e^{it} / R'(z) at their
        # raw left anchor; the guess only saves iterations, never orders
        slope = 1j * np.exp(1j * ts[::S])[:, None] / R.derivative(Z)
        Z = (Z[:, None] + ts[None, :S, None] * slope[:, None]).reshape(N, n)
        fill = np.arange(N) % S != 0
        Z[fill] = _solve_grid(solver, ts[fill], Z[fill])
    # Seeds: the n distinct t = 0 roots of the first anchor row, one per
    # component for a good map.  Which root lies on which component is
    # settled after tracing by winding numbers; no geometric heuristic here
    # (nearest-pole grouping misfires on good maps whose residue mass sits
    # close to a neighboring component).
    Z = _order_chain(Z, ts, solver)

    # R = sum a/(z - p) and |R'| = |sum a/(z - p)^2| from one pole-distance
    # tensor per row block; no pole-proximity guard (nodes stay away from poles)
    speed, resid = np.empty(Z.shape), 0.0
    for b in numerics._row_blocks(N, n):
        inv = 1.0 / (Z[b, :, None] - R.poles)
        resid = max(resid, np.abs(np.abs(inv @ R.residues) - 1.0).max())
        speed[b] = 1.0 / np.abs(np.square(inv, out=inv) @ R.residues)
    if resid > NODE_RESIDUAL_TOL:
        raise NonConvergence(
            f"node residual {resid:.3e} exceeds {NODE_RESIDUAL_TOL:.1e}"
        )
    curves = []
    for c in range(n):
        w = _windings(Z[:, c], R.poles)
        inside = np.flatnonzero(np.abs(w) == 1)
        if inside.size != 1 or np.abs(w).sum() != 1:
            raise ComponentCountMismatch(
                f"curve {c} winds {w.tolist()} about the poles; expected one +-1"
            )
        k = int(inside[0])
        curves.append(
            BoundaryCurve(
                component_id=k,
                t=ts,
                z=Z[:, c].copy(),
                speed=speed[:, c].copy(),
                enclosed_pole=complex(R.poles[k]),
            )
        )
    ids = sorted(cv.component_id for cv in curves)
    if ids != list(range(n)):
        raise ComponentCountMismatch(
            f"curves enclose poles {ids}; expected each pole exactly once"
        )
    curves.sort(key=lambda cv: cv.component_id)
    total = float(sum(cv.speed.sum() for cv in curves) * (2.0 * np.pi / N))
    weights = np.stack([cv.speed for cv in curves]) / N
    return BoundarySampling(curves=curves, N=N, total_arclength=total, weights=weights)


def quad_inner(sampling, f, g):
    """(1/2pi) integral of f * conj(g) |dz| over all curves, by the periodic
    trapezoid rule.  f and g must accept complex ndarrays."""
    total = 0.0 + 0.0j
    for c, lam in zip(sampling.curves, sampling.weights):
        fv = np.asarray(f(c.z), dtype=np.complex128)
        gv = np.asarray(g(c.z), dtype=np.complex128)
        total += (fv * np.conj(gv) * lam).sum()
    return complex(total)


def emit_csv(sampling):
    """Node table: component,t,re,im,speed with 15 significant digits, LF."""
    lines = ["component,t,re,im,speed"]
    for c in sampling.curves:
        for t, z, s in zip(c.t, c.z, c.speed):
            lines.append(
                f"{c.component_id},{t:.15g},{z.real:.15g},{z.imag:.15g},{s:.15g}"
            )
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(sampling):
    """One closed polyline per component, y flipped so the picture matches
    mathematical orientation, viewBox padded by 5 percent per axis."""
    xs = np.concatenate([c.z.real for c in sampling.curves])
    ys = np.concatenate([-c.z.imag for c in sampling.curves])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0
    padx, pady = 0.05 * spanx, 0.05 * spany
    vb = (x0 - padx, y0 - pady, spanx + 2 * padx, spany + 2 * pady)
    stroke = 0.005 * max(vb[2], vb[3])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vb[0]:.6g} {vb[1]:.6g} {vb[2]:.6g} {vb[3]:.6g}">'
    ]
    for c in sampling.curves:
        pts = " ".join(
            f"{x:.8g},{y:.8g}" for x, y in zip(c.z.real, -c.z.imag)
        )
        first = f"{c.z.real[0]:.8g},{-c.z.imag[0]:.8g}"
        color = _SVG_COLORS[c.component_id % len(_SVG_COLORS)]
        parts.append(
            f'<polyline points="{pts} {first}" fill="none" '
            f'stroke="{color}" stroke-width="{stroke:.6g}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
