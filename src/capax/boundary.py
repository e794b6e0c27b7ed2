"""Tracing the level set |R(z)| = 1 and integrating along it.

For a good map the level set splits into n analytic Jordan curves, one around
each pole, and R restricted to each curve is a bijection onto the unit circle.
Each curve is therefore parametrized by t in [0, 2pi) through R(z(t)) = e^{it},
and all n curves are sampled on one uniform t grid by following the n roots of
R(z) = e^{it} as t advances.  Only the residues and poles of R enter.

The root sets come from numerics.solve_pf_rows, the partial-fraction Aberth
kernel (the one iteration for every row) with an eigensolver fallback.  Only
every S-th node (S = min(8, N/64): 2 at N = 128, 8 from N = 512) is solved
this way, cold from the poles.
One walk (_continue) puts rows in order: from an ordered row it matches every
hop over raw rows at their grid times in one batch, in the solver's raw root
order, by nearest neighbor with a factor-2 stability margin, and composes the
hop permutations.  A failed hop is bisected: its midpoint is solved warm from
the hop's ordered left row, and only a half that still fails is bisected
again, down to a width at roundoff, before giving up.  The anchor chain walks
from the first anchor and closes on it at ts[0] + 2pi, where it must come back
unpermuted.  The nodes between two anchors are filled by a tangent predictor
from the left anchor and the warm Aberth iteration.  A block (an anchor, its
fill nodes and the next anchor) is kept when every fill root converged and
every hop inside it is a stable identity match; otherwise its fill nodes are
solved cold and walked one grid step at a time onto the next anchor at its
grid time, exactly as if every node had been solved.  Warm starts only feed
the matching, never the nodes, and each row is solved independently of its
batch, so that equality holds bit for bit.

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
    D = np.abs(prev[:, :, None] - new[:, None, :])
    perm = D.argmin(axis=2)
    s = np.sort(perm, axis=1)
    ok = (s[:, 1:] != s[:, :-1]).all(axis=1)
    if perm.shape[1] > 1:
        idx = perm[:, :, None]
        d1 = np.take_along_axis(D, idx, axis=2)[:, :, 0]
        np.put_along_axis(D, idx, np.inf, axis=2)
        d2 = D.min(axis=2)
        ok &= ~(d2 < STABILITY_RATIO * d1).any(axis=1)
    return perm, ok


def _compose(P):
    """Prefix compositions C[i] = P[i][P[i-1][...P[0]]] of the (M, n)
    permutation rows P, by log-depth doubling."""
    C = P.copy()
    s = 1
    while s < len(C):
        C[s:] = np.take_along_axis(C[s:], C[:-s], axis=1)
        s *= 2
    return C


def _refine_gap(left, t0, t1, target, solver):
    """Bisect the failed hop from the ordered roots left at t0 to the raw
    roots target at t1: solve its midpoint warm from left, and bisect again
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


def _continue(left, t0, Z, ts, solver):
    """The one walk of trace: continue the ordered roots left at t0 over the
    raw root sets Z at the grid times ts, t0 < ts[0] < ts[1] < ...

    Every hop is matched in raw solver order at once; only the hops that
    fail go to _refine_gap.  Returns the composed permutations C, with
    Z[i][C[i]] ordered like left.  A caller that knows where the walk must
    end appends that row to Z and checks that C[-1] is the identity.
    """
    rows = np.concatenate((left[None], Z))
    perm, ok = _match_rows(rows[:-1], rows[1:])
    t_lefts = np.concatenate(([t0], ts[:-1]))
    for i in np.flatnonzero(~ok):
        perm[i] = _refine_gap(rows[i], t_lefts[i], ts[i], Z[i], solver)
    return _compose(perm)


def _order_chain(Z, ts, solver):
    """Impose continuity in t on the raw root sets Z at the grid times ts:
    walk from Z[0] over Z[1:] and close on Z[0] at ts[0] + 2pi.  Returns the
    ordered (N, n) array; raises TrackingAmbiguity on irreparable ambiguity
    and ComponentCountMismatch when the walk comes back permuted.
    """
    W = np.roll(Z, -1, axis=0)
    tw = np.append(ts[1:], ts[0] + 2.0 * np.pi)
    C = _continue(Z[0], ts[0], W, tw, solver)
    if np.any(C[-1] != np.arange(Z.shape[1])):
        raise ComponentCountMismatch(
            "tracking around the full circle permuted the roots; "
            "the level set does not split into n degree-1 curves"
        )
    return np.roll(np.take_along_axis(W, C, axis=1), 1, axis=0)


def _fill(R, Za, ts, polish):
    """Nodes of the grid ts between the ordered anchor rows Za = Z[::S].

    Each fill node is predicted from its left anchor along the tangent
    dz/dt = i e^{it} / R'(z) and then polished by warm Aberth (polish).
    Returns the (N, n) nodes and, per block (an anchor, its S - 1 fill rows
    and the next anchor), whether every fill row converged (frozen and
    passing the residual check) and every hop of the block is a stable
    identity match (_identity_hops), as the full-grid walk would find.
    """
    N, (A, n) = ts.size, Za.shape
    S = N // A
    slope = 1j * np.exp(1j * ts[::S])[:, None] / R.derivative(Za)
    Z = (Za[:, None] + ts[None, :S, None] * slope[:, None]).reshape(N, n)
    fill = np.arange(N) % S != 0
    Z[fill], converged = polish(np.exp(1j * ts[fill]), Z[fill])
    good = _identity_hops(Z)
    good[fill] &= converged
    return Z, good.reshape(A, S).all(axis=1)


def _identity_hops(Z):
    """Per row of the (M, n) root sets, whether the hop Z[m] -> Z[m + 1]
    (cyclic) is a stable identity match: every root's own successor is
    closer by more than STABILITY_RATIO than any other root of the next row.

    Where this holds, _match_rows finds the identity and calls it stable;
    the two differ only on exact distance ties, where this test rejects."""
    # roots-major (n, n, M): D[j, i, m] = |Z[m + 1, j] - Z[m, i]|, so both
    # the diagonal and the min over j run over leading axes
    n = Z.shape[1]
    Zt = np.ascontiguousarray(Z.T)
    D = np.abs(np.roll(Zt, -1, axis=1)[:, None, :] - Zt)
    own = D.reshape(n * n, -1)[:: n + 1].copy()
    D.reshape(n * n, -1)[:: n + 1] = np.inf
    return (D.min(axis=0) > STABILITY_RATIO * own).all(axis=0)


def _refill(Z, ts, a, Zb, solver):
    """Replace the fill rows after anchor row a by the cold-solved root sets
    Zb, ordered by the full-grid walk over Zb and the next anchor, taken at
    its grid time (ts[0] + 2pi after the last block); that walk must land on
    the next anchor in the anchor chain's order."""
    N, n = Z.shape
    b = a + len(Zb)
    t_next = ts[b + 1] if b + 1 < N else ts[0] + 2.0 * np.pi
    rows = np.concatenate((Zb, Z[(b + 1) % N][None]))
    C = _continue(Z[a], ts[a], rows, np.append(ts[a + 1 : b + 1], t_next), solver)
    if np.any(C[-1] != np.arange(n)):
        raise TrackingAmbiguity(
            f"the grid walk from t = {ts[a]:.6f} did not reach the next anchor "
            "in the anchor chain's order"
        )
    Z[a + 1 : b + 1] = np.take_along_axis(Zb, C[:-1], axis=1)


def _solve_grid(solver, ts):
    """Raw root sets at every t in ts; NonConvergence at the first failure."""
    Z, ok = solver(np.exp(1j * ts))
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise NonConvergence(f"root solve failed at t = {ts[bad]:.6f}")
    return Z


def _windings(z_curve, points):
    """Discrete winding numbers of a closed node loop about each point."""
    v = z_curve[:, None] - np.asarray(points)[None, :]
    ang = np.angle(np.roll(v, -1, axis=0) / v).sum(axis=0) / (2.0 * np.pi)
    w = np.rint(ang)
    if np.abs(ang - w).max() > 0.01:
        raise ComponentCountMismatch(
            "winding numbers did not settle near integers; sampling too coarse"
        )
    return w.astype(np.int64)


def trace(R, N=None, check_good=True):
    """Sample all boundary curves of {|R| >= 1} on a uniform t grid of size N.

    An explicit N must be a power of two, 64 <= N <= 65536, and is used as
    given.  N=None uses start_n of the map's largest critical-value modulus.
    The map must classify as GOOD (skippable with check_good=False for
    diagnostic runs on bad maps, where one of the tracking errors below is
    the expected outcome).

    Raises TrackingAmbiguity when continuation cannot be disambiguated even
    on steps bisected down to roundoff, ComponentCountMismatch when the
    curve/pole pairing is not one-to-one, and NonConvergence when node
    residuals miss NODE_RESIDUAL_TOL.
    """
    if N is not None:
        N = int(N)
        if not valid_n(N):
            raise ValueError(f"N must be a power of two in [64, {MAX_N}]")
    if check_good or N is None:
        verdict = is_n_good(R)
        if check_good and verdict.status is not Goodness.GOOD:
            raise ComponentCountMismatch(
                f"map classifies as {verdict.status.value} "
                f"(margin {verdict.margin:.3e}); boundary tracing needs a good map"
            )
    if N is None:
        N = start_n(verdict.data.max_cv_modulus)
    return _trace(R, N)


def _row_solver(R):
    """trace's row kernels, from the residues and poles alone: solver(ws,
    Z0=None) returns the roots of R(z) = w for every w in ws and a success
    flag per row, from the guesses Z0 (broadcast) or cold from the poles;
    polish(ws, Z) polishes one guess row per w, with a flag per row."""
    a, p, tol = R.residues, R.poles, numerics.DEFAULT_ROOT_TOL

    def solver(ws, Z0=None):
        return numerics.solve_pf_rows(a, p, ws, tol, Z0)

    def polish(ws, Z):
        return numerics.polish_pf_rows(a, p, ws, Z, tol)

    return solver, polish


def _trace(R, N):
    """trace at the grid size N, for a map already classified."""
    n = R.n
    solver, polish = _row_solver(R)
    ts = 2.0 * np.pi * np.arange(N) / N
    S = min(_ANCHOR_STRIDE, N // 64)
    Za = _solve_grid(solver, ts[::S])
    # Seeds: the n distinct t = 0 roots of the first anchor row, one per
    # component for a good map.  Which root lies on which component is
    # settled after tracing by winding numbers; no geometric heuristic here
    # (nearest-pole grouping misfires on good maps whose residue mass sits
    # close to a neighboring component).
    Z = _order_chain(Za, ts[::S], solver)
    if S > 1:
        Z, block_ok = _fill(R, Z, ts, polish)
        bad = np.flatnonzero(~block_ok)
        if bad.size:
            rows = (bad[:, None] * S + np.arange(1, S)).ravel()
            Zb = _solve_grid(solver, ts[rows]).reshape(bad.size, S - 1, n)
            for j, Zj in zip(bad, Zb):
                _refill(Z, ts, j * S, Zj, solver)

    # R = sum a/(z - p) and |R'| = |sum a/(z - p)^2| from one pole-distance
    # tensor; no pole-proximity guard (nodes stay away from poles)
    inv = 1.0 / (Z[..., None] - R.poles)
    resid = np.abs(np.abs(inv @ R.residues) - 1.0).max()
    if resid > NODE_RESIDUAL_TOL:
        raise NonConvergence(
            f"node residual {resid:.3e} exceeds {NODE_RESIDUAL_TOL:.1e}"
        )

    speed = 1.0 / np.abs(np.square(inv, out=inv) @ R.residues)
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
