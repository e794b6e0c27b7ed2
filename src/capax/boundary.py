"""Tracing the level set |R(z)| = 1 and integrating along it.

For a good map the level set splits into n analytic Jordan curves, one around
each pole, and R restricted to each curve is a bijection onto the unit circle.
Each curve is therefore parametrized by t in [0, 2pi) through R(z(t)) = e^{it},
and all n curves are sampled on one uniform t grid by following the n roots of
R(z) = e^{it} as t advances.  Only the residues and poles of R enter.

The root sets come from numerics.solve_pf_rows, the partial-fraction Aberth
kernel (the one iteration for every row) with an eigensolver fallback.  Its
residual check, numerics.pf_rows_ok, is the one test a node passes: a row it
rejects raises NonConvergence, and no later pass checks a node again.  Every
S-th node (S = min(8, N/64): 2 at N = 128, 8 from N = 512) is an anchor,
solved cold from second-order starts near the poles (numerics._cold_start).
Each node between two anchors is solved warm from the second-order Taylor
step z + h z' + (h^2/2) z'' off its left anchor's raw roots, with z' and z''
from R(z(t)) = e^{it} and the R' and R'' of the anchor's reciprocals
1/(z - p); a row the warm iteration does not settle goes to the eigensolver
like any other.
One walk (_order_chain) then puts all N rows in order: from the first row it
matches every hop over the raw rows at their grid times in one batch, in the
solver's raw root order, by nearest neighbor with a factor-2 stability margin,
and composes the hop permutations.  It checks solver order first: a hop
whose every root's nearest new root keeps its index, with the margin, is the
identity, and only the other hops take the argmin rule (63 of the 131157
hops that the 32 near-marginal benchmark maps match).  A failed hop is
bisected: its midpoint is solved warm from the hop's left row, and only a
half that still fails is bisected again, down to a width at roundoff, before
giving up.  The walk closes on the first row at ts[0] + 2pi, where it must
come back unpermuted.  Warm starts only save iterations: every row is
matched as a raw root set, and each row is solved independently of its
batch.  The windings that pair curves with poles are one pass over all
curves and poles, and look only at the polygon edges that cross a pole's
horizontal line.

A real map, every residue and pole with imaginary part exactly 0, has
R(conj z) = conj R(z), so the roots at 2pi - t are the conjugates of the
roots at t.  Its trace solves the anchors and fill rows of t in [0, pi]
only and sets raw row N - i to the conjugate of raw row i; the walk, the
speeds and the windings then run on all N rows.  Its sampling is marked
conjugate_symmetric, and every curve has z[N - i] == conj(z[i]) exactly.
Every other map, a conjugation-closed one with complex poles included,
solves all N rows.

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
    # set by trace for a real map: every curve has z[N - i] == conj(z[i])
    conjugate_symmetric: bool = False

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
    reordering prev[m] only reorders perm[m].  All rows are checked in
    solver order first; only the rows where that check fails go through
    the argmin rule of _nearest_rows, and every row gets the perm and ok
    that rule would give it.
    """
    M, n = prev.shape
    D = _distances(prev, new)
    # solver order first: root i keeps index i when every other new root is
    # farther than new[i] and at least STABILITY_RATIO times as far; that is
    # exactly when the rule below returns the identity and accepts it
    Df = D.reshape(n * n, M)
    d = Df[:: n + 1].copy()
    Df[:: n + 1] = np.inf
    other = D.min(axis=0)
    stay = ((other > d) & (other >= STABILITY_RATIO * d)).all(axis=0)
    perm, ok = np.tile(np.arange(n), (M, 1)), np.ones(M, dtype=bool)
    rest = np.flatnonzero(~stay)
    if rest.size:
        perm[rest], ok[rest] = _nearest_rows(prev[rest], new[rest])
    return perm, ok


def _distances(prev, new):
    """Roots-major (n, n, M) distances D[j, i, m] = |new[m, j] - prev[m, i]|,
    so that every min over j runs over the leading axis."""
    return np.abs(np.ascontiguousarray(new.T)[:, None, :] - np.ascontiguousarray(prev.T))


def _nearest_rows(prev, new):
    """_match_rows' rule for any batch: each root's nearest new root, then
    the injectivity and stability tests."""
    D = _distances(prev, new)
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
    ordered (N, n) array, Z itself when no hop moves a root (on the
    benchmark bank, no trace's hop does); raises TrackingAmbiguity on
    irreparable ambiguity
    and ComponentCountMismatch when the walk comes back permuted.
    """
    W = np.roll(Z, -1, axis=0)
    tw = np.append(ts[1:], ts[0] + 2.0 * np.pi)
    perm, ok = np.empty(Z.shape, dtype=np.intp), np.empty(len(Z), dtype=bool)
    for b in numerics._row_blocks(*Z.shape):
        perm[b], ok[b] = _match_rows(Z[b], W[b])
    for i in np.flatnonzero(~ok):
        perm[i] = _refine_gap(Z[i], ts[i], tw[i], W[i], solver)
    if (perm == np.arange(Z.shape[1])).all():
        return Z  # no hop moves a root: the raw rows are already in order
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


def _windings(Z, points):
    """Winding numbers W[c, k] of the closed polygon through the node row
    Z[c] about points[k], for every curve of the (curves, N) array Z in one
    pass: the signed crossings of the ray to the right of each point, an
    edge counting when it goes up through the ray's line with the point on
    its left, or down with the point on its right.  Only the edges whose
    ends lie on opposite sides of a point's line are looked at; a closed
    curve crosses each line a few times, not N.  The curves go in blocks of
    about numerics._BLOCK_ENTRIES (curve, point, node) entries, one block at
    the default N up to degree 16, so memory stays flat in n^2 N."""
    points, (C, N) = np.asarray(points), Z.shape
    P = points.size
    W = np.empty((C, P), dtype=np.intp)
    step = max(1, numerics._BLOCK_ENTRIES // (P * N))
    for s in range(0, C, step):
        Zb = Z[s : s + step]
        above = Zb.imag[:, None, :] > points.imag[:, None]  # [c, k, e]: Im z_ce > Im point_k
        c, k, e = np.nonzero(above != np.roll(above, -1, axis=2))
        a = Zb[c, e] - points[k]
        b = Zb[c, (e + 1) % N] - points[k]
        left = a.real * b.imag - a.imag * b.real  # > 0: the point is left of a -> b
        side, ck = above[c, k, e], c * P + k
        up = np.bincount(ck[~side & (left > 0)], minlength=len(Zb) * P)
        down = np.bincount(ck[side & (left < 0)], minlength=len(Zb) * P)
        W[s : s + step] = (up - down).reshape(-1, P)
    return W


def trace(R, N=None):
    """Sample all boundary curves of {|R| >= 1} on a uniform t grid of size N.

    An explicit N must be a power of two, 64 <= N <= 65536, and is used as
    given.  N=None uses start_n of the map's largest critical-value modulus.
    The map must classify as GOOD; a map caches its critical data, so
    classifying it again costs no root solve.

    Raises TrackingAmbiguity when continuation cannot be disambiguated even
    on steps bisected down to roundoff, ComponentCountMismatch when the
    curve/pole pairing is not one-to-one, and NonConvergence when a row
    solve fails (numerics.pf_rows_ok rejects its roots even after the
    eigensolver).
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
    a, p = R.residues, R.poles

    def solver(ws, Z0=None):
        return numerics.solve_pf_rows(a, p, ws, Z0)

    return solver


def _trace(R, N):
    """trace at the grid size N, for a map already classified."""
    n = R.n
    solver = _row_solver(R)
    ts = 2.0 * np.pi * np.arange(N) / N
    S = min(_ANCHOR_STRIDE, N // 64)
    # a real map has R(conj z) = conj R(z), so the roots at 2pi - t are the
    # conjugates of those at t: only rows 0..N/2 (t in [0, pi]) are solved
    real = not (R.poles.imag.any() or R.residues.imag.any())
    M = N // 2 + 1 if real else N
    Z = _solve_grid(solver, ts[:M:S])
    if S > 1:
        # fill rows start from the Taylor step z + h z' + (h^2/2) z'' at
        # their raw left anchor: R(z(t)) = e^{it} gives z' = i e^{it}/R' and
        # z'' = z' (i - z' R''/R'); the guess only saves iterations, never
        # orders
        inv = np.divide(1.0, np.subtract(Z.reshape(-1, 1), R.poles))  # flat (rows * n, n)
        sq = inv * inv
        d1 = -(sq @ R.residues).reshape(-1, n)  # R'
        d2 = 2.0 * (np.multiply(sq, inv, out=sq) @ R.residues).reshape(-1, n)  # R''
        dz = 1j * np.exp(1j * ts[:M:S])[:, None] / d1
        ddz = dz * (1j - dz * d2 / d1)
        h = ts[None, :S, None]
        Z = (Z[:, None] + h * dz[:, None] + (0.5 * h * h) * ddz[:, None]).reshape(-1, n)[:M]
        fill = np.arange(M) % S != 0
        Z[fill] = _solve_grid(solver, ts[:M][fill], Z[fill])
    if real:
        Z = np.concatenate((Z, Z[N // 2 - 1 : 0 : -1].conj()))
    # Seeds: the n distinct t = 0 roots of the first anchor row, one per
    # component for a good map.  Which root lies on which component is
    # settled after tracing by winding numbers; no geometric heuristic here
    # (nearest-pole grouping misfires on good maps whose residue mass sits
    # close to a neighboring component).
    Z = _order_chain(Z, ts, solver)

    # |dz/dt| = 1/|R'| with R' = -sum a/(z - p)^2, one row block at a time;
    # no pole-proximity guard (pf_rows_ok fails a root at a pole)
    speed = np.empty(Z.shape)
    for b in numerics._row_blocks(N, n):
        inv = np.subtract(Z[b].reshape(-1, 1), R.poles)  # one flat (rows * n, n) product
        np.divide(1.0, inv, out=inv)
        speed[b] = (1.0 / np.abs(np.square(inv, out=inv) @ R.residues)).reshape(-1, n)
    curves = []
    for c, w in enumerate(_windings(Z.T, R.poles)):
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
    return BoundarySampling(
        curves=curves, N=N, total_arclength=total, weights=weights, conjugate_symmetric=real
    )


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
