"""Tracing the level set |R(z)| = 1 and integrating along it.

For a good map the level set splits into n analytic Jordan curves, one around
each pole, and R restricted to each curve is a bijection onto the unit circle.
Each curve is therefore parametrized by t in [0, 2pi) through R(z(t)) = e^{it},
and all n curves are sampled on one uniform t grid by following the n roots of
P(z) - e^{it} Q(z) as t advances.

The root sets come from numerics.solve_pf_rows, the partial-fraction Aberth
kernel with the companion eigensolver as its fallback.  Only every S-th node
(S = 8 once N >= 512) is solved this way, cold from the poles; the t = 0
anchor is also the seed of the continuation.  These anchors are ordered by
continuation: every hop between consecutive anchors is matched in one batch,
in the solver's raw root order, by nearest neighbor with a factor-2
stability margin; a failed hop is retried on locally halved steps, solved
warm from the roots at its left end, before giving up, and the hop
permutations are then composed.  The nodes between two anchors are filled by
a tangent predictor from the left anchor and Newton polishing.  A block (an
anchor, its fill nodes and the next anchor) is kept when every fill root
converged and every hop inside it is a stable identity match; otherwise its
fill nodes are solved cold and walked one grid step at a time, exactly as if
every node had been solved.  Warm starts only feed the matching, never the
nodes, and each row is solved independently of its batch, so that equality
holds bit for bit.

Uniform-grid (periodic trapezoid) sums over these analytic curves converge
geometrically, with a rate set by the critical value v nearest the unit
circle: the error decays roughly like |v|^N (Trefethen & Weideman, SIAM Rev.
56, 2014).  By default trace therefore chooses N from the critical values it
already computes to classify the map (start_n), and doubles it, up to
DEFAULT_N, while continuation stays ambiguous.  Each sampling stores its
trapezoid weights lam_i = |dz/dt|_i / N.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ComponentCountMismatch, NonConvergence, TrackingAmbiguity
from .ratmap import Goodness, as_fraction, is_n_good

DEFAULT_N = 4096  # the largest resolution chosen automatically
MAX_N = 1 << 16
AUTO_N_MIN = 256
AUTO_DECAY = 1e-16
NODE_RESIDUAL_TOL = 1e-9
STABILITY_RATIO = 2.0
_MAX_REFINE_DEPTH = 6
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
    with max_cv_modulus**N <= AUTO_DECAY, at most DEFAULT_N."""
    N = AUTO_N_MIN
    while N < DEFAULT_N and max_cv_modulus**N > AUTO_DECAY:
        N *= 2
    return N


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


def _match(prev, new):
    """One-row _match_rows: the permutation, or None if it is not stable."""
    perm, ok = _match_rows(prev[None], new[None])
    return perm[0] if ok[0] else None


def _compose(P):
    """Prefix compositions C[i] = P[i][P[i-1][...P[0]]] of the (M, n)
    permutation rows P, by log-depth doubling."""
    C = P.copy()
    s = 1
    while s < len(C):
        C[s:] = np.take_along_axis(C[s:], C[:-s], axis=1)
        s *= 2
    return C


def _walk(start, Z):
    """Match start -> Z[0] and every hop Z[r-1] -> Z[r] in one batch.

    Returns (perm, ok) per hop; each hop is matched in raw solver order.
    """
    return _match_rows(np.concatenate((start[None], Z[:-1])), Z)


def _refine_gap(left, t0, t1, solver, max_depth=_MAX_REFINE_DEPTH):
    """Re-walk (t0, t1] on successively halved substeps, at most
    2**max_depth, until every hop matches stably; returns the roots at t1 in
    the order of left.  Every substep is solved warm from left."""
    for depth in range(1, max_depth + 1):
        m = 1 << depth
        ts = t0 + (t1 - t0) * np.arange(1, m + 1) / m
        Z, solved = solver(np.exp(1j * ts), left)
        if not solved.all():
            continue
        perm, ok = _walk(left, Z)
        if ok.all():
            return Z[-1][_compose(perm)[-1]]
    raise TrackingAmbiguity(
        f"continuation between t = {t0:.6f} and t = {t1:.6f} stayed ambiguous "
        f"after {1 << max_depth} substeps; double N"
    )


def _continue(left, t0, Z, ts, solver, max_depth=_MAX_REFINE_DEPTH):
    """Order the raw root sets Z at ts by continuation from the ordered roots
    left at t0 < ts[0].

    Every hop is matched in raw solver order at once; only the hops that
    fail go to _refine_gap, and the hop permutations are then composed.
    """
    perm, ok = _walk(left, Z)
    lefts = np.concatenate((left[None], Z[:-1]))
    t_lefts = np.concatenate(([t0], ts[:-1]))
    for i in np.flatnonzero(~ok):
        refined = _refine_gap(lefts[i], t_lefts[i], ts[i], solver, max_depth)
        p = _match(refined, Z[i])
        if p is None:
            raise TrackingAmbiguity(
                f"continuation at t = {ts[i]:.6f} remained ambiguous after refinement"
            )
        perm[i] = p
    return np.take_along_axis(Z, _compose(perm), axis=1)


def _order_chain(Z, ts, z0, solver, max_depth=_MAX_REFINE_DEPTH):
    """Impose continuity in t on per-step root sets.  Returns the ordered
    (N, n) array; raises on irreparable ambiguity or nontrivial monodromy.
    """
    n = Z.shape[1]
    if _match(z0, Z[0]) is None:
        raise TrackingAmbiguity("seed roots did not match the first step")
    out = _continue(z0, ts[0], Z, ts, solver, max_depth)
    # closing the loop from t_{N-1} to 2pi must restore the seed assignment
    wrap = _match(out[-1], out[0])
    if wrap is None:
        refined = _refine_gap(out[-1], ts[-1], 2.0 * np.pi, solver, max_depth)
        wrap = _match(refined, out[0])
        if wrap is None:
            raise TrackingAmbiguity("closing step remained ambiguous after refinement")
    if np.any(wrap != np.arange(n)):
        raise ComponentCountMismatch(
            "tracking around the full circle permuted the roots; "
            "the level set does not split into n degree-1 curves"
        )
    return out


def _fill(R, Za, ts, polish):
    """Nodes of the grid ts between the ordered anchor rows Za = Z[::S].

    Each fill node is predicted from its left anchor along the tangent
    dz/dt = i e^{it} / R'(z) and then polished.  Returns the (N, n) nodes and,
    per block (an anchor, its S - 1 fill rows and the next anchor), whether
    every fill row converged and every hop of the block is a stable identity
    match, which is what the full-grid walk would have found.
    """
    N, (A, n) = ts.size, Za.shape
    S = N // A
    slope = 1j * np.exp(1j * ts[::S])[:, None] / R.derivative(Za)
    Z = (Za[:, None] + ts[None, :S, None] * slope[:, None]).reshape(N, n)
    fill = np.arange(N) % S != 0
    Z[fill], converged = polish(np.exp(1j * ts[fill]), Z[fill])
    perm, stable = _match_rows(Z, np.roll(Z, -1, axis=0))
    good = stable & (perm == np.arange(n)).all(axis=1)
    good[fill] &= converged
    return Z, good.reshape(A, S).all(axis=1)


def _refill(Z, ts, a, Zb, solver):
    """Replace the fill rows after anchor row a by the eigensolved root sets
    Zb, ordered by the full-grid walk; that walk must land on the next anchor
    in the anchor chain's order."""
    N, n = Z.shape
    b = a + len(Zb)
    Z[a + 1 : b + 1] = _continue(Z[a], ts[a], Zb, ts[a + 1 : b + 1], solver)
    nxt = Z[(b + 1) % N]
    p = _match(Z[b], nxt)
    if p is None:
        p = _match(_refine_gap(Z[b], ts[b], 2.0 * np.pi * (b + 1) / N, solver), nxt)
    if p is None or np.any(p != np.arange(n)):
        raise TrackingAmbiguity(
            f"the grid walk from t = {ts[a]:.6f} did not reach the next anchor "
            "in the anchor chain's order"
        )


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
    given.  N=None starts at start_n of the map's largest critical-value
    modulus and doubles N, up to DEFAULT_N, while continuation stays
    ambiguous.  The map must classify as GOOD (skippable with
    check_good=False for diagnostic runs on bad maps, where one of the
    tracking errors below is the expected outcome).

    Raises TrackingAmbiguity when continuation cannot be disambiguated even
    on halved steps (at an explicit N the caller should double N),
    ComponentCountMismatch when the curve/pole pairing is not one-to-one,
    and NonConvergence when node residuals miss NODE_RESIDUAL_TOL.
    """
    if N is not None:
        N = int(N)
        if N < 64 or N > MAX_N or (N & (N - 1)) != 0:
            raise ValueError(f"N must be a power of two in [64, {MAX_N}]")
    if check_good or N is None:
        verdict = is_n_good(R)
        if check_good and verdict.status is not Goodness.GOOD:
            raise ComponentCountMismatch(
                f"map classifies as {verdict.status.value} "
                f"(margin {verdict.margin:.3e}); boundary tracing needs a good map"
            )
    if N is not None:
        return _trace(R, N)
    N = start_n(verdict.data.max_cv_modulus)
    while True:
        try:
            return _trace(R, N)
        except TrackingAmbiguity:
            if N >= DEFAULT_N:
                raise
            N *= 2


def _row_solver(R):
    """The root solver of trace: solver(ws, Z0=None) returns the roots of
    P - w Q for every w in ws, with a success flag per row, started from the
    guesses Z0 (broadcast over the rows) or cold from the poles."""
    P, Q = as_fraction(R)
    pc = np.zeros(R.n + 1, dtype=np.complex128)
    pc[: R.n] = P

    def solver(ws, Z0=None):
        return numerics.solve_pf_rows(
            R.residues, R.poles, pc, Q, ws, numerics.DEFAULT_ROOT_TOL, Z0
        )

    def polish(ws, Z):
        return numerics.polish_rows(pc, Q, ws, Z, numerics.DEFAULT_ROOT_TOL)

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
    # The anchor chain refines down to the same finest substep 2pi/(64N).
    depth = _MAX_REFINE_DEPTH + S.bit_length() - 1
    Z = _order_chain(Za, ts[::S], Za[0], solver, depth)
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
