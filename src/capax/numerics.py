"""Root kernels: the partial-fraction solver behind trace, and roots.

The roots of R(z) = w for R = sum_j a_j/(z - p_j) and a batch of w, as trace
needs them, never see a polynomial: solve_pf_rows runs a batched Aberth
iteration on the partial fractions (aberth_rows), O(n) per root and step,
and falls back to one batched eigensolve of diag(p) + a 1^T/w.  A cold row
starts at the second-order roots p_j + a_j/(w - c_j) of _cold_start:
Aberth's cost is set by its starting points (Bini, Numer. Algorithms 13,
1996), and a start only saves iterations.  Every accepted row passes one
residual check (pf_rows_ok), the only place that accepts a root of
R(z) = w; no caller checks it again.  It takes its rows in blocks of
_row_blocks, as trace's other per-row passes over n x n tensors do.
aberth_rows runs each step in place in two (n, n, rows) buffers, with one
reciprocal per root pair and every complex product in a fixed operand order,
so that its roots are bit-identical to those of the dense formulation (the
(n, n, rows) gap tensor with an infinite diagonal) that the tests keep.

The polynomial helpers serve only ratmap.critical_data: it builds the
critical numerator with poly_from_roots, trims it with poly_trim, and finds
its roots with roots.  Polynomials are plain complex128 ndarrays in ascending
coefficient order, c[0] + c[1] z + ... + c[d] z^d; poly_trim accepts any
one-dimensional sequence and returns a copy whose leading coefficient is
nonzero (or that is one zero), so its degree is its size - 1.  The roots of
one polynomial (roots) come from companion-matrix eigenvalues, which are
backward stable (Edelman & Murakami, Math. Comp. 64, 1995), then Newton
polishing; _eval, the one Horner for p and p', serves both the polishing
and the residual check.
"""

import numpy as np

from .errors import NonConvergence

DEFAULT_ROOT_TOL = 1e-12

# two computed roots closer than this, relative to the poles' diameter
# max|p_j - p_k|, may legitimately be one multiple root; relative, so that
# moving or scaling a map by z -> a z + b moves no row to the eigensolver
CLUSTER_SEP = 1e-8

# aberth_rows: a row is frozen once every root's step is below this, relative
# to |z|; solve_pf_rows sends a row not frozen within _ABERTH_ITERS steps to
# the eigensolver
_ABERTH_STEP_REL = 1e-13
_ABERTH_ITERS = 12

# per-row passes over n x n tensors (solve_pf_rows, and trace's hop matching
# and node pass) take their rows in blocks of about this many (pole, root,
# row) entries: the (n, n, rows) tensors then stay in cache and memory stays
# flat in the number of rows
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(M, n):
    """Slices of about _BLOCK_ENTRIES / n^2 rows that cover M rows."""
    rows = max(1, _BLOCK_ENTRIES // n**2)
    return [slice(s, s + rows) for s in range(0, M, rows)]


def _pairs(n):
    """The index pairs (k, i), k < i < n, in row-major order (np.triu_indices
    at a fifth of its cost, which single-row solves pay on every call)."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


def poly_trim(c, rel=0.0):
    """Drop trailing coefficients that are zero (or below rel * max|c|)."""
    p = np.atleast_1d(np.asarray(c, dtype=np.complex128))
    if p.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    thresh = rel * np.abs(p).max() if p.size else 0.0
    d = p.size - 1
    while d > 0 and abs(p[d]) <= thresh:
        d -= 1
    return p[: d + 1].copy()


def poly_from_roots(roots):
    """Monic polynomial with the given roots (empty list gives 1)."""
    c = np.array([1.0 + 0j])
    for r in np.asarray(roots, dtype=np.complex128).ravel():
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c


def _eval(c, z):
    """Horner for p and p' at the points z, in place."""
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for k in range(c.size - 1, -1, -1):
        dp *= z
        dp += p
        p *= z
        p += c[k]
    return p, dp


def _polish(c, z, iters=3):
    """Newton-polish each root z of c, keeping a step only when the residual
    actually drops."""
    p, dp = _eval(c, z)
    for _ in range(iters):
        dps = np.where(dp == 0, 1.0, dp)
        zn = z - p / dps
        pn, dpn = _eval(c, zn)
        better = np.abs(pn) < np.abs(p)
        z = np.where(better, zn, z)
        p = np.where(better, pn, p)
        dp = np.where(better, dpn, dp)
    return z


def aberth_rows(a, p, ws, Z0):
    """Simultaneous Aberth iteration for the n roots of sum_j a_j/(z - p_j) = w,
    one row per w in ws, started from the guesses Z0: (len(ws), n), or one
    (n,) row for every w.

    The Newton correction of f = Q*(R - w), Q = prod (z - p_j), comes from the
    partial fractions in O(n) per root: f/f' = g/(g*sum 1/(z - p) + R') with
    g = R - w.  Each root takes the Aberth step N/(1 - N*sum_k 1/(z - z_k))
    over the other roots of its row (Aberth, Math. Comp. 27, 1973; Bini,
    Numer. Algorithms 13, 1996).  A row is frozen once every step of its
    roots falls below _ABERTH_STEP_REL relative.

    A row's result does not depend on the other rows of the batch.  The roots
    are held transposed, rows last, so every elementwise pass runs along the
    batch and every sum over poles or roots is a fixed-order sum over the
    leading axis.  A step runs in place in two (n, n, rows) buffers allocated
    once per call.  While every row is live the roots are updated where they
    lie; only a step that freezes rows compacts the live ones.  The
    repulsion sum takes one reciprocal per root pair, 1/(z_i - z_k) for
    k < i, and its negation for the mirror 1/(z_k - z_i): numpy's complex
    division gives 1/(-x) == -(1/x) bit for bit whenever the result is
    finite.  Every complex product keeps its operand order, since numpy's
    complex multiply is not bitwise commutative: no product is written as
    x * (temporary), which numpy may evaluate in place with the operands
    swapped.

    Returns (Z, done): done[r] is true when row r was frozen within
    _ABERTH_ITERS steps.  A root whose step is not finite (it met a pole or
    another root, or R' overflowed) stays where it is, and its row is never
    frozen.
    """
    n, M = p.size, len(ws)
    Zt = np.array(np.broadcast_to(Z0, (M, n)).T, dtype=np.complex128, order="C")
    done = np.zeros(M, dtype=bool)
    live, z, w = np.arange(M), Zt, ws
    # the two (n, n, live) tensors are C-ordered prefixes of these buffers
    buf = np.empty((2, n * n * M), dtype=np.complex128)
    k, i = _pairs(n)
    upper, lower = k * n + i, i * n + k
    a3, p3 = a[:, None, None], p[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ABERTH_ITERS):
            L = z.shape[1]
            inv, t = buf[:, : n * n * L].reshape(2, n, n, L)
            np.subtract(z, p3, out=inv)
            np.divide(1.0, inv, out=inv)  # [j, i, m] = 1/(z_im - p_j)
            np.multiply(inv, a3, out=t)
            g = t.sum(axis=0)
            g -= w  # R - w
            t *= inv
            den = inv.sum(axis=0)  # Q'/Q
            den *= g
            den -= t.sum(axis=0)  # + R'
            newton = g / den
            # t[k, i, m] = 1/(z_im - z_km): one reciprocal per pair k < i,
            # negated for its mirror, and 0 on the diagonal
            pair, zk = buf[:, : k.size * L].reshape(2, k.size, L)
            np.take(z, i, axis=0, out=pair, mode="clip")
            pair -= np.take(z, k, axis=0, out=zk, mode="clip")
            np.divide(1.0, pair, out=pair)
            tf = t.reshape(n * n, L)
            tf[upper] = pair
            tf[lower] = np.negative(pair, out=pair)
            tf[:: n + 1] = 0.0
            near = t.sum(axis=0)
            step = newton / (1.0 - newton * near)
            small = np.abs(step) <= _ABERTH_STEP_REL * np.abs(z)
            step[~np.isfinite(step)] = 0.0
            z -= step
            settled = small.all(axis=0)
            if settled.any():
                done[live[settled]] = True
                if z is not Zt:
                    Zt[:, live[settled]] = z[:, settled]
                keep = ~settled
                live, z, w = live[keep], z[:, keep], w[keep]
                if not live.size:
                    break
        if z is not Zt:
            Zt[:, live] = z
    return Zt.T.copy(), done


def pf_rows_ok(a, p, ws, Z):
    """Per row of Z (len(ws), n), whether every root z passes
    |R(z) - w| <= tol * (sum_j |a_j/(z - p_j)| + |z| sum_j |a_j|/|z - p_j|^2)
    with tol = DEFAULT_ROOT_TOL.  This is the one test that accepts a root
    of R(z) = w: trace and ratmap.preimages take its verdict as final.  The
    right side is the roundoff scale of R(z): the first sum bounds the
    rounding of the terms, the second bounds |z| |R'(z)|, the effect of
    rounding z itself, which dominates at a root near a pole far from the
    origin.  The second sum is read off the first as (|t_j|/|a_j|) |z| |t_j|
    with t_j = a_j/(z - p_j), in that order so that no product overflows
    before the term itself does.  As in aberth_rows, sums over poles run
    along the leading axis, so rows do not depend on their batch.  A root
    at a pole fails, and so does a root whose scale overflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.subtract(Z.T, p[:, None, None])
        np.divide(a[:, None, None], t, out=t)  # [j, i, m]: a_j/(z_im - p_j)
        at = np.abs(t)
        scale = at.sum(axis=0)
        u = at * (1.0 / np.abs(a))[:, None, None]  # 1/|z - p_j|
        u *= np.abs(Z.T)
        u *= at
        scale += u.sum(axis=0)
        ok = (np.abs(t.sum(axis=0) - ws) / scale <= DEFAULT_ROOT_TOL) & np.isfinite(scale)
        return ok.all(axis=0)


def _pf_eigvals(a, p, ws):
    """The roots of sum_j a_j/(z - p_j) = w for every w in ws, as the
    eigenvalues of diag(p) + a 1^T / w in one batched LAPACK call:
    det(zI - diag(p) - a 1^T/w) = Q(z) (1 - R(z)/w) with Q = prod (z - p_j)
    (Golub, SIAM Rev. 15, 1973)."""
    return np.linalg.eigvals((a / ws[:, None])[:, :, None] + np.diag(p))


def _cold_start(a, p, ws):
    """The second-order starts p_j + a_j/(w - c_j), one row per w in ws,
    with c_j = sum_{k != j} a_k/(p_j - p_k): near p_j, R(z) = w is
    a_j/(z - p_j) + c_j = w to first order in z - p_j.  For one pole c = 0
    and the start is exactly p + a/w.  A w equal to some c_j gives a start
    that is not finite; aberth_rows never freezes its row, which then goes
    to the eigensolver like any other."""
    gap = p[:, None] - p
    np.fill_diagonal(gap, 1.0)
    t = a / gap  # [j, k] = a_k/(p_j - p_k)
    np.fill_diagonal(t, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return p + a / (ws[:, None] - t.sum(axis=1))


def solve_pf_rows(a, p, ws, Z0=None):
    """The n roots of sum_j a_j/(z - p_j) = w for every w in ws: (Z, ok).

    aberth_rows starts at Z0 (one row for all, or one per w) or cold at
    _cold_start; a start only saves iterations, and a frozen Aberth root is
    already at roundoff.  A row that does not freeze, fails pf_rows_ok, or
    has two roots within CLUSTER_SEP times the pole diameter gets the
    eigenvalues of _pf_eigvals polished by aberth_rows, and passes on
    pf_rows_ok alone: near-double roots never freeze.  Rows go through all
    of this in blocks of _row_blocks, and each row is solved independently
    of the others.
    """
    Z0 = np.broadcast_to(_cold_start(a, p, ws) if Z0 is None else Z0, (len(ws), p.size))
    Z, ok = np.empty(Z0.shape, dtype=np.complex128), np.empty(len(ws), dtype=bool)
    i, j = _pairs(p.size)
    sep = CLUSTER_SEP * np.abs(p[i] - p[j]).max(initial=0.0)
    for b in _row_blocks(len(ws), p.size):
        w = ws[b]
        Zb, done = aberth_rows(a, p, w, Z0[b])
        okb = done & pf_rows_ok(a, p, w, Zb)
        okb &= (np.abs(Zb[:, i] - Zb[:, j]) >= sep).all(axis=1)
        redo = np.flatnonzero(~okb)
        if redo.size:
            Zb[redo] = aberth_rows(a, p, w[redo], _pf_eigvals(a, p, w[redo]))[0]
            okb[redo] = pf_rows_ok(a, p, w[redo], Zb[redo])
        Z[b], ok[b] = Zb, okb
    return Z, ok


def roots(c, tol=DEFAULT_ROOT_TOL):
    """All complex roots of a degree >= 1 polynomial.

    Companion-matrix eigenvalues of the monic polynomial, Newton-polished.
    Multiple or clustered roots come back as nearly repeated values; no
    deflation is attempted.

    Raises NonConvergence when any root r misses the documented residual
    bound |p(r)| <= tol * (1 + max|p|) * (1 + |r|)^deg.
    """
    p = poly_trim(c)
    d = p.size - 1
    if d < 1:
        raise ValueError("root finding needs degree >= 1")
    if not np.all(np.isfinite(p)):
        raise ValueError("polynomial coefficients must be finite")
    c = p / p[-1]
    A = np.diag(np.ones(d - 1, dtype=np.complex128), -1)  # the companion matrix
    A[:, -1] = -c[:-1]
    r = _polish(c, np.linalg.eigvals(A))
    res = np.abs(_eval(p, r)[0])
    bad = ~(res <= tol * (1.0 + np.abs(p).max()) * (1.0 + np.abs(r)) ** d)  # NaN is a miss
    if np.any(bad):
        raise NonConvergence(
            f"{int(bad.sum())} of {d} roots missed the residual bound "
            f"(worst |p(r)| = {res[bad].max():.3e}, tol = {tol:.1e})"
        )
    return r
