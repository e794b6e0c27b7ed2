"""Two-sided analytic capacity bounds from boundary quadrature.

Candidate functions live in the complex span of (z - p)^{-j} for p in a pole
set S and 1 <= j <= k.  With the boundary inner product
<f, g> = (1/2pi) integral f conj(g) |dz|, two quadratic programs give

    upper:  min over g = 1 + span  of  ||g||^2      = c0 - w^H G^{-1} w
    lower:  max over h in span of 2 Re h'(inf) - ||h||^2 = b^H G^{-1} b

where G is the Hermitian Gram matrix G_rs = <phi_r, phi_s>, w_r = <phi_r, 1>,
and b is 1 on the simple poles (z - p)^{-1}, the only elements with
phi'(inf) nonzero, and 0 elsewhere; for f = sum c_r phi_r and x = conj(c),
||f||^2 = x^H G x and <f, 1> = x^H w.  Both values bracket the capacity of
{|R| >= 1} for every k, and tighten monotonically as the spans grow.

Each element has one slot, its complex coefficient: the m x m Hermitian G
has the same rows as the 2m x 2m real system of the real and imaginary
coefficients, at half the order.  The basis is order-major: all of S at
j = 1, then all of S at j = 2, and so on, so the span for k is the first
|S| k elements and its Gram is the leading block of the kmax Gram.  One
Cholesky factor L of the equilibrated kmax Gram D^{-1} G D^{-1} = L L^H is
then the factor of every leading block, and with the two triangular solves
y_w = L^{-1} D^{-1} w and y_b = L^{-1} D^{-1} b every row is a prefix sum,
monotone in k by construction:

    u_k = c0 - sum_{s < |S| k} |y_w[s]|^2,    l_k = sum_{s < |S| k} |y_b[s]|^2.

The quadrature weights lam are folded into the basis: row (p, j) holds
sqrt(lam) (z - p)^{-j}, built by cumulative products from the row
sqrt(lam) of the constant function 1.  The array is laid out by grid index
mod 4, one C-contiguous (1 + m, nodes/4) block per class.  Each complex row
is split in place into its real and imaginary rows, so the class block
becomes a real (2 + 2m, nodes/4) matrix X, and X X^T is one real symmetric
rank-k update (BLAS syrk, through numpy's matmul) per class, with the same
flops as the complex Hermitian one.  Its (m, m) blocks P_uv are the products
of the real (e) and imaginary (o) parts, and the complex Gram is
(P_ee + P_oo) + i (P_oe - P_eo), exactly Hermitian since X X^T is exactly
symmetric; its row 0, of the constant function, gives conj(w).  The factor
and both triangular solves are plain numpy for either dtype: Cholesky, then
blockwise exact substitution.

A real map's nodes are conjugate-symmetric (boundary.trace): the node at
2pi - t is the conjugate of the node at t, with the same weight.  For a real
S every element then has phi(conj z) = conj phi(z), so over each conjugate
pair of nodes the complex Gram, and w, are real, on each of the three grids,
and the system is real (float64).  Its products need no split: row r of the
float64 view of the complex class block interleaves Re and Im of element r,
so one product of that (1 + m, nodes/2) view with its transpose is the real
part of the complex Gram, half the flops of the split product.

The class Grams C_0..C_3 give the trapezoid Grams of the nested grids for
free: C_N = C_0 + C_1 + C_2 + C_3, C_{N/2} = 2 (C_0 + C_2) and C_{N/4} =
4 C_0, and likewise for w and c0.  The computed extremal functions
g_k = 1 - sum x phi and h_k = sum z phi are fixed functions whose norms the
rows are, so the change of a row from N to N/2 and from N/2 to N/4 is a
quadratic form in the difference systems, with no second factorization.  The
largest such change over all rows is the quadrature-error estimate
quad_error, and a run is certified only when it is at most QUAD_TOL.  With
N=None the trace starts at the resolution chosen from the critical values
(boundary.start_n, 128 for max |critical value| < 0.75) and N doubles, up
to boundary.DEFAULT_N, while a well conditioned run misses QUAD_TOL.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import DEFAULT_N, _windings, trace
from .errors import EmptyBasis, IllConditioned

COND_LIMIT = 1e12
RIDGE_REL = 1e-14
DEFAULT_TOL = 1e-6
QUAD_TOL = 1e-8
_SPLIT_ROWS = 16  # complex basis rows per class de-interleaved at a time
_SOLVE_BLOCK = 48  # diagonal block size of the triangular solves


@dataclass(frozen=True)
class BasisSpec:
    S: np.ndarray
    k: int
    elements: list  # [(pole, j)] ordered by (j, then index into S)


def enumerate_basis(R, k, S_override=None):
    """Basis elements (z - p)^{-j}, p in S, 1 <= j <= k, order-major: every
    point of S at j = 1, then every point of S at j = 2, and so on.

    S defaults to the poles of R, which meets every component of the
    complement interior; an override is the caller's responsibility to keep
    inside the sublevel complement (assemble_gram re-checks geometrically).
    """
    k = int(k)
    S = np.atleast_1d(
        np.asarray(R.poles if S_override is None else S_override, dtype=np.complex128)
    )
    if k < 1 or S.size == 0:
        raise EmptyBasis(f"no basis elements for k = {k}, |S| = {S.size}")
    elements = [(complex(p), j) for j in range(1, k + 1) for p in S]
    return BasisSpec(S=S, k=k, elements=elements)


@dataclass(frozen=True)
class GramSystem:
    """The Gram system of m basis elements, one slot per element: entry r
    belongs to element r, whose coefficient c_r enters as x_r = conj(c_r).
    G and w are complex, or real (float64) on conjugate-symmetric nodes with
    a real S, where the complex Gram and w are real."""

    G: np.ndarray  # (m, m) Hermitian, positive definite up to roundoff
    w: np.ndarray  # (m,)  <phi_r, 1>
    b: np.ndarray  # (m,)  phi_r'(infinity): 1 at j = 1, else 0 (float64)
    c0: float  # arclength / 2pi
    # the changes of (G, w, c0) from grid N to N/2 and from N/2 to N/4; b is
    # exact, so their b is zero
    steps: tuple = ()


def _basis_values(S, k, z, scale):
    """Rows scale * (z - p)^{-j} over the node array z of shape (..., q),
    p in S, 0 <= j <= k, via cumulative products: row 0 is scale itself (the
    constant function 1, the one element with j = 0), then the elements in
    the order of enumerate_basis; the result has shape (..., 1 + |S| k, q).

    The last block of rows holds 1/(z - p) until the last product overwrites
    it in place, so no second node-sized array is allocated."""
    n = S.size
    B = np.empty(z.shape[:-1] + (1 + n * k, z.shape[-1]), dtype=np.complex128)
    inv = B[..., 1 + (k - 1) * n :, :]
    np.reciprocal(np.subtract(z[..., None, :], S[:, None], out=inv), out=inv)
    B[..., 0, :] = scale
    prev = B[..., :1, :]
    for j in range(k):
        prev = np.multiply(prev, inv, out=B[..., 1 + j * n : 1 + (j + 1) * n, :])
    return B


def _check_poles_inside(sampling, S):
    """Each point of S must lie inside exactly one boundary curve.  trace has
    already found each curve's enclosed pole, and only that pole, inside it,
    so only the other points of S are wound, about every curve in one pass."""
    traced = {c.enclosed_pole for c in sampling.curves}
    S = np.array([p for p in S if complex(p) not in traced])
    if not S.size:
        return
    Z = np.stack([c.z for c in sampling.curves])
    for p in S:
        if np.abs(Z - p).min() <= 1e-9:
            raise ValueError(f"basis pole {p} sits on the sampled boundary")
    total = np.abs(_windings(Z, S)).sum(axis=0)
    for p, count in zip(S, total):
        if count != 1:
            raise ValueError(
                f"basis pole {p} is not inside exactly one boundary component"
            )


def _by_class(a):
    """(n, N) per-curve node rows -> (4, n N/4), row c holding the nodes
    whose grid index is c mod 4."""
    n, N = a.shape
    return a.reshape(n, N // 4, 4).transpose(2, 0, 1).reshape(4, -1)


def _split_rows(B):
    """Rewrite the complex (4, r, q) basis array in place as the real
    (4, 2r, q) array of its real and imaginary rows: row 2i holds Re B[:, i]
    and row 2i+1 holds Im B[:, i].

    A complex row is the real row [re, im, re, im, ...], so de-interleaving
    it in place gives the two rows.  _SPLIT_ROWS rows of a class at a time
    pass through one small buffer, so no second basis-sized array is
    allocated."""
    q = B.shape[-1]
    F = B.view(np.float64)
    buf = np.empty((_SPLIT_ROWS, 2, q))
    for Fc in F:
        for r in range(0, Fc.shape[0], _SPLIT_ROWS):
            blk = Fc[r : r + _SPLIT_ROWS]
            tmp = buf[: blk.shape[0]]
            np.copyto(tmp, blk.reshape(-1, q, 2).transpose(0, 2, 1))
            blk[...] = tmp.reshape(blk.shape)
    return F.reshape(4, -1, q)


def _hermitian(P):
    """The complex Gram of the products P of the split rows.

    P[..., 2r + u, 2s + v] holds the product of part u of element r with
    part v of element s (0 the real part, 1 the imaginary one), so
    sum phi_r conj(phi_s) lam = (P_ee + P_oo) + i (P_oe - P_eo) for the
    (m, m) blocks P_uv = P[..., u::2, v::2]; since P is exactly symmetric,
    the result is exactly Hermitian."""
    H = np.empty(P.shape[:-2] + (P.shape[-2] // 2, P.shape[-1] // 2), dtype=np.complex128)
    np.add(P[..., 0::2, 0::2], P[..., 1::2, 1::2], out=H.real)
    np.subtract(P[..., 1::2, 0::2], P[..., 0::2, 1::2], out=H.imag)
    return H


def assemble_gram(sampling, basis):
    """Quadrature-level Gram system for one basis, with the difference
    systems of the nested grids N/2 and N/4 in its steps.

    Row 0 of the basis array is the constant function 1, so one product per
    class gives the Gram together with conj(w) in row 0.  The system is real
    on conjugate-symmetric nodes with a real S and complex Hermitian
    otherwise (see GramSystem)."""
    _check_poles_inside(sampling, basis.S)
    z, lam = sampling.nodes()
    shape = sampling.weights.shape
    root = _by_class(np.sqrt(lam).reshape(shape))
    real = sampling.conjugate_symmetric and not basis.S.imag.any()
    # a high power of a small residue's basis element can overflow; the
    # Gram is then not finite, which is checked once below
    with np.errstate(over="ignore", invalid="ignore"):
        B = _basis_values(basis.S, basis.k, _by_class(z.reshape(shape)), root)
        # real: row r of the float view interleaves Re and Im of element r,
        # so X X^T is the real part of the complex Gram, the whole Gram there
        X = B.view(np.float64) if real else _split_rows(B)
        # X[c] @ X[c].T is a symmetric rank-k update (BLAS syrk) of class c
        P = X @ X.transpose(0, 2, 1)
        # in place: P[0] <- grid N, C_0 + C_1 + C_2 + C_3; P[1] <- the change
        # to N/2, C_0 - C_1 + C_2 - C_3; P[2] <- the change from N/2 to N/4,
        # 2 (C_0 - C_2); each one exactly symmetric
        np.add(P[1], P[3], out=P[3])
        np.add(P[0], P[2], out=P[1])
        np.subtract(P[0], P[2], out=P[2])
        P[2] *= 2.0
        np.add(P[1], P[3], out=P[0])
        np.subtract(P[1], P[3], out=P[1])
        G = P[:3] if real else _hermitian(P[:3])
    if not np.isfinite(G).all():
        raise IllConditioned(f"the Gram at k = {basis.k} is not finite: the basis overflows")
    c = lam.reshape(shape[0], -1, 4).sum(axis=(0, 1))
    # order-major: the first |S| elements are the simple poles, j = 1
    b = np.zeros(len(basis.elements))
    b[: basis.S.size] = 1.0
    # row and column 0 belong to the constant function 1, and G[0, r] is
    # <1, phi_r>, so w_r = <phi_r, 1> is its conjugate
    steps = tuple(
        GramSystem(G=G[i, 1:, 1:], w=G[i, 0, 1:].conj(), b=np.zeros_like(b), c0=float(dc))
        for i, dc in ((1, c[0] - c[1] + c[2] - c[3]), (2, 2.0 * (c[0] - c[2])))
    )
    return GramSystem(G=G[0, 1:, 1:], w=G[0, 0, 1:].conj(), b=b, c0=float(lam.sum()), steps=steps)


def _back_substitute(U, Y):
    """X with U X = Y for an upper triangular U with a positive diagonal.

    Blocks of rows are solved from the bottom up: each diagonal block goes to
    np.linalg.solve, whose partial pivoting never swaps rows of an upper
    triangular block (every entry below the diagonal is zero), so its LU
    factors are I and the block itself and the solve is exact back
    substitution; one matrix product then eliminates the block from the rows
    above."""
    X = np.array(Y, dtype=np.result_type(U, Y))
    for hi in range(U.shape[0], 0, -_SOLVE_BLOCK):
        lo = max(hi - _SOLVE_BLOCK, 0)
        X[lo:hi] = np.linalg.solve(U[lo:hi, lo:hi], X[lo:hi])
        X[:lo] -= U[:lo, lo:hi] @ X[lo:hi]
    return X


def _forward_substitute(L, Y):
    """X with L X = Y for a lower triangular L with a positive diagonal: the
    reversal J L J is upper triangular, and L X = Y is (J L J)(J X) = J Y."""
    return _back_substitute(np.ascontiguousarray(L[::-1, ::-1]), Y[::-1])[::-1]


def _solve_spd(G, rhs):
    """Half-solves y_i = L^{-1} D^{-1} rhs_i with the Cholesky factor L of the
    symmetrically equilibrated Gram D^{-1} G D^{-1} = L L^H, so that
    rhs_i^H G^{-1} rhs_i = |y_i|^2; for every leading block of G the same
    identity holds with the leading entries of y_i.  G is real symmetric or
    complex Hermitian, and L and y_i have its dtype (with complex rhs).

    Condition estimates above COND_LIMIT (or outright factorization failure)
    trigger a tiny relative ridge; the result is then flagged uncertified.
    By eigenvalue interlacing no leading block is worse conditioned than G.
    Returns (half-solves, certified, L, d).
    """
    d = np.sqrt(np.abs(np.diag(G)))
    d[d == 0] = 1.0
    Gs = G / d[:, None] / d[None, :]
    ev = np.linalg.eigvalsh(Gs)
    certified = True
    ridge = 0.0
    if ev[0] <= 0 or ev[-1] / ev[0] > COND_LIMIT:
        certified = False
        ridge = RIDGE_REL * np.trace(Gs).real / Gs.shape[0]
    for _ in range(4):
        try:
            L = np.linalg.cholesky(Gs + ridge * np.eye(Gs.shape[0]) if ridge else Gs)
            break
        except np.linalg.LinAlgError:
            certified = False
            ridge = max(ridge * 100.0, RIDGE_REL)
    else:
        raise IllConditioned("Gram factorization failed even with ridge fallback")
    ys = _forward_substitute(L, np.stack(rhs, axis=1) / d[:, None])
    return ys.T, certified, L, d


def _quad_error(gram, L, d, yw, yb, sizes):
    """Largest change of any row from grid N to N/2 and from N/2 to N/4.

    Row k's extremal functions are g_k = 1 - sum x_k phi and h_k = sum z_k phi
    with x_k = G_k^{-1} w_k and z_k = G_k^{-1} b_k on the leading block of
    size sizes[k-1]; one solve with L^H over the half-solves masked to each
    block gives them all.  The upper row is ||g_k||^2 and the lower row
    2 Re z_k^H b - ||h_k||^2 with b exact, so on a coarser grid they move by
    the difference system's Hermitian forms Re(x^H dG x) in x_k and z_k.

    Both changes count: near marginal the N -> N/2 change alone can fall
    short of the error at N even when the three levels contract (on the
    benchmark's 32 near-marginal maps at N = 4096 it fails to cover 7 of the
    19 that miss their reference; the larger of the two covers all 32).
    """
    mask = np.arange(d.size)[:, None] < sizes
    Y = np.concatenate((yw[:, None] * mask, yb[:, None] * mask), axis=1)
    U = _back_substitute(L.conj().T, Y) / d[:, None]
    X = U[:, : sizes.size]
    err = 0.0
    for step in gram.steps:
        # x_k^H dG x_k in the first kmax columns, z_k^H dG z_k in the rest;
        # the upper rows also move with c0 and w
        forms = (U.conj() * (step.G @ U)).sum(axis=0).real
        forms[: sizes.size] += step.c0 - 2.0 * (step.w.conj() @ X).real
        err = max(err, np.abs(forms).max())
    return float(err)


@dataclass(frozen=True)
class CapacityBounds:
    rows: list  # [(k, lower, upper)]
    R_prime_inf: complex
    map_echo: object
    N: int
    certified: bool
    quad_error: float = 0.0  # estimated trapezoid error of every row at N

    def row(self, k):
        for row in self.rows:
            if row[0] == k:
                return row
        raise KeyError(f"no row for k = {k}")

    @property
    def final(self):
        return self.rows[-1]


def bounds_sequence(R, kmax, N=None, S_override=None):
    """Bound rows for k = 1..kmax from a single boundary trace.

    The kmax Gram is assembled and factored once per trace.  In the
    order-major basis the span for k is the first |S| k elements, so row k
    reads the prefix sums of |y|^2 of the two half-solves at entry
    |S| k - 1.  certified is
    the condition test of the kmax Gram, which bounds every row's leading
    block, together with quad_error <= QUAD_TOL.

    An explicit N is used as given.  N=None traces at the automatic
    resolution and, while the Gram passes its condition test but quad_error
    exceeds QUAD_TOL, doubles N up to DEFAULT_N; an ill-conditioned Gram
    never escalates, since its nested-grid changes measure the ridge.
    """
    kmax = int(kmax)
    sampling = trace(R, N=N)
    basis = enumerate_basis(R, kmax, S_override=S_override)
    sizes = basis.S.size * np.arange(1, kmax + 1)
    while True:
        gram = assemble_gram(sampling, basis)
        (yw, yb), conditioned, L, d = _solve_spd(gram.G, [gram.w, gram.b])
        quad_error = _quad_error(gram, L, d, yw, yb, sizes)
        escalate = N is None and conditioned and quad_error > QUAD_TOL
        if not escalate or sampling.N >= DEFAULT_N:
            break
        sampling = trace(R, N=2 * sampling.N)
    lowers = np.cumsum((yb.conj() * yb).real)[sizes - 1].tolist()
    uppers = (gram.c0 - np.cumsum((yw.conj() * yw).real)[sizes - 1]).tolist()
    rows = list(zip(range(1, kmax + 1), lowers, uppers))
    return CapacityBounds(
        rows=rows,
        R_prime_inf=R.derivative_at_infinity(),
        map_echo=R,
        N=sampling.N,
        certified=conditioned and quad_error <= QUAD_TOL,
        quad_error=quad_error,
    )


class Ahlfors:
    """Verdict statuses for whether R could be extremal for its own level set."""

    NOT_AHLFORS = "not-ahlfors"
    CONSISTENT = "consistent-with-ahlfors"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AhlforsVerdict:
    status: str
    margin: float
    k_used: int


def verdict(bounds, tol=DEFAULT_TOL):
    """Compare the final bracket, widened by the quadrature-error estimate,
    with the derivative at infinity.

    A map is extremal only if its derivative at infinity is real, positive,
    and equal to the capacity; a lower bound beyond it by more than tol plus
    the estimate refutes extremality, a bracket containing it is consistent,
    anything else is numerically anomalous and reported inconclusive.
    """
    s = bounds.R_prime_inf
    k, low, up = bounds.final
    low, up = low - bounds.quad_error, up + bounds.quad_error
    if abs(s.imag) > 1e-12 or s.real <= 0:
        return AhlforsVerdict(status=Ahlfors.NOT_AHLFORS, margin=0.0, k_used=k)
    sr = s.real
    if low > sr + tol:
        return AhlforsVerdict(status=Ahlfors.NOT_AHLFORS, margin=low - sr, k_used=k)
    if low <= sr <= up:
        return AhlforsVerdict(status=Ahlfors.CONSISTENT, margin=up - low, k_used=k)
    return AhlforsVerdict(
        status=Ahlfors.INCONCLUSIVE, margin=max(low - sr, sr - up), k_used=k
    )
