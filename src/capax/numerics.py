"""Complex polynomial arithmetic and a global root finder.

Polynomials are plain complex128 ndarrays in ascending coefficient order,
c[0] + c[1] z + ... + c[d] z^d, kept trimmed so the leading coefficient of a
nonzero polynomial is nonzero.  That array convention is the public contract;
everything here accepts any sequence and returns trimmed arrays.

Roots come from companion-matrix eigenvalues, which are backward stable
(Edelman & Murakami, Math. Comp. 64, 1995), followed by Newton polishing.
The same path serves one polynomial (roots) and a whole family
P(z) - w Q(z) in one batched LAPACK call (solve_rows).  The polish-and-check
tail of solve_rows is also open to root guesses from elsewhere (polish_rows),
so every accepted root passes the same residual test.
"""

import numpy as np

from .errors import NonConvergence

DEFAULT_ROOT_TOL = 1e-12

# two computed roots closer than this may legitimately be one multiple root
CLUSTER_SEP = 1e-8


def as_poly(c):
    p = np.atleast_1d(np.asarray(c, dtype=np.complex128))
    if p.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return p


def poly_trim(c, rel=0.0):
    """Drop trailing coefficients that are zero (or below rel * max|c|)."""
    p = as_poly(c)
    thresh = rel * np.abs(p).max() if p.size else 0.0
    d = p.size - 1
    while d > 0 and abs(p[d]) <= thresh:
        d -= 1
    return p[: d + 1].copy()


def poly_degree(c):
    p = poly_trim(c)
    if p.size == 1 and p[0] == 0:
        return -1  # zero polynomial
    return p.size - 1


def poly_add(a, b):
    pa, pb = as_poly(a), as_poly(b)
    if pa.size < pb.size:
        pa, pb = pb, pa
    out = pa.copy()
    out[: pb.size] += pb
    return poly_trim(out)


def poly_scale(a, s):
    return poly_trim(as_poly(a) * np.complex128(s))


def poly_mul(a, b):
    return poly_trim(np.convolve(as_poly(a), as_poly(b)))


def poly_from_roots(roots):
    """Monic polynomial with the given roots (empty list gives 1)."""
    c = np.array([1.0 + 0j])
    for r in np.asarray(roots, dtype=np.complex128).ravel():
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c


def poly_eval(c, z):
    """Horner evaluation; z may be a scalar or an ndarray."""
    p = as_poly(c)
    zz = np.asarray(z, dtype=np.complex128)
    out = np.full_like(zz, p[-1])
    for k in range(p.size - 2, -1, -1):
        out = out * zz + p[k]
    if np.isscalar(z) or zz.ndim == 0:
        return complex(out)
    return out


def residual_bound(cabs_max, z, degree, tol):
    """Documented acceptance bound tol*(1+max|c|)*(1+|z|)^degree."""
    return tol * (1.0 + cabs_max) * (1.0 + np.abs(z)) ** degree


def residual_ok(c, r, tol):
    """Backward-style acceptance: |p(r)| <= tol*(1+max|c|)*(1+|r|)^deg."""
    p = as_poly(c)
    bound = residual_bound(np.abs(p).max(), r, p.size - 1, tol)
    return np.abs(poly_eval(p, r)) <= bound


def _eval_rows(C, Z):
    """Horner on row-wise coefficients. C: (M, d+1), Z: (M, n) -> p, dp."""
    p = np.zeros_like(Z)
    dp = np.zeros_like(Z)
    for k in range(C.shape[1] - 1, -1, -1):
        dp = dp * Z + p
        p = p * Z + C[:, k : k + 1]
    return p, dp


def _polish_rows(C, Z, iters=3):
    """Newton-polish each root of each row, keeping a step only when the
    residual actually drops."""
    p, dp = _eval_rows(C, Z)
    for _ in range(iters):
        dps = np.where(dp == 0, 1.0, dp)
        Zn = Z - p / dps
        pn, dpn = _eval_rows(C, Zn)
        better = np.abs(pn) < np.abs(p)
        Z = np.where(better, Zn, Z)
        p = np.where(better, pn, p)
        dp = np.where(better, dpn, dp)
    return Z


def _companion_rows(C):
    """Companion matrices for monic rows C (M, n+1) with C[:, n] == 1."""
    M = C.shape[0]
    n = C.shape[1] - 1
    A = np.zeros((M, n, n), np.complex128)
    if n > 1:
        i = np.arange(n - 1)
        A[:, i + 1, i] = 1.0
    A[:, :, n - 1] = -C[:, :n]
    return A


def solve_rows(pc, qc, ws, tol):
    """Roots of pc - w*qc for every w in ws, with qc monic of degree n and
    pc of lower degree, padded to length n+1.

    Returns (Z, ok): Z (len(ws), n) in eigensolver order, and ok[r] true when
    every root of row r meets the residual bound of that row.
    """
    # roots of pc - w*qc == roots of the monic qc - pc/w (leading coeff -w)
    monic = qc[None, :] - pc[None, :] / ws[:, None]
    return polish_rows(pc, qc, ws, np.linalg.eigvals(_companion_rows(monic)), tol)


def polish_rows(pc, qc, ws, Z, tol):
    """Newton-polish guesses Z (len(ws), n) for the roots of pc - w*qc and
    check them; the arguments are those of solve_rows.

    Returns (Z, ok) with ok[r] true when every root of row r meets the
    residual bound of that row.  A row whose guesses drifted onto the same
    root can pass; callers that need distinct roots check that themselves.
    """
    monic = qc[None, :] - pc[None, :] / ws[:, None]
    Z = _polish_rows(monic, Z)
    # a last polish and the check on the rows as given, not their monic form
    C = pc[None, :] - ws[:, None] * qc[None, :]
    Z = _polish_rows(C, Z, 2)
    p, _ = _eval_rows(C, Z)
    bound = residual_bound(np.abs(C).max(axis=1, keepdims=True), Z, C.shape[1] - 1, tol)
    return Z, (np.abs(p) <= bound).all(axis=1)


def roots(c, tol=DEFAULT_ROOT_TOL):
    """All complex roots of a degree >= 1 polynomial.

    Companion-matrix eigenvalues of the monic polynomial, Newton-polished.
    Multiple or clustered roots come back as nearly repeated values; no
    deflation is attempted below a separation of CLUSTER_SEP.

    Raises NonConvergence when any root misses the documented residual bound.
    """
    p = poly_trim(c)
    d = poly_degree(p)
    if d < 1:
        raise ValueError("root finding needs degree >= 1")
    if not np.all(np.isfinite(p)):
        raise ValueError("polynomial coefficients must be finite")
    cm = (p / p[-1])[None, :]
    r = _polish_rows(cm, np.linalg.eigvals(_companion_rows(cm)))[0]
    bad = ~residual_ok(p, r, tol)
    if np.any(bad):
        worst = np.abs(poly_eval(p, r[bad])).max()
        raise NonConvergence(
            f"{int(bad.sum())} of {d} roots missed the residual bound "
            f"(worst |p(r)| = {worst:.3e}, tol = {tol:.1e})"
        )
    return r
