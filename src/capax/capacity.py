"""Two-sided analytic capacity bounds from boundary quadrature.

Candidate functions live in the real span of (z - p)^{-j} and i (z - p)^{-j}
for p in a pole set S and 1 <= j <= k.  With the boundary inner product
<f, g> = Re (1/2pi) integral f conj(g) |dz|, two quadratic programs give

    upper:  min over g = 1 + span  of  ||g||^2      = c0 - w^T G^{-1} w
    lower:  max over h in span of 2 Re h'(inf) - ||h||^2 = b^T G^{-1} b

where G is the real Gram matrix, w_r = <1, phi_r>, and b picks out the real
slots of the simple poles (z - p)^{-1}, the only elements with Re phi'(inf)
nonzero.  Both values bracket the capacity of {|R| >= 1} for every k, and
tighten monotonically as the spans grow.

Only the m x m complex Gram is ever integrated; multiplication by i acts on
it algebraically (the 2x2 real blocks below), which halves the quadrature
work and keeps the real matrix exactly structured.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .boundary import DEFAULT_N, trace
from .errors import EmptyBasis, IllConditioned

COND_LIMIT = 1e12
RIDGE_REL = 1e-14
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class BasisSpec:
    S: np.ndarray
    k: int
    elements: list  # [(pole, j)] ordered by (index into S, then j)


def enumerate_basis(R, k, S_override=None):
    """Basis elements (z - p)^{-j}, p in S, 1 <= j <= k, pole-major order.

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
    elements = [(complex(p), j) for p in S for j in range(1, k + 1)]
    return BasisSpec(S=S, k=k, elements=elements)


@dataclass(frozen=True)
class GramSystem:
    G: np.ndarray  # (2m, 2m) real, symmetric positive definite up to roundoff
    w: np.ndarray  # (2m,)  <1, phi_r>
    b: np.ndarray  # (2m,)  Re phi_r'(infinity)
    c0: float  # arclength / 2pi
    basis: BasisSpec = field(repr=False, default=None)


def _basis_values(elements, z):
    """Rows of (z - p)^{-j} over the node array, via cumulative powers."""
    B = np.empty((len(elements), z.size), dtype=np.complex128)
    cache = {}
    for r, (p, j) in enumerate(elements):
        if p not in cache:
            cache[p] = 1.0 / (z - p)
        B[r] = cache[p] ** j
    return B


def _realify(C, v, elements):
    """Real Gram and linear data from the complex Gram.

    Slot 2r is the real coefficient of element r, slot 2r+1 the imaginary
    one; the identities <i f, i g> = <f, g> and <f, i g> = Im <f, g>_C fill
    the 2x2 blocks without further integration.
    """
    m = C.shape[0]
    G = np.empty((2 * m, 2 * m), dtype=np.float64)
    G[0::2, 0::2] = C.real
    G[1::2, 1::2] = C.real
    G[0::2, 1::2] = C.imag
    G[1::2, 0::2] = -C.imag
    G = 0.5 * (G + G.T)
    w = np.empty(2 * m, dtype=np.float64)
    w[0::2] = v.real
    w[1::2] = -v.imag
    b = np.zeros(2 * m, dtype=np.float64)
    for r, (_, j) in enumerate(elements):
        if j == 1:
            b[2 * r] = 1.0
    return G, w, b


def _check_poles_inside(sampling, S):
    from .boundary import _windings

    z_all = np.concatenate([c.z for c in sampling.curves])
    for p in S:
        if np.abs(z_all - p).min() <= 1e-9:
            raise ValueError(f"basis pole {p} sits on the sampled boundary")
    total = sum(np.abs(_windings(c.z, S)) for c in sampling.curves)
    for p, count in zip(S, total):
        if count != 1:
            raise ValueError(
                f"basis pole {p} is not inside exactly one boundary component"
            )


def assemble_gram(sampling, basis):
    """Quadrature-level Gram system for one basis."""
    _check_poles_inside(sampling, basis.S)
    z, lam = sampling.nodes()
    B = _basis_values(basis.elements, z)
    Bw = B * lam
    C = Bw @ B.conj().T
    C = 0.5 * (C + C.conj().T)
    v = B @ lam.astype(np.complex128)
    G, w, b = _realify(C, v, basis.elements)
    return GramSystem(G=G, w=w, b=b, c0=float(lam.sum()), basis=basis)


def _solve_spd(G, rhs):
    """Solve G x = rhs_i by Cholesky after symmetric equilibration.

    Condition estimates above COND_LIMIT (or outright factorization failure)
    trigger a tiny relative ridge; the result is then flagged uncertified.
    Returns (solutions, certified).
    """
    d = np.sqrt(np.abs(np.diag(G)))
    d[d == 0] = 1.0
    Gs = G / d[:, None] / d[None, :]
    ev = np.linalg.eigvalsh(Gs)
    certified = True
    ridge = 0.0
    if ev[0] <= 0 or ev[-1] / ev[0] > COND_LIMIT:
        certified = False
        ridge = RIDGE_REL * np.trace(Gs) / Gs.shape[0]
    for _ in range(4):
        try:
            cf = scipy.linalg.cho_factor(
                Gs + ridge * np.eye(Gs.shape[0]) if ridge else Gs, lower=True
            )
            break
        except np.linalg.LinAlgError:
            certified = False
            ridge = max(ridge * 100.0, RIDGE_REL)
    else:
        raise IllConditioned("Gram factorization failed even with ridge fallback")
    xs = [scipy.linalg.cho_solve(cf, r / d) / d for r in rhs]
    return xs, certified


def upper_bound(gram):
    """c0 - w^T G^{-1} w: the best admissible upper estimate in this span."""
    (x,), _ = _solve_spd(gram.G, [gram.w])
    return float(gram.c0 - gram.w @ x)


def lower_bound(gram):
    """b^T G^{-1} b: the best admissible lower estimate in this span."""
    (x,), _ = _solve_spd(gram.G, [gram.b])
    return float(gram.b @ x)


def _bound_pair(gram):
    (xw, xb), certified = _solve_spd(gram.G, [gram.w, gram.b])
    return float(gram.c0 - gram.w @ xw), float(gram.b @ xb), certified


@dataclass(frozen=True)
class CapacityBounds:
    rows: list  # [(k, lower, upper)]
    R_prime_inf: complex
    map_echo: object
    N: int
    certified: bool

    def row(self, k):
        for row in self.rows:
            if row[0] == k:
                return row
        raise KeyError(f"no row for k = {k}")

    @property
    def final(self):
        return self.rows[-1]


def bounds_sequence(R, kmax, N=DEFAULT_N, S_override=None):
    """Bound rows for k = 1..kmax from a single boundary trace at resolution N.

    The full-k Gram is assembled once; every smaller k reuses its leading
    per-element blocks, so the whole sequence costs one quadrature pass plus
    kmax small solves.
    """
    kmax = int(kmax)
    sampling = trace(R, N=N)
    basis = enumerate_basis(R, kmax, S_override=S_override)
    gram = assemble_gram(sampling, basis)
    rows = []
    certified = True
    elems = gram.basis.elements
    for k in range(1, kmax + 1):
        keep = [r for r, (_, j) in enumerate(elems) if j <= k]
        slots = np.array([s for r in keep for s in (2 * r, 2 * r + 1)])
        sub = GramSystem(
            G=gram.G[np.ix_(slots, slots)],
            w=gram.w[slots],
            b=gram.b[slots],
            c0=gram.c0,
            basis=BasisSpec(S=basis.S, k=k, elements=[elems[r] for r in keep]),
        )
        u, l, cert = _bound_pair(sub)
        rows.append((k, l, u))
        certified &= cert
    return CapacityBounds(
        rows=rows,
        R_prime_inf=R.derivative_at_infinity(),
        map_echo=R,
        N=N,
        certified=certified,
    )


def bounds_sequence_adaptive(R, kmax, N=DEFAULT_N, tol=DEFAULT_TOL, n_limit=None):
    """bounds_sequence with resolution doubling until no row moves by more
    than tol (or the node limit is reached)."""
    from .boundary import MAX_N

    n_limit = MAX_N if n_limit is None else n_limit
    cur = bounds_sequence(R, kmax, N=N)
    while 2 * N <= n_limit:
        nxt = bounds_sequence(R, kmax, N=2 * N)
        move = max(
            max(abs(a[1] - b[1]), abs(a[2] - b[2]))
            for a, b in zip(cur.rows, nxt.rows)
        )
        cur, N = nxt, 2 * N
        if move <= tol:
            break
    return cur


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
    """Compare the final bracket with the derivative at infinity.

    A map is extremal only if its derivative at infinity is real, positive,
    and equal to the capacity; a lower bound beyond it refutes extremality,
    a bracket containing it is consistent, anything else is numerically
    anomalous and reported inconclusive.
    """
    s = bounds.R_prime_inf
    k, low, up = bounds.final
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
