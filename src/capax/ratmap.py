"""Rational maps in partial-fraction form and their critical-point calculus.

A map is R(z) = sum_j a_j / (z - p_j) with distinct poles p_j and nonzero
residues a_j.  R(infinity) = 0 and the derivative at infinity, the coefficient
of 1/z, is sum_j a_j.  The sublevel-set geometry downstream needs R,
preimages of circle points and the critical values, which live here, and
R' and R'' on its nodes, which boundary forms from the residues and poles.
Only the critical points expand R into polynomial coefficients.
"""

import enum
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numerics
from .errors import DuplicatePole, NonConvergence, PoleHit

POLE_SEP_MIN = 1e-10
RESIDUE_MIN = 1e-15
POLE_HIT_DIST = 1e-12
# half-width of is_n_good's MARGINAL band about max |critical value| = 1
GOOD_BAND = 1e-9

# trailing-coefficient cutoff (relative) when the critical numerator degenerates
_TRIM_REL = 64 * np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class RationalMapPF:
    """Partial-fraction rational map. Fields are complex128 arrays of equal
    length; construction validates pole distinctness and residue size."""

    residues: np.ndarray
    poles: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.residues, dtype=np.complex128))
        p = np.atleast_1d(np.asarray(self.poles, dtype=np.complex128))
        if a.shape != p.shape or a.ndim != 1 or a.size == 0:
            raise ValueError("residues and poles must be equal-length 1-d sequences")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
            raise ValueError("residues and poles must be finite")
        if np.any(np.abs(a) <= RESIDUE_MIN):
            raise ValueError(f"residues must exceed {RESIDUE_MIN} in modulus")
        if p.size > 1:
            sep = np.abs(p[:, None] - p[None, :])
            sep[np.diag_indices_from(sep)] = np.inf
            if sep.min() <= POLE_SEP_MIN:
                i, j = divmod(int(sep.argmin()), p.size)
                raise DuplicatePole(
                    f"poles {i} and {j} coincide within {POLE_SEP_MIN}: "
                    f"{p[i]} vs {p[j]}"
                )
        object.__setattr__(self, "residues", a)
        object.__setattr__(self, "poles", p)

    @classmethod
    def from_terms(cls, terms):
        terms = list(terms)
        return cls(
            residues=np.array([t[0] for t in terms], dtype=np.complex128),
            poles=np.array([t[1] for t in terms], dtype=np.complex128),
        )

    @property
    def n(self):
        return self.poles.size

    @property
    def terms(self):
        return [(complex(a), complex(p)) for a, p in zip(self.residues, self.poles)]

    def __call__(self, z):
        return evaluate(self, z)

    def derivative_at_infinity(self):
        """Coefficient of 1/z in the expansion at infinity: sum of residues."""
        return complex(self.residues.sum())

    def critical_data(self):
        return self._critical_data

    @cached_property
    def _critical_data(self):
        # a map is immutable, so one solve serves every classification of it
        return critical_data(self)


def evaluate(R, z):
    """R(z).  Scalars are summed smallest-magnitude first so the dominant
    term lands last; arrays use plain vectorized summation.

    Raises PoleHit when any evaluation point is within POLE_HIT_DIST of a pole.
    """
    zz = np.asarray(z, dtype=np.complex128)
    d = zz[..., None] - R.poles
    if np.abs(d).min() <= POLE_HIT_DIST:
        raise PoleHit(f"evaluation within {POLE_HIT_DIST} of a pole")
    t = R.residues / d
    if zz.ndim == 0:
        t = t[np.argsort(np.abs(t), kind="stable")]
        return complex(t.sum())
    return t.sum(axis=-1)


def preimages(R, w):
    """The n preimages of w (counted with multiplicity), by solve_pf_rows.

    w must be nonzero; the preimage of 0 is the point at infinity, which has
    no finite representative here.  The roots are accepted by
    numerics.pf_rows_ok, a residual test at the roundoff scale of R, so they
    keep their accuracy when the map is moved far from the origin.  Raises
    NonConvergence only when that row solve fails.
    """
    w = complex(w)
    if w == 0:
        raise ValueError("w = 0 has no finite preimages (R(infinity) = 0)")
    Z, ok = numerics.solve_pf_rows(R.residues, R.poles, np.array([w]))
    if not ok[0]:
        raise NonConvergence(f"the preimages of w = {w} failed the residual check")
    return Z[0]


@dataclass(frozen=True)
class CriticalData:
    critical_points: np.ndarray
    critical_values: np.ndarray
    infinity_critical: bool
    max_cv_modulus: float


def critical_numerator(R):
    """N(z) = -sum_j a_j prod_{k != j} (z - p_k)^2, so that R' = N / Q^2."""
    N = np.zeros(2 * R.n - 1, dtype=np.complex128)
    for j in range(R.n):
        others = np.delete(R.poles, j)
        N += numerics.poly_from_roots(np.concatenate([others, others])) * -R.residues[j]
    return numerics.poly_trim(N)


def critical_data(R):
    """Finite critical points and values of R.

    The degree of the critical numerator is 2n-2 exactly when sum a_j != 0;
    a deficient degree means infinity itself is critical (with value 0, which
    never dominates the max modulus).
    """
    full_deg = 2 * R.n - 2
    N = numerics.poly_trim(critical_numerator(R), rel=_TRIM_REL)
    deg = N.size - 1
    if deg < 1:
        cps = np.empty(0, dtype=np.complex128)
    else:
        cps = numerics.roots(N)
    # critical points never collide with poles: N(p_j) = -a_j prod (p_j-p_k)^2 != 0
    cvs = evaluate(R, cps) if cps.size else np.empty(0, dtype=np.complex128)
    cvs = np.atleast_1d(cvs)
    return CriticalData(
        critical_points=cps,
        critical_values=cvs,
        infinity_critical=deg < full_deg,
        max_cv_modulus=float(np.abs(cvs).max()) if cvs.size else 0.0,
    )


class Goodness(enum.Enum):
    GOOD = "good"
    NOT_GOOD = "not-good"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class GoodnessVerdict:
    status: Goodness
    margin: float  # 1 - max|critical value|; positive means inside the disk
    data: CriticalData = field(repr=False, default=None)


def is_n_good(R):
    """Classify R by its critical values.

    GOOD when every finite critical value has modulus < 1 - GOOD_BAND,
    NOT_GOOD when some modulus exceeds 1 + GOOD_BAND, MARGINAL in the closed
    band between.
    """
    data = R.critical_data()
    margin = 1.0 - data.max_cv_modulus
    if margin > GOOD_BAND:
        status = Goodness.GOOD
    elif margin < -GOOD_BAND:
        status = Goodness.NOT_GOOD
    else:
        status = Goodness.MARGINAL
    return GoodnessVerdict(status=status, margin=margin, data=data)


def affine_conjugate(R, a, b):
    """The map (a/|a|) R(a z + b): residues a_j/|a|, poles (p_j - b)/a.

    Conjugation preserves goodness and scales capacity bounds by 1/|a|.
    """
    a = complex(a)
    b = complex(b)
    if a == 0:
        raise ValueError("scale factor a must be nonzero")
    return RationalMapPF(residues=R.residues / abs(a), poles=(R.poles - b) / a)


def perturbed(R, extra_poles, eps):
    """R(z) + sum_j eps/(z - b_j) for new poles b_j, all with residue eps.

    Small eps keeps the map good while forcing it away from the extremal
    configuration; a warning is issued for any b_j with |R(b_j)| >= 1, since
    such a pole does not sit inside the sublevel region.
    """
    eps = float(eps)
    if eps <= RESIDUE_MIN:
        raise ValueError("eps must be positive (new residues must be nonzero)")
    extra = np.atleast_1d(np.asarray(extra_poles, dtype=np.complex128))
    for j, bj in enumerate(extra):
        if np.abs(bj - R.poles).min() <= POLE_SEP_MIN:
            raise DuplicatePole(f"extra pole {j} collides with an existing pole")
        if abs(evaluate(R, bj)) >= 1.0:
            warnings.warn(
                f"extra pole {bj} lies outside the unit sublevel region of R",
                stacklevel=2,
            )
    return RationalMapPF(
        residues=np.concatenate([R.residues, np.full(extra.size, eps, np.complex128)]),
        poles=np.concatenate([R.poles, extra]),
    )
