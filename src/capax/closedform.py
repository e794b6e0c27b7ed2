"""Families with known extremal behavior, used as oracles for the engine.

Covered here: finite unions of real slits (capacity = total length / 4 and an
explicit extremal function), the rotationally symmetric family
a z^{n-1} / (z^n - 1), the complete degree-2 classification, and real-pole
maps with a sign criterion.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange, OnSlit
from .ratmap import Goodness, RationalMapPF, is_n_good

SLIT_DIST = 1e-12
_REAL_TOL = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint closed real intervals [c_j, d_j], strictly increasing."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(c), float(d)) for c, d in self.intervals)
        if not ivs:
            raise ValueError("need at least one interval")
        for c, d in ivs:
            if not c < d:
                raise ValueError(f"degenerate interval [{c}, {d}]")
        for (c0, d0), (c1, d1) in zip(ivs, ivs[1:]):
            if not d0 < c1:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def total_length(self):
        return sum(d - c for c, d in self.intervals)

    def distance(self, z):
        zz = np.asarray(z, dtype=np.complex128)
        dists = [
            np.abs(zz - np.clip(zz.real, c, d)) for c, d in self.intervals
        ]
        return np.min(dists, axis=0)


def interval_capacity(E):
    """Analytic capacity of a finite union of real slits: total length / 4."""
    return E.total_length / 4.0


def interval_ahlfors(E, z):
    """The extremal function of a real slit union.

    f = (prod_j ((z-c_j)/(z-d_j))^{1/2} - 1) / (prod + 1) with principal
    square roots; each factor ratio avoids the negative real axis off the
    slits, and the product stays in the right half-plane, so f maps into the
    unit disk and f(inf) = 0.  Points within SLIT_DIST of E raise OnSlit.
    """
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(E.distance(zz) <= SLIT_DIST):
        raise OnSlit(f"evaluation within {SLIT_DIST} of the slit set")
    prod = np.ones_like(zz)
    for c, d in E.intervals:
        prod = prod * np.sqrt((zz - c) / (zz - d))
    out = (prod - 1.0) / (prod + 1.0)
    if np.isscalar(z) or zz.ndim == 0:
        return complex(out)
    return out


def rotational_amplitude_bound(n):
    return n * (n - 1.0) ** ((1.0 - n) / n)


def rotational_map(n, a):
    """(a/n) sum_j 1/(z - omega^j) = a z^{n-1}/(z^n - 1) over the n-th roots
    of unity.  Good exactly for 0 < a < n (n-1)^{(1-n)/n}; the critical
    values all share modulus a (n-1)^{(n-1)/n} / n."""
    n = int(n)
    if n < 2:
        raise ValueError("rotational family needs n >= 2")
    a = float(a)
    bound = rotational_amplitude_bound(n)
    if not 0.0 < a < bound:
        raise AmplitudeOutOfRange(
            f"amplitude must lie in (0, {bound:.12g}); got {a}"
        )
    poles = np.exp(2j * np.pi * np.arange(n) / n)
    return RationalMapPF(residues=np.full(n, a / n, np.complex128), poles=poles)


class FamilyVerdict(enum.Enum):
    AHLFORS = "ahlfors"
    NOT_AHLFORS = "not-ahlfors"
    INVALID = "invalid"
    NOT_APPLICABLE = "not-applicable"


def degree2_classify(a1, a2, p1, p2):
    """Complete degree-2 criterion: extremal exactly when both residues are
    real positive and a1 + a2 < |p1 - p2|."""
    a1, a2, p1, p2 = complex(a1), complex(a2), complex(p1), complex(p2)
    if abs(p1 - p2) <= 1e-10 or min(abs(a1), abs(a2)) <= 1e-15:
        return FamilyVerdict.INVALID
    real_pos = (
        abs(a1.imag) <= _REAL_TOL
        and abs(a2.imag) <= _REAL_TOL
        and a1.real > 0
        and a2.real > 0
    )
    if real_pos and a1.real + a2.real < abs(p1 - p2):
        return FamilyVerdict.AHLFORS
    return FamilyVerdict.NOT_AHLFORS


def real_family_classify(R):
    """Sign criterion for good maps with real poles and real residues:
    extremal exactly when every residue is positive."""
    all_real = (
        np.abs(R.poles.imag).max() <= _REAL_TOL
        and np.abs(R.residues.imag).max() <= _REAL_TOL
    )
    if not all_real or is_n_good(R).status is not Goodness.GOOD:
        return FamilyVerdict.NOT_APPLICABLE
    if np.all(R.residues.real > 0):
        return FamilyVerdict.AHLFORS
    return FamilyVerdict.NOT_AHLFORS
