"""Families with known extremal behavior, used as oracles for the engine.

Covered here: finite unions of real slits (capacity = total length / 4 and an
explicit extremal function), the rotationally symmetric family
a z^{n-1} / (z^n - 1), the complete degree-2 classification, real-pole maps
with a sign criterion, and the three-stage deformation joining any two
all-positive-residue maps through good maps with positive residues.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange, OnSlit, PoleCollision
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


def _require_positive_real(R, name):
    if np.abs(R.residues.imag).max() > _REAL_TOL or np.any(R.residues.real <= 0):
        raise ValueError(f"{name} map must have positive real residues")
    if is_n_good(R).status is not Goodness.GOOD:
        raise ValueError(f"{name} map must classify as good")


def _default_pole_path(p0, p1):
    """Coordinatewise straight lines; a colliding pair gets the higher-index
    coordinate rerouted through midpoint + 0.1i * index."""
    n = p0.size
    bump = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        for k in range(j):
            d0 = (p0[j] + bump[j] * 0.5) - (p0[k] + bump[k] * 0.5)
            d1 = (p1[j] + bump[j] * 0.5) - (p1[k] + bump[k] * 0.5)
            dd = d1 - d0
            if abs(dd) < 1e-300:
                s = 0.0
            else:
                s = min(1.0, max(0.0, -(d0 * dd.conjugate()).real / abs(dd) ** 2))
            if abs(d0 + s * dd) < 1e-8:
                bump[j] += 0.1j * j

    def alpha(s):
        line = (1.0 - s) * p0 + s * p1
        # piecewise-linear tent through the midpoint offset
        tent = 1.0 - abs(2.0 * s - 1.0)
        return line + tent * bump

    return alpha


def positive_residue_path(start, end, eps, samples=61, pole_path=None):
    """Deformation from start to end through maps with positive residues.

    Three stages: shrink the start residues linearly to sup-norm eps on
    [0, 1/3]; interpolate poles (and the eps-small residues) on (1/3, 2/3);
    grow to the end residues on [2/3, 1].  Start and end are returned exactly
    at t = 0 and t = 1.  Goodness along the way holds for small enough eps
    and is the caller's thing to verify sample by sample.

    Raises PoleCollision when any sample would put two poles within the
    distinctness threshold.
    """
    _require_positive_real(start, "start")
    _require_positive_real(end, "end")
    if start.n != end.n:
        raise ValueError("start and end must have the same degree")
    eps = float(eps)
    min_res = min(start.residues.real.min(), end.residues.real.min())
    if not 0.0 < eps <= min_res:
        raise ValueError(f"eps must lie in (0, {min_res}] (the smallest residue)")
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    a0, a1 = start.residues.real, end.residues.real
    p0, p1 = start.poles, end.poles
    mu13 = eps / a0.max()
    nu23 = eps / a1.max()
    alpha = pole_path if pole_path is not None else _default_pole_path(p0, p1)
    path = []
    for t in np.linspace(0.0, 1.0, samples):
        if t == 0.0:
            path.append(start)
            continue
        if t == 1.0:
            path.append(end)
            continue
        if t <= 1.0 / 3.0:
            mu = 1.0 + 3.0 * t * (mu13 - 1.0)
            res, poles = mu * a0, p0
        elif t < 2.0 / 3.0:
            s = 3.0 * t - 1.0
            res = (2.0 - 3.0 * t) * mu13 * a0 + (3.0 * t - 1.0) * nu23 * a1
            poles = np.asarray(alpha(s), dtype=np.complex128)
        else:
            nu = nu23 + (3.0 * t - 2.0) * (1.0 - nu23)
            res, poles = nu * a1, p1
        try:
            path.append(
                RationalMapPF(residues=res.astype(np.complex128), poles=poles)
            )
        except Exception as exc:
            raise PoleCollision(f"pole paths collide at t = {t:.6f}: {exc}") from exc
    return path
