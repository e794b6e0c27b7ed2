"""Random map generators shared by the test suite."""

import numpy as np

from capax.ratmap import RationalMapPF, critical_data


def random_poles(rng, n, box=2.0, min_sep=0.4):
    """Sample n poles in a centered box with pairwise separation >= min_sep."""
    poles = []
    while len(poles) < n:
        p = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(p - q) >= min_sep for q in poles):
            poles.append(p)
    return np.asarray(poles, dtype=np.complex128)


def _scaled_to_margin(residues, poles, rng, lo, hi):
    # Critical values scale linearly under a common residue factor, so one
    # rescale pins the max critical-value modulus inside [lo, hi].
    R = RationalMapPF(residues, poles)
    data = critical_data(R)
    if data.max_cv_modulus == 0.0:
        return R
    target = rng.uniform(lo, hi)
    return RationalMapPF(residues * (target / data.max_cv_modulus), poles)


def random_good_map(rng, n, box=2.0, min_sep=0.4, real=False, positive=False):
    """A degree-n map whose max critical value modulus lies in [0.2, 0.85]."""
    if real:
        poles = _real_sep(rng, n, box, min_sep).astype(np.complex128)
        residues = rng.uniform(0.1, 1.0, size=n).astype(np.complex128)
        if not positive:
            signs = rng.choice([-1.0, 1.0], size=n)
            if np.all(signs > 0):
                signs[rng.integers(n)] = -1.0
            residues = residues * signs
    else:
        poles = random_poles(rng, n, box, min_sep)
        residues = rng.uniform(0.1, 1.0, size=n) * np.exp(
            2j * np.pi * rng.uniform(size=n)
        )
    return _scaled_to_margin(residues, poles, rng, 0.2, 0.85)


def _real_sep(rng, n, box, min_sep):
    xs = []
    while len(xs) < n:
        x = rng.uniform(-box, box)
        if all(abs(x - y) >= min_sep for y in xs):
            xs.append(x)
    return np.sort(np.asarray(xs))


def random_not_good_map(rng, n, box=2.0, min_sep=0.4):
    """A degree-n map with a critical value modulus in [1.15, 2.0]."""
    poles = random_poles(rng, n, box, min_sep)
    residues = rng.uniform(0.1, 1.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return _scaled_to_margin(residues, poles, rng, 1.15, 2.0)
