"""Exactly solvable families: slits, rotational maps, classifiers."""

import numpy as np
import pytest

from capax import closedform
from capax.closedform import FamilyVerdict, IntervalSet
from capax.errors import AmplitudeOutOfRange, OnSlit
from capax.ratmap import RationalMapPF, critical_data, is_n_good
from capax.ratmap import Goodness

from conftest import random_good_map


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet(())
    with pytest.raises(ValueError):
        IntervalSet(((1.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalSet(((0.0, 2.0), (1.0, 3.0)))
    E = IntervalSet(((-1.0, 1.0), (2.0, 2.5)))
    assert E.total_length == 2.5
    assert E.distance(3.0 + 4.0j) == pytest.approx(np.hypot(0.5, 4.0))


def test_interval_capacity_quarter_length():
    assert closedform.interval_capacity(IntervalSet(((-1.0, 1.0),))) == 0.5
    E = IntervalSet(((0.0, 1.0), (4.0, 6.0)))
    assert closedform.interval_capacity(E) == 0.75


def test_interval_ahlfors_maps_into_disk():
    E = IntervalSet(((-1.0, 0.5), (1.0, 2.0)))
    rng = np.random.default_rng(79)
    z = rng.uniform(-4, 4, size=300) + 1j * rng.uniform(-3, 3, size=300)
    z = z[E.distance(z) > 1e-6]
    vals = closedform.interval_ahlfors(E, z)
    assert np.max(np.abs(vals)) < 1.0
    # conjugation symmetry of a real slit function
    assert np.max(np.abs(closedform.interval_ahlfors(E, np.conj(z)) - np.conj(vals))) < 1e-13


def test_interval_ahlfors_on_slit_raises():
    E = IntervalSet(((-1.0, 1.0),))
    with pytest.raises(OnSlit):
        closedform.interval_ahlfors(E, 0.3)


def test_interval_ahlfors_real_decay():
    # Real and strictly decreasing to 0 on the axis right of the last slit.
    E = IntervalSet(((-1.0, 1.0), (3.0, 4.0)))
    x = np.linspace(4.5, 50.0, 200)
    vals = closedform.interval_ahlfors(E, x)
    assert np.max(np.abs(vals.imag)) < 1e-14
    assert np.all(vals.real > 0)
    assert np.all(np.diff(vals.real) < 0)


def test_interval_ahlfors_derivative_matches_capacity():
    # z f(z) -> gamma as z -> inf; quadratic extrapolation in u = 1/z
    # recovers length/4 to far better than 1e-6.
    for E in (
        IntervalSet(((-1.0, 1.0),)),
        IntervalSet(((-2.0, -0.5), (0.5, 1.0), (2.0, 3.5))),
    ):
        zs = np.array([1e3, 1e4, 1e6])
        u = 1.0 / zs
        h = zs * np.array([closedform.interval_ahlfors(E, z) for z in zs])
        # Lagrange extrapolation to u = 0.
        gamma = 0.0
        for i in range(3):
            w = 1.0
            for j in range(3):
                if j != i:
                    w *= -u[j] / (u[i] - u[j])
            gamma += h[i].real * w
        assert abs(gamma - closedform.interval_capacity(E)) < 1e-6


def test_rotational_amplitude_bound_value():
    assert closedform.rotational_amplitude_bound(3) == pytest.approx(
        1.8898815748423097, abs=1e-15
    )
    assert closedform.rotational_amplitude_bound(2) == pytest.approx(2.0)


def test_rotational_map_validation():
    with pytest.raises(ValueError):
        closedform.rotational_map(1, 0.5)
    for bad in (0.0, -0.3, 1.8898815748423097, 2.4):
        with pytest.raises(AmplitudeOutOfRange):
            closedform.rotational_map(3, bad)


def test_rotational_map_structure_and_symmetry():
    n, a = 4, 1.1
    R = closedform.rotational_map(n, a)
    assert np.allclose(R.residues, a / n)
    assert np.allclose(np.sort(np.angle(R.poles)), np.sort(np.angle(np.exp(2j * np.pi * np.arange(n) / n))))
    w = np.exp(2j * np.pi / n)
    rng = np.random.default_rng(83)
    z = rng.uniform(-3, 3, size=40) + 1j * rng.uniform(1.5, 4, size=40)
    assert np.max(np.abs(w * R(w * z) - R(z))) < 1e-10


def test_rotational_critical_value_formula():
    n, a = 3, 1.0
    R = closedform.rotational_map(n, a)
    expected = a * (n - 1.0) ** ((n - 1.0) / n) / n
    assert abs(critical_data(R).max_cv_modulus - expected) < 1e-10


def test_degree2_classify():
    A = FamilyVerdict.AHLFORS
    N = FamilyVerdict.NOT_AHLFORS
    I = FamilyVerdict.INVALID
    assert closedform.degree2_classify(0.25, 0.25, 0.0, 1.0) is A
    assert closedform.degree2_classify(0.5, 0.5, 0.0, 1.0) is N  # sum not < gap
    assert closedform.degree2_classify(0.2 + 0.1j, 0.2, 0.0, 1.0) is N
    assert closedform.degree2_classify(-0.2, 0.4, 0.0, 1.0) is N
    assert closedform.degree2_classify(0.2, 0.2, 0.0, 5e-11) is I
    assert closedform.degree2_classify(0.0, 0.2, 0.0, 1.0) is I


def test_real_family_classify():
    rng = np.random.default_rng(89)
    pos = random_good_map(rng, 3, real=True, positive=True)
    assert closedform.real_family_classify(pos) is FamilyVerdict.AHLFORS
    mixed = random_good_map(rng, 3, real=True, positive=False)
    assert is_n_good(mixed).status is Goodness.GOOD
    assert closedform.real_family_classify(mixed) is FamilyVerdict.NOT_AHLFORS
    complex_pole = random_good_map(rng, 2)
    assert closedform.real_family_classify(complex_pole) is FamilyVerdict.NOT_APPLICABLE
    loud = RationalMapPF([5.0, 5.0], [-1.0, 1.0])  # not good
    assert closedform.real_family_classify(loud) is FamilyVerdict.NOT_APPLICABLE
