"""Partial-fraction rational maps: evaluation, criticals, goodness."""

import numpy as np
import pytest

from capax import ratmap
from capax.errors import DuplicatePole, NonConvergence, PoleHit
from capax.ratmap import Goodness, RationalMapPF

from conftest import random_good_map, random_not_good_map


def two_pole_map():
    return RationalMapPF([0.3, 0.2], [-1.0, 1.0])


def test_construction_validation():
    with pytest.raises(DuplicatePole):
        RationalMapPF([1.0, 1.0], [0.5, 0.5 + 1e-12])
    with pytest.raises(ValueError):
        RationalMapPF([0.0], [1.0])
    with pytest.raises(ValueError):
        RationalMapPF([1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        RationalMapPF([np.inf], [0.0])


def test_terms_and_derivative_at_infinity():
    R = two_pole_map()
    assert R.n == 2
    assert R.derivative_at_infinity() == 0.5 + 0j
    assert R.terms == [(0.3 + 0j, -1.0 + 0j), (0.2 + 0j, 1.0 + 0j)]


def test_evaluate_scalar_and_array():
    R = two_pole_map()
    assert abs(R(0.0) - 0.1) < 1e-15
    z = np.array([0.0, 2.0j])
    vals = R(z)
    assert abs(vals[0] - 0.1) < 1e-15
    expected = 0.3 / (2.0j + 1) + 0.2 / (2.0j - 1)
    assert abs(vals[1] - expected) < 1e-15


def test_evaluate_symmetric_three_pole():
    # (1/3) sum 1/(z - w^j) over cube roots of unity equals z^2/(z^3 - 1),
    # so at z = 2 the value is 4/7.
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    R = RationalMapPF(np.full(3, 1 / 3), w)
    assert abs(R(2.0) - 4.0 / 7.0) < 1e-15


def test_pole_hit():
    R = two_pole_map()
    with pytest.raises(PoleHit):
        R(1.0)
    with pytest.raises(PoleHit):
        R(np.array([0.0, -1.0 + 1e-14]))


def test_conjugation_symmetry_for_real_maps():
    rng = np.random.default_rng(3)
    R = random_good_map(rng, 3, real=True, positive=True)
    z = rng.uniform(-3, 3, size=50) + 1j * rng.uniform(0.2, 3, size=50)
    assert np.max(np.abs(R(np.conj(z)) - np.conj(R(z)))) < 1e-14


def test_preimages_quadratic():
    # R(z) = w reduces to w z^2 - 0.5 z + 0.1 - w = 0.  Moving the poles by
    # -1e7 moves the roots with them, to within rounding at 1e7: the root
    # check scales with the map, not with an absolute residual.
    for shift in (0.0, -1e7):
        R = ratmap.affine_conjugate(two_pole_map(), 1.0, -shift)
        for w in (-1.0, 1.0, 1j):
            got = np.sort_complex(ratmap.preimages(R, w) - shift)
            s = np.sqrt(0.25 - 4 * w * (0.1 - w) + 0j)
            want = np.sort_complex(np.array([0.5 - s, 0.5 + s]) / (2 * w))
            assert np.abs(got - want).max() < 1e-12 + 2 * np.spacing(abs(shift))


def test_preimages_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(5):
        R = random_good_map(rng, int(rng.integers(1, 5)))
        w = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        z = ratmap.preimages(R, w)
        assert z.size == R.n
        assert np.max(np.abs(R(z) - w)) < 1e-9


def test_preimages_rejects_zero():
    with pytest.raises(ValueError):
        ratmap.preimages(two_pole_map(), 0.0)


def test_preimage_interleaving_real_positive():
    # For positive residues R is strictly decreasing between consecutive real
    # poles, so the preimages of -1 and +1 interleave: a b a b ... a b.
    rng = np.random.default_rng(9)
    for _ in range(5):
        R = random_good_map(rng, int(rng.integers(2, 5)), real=True, positive=True)
        alphas = np.sort(ratmap.preimages(R, -1.0).real)
        betas = np.sort(ratmap.preimages(R, 1.0).real)
        merged = np.sort(np.concatenate([alphas, betas]))
        assert np.allclose(merged[0::2], alphas)
        assert np.allclose(merged[1::2], betas)


def test_critical_data_degree_two():
    # Poles 0 and 1 with residues a1, a2 > 0: solving R' = 0 gives
    # (z - 1)/z = +-i sqrt(a2/a1), i.e. z = sqrt(a1)/(sqrt(a1) -+ i sqrt(a2)).
    rng = np.random.default_rng(13)
    a1, a2 = rng.uniform(0.05, 0.4, size=2)
    R = RationalMapPF([a1, a2], [0.0, 1.0])
    data = ratmap.critical_data(R)
    assert not data.infinity_critical
    assert data.critical_points.size == 2
    r1, r2 = np.sqrt(a1), np.sqrt(a2)
    for e in (r1 / (r1 - 1j * r2), r1 / (r1 + 1j * r2)):
        assert np.min(np.abs(data.critical_points - e)) < 1e-10
    assert abs(data.max_cv_modulus - np.max(np.abs(data.critical_values))) == 0.0


def test_critical_data_rotational():
    # Unit-amplitude 3-fold map: critical points at 2^(1/3) w^k e^(i pi/3)
    # and 0, all critical values of modulus 2^(2/3)/3.
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    R = RationalMapPF(np.full(3, 1 / 3), w)
    data = ratmap.critical_data(R)
    assert data.critical_points.size == 4
    assert np.min(np.abs(data.critical_points)) < 1e-8
    ring = data.critical_points[np.abs(data.critical_points) > 1e-8]
    assert np.allclose(np.abs(ring), 2.0 ** (1 / 3), atol=1e-10)
    assert abs(data.max_cv_modulus - 2.0 ** (2 / 3) / 3) < 1e-10


def test_critical_data_infinity():
    # Residues summing to zero drop the numerator degree below 2n - 2.
    R = RationalMapPF([1.0, -1.0], [0.0, 1.0])
    data = ratmap.critical_data(R)
    assert data.infinity_critical
    assert data.critical_points.size == 1
    assert abs(data.critical_points[0] - 0.5) < 1e-12
    assert abs(data.critical_values[0] - 4.0) < 1e-12


def test_single_pole_has_no_critical_points():
    data = ratmap.critical_data(RationalMapPF([2.0], [1.0j]))
    assert data.critical_points.size == 0
    assert data.max_cv_modulus == 0.0
    assert not data.infinity_critical


def test_is_n_good_verdicts():
    rng = np.random.default_rng(17)
    good = ratmap.is_n_good(random_good_map(rng, 3))
    assert good.status is Goodness.GOOD
    assert good.margin > 0.1
    bad = ratmap.is_n_good(random_not_good_map(rng, 3))
    assert bad.status is Goodness.NOT_GOOD
    assert bad.margin < 0.0


def test_is_n_good_marginal_band():
    # Amplitude exactly at the rotational threshold puts the largest critical
    # value on the unit circle, inside the default decision band.
    n = 3
    bound = n * (n - 1.0) ** ((1 - n) / n)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    R = RationalMapPF(np.full(n, bound / n), w)
    verdict = ratmap.is_n_good(R)
    assert verdict.status is Goodness.MARGINAL
    assert abs(verdict.margin) <= 1e-9


def test_affine_conjugate_normalizes_poles():
    R = RationalMapPF([0.95, 0.98], [-1.0, 1.0])
    S = ratmap.affine_conjugate(R, 2.0, -1.0)
    assert np.allclose(S.poles, [0.0, 1.0])
    assert np.allclose(S.residues, [0.475, 0.49])


def test_affine_conjugate_eval_identity():
    rng = np.random.default_rng(19)
    for _ in range(5):
        R = random_good_map(rng, 3)
        a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        S = ratmap.affine_conjugate(R, a, b)
        phase = a / abs(a)
        z = rng.uniform(-4, 4, size=40) + 1j * rng.uniform(2.5, 5, size=40)
        lhs = S((z - b) / a)
        rhs = phase * R(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_affine_conjugate_preserves_goodness_margin():
    rng = np.random.default_rng(23)
    R = random_good_map(rng, 3)
    S = ratmap.affine_conjugate(R, 1.7 - 0.4j, 0.3j)
    m1 = ratmap.is_n_good(R).margin
    m2 = ratmap.is_n_good(S).margin
    assert abs(m1 - m2) < 1e-10


def test_perturbed():
    R = two_pole_map()
    Q = ratmap.perturbed(R, [3.0 - 1.0j], 1e-3)
    assert Q.n == 3
    assert np.allclose(Q.residues[:2], R.residues)
    assert abs(Q.residues[2] - 1e-3) < 1e-18
    with pytest.raises(ValueError):
        ratmap.perturbed(R, [3.0], 0.0)
    with pytest.raises(DuplicatePole):
        ratmap.perturbed(R, [1.0], 1e-3)


def test_perturbed_warns_outside_domain():
    # |R(b)| >= 1 means the new pole does not sit in the complement region.
    R = two_pole_map()
    with pytest.warns(UserWarning):
        ratmap.perturbed(R, [-1.0 + 1e-3], 1e-6)
