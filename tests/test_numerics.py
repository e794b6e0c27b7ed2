"""Polynomial utilities and the root finder."""

import math

import numpy as np
import pytest

from capax import numerics
from capax.errors import NonConvergence


def test_poly_trim_drops_leading_zeros():
    c = numerics.poly_trim([1.0, 2.0, 0.0, 0.0])
    assert c.tolist() == [1.0 + 0j, 2.0 + 0j]
    assert numerics.poly_degree([0.0, 0.0]) == -1


def test_poly_arithmetic():
    # (1 + z)(1 - z) = 1 - z^2
    prod = numerics.poly_mul([1, 1], [1, -1])
    assert np.allclose(prod, [1, 0, -1])
    s = numerics.poly_add([1, 2], [3, -2, 0])
    assert s.tolist() == [4.0 + 0j]
    assert numerics.poly_scale([1, 2], 3).tolist() == [3.0 + 0j, 6.0 + 0j]


def test_poly_from_roots_and_eval():
    c = numerics.poly_from_roots([1.0, -1.0])
    assert np.allclose(c, [-1, 0, 1])
    assert numerics.poly_eval([1, 2, 3], 2.0) == 17.0 + 0j
    vals = numerics.poly_eval([1, 2, 3], np.array([0.0, 1.0]))
    assert np.allclose(vals, [1.0, 6.0])


def test_roots_quadratic():
    # z^2 - 0.5 z - 0.9 has roots (0.5 +- sqrt(3.85)) / 2.
    r = sorted(numerics.roots([-0.9, -0.5, 1.0]), key=lambda z: z.real)
    s = math.sqrt(3.85)
    assert abs(r[0] - (0.5 - s) / 2) < 1e-13
    assert abs(r[1] - (0.5 + s) / 2) < 1e-13


def test_roots_of_unity():
    r = numerics.roots([-1.0, 0.0, 0.0, 1.0])
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    for w in expected:
        assert np.min(np.abs(r - w)) < 1e-13


def test_random_monic_recovery():
    rng = np.random.default_rng(20260819)
    for _ in range(25):
        deg = int(rng.integers(2, 13))
        roots_true = []
        while len(roots_true) < deg:
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(z - w) >= 1e-3 for w in roots_true):
                roots_true.append(z)
        roots_true = np.asarray(roots_true)
        c = numerics.poly_from_roots(roots_true)
        found = numerics.roots(c)
        # Greedy match each true root to its nearest recovered root.
        for z in roots_true:
            assert np.min(np.abs(found - z)) < 1e-9


def test_real_coefficients_give_conjugate_closed_roots():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.uniform(-2, 2, size=8)
        c[-1] = 1.0
        r = numerics.roots(c)
        for z in r:
            assert np.min(np.abs(r - np.conj(z))) < 1e-8


def test_clustered_double_root():
    # (z - 1)^2 (z + 2): the double root is recovered to ~sqrt(eps) accuracy.
    c = numerics.poly_mul(numerics.poly_mul([-1, 1], [-1, 1]), [2, 1])
    r = numerics.roots(c)
    near_one = np.sort(np.abs(r - 1.0))
    assert near_one[0] < 1e-6 and near_one[1] < 1e-6
    assert np.min(np.abs(r + 2.0)) < 1e-12


def test_roots_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.roots([5.0])
    with pytest.raises(ValueError):
        numerics.roots([1.0, np.nan])


def test_nonconvergence_reports_residual():
    # Roots of this quadratic are irrational, so the floating-point residual
    # is nonzero and a zero tolerance can never be met.
    with pytest.raises(NonConvergence):
        numerics.roots([-0.9, -0.5, 1.0], tol=0.0)


def test_residual_bound_scales():
    b1 = numerics.residual_bound(1.0, np.array([1.0 + 0j]), 3, 1e-12)
    b2 = numerics.residual_bound(1.0, np.array([2.0 + 0j]), 3, 1e-12)
    assert b2[0] > b1[0] > 0


def test_residual_contract_on_returned_roots():
    rng = np.random.default_rng(11)
    c = rng.uniform(-1, 1, size=10) + 1j * rng.uniform(-1, 1, size=10)
    r = numerics.roots(c)
    assert np.all(numerics.residual_ok(c, r, numerics.DEFAULT_ROOT_TOL))
