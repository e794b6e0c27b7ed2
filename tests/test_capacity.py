"""Gram assembly, two-sided capacity bounds, and extremality verdicts."""

import tracemalloc

import numpy as np
import pytest

from capax import boundary, capacity
from capax.cli import REFERENCE_BOUNDS, example_map, parse_map
from capax.errors import EmptyBasis, IllConditioned
from capax.ratmap import RationalMapPF, affine_conjugate

from conftest import random_good_map
from test_boundary import DEGREE16_0


def disk_map(a=0.6, p=0.0 + 0.0j):
    return RationalMapPF([a], [p])


def test_enumerate_basis_order():
    R = RationalMapPF([0.3, 0.2], [-1.0, 1.0])
    basis = capacity.enumerate_basis(R, 2)
    assert basis.elements == [(-1 + 0j, 1), (-1 + 0j, 2), (1 + 0j, 1), (1 + 0j, 2)]
    with pytest.raises(EmptyBasis):
        capacity.enumerate_basis(R, 0)


def test_disk_gram_structure():
    a = 0.6
    R = disk_map(a)
    sampling = boundary.trace(R, N=256)
    gram = capacity.assemble_gram(sampling, capacity.enumerate_basis(R, 1))
    assert gram.G.shape == (2, 2)
    assert np.allclose(gram.G, np.diag([1 / a, 1 / a]), atol=1e-12)
    assert np.max(np.abs(gram.w)) < 1e-12
    assert np.allclose(gram.b, [1.0, 0.0])
    assert abs(gram.c0 - a) < 1e-12


def test_disk_bounds_equal_radius():
    a = 0.6
    R = disk_map(a, 0.2 - 0.7j)
    sampling = boundary.trace(R, N=256)
    gram = capacity.assemble_gram(sampling, capacity.enumerate_basis(R, 1))
    assert abs(capacity.upper_bound(gram) - a) < 1e-10
    assert abs(capacity.lower_bound(gram) - a) < 1e-10


def test_bounds_sequence_shape_and_order():
    rng = np.random.default_rng(61)
    R = random_good_map(rng, 2)
    bounds = capacity.bounds_sequence(R, 4, N=512)
    ks = [row[0] for row in bounds.rows]
    assert ks == [1, 2, 3, 4]
    assert bounds.N == 512
    assert bounds.map_echo is R
    assert bounds.row(3) == bounds.rows[2]
    with pytest.raises(KeyError):
        bounds.row(9)


def test_bounds_are_monotone_and_ordered():
    rng = np.random.default_rng(67)
    for _ in range(3):
        R = random_good_map(rng, int(rng.integers(1, 4)))
        bounds = capacity.bounds_sequence(R, 5, N=1024)
        lows = np.array([r[1] for r in bounds.rows])
        ups = np.array([r[2] for r in bounds.rows])
        assert np.all(ups - lows > -1e-12)
        assert np.all(np.diff(lows) >= -1e-10)  # lower bounds improve upward
        assert np.all(np.diff(ups) <= 1e-10)  # upper bounds improve downward


def test_bounds_affine_equivariance():
    # Capacity scales by 1/|a| when z maps to (z - b)/a, and both bounds are
    # built from conformally natural data, so rows scale the same way.
    rng = np.random.default_rng(71)
    for _ in range(3):
        R = random_good_map(rng, 2)
        a = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        S = affine_conjugate(R, a, b)
        rows_R = capacity.bounds_sequence(R, 3, N=1024).rows
        rows_S = capacity.bounds_sequence(S, 3, N=1024).rows
        for (_, l1, u1), (_, l2, u2) in zip(rows_R, rows_S):
            assert abs(l2 - l1 / abs(a)) < 1e-8 * max(1.0, l1)
            assert abs(u2 - u1 / abs(a)) < 1e-8 * max(1.0, u1)


def test_rotational_bracket_contains_amplitude():
    # For the n-fold symmetric extremal family the capacity equals the
    # amplitude, so the bracket must contain it.
    n = 3
    bound = n * (n - 1.0) ** ((1 - n) / n)
    a = 0.5 * bound
    w = np.exp(2j * np.pi * np.arange(n) / n)
    R = RationalMapPF(np.full(n, a / n), w)
    bounds = capacity.bounds_sequence(R, 6, N=2048)
    _, low, up = bounds.final
    assert low - 1e-9 <= a <= up + 1e-9
    assert up - low < 1e-3


def test_s_override_validation_and_use():
    a, p = 0.5, 0.0 + 0.0j
    R = disk_map(a, p)
    sampling = boundary.trace(R, N=256)
    # A non-pole base point inside the disk is legal but suboptimal.
    basis = capacity.enumerate_basis(R, 1, S_override=[p + 0.2])
    gram = capacity.assemble_gram(sampling, basis)
    assert capacity.upper_bound(gram) >= a - 1e-10
    assert capacity.lower_bound(gram) <= a + 1e-10
    # A base point outside every component is rejected.
    with pytest.raises(ValueError):
        capacity.assemble_gram(sampling, capacity.enumerate_basis(R, 1, S_override=[3.0]))
    # A base point exactly on the sampled curve is rejected.
    with pytest.raises(ValueError):
        capacity.assemble_gram(
            sampling, capacity.enumerate_basis(R, 1, S_override=[p + a])
        )


def test_adaptive_resolution_reports_final_n():
    R = disk_map(0.8, 0.1j)
    bounds = capacity.bounds_sequence_adaptive(R, 2, N=128, tol=1e-8, n_limit=1024)
    assert bounds.N in (256, 512, 1024)
    _, low, up = bounds.final
    assert abs(low - 0.8) < 1e-10 and abs(up - 0.8) < 1e-10


def test_certified_flag_flips_on_hard_problems():
    R = disk_map()
    assert capacity.bounds_sequence(R, 3, N=256).certified is True
    # Nearly touching components drive the Gram condition number past the
    # certification limit at high k; bounds stay ordered but are flagged.
    H = RationalMapPF([0.95, 0.98], [-1.0, 1.0])
    hard = capacity.bounds_sequence(H, 40, N=4096)
    assert hard.certified is False
    for _, low, up in hard.rows:
        assert low <= up + 1e-12


def test_verdict_consistent_and_refuted():
    rng = np.random.default_rng(73)
    R = random_good_map(rng, 2, real=True, positive=True)
    bounds = capacity.bounds_sequence(R, 6, N=1024)
    v = capacity.verdict(bounds)
    assert v.status == capacity.Ahlfors.CONSISTENT
    assert v.k_used == 6
    assert v.margin >= 0

    # Complex residue sum can never be extremal.
    C = RationalMapPF([0.2 + 0.1j], [0.0])
    vc = capacity.verdict(capacity.bounds_sequence(C, 2, N=256))
    assert vc.status == capacity.Ahlfors.NOT_AHLFORS

    # Negative residue sum likewise.
    Nmap = RationalMapPF([-0.4], [0.0])
    vn = capacity.verdict(capacity.bounds_sequence(Nmap, 2, N=256))
    assert vn.status == capacity.Ahlfors.NOT_AHLFORS


def test_verdict_lower_bound_refutation():
    # Far-separated components of radius about 0.5 and 0.1 give capacity
    # near 0.5, but the cancelling residues sum to 0.4: the computed lower
    # bound exceeds the sum and refutes extremality outright.
    R = RationalMapPF([0.5, -0.1], [0.0, 10.0])
    bounds = capacity.bounds_sequence(R, 3, N=512)
    v = capacity.verdict(bounds)
    assert v.status == capacity.Ahlfors.NOT_AHLFORS
    assert v.margin > 0.05


def test_verdict_inconclusive_branch():
    fake = capacity.CapacityBounds(
        rows=[(1, 0.40, 0.45)], R_prime_inf=0.5 + 0j, map_echo=None, N=64,
        certified=True,
    )
    v = capacity.verdict(fake)
    assert v.status == capacity.Ahlfors.INCONCLUSIVE
    assert v.margin == pytest.approx(0.05)


def _reference_gram(sampling, basis):
    """The plain assembly: powers by **j, C = (B * lam) @ B^H, then the
    Hermitian part."""
    z, lam = sampling.nodes()
    B = np.array([(1.0 / (z - p)) ** j for p, j in basis.elements])
    C = (B * lam) @ B.conj().T
    C = 0.5 * (C + C.conj().T)
    v = B @ lam.astype(np.complex128)
    G, w, _ = capacity._realify(C, v, basis.elements)
    return G, w, float(lam.sum())


@pytest.fixture(scope="module")
def degree16_sampling():
    R = parse_map(DEGREE16_0)
    return R, boundary.trace(R, N=4096)


@pytest.mark.parametrize(
    "example, kmax",
    [(1, max(REFERENCE_BOUNDS[1])), (2, 40), (6, max(REFERENCE_BOUNDS[6])), (None, 4)],
    ids=["example1", "example2", "example6", "degree16-0"],
)
def test_gram_matches_plain_assembly(example, kmax, degree16_sampling):
    if example is None:
        R, sampling = degree16_sampling
    else:
        R = example_map(example)
        sampling = boundary.trace(R, N=1024)
    basis = capacity.enumerate_basis(R, kmax)
    gram = capacity.assemble_gram(sampling, basis)
    G, w, c0 = _reference_gram(sampling, basis)
    d = np.sqrt(np.diag(G))
    assert (np.abs(gram.G - G) / np.outer(d, d)).max() <= 1e-13
    assert (np.abs(gram.w - w) / d).max() <= 1e-13
    assert gram.c0 == c0
    assert np.array_equal(gram.G, gram.G.T)


def test_gram_assembly_holds_one_basis_matrix(degree16_sampling):
    R, sampling = degree16_sampling
    basis = capacity.enumerate_basis(R, 4)
    m, nodes = len(basis.elements), sum(c.z.size for c in sampling.curves)
    tracemalloc.start()
    try:
        capacity.assemble_gram(sampling, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m * nodes * 16
