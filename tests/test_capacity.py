"""Gram assembly, two-sided capacity bounds, and extremality verdicts."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from capax import boundary, capacity, numerics, ratmap
from capax.cli import REFERENCE_BOUNDS, example_map, parse_map
from capax.errors import EmptyBasis, IllConditioned
from capax.ratmap import RationalMapPF, affine_conjugate

from conftest import random_good_map
from test_boundary import DEGREE16_0, MARGIN_8E_9, MARGINAL_AMBIGUOUS, SEVEN_POLE

BANK_PATH = Path(__file__).resolve().parents[1] / "pipebench" / "bank.json"

# The degree16 recipe of pipebench/bank.py from default_rng(0), its residues
# scaled to max |cv| = 0.72: start_n gives 128, where the quadrature error
# misses QUAD_TOL.
ESCALATING_072 = (
    "-(0.091361211497108727-0.02946982941992423i)/(z-(0.54784674928581722-0.92085314494451875i))"
    "+(0.017473128331054955-0.058326998282715828i)/(z+(1.8361059042552212+1.9338894578858836i))"
    "+(0.012035663957517675+0.098465793422480588i)/(z-(1.2530809568010897+1.6510223091108869i))"
    "+(0.059800758985280499+0.020273632042713423i)/(z-(0.42654310306871945+0.9179862439359936i))"
    "-(0.05835962559783503-0.039901853362227901i)/(z-(0.17449996586169148+1.7402896951510729i))"
    "+(0.044765152996595094+0.13351548251998871i)/(z-(1.2634142164861286-1.9890459993194076i))"
    "+(0.040042895139431177+0.025678565410018752i)/(z-(0.91862178571977626-1.2973775175897639i))"
    "-(0.090384123347391321+0.049935186861272345i)/(z-(1.4527156893995463+0.16584488099636685i))"
    "-(0.0082652593590153579-0.026165306677031264i)/(z+(0.80115243785046086+0.30925111520936621i))"
    "-(0.062473638549793639+0.11709201527514389i)/(z+(1.8867213154181481+1.5028668940017442i))"
    "+(0.039397787205202872+0.1200094585244835i)/(z-(0.68249765877452129+0.58875804629700035i))"
    "+(0.046062206129448578-0.017533535677555213i)/(z-(0.46154044592501542-0.46528978295246626i))"
    "-(0.091915655997297743-0.10411247744836298i)/(z-(1.9888397431568441+1.9233413551049203i))"
    "+(0.018808426332658324+0.014683285250995399i)/(z+(1.4596139799103551-0.8859533607763268i))"
    "-(0.043308480585172685+0.045604024677647341i)/(z-(0.10141728990290355-0.75903249776417736i))"
    "+(0.032974629966399639-0.016242947800698158i)/(z-(1.7361740638249987-0.56881921316371908i))"
)


def disk_map(a=0.6, p=0.0 + 0.0j):
    return RationalMapPF([a], [p])


def test_enumerate_basis_order():
    R = RationalMapPF([0.3, 0.2], [-1.0, 1.0])
    basis = capacity.enumerate_basis(R, 2)
    assert basis.elements == [(-1 + 0j, 1), (1 + 0j, 1), (-1 + 0j, 2), (1 + 0j, 2)]
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
    p = 0.2 - 0.7j
    R = disk_map(a, p)
    _, low, up = capacity.bounds_sequence(R, 1, N=256, S_override=[p]).final
    assert abs(up - a) < 1e-10
    assert abs(low - a) < 1e-10


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
    # built from conformally natural data, so rows scale the same way.  The
    # last input moves example 1 by 1e4: its roots near the poles then carry
    # the rounding of z itself, which the root check has to allow for.
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(3):
        R = random_good_map(rng, 2)
        a = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        cases.append((R, a, b))
    cases.append((example_map(1), 1.0, -1e4))
    for R, a, b in cases:
        S = affine_conjugate(R, a, b)
        rows_R = capacity.bounds_sequence(R, 3, N=1024).rows
        rows_S = capacity.bounds_sequence(S, 3, N=1024).rows
        for (_, l1, u1), (_, l2, u2) in zip(rows_R, rows_S):
            assert abs(l2 - l1 / abs(a)) < 1e-8 * max(1.0, l1)
            assert abs(u2 - u1 / abs(a)) < 1e-8 * max(1.0, u1)


def test_tiny_residue_map_brackets_its_sum():
    # positive residues on a line make an Ahlfors function, so the bracket
    # holds sum a = 0.3001; the small residue's roots sit 1e-4 from their
    # pole, where the rounding of z dominates the root check
    bounds = capacity.bounds_sequence(parse_map("0.3/(z)+0.0001/(z-2)"), 5)
    _, low, up = bounds.final
    assert bounds.certified
    assert low <= 0.3 + 0.0001 <= up


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
    _, low, up = capacity.bounds_sequence(R, 1, N=256, S_override=[p + 0.2]).final
    assert up >= a - 1e-10
    assert low <= a + 1e-10
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
    bounds = capacity.bounds_sequence(R, 2)
    assert bounds.N == 128
    assert bounds.quad_error <= capacity.QUAD_TOL
    for _, low, up in bounds.rows:
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


def test_verdict_refutes_only_beyond_tol_plus_quad_error():
    # the lower bound exceeds the residue sum by more than tol but by less
    # than tol + quad_error
    rows = [(1, 0.5 + 5e-6, 0.6)]
    exact = capacity.CapacityBounds(
        rows=rows, R_prime_inf=0.5 + 0j, map_echo=None, N=64, certified=True
    )
    assert capacity.verdict(exact, tol=1e-6).status == capacity.Ahlfors.NOT_AHLFORS
    rough = capacity.CapacityBounds(
        rows=rows, R_prime_inf=0.5 + 0j, map_echo=None, N=64, certified=False,
        quad_error=1e-5,
    )
    v = capacity.verdict(rough, tol=1e-6)
    assert v.status == capacity.Ahlfors.CONSISTENT
    assert v.margin == pytest.approx(0.1 + 2e-5 - 5e-6)
    # example 6's refutation survives its estimate at the default N
    six = capacity.bounds_sequence(example_map(6), max(REFERENCE_BOUNDS[6]))
    assert capacity.verdict(six).status == capacity.Ahlfors.NOT_AHLFORS


def _reference_gram(sampling, basis, every=1):
    """The plain assembly: powers by **j, C = (B * lam) @ B^H, then the
    Hermitian part; every > 1 assembles the trapezoid Gram of the grid of
    N / every nodes, which has the weights every * lam."""
    z, lam = sampling.nodes()
    keep = np.arange(z.size) % every == 0
    z, lam = z[keep], every * lam[keep]
    B = np.array([(1.0 / (z - p)) ** j for p, j in basis.elements])
    C = (B * lam) @ B.conj().T
    C = 0.5 * (C + C.conj().T)
    v = B @ lam.astype(np.complex128)
    # slot 2r is the real coefficient of element r, slot 2r+1 the imaginary
    # one: <i f, i g> = <f, g> and <f, i g> = Im <f, g>_C
    G = np.empty((2 * len(C), 2 * len(C)))
    G[0::2, 0::2] = G[1::2, 1::2] = C.real
    G[0::2, 1::2] = C.imag
    G[1::2, 0::2] = -C.imag
    w = np.empty(2 * len(v))
    w[0::2], w[1::2] = v.real, -v.imag
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
    # the steps are the changes from grid N to N/2 and from N/2 to N/4
    coarser = [_reference_gram(sampling, basis, every) for every in (2, 4)]
    for step, fine, coarse in zip(gram.steps, [(G, w, c0)] + coarser, coarser):
        assert (np.abs(step.G - (coarse[0] - fine[0])) / np.outer(d, d)).max() <= 1e-13
        assert (np.abs(step.w - (coarse[1] - fine[1])) / d).max() <= 1e-13
        assert abs(step.c0 - (coarse[2] - fine[2])) <= 1e-13 * c0
        assert not step.b.any()


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


# Bank map marginal-0 of pipebench/bank.json: three poles, max |critical
# value| in [0.999, 0.9999].
MARGINAL_0 = (
    "1.0510999226056978/(z-(0.50829346734711445-1.8812284896496094i))"
    "+0.77500357890441585/(z+(0.51821207356101384-1.6579777844243604i))"
    "+0.62825875915628793/(z-(1.6631038947789429-0.20933768418389676i))"
)


def _per_k_solve(G, rhs):
    """Reference solve for one k's own Gram: equilibrated Cholesky, a ridge
    on a bad condition estimate, then G^{-1} rhs_i."""
    d = np.sqrt(np.abs(np.diag(G)))
    d[d == 0] = 1.0
    Gs = G / d[:, None] / d[None, :]
    ev = np.linalg.eigvalsh(Gs)
    certified = True
    ridge = 0.0
    if ev[0] <= 0 or ev[-1] / ev[0] > capacity.COND_LIMIT:
        certified = False
        ridge = capacity.RIDGE_REL * np.trace(Gs) / Gs.shape[0]
    for _ in range(4):
        try:
            cf = scipy.linalg.cho_factor(
                Gs + ridge * np.eye(Gs.shape[0]) if ridge else Gs, lower=True
            )
            break
        except np.linalg.LinAlgError:
            certified = False
            ridge = max(ridge * 100.0, capacity.RIDGE_REL)
    else:
        raise IllConditioned("Gram factorization failed even with ridge fallback")
    return [scipy.linalg.cho_solve(cf, r / d) / d for r in rhs], certified


def _per_k_rows(R, kmax):
    """Rows by the per-k slot gather: for each k, the slots of the elements
    with j <= k in pole-major order, one factorization each."""
    basis = capacity.enumerate_basis(R, kmax)
    gram = capacity.assemble_gram(boundary.trace(R), basis)
    elems, n = basis.elements, basis.S.size
    pole_major = sorted(range(len(elems)), key=lambda r: (r % n, r))
    rows, certified = [], True
    for k in range(1, kmax + 1):
        keep = [r for r in pole_major if elems[r][1] <= k]
        slots = np.array([s for r in keep for s in (2 * r, 2 * r + 1)])
        w, b = gram.w[slots], gram.b[slots]
        (xw, xb), cert = _per_k_solve(gram.G[np.ix_(slots, slots)], [w, b])
        rows.append((k, float(b @ xb), float(gram.c0 - w @ xw)))
        certified &= cert
    return rows, certified


@pytest.mark.parametrize(
    "R, kmax",
    [
        (example_map(1), max(REFERENCE_BOUNDS[1])),
        (example_map(2), 40),
        (example_map(6), max(REFERENCE_BOUNDS[6])),
        (parse_map(DEGREE16_0), 4),
        (parse_map(MARGINAL_0), 5),
    ],
    ids=["example1", "example2-k40", "example6", "degree16-0", "marginal-0"],
)
def test_rows_match_per_k_solves(R, kmax):
    bounds = capacity.bounds_sequence(R, kmax)
    rows, certified = _per_k_rows(R, kmax)
    assert bounds.certified == (certified and bounds.quad_error <= capacity.QUAD_TOL)
    # an uncertified kmax Gram's ridge reaches every row, while the reference
    # ridges only the rows whose own block fails the condition test
    tol = 1e-13 if certified else 1e-6
    assert [r[0] for r in bounds.rows] == [r[0] for r in rows]
    for (_, l1, u1), (_, l2, u2) in zip(bounds.rows, rows):
        assert abs(l1 - l2) <= tol and abs(u1 - u2) <= tol


@pytest.mark.parametrize("n", [1, capacity._SOLVE_BLOCK - 1, capacity._SOLVE_BLOCK + 1, 160])
def test_substitutions_match_lapack(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
    Y = rng.standard_normal((n, 3))
    for got, expect in [
        (capacity._forward_substitute(L, Y), scipy.linalg.solve_triangular(L, Y, lower=True)),
        (capacity._back_substitute(L.T, Y), scipy.linalg.solve_triangular(L.T, Y)),
    ]:
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


@pytest.mark.parametrize("example, kmax", [(1, 5), (2, 40)], ids=["example1", "example2-k40"])
def test_one_factorization_per_bound_sequence(example, kmax, monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    capacity.bounds_sequence(example_map(example), kmax, N=1024)
    assert calls == [(4 * kmax, 4 * kmax)]


def test_traced_poles_are_not_wound_again(monkeypatch):
    calls = []
    windings = boundary._windings

    def counting(z_curve, points):
        calls.append(len(points))
        return windings(z_curve, points)

    # capacity imports _windings by name: count its calls there too
    monkeypatch.setattr(boundary, "_windings", counting)
    monkeypatch.setattr(capacity, "_windings", counting)
    capacity.bounds_sequence(parse_map(DEGREE16_0), 4)
    # trace winds each of its 16 curves about the 16 poles; assemble_gram
    # winds none of them again
    assert calls == [16] * 16


def test_degree16_default_resolution():
    R = parse_map(DEGREE16_0)
    auto = capacity.bounds_sequence(R, 4)
    assert auto.N == 128 and auto.certified
    assert auto.quad_error <= capacity.QUAD_TOL
    fine = capacity.bounds_sequence(R, 4, N=4096)
    assert np.abs(np.array(auto.rows) - np.array(fine.rows)).max() <= 1e-12


def test_marginal_estimate_covers_the_reference():
    job = next(j for j in json.loads(BANK_PATH.read_text())["marginal"] if j["id"] == "marginal-0")
    assert job["map"] == MARGINAL_0
    bounds = capacity.bounds_sequence(parse_map(MARGINAL_0), job["kmax"])
    assert bounds.N == boundary.DEFAULT_N
    assert bounds.certified is False
    e = bounds.quad_error
    for (k, low, up), (kr, rlow, rup) in zip(bounds.rows, job["oracle"]["rows"]):
        assert k == kr and low - e <= rlow and rup <= up + e


def test_ambiguous_start_escalates(monkeypatch):
    # trace keeps the N it starts at; only bounds_sequence's quadrature
    # error escalates it.
    R = parse_map(MARGINAL_AMBIGUOUS)
    assert boundary.trace(R, N=256).N == 256
    monkeypatch.setattr(boundary, "start_n", lambda max_cv_modulus: 256)
    assert boundary.trace(R).N == 256
    assert capacity.bounds_sequence(R, 3, N=256).N == 256
    bounds = capacity.bounds_sequence(R, 3)
    assert bounds.N > 256
    assert [r[0] for r in bounds.rows] == [1, 2, 3]


def test_margin_8e_9_map_has_a_bracket():
    bounds = capacity.bounds_sequence(parse_map(MARGIN_8E_9), 5)
    rows = np.array(bounds.rows)
    assert bounds.N == boundary.DEFAULT_N
    assert rows[:, 0].tolist() == [1, 2, 3, 4, 5]
    assert np.all(rows[:, 1] <= rows[:, 2])
    assert np.all(np.diff(rows[:, 1]) >= 0) and np.all(np.diff(rows[:, 2]) <= 0)


@pytest.mark.parametrize("n, c", [(32, 0.12), (48, 0.18), (64, 0.17)])
def test_equally_spaced_real_poles_certify_at_high_degree(n, c):
    # real poles and positive residues make an Ahlfors map: gamma = n c
    bounds = capacity.bounds_sequence(RationalMapPF(np.full(n, c), np.arange(n)), 1)
    ((_, lower, upper),) = bounds.rows
    assert bounds.certified and lower <= n * c <= upper


def test_seven_pole_map_has_a_bracket_at_the_default_n():
    bounds = capacity.bounds_sequence(parse_map(SEVEN_POLE), 3)
    rows = np.array(bounds.rows)
    assert bounds.N == boundary.DEFAULT_N
    assert np.all(rows[:, 1] <= rows[:, 2])
    assert np.all(np.diff(rows[:, 1]) >= 0) and np.all(np.diff(rows[:, 2]) <= 0)


def test_escalation_classifies_the_map_once(monkeypatch):
    # the natural path, with start_n as it is: the map misses QUAD_TOL at
    # N = 128 and escalates once; the re-trace at N = 256 classifies the map
    # from its cached critical data, with no second root solve
    R = parse_map(ESCALATING_072)
    assert boundary.start_n(ratmap.critical_data(R).max_cv_modulus) == 128
    traced, solved = [], []
    trace, roots = capacity.trace, numerics.roots

    def recording_trace(R, N=None):
        sampling = trace(R, N)
        traced.append(sampling.N)
        return sampling

    def counting(*args, **kwargs):
        solved.append(args)
        return roots(*args, **kwargs)

    monkeypatch.setattr(capacity, "trace", recording_trace)
    monkeypatch.setattr(numerics, "roots", counting)
    bounds = capacity.bounds_sequence(R, 4)
    assert traced == [128, 256]
    assert bounds.N == 256 and bounds.certified
    assert len(solved) == 1
    fine = capacity.bounds_sequence(R, 4, N=4096)
    assert np.abs(np.array(bounds.rows) - np.array(fine.rows)).max() <= 1e-12
