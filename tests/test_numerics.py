"""Polynomial utilities and the root finder."""

import math

import numpy as np
import pytest

from capax import boundary, numerics, ratmap
from capax.capacity import bounds_sequence
from capax.cli import example_map, parse_map
from capax.errors import NonConvergence
from capax.ratmap import RationalMapPF, evaluate, is_n_good, preimages

from test_boundary import DEGREE16_0, MARGINAL_REFINED, _solved_rows


def test_poly_trim_drops_leading_zeros():
    c = numerics.poly_trim([1.0, 2.0, 0.0, 0.0])
    assert c.tolist() == [1.0 + 0j, 2.0 + 0j]


def test_poly_from_roots_and_eval():
    c = numerics.poly_from_roots([1.0, -1.0])
    assert np.allclose(c, [-1, 0, 1])


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
    c = numerics.poly_from_roots([1.0, 1.0, -2.0])
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


def test_residual_contract_on_returned_roots():
    rng = np.random.default_rng(11)
    c = rng.uniform(-1, 1, size=10) + 1j * rng.uniform(-1, 1, size=10)
    r = numerics.roots(c)
    # the documented bound |p(r)| <= tol * (1 + max|c|) * (1 + |r|)^deg
    res = np.abs(np.polyval(c[::-1], r))
    bound = numerics.DEFAULT_ROOT_TOL * (1 + np.abs(c).max()) * (1 + np.abs(r)) ** (c.size - 1)
    assert np.all(res <= bound)


def _allocating_eval(c, z):
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for k in range(c.size - 1, -1, -1):
        dp = dp * z + p
        p = p * z + c[k]
    return p, dp


@pytest.mark.parametrize("M, n", [(3584, 16), (4096, 3), (1, 1)])
def test_in_place_horner_is_bit_identical(M, n):
    # M points of one degree-n polynomial
    rng = np.random.default_rng(M + n)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    z = rng.normal(size=M) + 1j * rng.normal(size=M)
    p, dp = numerics._eval(c, z)
    p_ref, dp_ref = _allocating_eval(c, z)
    assert np.array_equal(p, p_ref) and np.array_equal(dp, dp_ref)


def test_polish_rows_ok_matches_a_fresh_residual_check():
    rng = np.random.default_rng(29)
    n = 5
    R = RationalMapPF(0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                      rng.normal(size=n) + 1j * rng.normal(size=n))
    a, p, tol = R.residues, R.poles, numerics.DEFAULT_ROOT_TOL
    ws = np.exp(2j * np.pi * np.arange(64) / 64)
    Z, ok = numerics.solve_pf_rows(a, p, ws)
    assert ok.all()
    # perturbed roots: every row but the untouched ones fails the check
    guess = Z * (1 + 1e-6 * rng.normal(size=Z.shape))
    guess[::7] = Z[::7]

    def fresh(Z):
        return np.array([
            (np.abs(evaluate(R, z) - w) <= tol * np.abs(a / (z[:, None] - p)).sum(axis=1)).all()
            for w, z in zip(ws, Z)
        ])

    ok = numerics.pf_rows_ok(a, p, ws, guess)
    assert ok.any() and not ok.all()
    assert np.array_equal(ok, fresh(guess))
    # the warm solve brings every row back, and its ok is the check
    Zp, ok = numerics.solve_pf_rows(a, p, ws, guess)
    assert ok.all() and np.array_equal(ok, fresh(Zp))


def test_huge_values_overflow_nothing():
    # |t|^2 = 1e400 would overflow, the scale itself (2e200) does not
    a, p, ws = np.array([0.3]), np.array([0.0]), np.array([1e200])
    assert numerics.pf_rows_ok(a, p, ws, 0.3 / ws[:, None]).all()
    # a scale that overflows fails the row, whatever its residual
    a, p = np.array([1e308, 1e308]), np.array([0.0, 2.0])
    assert not numerics.pf_rows_ok(a, p, np.array([1e-300]), np.ones((1, 2))).any()
    # a preimage of 1e200 rounds onto its pole, where the residual check
    # fails it: an error, not a warning
    with pytest.raises(NonConvergence):
        preimages(RationalMapPF(np.array([0.3, 0.2]), np.array([0.0, 1.0])), 1e200)


# The partial-fraction Aberth kernel behind trace's row solver, on maps of
# the benchmark bank's kinds (MARGINAL_REFINED is bank map marginal-0).

BANK_STYLE_MAPS = [
    pytest.param(lambda: example_map(1), id="example1"),
    pytest.param(lambda: example_map(2), id="example2"),
    pytest.param(lambda: example_map(6), id="example6"),
    pytest.param(lambda: parse_map(DEGREE16_0), id="degree16-0"),
    pytest.param(lambda: parse_map(MARGINAL_REFINED), id="marginal-0"),
]


def _anchor_ws(R):
    """The anchor row points of trace at the map's default N."""
    N = boundary.start_n(is_n_good(R).data.max_cv_modulus)
    S = min(boundary._ANCHOR_STRIDE, N // 64)
    return np.exp(2j * np.pi * np.arange(0, N, S) / N)


def _counting_eigensolve(monkeypatch):
    rows = []
    real = numerics._pf_eigvals

    def counting(a, p, ws):
        rows.append(len(ws))
        return real(a, p, ws)

    monkeypatch.setattr(numerics, "_pf_eigvals", counting)
    return rows


@pytest.mark.parametrize("R", BANK_STYLE_MAPS)
def test_aberth_anchor_rows_match_the_eigensolver(monkeypatch, R):
    R = R()
    a, p = R.residues, R.poles
    ws = _anchor_ws(R)
    # the roots of R = w are the eigenvalues of diag(p) + a 1^T / w
    ref = np.array([np.linalg.eigvals(np.diag(p) + a[:, None] / w) for w in ws])
    fallback = _counting_eigensolve(monkeypatch)
    Z, ok = numerics.solve_pf_rows(a, p, ws)
    assert fallback == [] and ok.all()
    # the same root set: the nearest-root assignment is a bijection
    D = np.abs(Z[:, :, None] - ref[:, None, :])
    assert (np.sort(D.argmin(axis=2), axis=1) == np.arange(R.n)).all()
    rel = D.min(axis=2).max(axis=1) / np.abs(ref).max(axis=1)
    assert rel.max() <= 1e-13


def test_aberth_returns_the_exact_start_of_a_disk_map(monkeypatch):
    # n = 1: p + a/w is the root itself, so f = 0 at the start
    R = RationalMapPF([0.5], [0.25 - 0.5j])
    a, p = R.residues, R.poles
    ws = np.exp(2j * np.pi * np.arange(64) / 64)
    start = p + a / ws[:, None]
    Z, done = numerics.aberth_rows(a, p, ws, start)
    assert done.all()
    assert np.abs(Z - start).max() <= 1e-15
    fallback = _counting_eigensolve(monkeypatch)
    Z, ok = numerics.solve_pf_rows(a, p, ws)
    assert ok.all() and fallback == []
    assert np.abs(Z - start).max() <= 1e-15


def test_row_blocks_do_not_change_the_rows(monkeypatch):
    # 64 rows in one block and in blocks of 5, with row 37 forced to the
    # eigensolver
    R = parse_map(DEGREE16_0)
    a, p = R.residues, R.poles
    ws = np.exp(2j * np.pi * np.arange(64) / 64)
    calls = []
    real = numerics.aberth_rows

    def forced(a, p, w, Z0):
        calls.append(len(w))
        Z, done = real(a, p, w, Z0)
        done[w == ws[37]] = False
        return Z, done

    monkeypatch.setattr(numerics, "aberth_rows", forced)
    fallback = _counting_eigensolve(monkeypatch)
    Z, ok = numerics.solve_pf_rows(a, p, ws)
    assert calls == [64, 1] and fallback == [1] and ok.all()
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 5 * p.size**2)
    Zb, okb = numerics.solve_pf_rows(a, p, ws)
    assert len(calls) == 2 + 13 + 1 and fallback == [1, 1]
    assert np.array_equal(okb, ok) and Zb.tobytes() == Z.tobytes()


@pytest.mark.parametrize("R, N", [
    pytest.param(lambda: example_map(1), 1024, id="example1"),
    pytest.param(lambda: parse_map(DEGREE16_0), 256, id="degree16-0"),
])
@pytest.mark.parametrize("force", ["budget", "coincident"])
def test_unsettled_rows_go_to_the_eigensolver(monkeypatch, R, N, force):
    # budget: no row freezes, so every row goes to the eigensolver, the cold
    # anchors and the warm fill rows alike; coincident: only the cold starts
    # are spoiled, since the fill and the eigenvalues warm-start aberth_rows
    R = R()
    expect = np.stack([c.z for c in boundary.trace(R, N=N).curves])
    cold_rows = []
    real = numerics.aberth_rows

    def forced(a, p, ws, Z0):
        if np.array_equal(np.broadcast_to(Z0, (len(ws), p.size)), p + a / ws[:, None]):
            cold_rows.append(len(ws))
            if force == "coincident":
                Z0 = np.full(p.size, p[0] + 1.0)  # every root starts at one point
        return real(a, p, ws, Z0)

    monkeypatch.setattr(numerics, "aberth_rows", forced)
    if force == "budget":
        monkeypatch.setattr(numerics, "_ABERTH_ITERS", 1)
    fallback = _counting_eigensolve(monkeypatch)
    got = np.stack([c.z for c in boundary.trace(R, N=N).curves])
    rows = _solved_rows(R, N)
    anchors = len(range(0, rows, min(boundary._ANCHOR_STRIDE, N // 64)))
    assert sum(cold_rows) == anchors
    assert sum(fallback) == (rows if force == "budget" else anchors)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("R", BANK_STYLE_MAPS[3:])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_aberth_rows_do_not_depend_on_the_batch(R, warm):
    # 4096 rows make arrays above numpy's 256 KiB temporary-elision size
    solver = boundary._row_solver(R())
    ws = np.exp(2j * np.pi * np.arange(4096) / 4096)
    Z0 = solver(ws[:1])[0][0] if warm else None
    Z, ok = solver(ws, Z0)
    for r in range(0, 4096, 331):
        Zr, okr = solver(ws[r : r + 1], Z0)
        assert np.array_equal(Zr[0], Z[r]) and okr[0] == ok[r]


def _dense_aberth_rows(a, p, ws, Z0):
    """The dense formulation of aberth_rows, kept as its bit-for-bit
    reference: a fresh (n, n, live) tensor per pass, the gap tensor with an
    infinite diagonal, and a take and scatter of the live rows every step."""
    n = p.size
    Zt = np.array(np.broadcast_to(Z0, (len(ws), n)).T, dtype=np.complex128, order="C")
    done = np.zeros(len(ws), dtype=bool)
    live = np.arange(len(ws))
    diag = np.arange(n)
    a3, p3 = a[:, None, None], p[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(numerics._ABERTH_ITERS):
            z = Zt.take(live, axis=1)
            inv = 1.0 / (z - p3)
            ainv = inv * a3
            g = ainv.sum(axis=0) - ws[live]
            ainv *= inv
            den = inv.sum(axis=0)
            den *= g
            den -= ainv.sum(axis=0)
            newton = g / den
            gap = z - z[:, None]
            gap[diag, diag] = np.inf
            near = (1.0 / gap).sum(axis=0)
            step = newton / (1.0 - newton * near)
            small = np.abs(step) <= numerics._ABERTH_STEP_REL * np.abs(z)
            step[~np.isfinite(step)] = 0.0
            z -= step
            Zt[:, live] = z
            settled = small.all(axis=0)
            done[live[settled]] = True
            live = live[~settled]
            if not live.size:
                break
    return Zt.T.copy(), done


@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize("start", ["cold", "warm", "mixed"])
def test_aberth_rows_match_the_dense_formulation(n, start):
    # mixed: rows started at their roots freeze at the first step, cold rows
    # later; row 0 starts a root on a pole and row 1 two roots at one point,
    # so their steps are not finite and they never freeze.  1100 rows put the
    # (n, live) vectors of n = 16 above numpy's 256 KiB temporary-elision
    # size, where an operand swap would show.
    rng = np.random.default_rng(n)
    a = rng.uniform(0.1, 1.0, n) * np.exp(2j * np.pi * rng.random(n)) / n
    p = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    ws = np.exp(2j * np.pi * np.arange(1100) / 1100)
    cold = p + a / ws[:, None]
    if start == "cold":
        Z0 = cold
    elif start == "warm":
        Z0 = numerics.aberth_rows(a, p, ws[:1], cold[:1])[0][0]  # one row for all
    else:
        Z0 = cold.copy()
        Z0[::3] = numerics.aberth_rows(a, p, ws[::3], cold[::3])[0]
        Z0[0, 0] = p[0]
        if n > 1:
            Z0[1, 1] = Z0[1, 0]
    Z, done = numerics.aberth_rows(a, p, ws, Z0)
    Zd, doned = _dense_aberth_rows(a, p, ws, Z0)
    assert Z.tobytes() == Zd.tobytes() and np.array_equal(done, doned)
    if start == "mixed":
        assert done[3::3].all() and not done[: min(n, 2)].any()
        assert Z[0, 0] == p[0]  # a root on a pole stays there


def test_cluster_check_is_scale_free(monkeypatch):
    # example 1 shrunk to poles +-1e-9: its roots are 1e-9 apart, yet no row
    # is clustered, and the bounds are example 1's times 1e-9
    fallback = _counting_eigensolve(monkeypatch)
    R = example_map(1)
    small = ratmap.affine_conjugate(R, 1e9, 0)
    b = bounds_sequence(small, 5)
    assert fallback == [] and b.certified
    ref = bounds_sequence(R, 5)
    got, expect = np.array(b.rows)[:, 1:], 1e-9 * np.array(ref.rows)[:, 1:]
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
