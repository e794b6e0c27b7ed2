"""Level-set tracing, quadrature nodes, and exports."""

import types

import numpy as np
import pytest

from capax import boundary, numerics, ratmap
from capax.cli import example_map, parse_map
from capax.errors import ComponentCountMismatch, TrackingAmbiguity
from capax.ratmap import RationalMapPF

from conftest import random_good_map, random_not_good_map


def disk_map(a=0.7, p=0.3 + 0.1j):
    return RationalMapPF([a], [p])


def test_trace_validates_n():
    R = disk_map()
    for bad in (100, 32, 131072, 0):
        with pytest.raises(ValueError):
            boundary.trace(R, N=bad)


def test_trace_rejects_not_good_maps():
    rng = np.random.default_rng(31)
    with pytest.raises(ComponentCountMismatch):
        boundary.trace(random_not_good_map(rng, 2), N=256)


def test_disk_geometry():
    # |a/(z - p)| = 1 is the circle of radius a about p, traversed clockwise.
    a, p = 0.7, 0.3 + 0.1j
    sampling = boundary.trace(disk_map(a, p), N=256)
    assert len(sampling.curves) == 1
    curve = sampling.curves[0]
    assert curve.enclosed_pole == p
    assert np.max(np.abs(np.abs(curve.z - p) - a)) < 1e-12
    assert np.max(np.abs(curve.speed - a)) < 1e-12
    assert abs(sampling.total_arclength - 2 * np.pi * a) < 1e-10
    z0 = curve.z[0]
    assert abs(z0 - (p + a)) < 1e-12  # starts at the preimage of +1
    # Clockwise start: the next node rotates by -2 pi / N about p.
    step = (curve.z[1] - p) / (curve.z[0] - p)
    assert abs(step - np.exp(-2j * np.pi / 256)) < 1e-10


def test_disk_quadrature_oracles():
    a, p = 0.45, -0.2 + 0.4j
    R = disk_map(a, p)
    sampling = boundary.trace(R, N=512)
    z, lam = sampling.nodes()
    assert abs(np.sum(lam) - a) < 1e-12  # <1,1> = arclength / 2 pi
    g = 1.0 / (z - p)
    assert abs(np.sum(lam * g * np.conj(g)) - 1.0 / a) < 1e-12
    assert abs(np.sum(lam * g)) < 1e-12


def test_weights_are_speed_over_n():
    sampling = boundary.trace(example_map(1), N=1024)
    for curve, lam in zip(sampling.curves, sampling.weights):
        assert np.array_equal(lam, curve.speed / sampling.N)


def test_quad_inner_is_hermitian():
    rng = np.random.default_rng(37)
    R = random_good_map(rng, 2)
    sampling = boundary.trace(R, N=256)
    f = lambda z: 1.0 / (z - R.poles[0])
    g = lambda z: 1.0 / (z - R.poles[1]) ** 2
    fg = boundary.quad_inner(sampling, f, g)
    gf = boundary.quad_inner(sampling, g, f)
    assert abs(fg - np.conj(gf)) < 1e-14


def test_component_count_and_node_quality():
    rng = np.random.default_rng(41)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        R = random_good_map(rng, n)
        sampling = boundary.trace(R, N=1024)
        assert len(sampling.curves) == n
        enclosed = np.array([c.enclosed_pole for c in sampling.curves])
        # one curve per pole, each enclosing exactly its own
        for p in R.poles:
            assert np.min(np.abs(enclosed - p)) == 0.0
        for curve in sampling.curves:
            assert np.all(curve.speed > 0)
            assert np.max(np.abs(np.abs(R(curve.z)) - 1.0)) < 1e-9
            # Each node stays nearest its own pole's curve seed region:
            # the traced points never hit another pole.
            assert np.min(np.abs(curve.z[:, None] - R.poles[None, :])) > 1e-6


def test_arclength_stable_under_refinement():
    rng = np.random.default_rng(43)
    R = random_good_map(rng, 3)
    s1 = boundary.trace(R, N=1024).total_arclength
    s2 = boundary.trace(R, N=2048).total_arclength
    assert abs(s1 - s2) / s2 < 1e-9


def test_real_symmetric_maps_have_conjugate_closed_nodes():
    rng = np.random.default_rng(47)
    R = random_good_map(rng, 3, real=True, positive=True)
    z, _ = boundary.trace(R, N=512).nodes()
    zc = np.conj(z)
    dist = np.min(np.abs(zc[:, None] - z[None, :]), axis=1)
    assert np.max(dist) < 1e-8


def test_rotational_symmetry_of_curves():
    # 3-fold symmetric map: rotating one curve by w lands on the curve around
    # the rotated pole, up to the grid spacing.
    w3 = np.exp(2j * np.pi / 3)
    poles = w3 ** np.arange(3)
    R = RationalMapPF(np.full(3, 1 / 3), poles)
    sampling = boundary.trace(R, N=4096)

    def curve_for(pole):
        return min(sampling.curves, key=lambda c: abs(c.enclosed_pole - pole))

    src = curve_for(poles[0])
    dest = curve_for(w3 * poles[0])
    rotated = w3 * src.z
    dist = np.min(np.abs(rotated[:, None] - dest.z[None, :]), axis=1)
    assert np.max(dist) < 5e-3
    total = sum(c.z.shape[0] for c in sampling.curves)
    assert total == 3 * src.z.shape[0]


def test_csv_export_schema():
    R = disk_map()
    sampling = boundary.trace(R, N=64)
    text = boundary.emit_csv(sampling)
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "component,t,re,im,speed"
    assert len(lines) == 1 + 64
    first = lines[1].split(",")
    assert len(first) == 5
    assert int(first[0]) == 0
    assert float(first[1]) == 0.0
    z0 = complex(float(first[2]), float(first[3]))
    assert abs(z0 - (0.3 + 0.1j + 0.7)) < 1e-12


def test_svg_export_shape():
    rng = np.random.default_rng(53)
    R = random_good_map(rng, 2)
    sampling = boundary.trace(R, N=128)
    text = boundary.emit_svg(sampling)
    assert text.lstrip().startswith("<svg")
    assert text.count("<polyline") == 2
    # Closed outline: each polyline repeats its first vertex at the end.
    for chunk in text.split("<polyline")[1:]:
        pts = chunk.split('points="')[1].split('"')[0].split()
        assert pts[0] == pts[-1]


# Sequential continuation: each step is matched against the already ordered
# previous step.  The batched walk in boundary must reproduce it bit for bit.


def _seq_match(prev, new):
    D = np.abs(prev[:, None] - new[None, :])
    perm = D.argmin(axis=1)
    if np.unique(perm).size != perm.size:
        return None
    if perm.size > 1:
        rows = np.arange(perm.size)
        d1 = D[rows, perm]
        D2 = D.copy()
        D2[rows, perm] = np.inf
        d2 = D2.min(axis=1)
        if np.any(d2 < boundary.STABILITY_RATIO * d1):
            return None
    return perm


def _seq_refine_gap(left, t0, t1, solver):
    for depth in range(1, boundary._MAX_REFINE_DEPTH + 1):
        m = 1 << depth
        ts = t0 + (t1 - t0) * np.arange(1, m + 1) / m
        Z, ok = solver(np.exp(1j * ts), left)
        if not ok.all():
            continue
        cur = left
        for r in range(m):
            perm = _seq_match(cur, Z[r])
            if perm is None:
                cur = None
                break
            cur = Z[r][perm]
        if cur is not None:
            return cur
    raise TrackingAmbiguity(
        f"continuation between t = {t0:.6f} and t = {t1:.6f} stayed ambiguous "
        f"after {1 << boundary._MAX_REFINE_DEPTH} substeps; double N"
    )


def _seq_order_chain(Z, ts, z0, solver):
    N, n = Z.shape
    out = np.empty_like(Z)
    perm = _seq_match(z0, Z[0])
    if perm is None:
        raise TrackingAmbiguity("seed roots did not match the first step")
    out[0] = Z[0][perm]
    for i in range(1, N):
        perm = _seq_match(out[i - 1], Z[i])
        if perm is None:
            refined = _seq_refine_gap(out[i - 1], ts[i - 1], ts[i], solver)
            perm = _seq_match(refined, Z[i])
            if perm is None:
                raise TrackingAmbiguity(
                    f"continuation at t = {ts[i]:.6f} remained ambiguous after refinement"
                )
        out[i] = Z[i][perm]
    wrap = _seq_match(out[-1], out[0])
    if wrap is None:
        refined = _seq_refine_gap(out[-1], ts[-1], 2.0 * np.pi, solver)
        wrap = _seq_match(refined, out[0])
        if wrap is None:
            raise TrackingAmbiguity("closing step remained ambiguous after refinement")
    if np.any(wrap != np.arange(n)):
        raise ComponentCountMismatch("tracking around the full circle permuted the roots")
    return out


def _chain_inputs(R, N):
    """Full-grid (Z, ts, z0, solver) for _order_chain: raw root sets at every
    node of the uniform t grid from trace's row solver, seeded like trace by
    the t = 0 row."""
    solver, _ = boundary._row_solver(R)
    ts = 2.0 * np.pi * np.arange(N) / N
    Z, ok = solver(np.exp(1j * ts))
    assert ok.all()
    return Z, ts, Z[0], solver


# A near-marginal three-pole map (max |critical value| in [0.999, 0.9999])
# with exactly one hop that needs refinement at N = 4096.
MARGINAL_REFINED = (
    "1.0510999226056978/(z-(0.50829346734711445-1.8812284896496094i))"
    "+0.77500357890441585/(z+(0.51821207356101384-1.6579777844243604i))"
    "+0.62825875915628793/(z-(1.6631038947789429-0.20933768418389676i))"
)
# A near-marginal map whose continuation stays ambiguous at N = 256.
MARGINAL_AMBIGUOUS = (
    "0.11120784373548635/(z-(0.16865095314031864+1.9968914926305823i))"
    "+0.38932848903285017/(z+(1.0690222007712338+0.54205289817735158i))"
    "+0.25684211445241356/(z+(0.95815962127432908+1.1955315579939034i))"
)


@pytest.mark.parametrize(
    "R, refined_hops",
    [
        pytest.param(lambda: example_map(1), 0, id="example1"),
        pytest.param(lambda: example_map(6), 0, id="example6"),
        pytest.param(lambda: parse_map(MARGINAL_REFINED), 1, id="marginal-refined"),
    ],
)
def test_batched_chain_matches_sequential_walk(monkeypatch, R, refined_hops):
    args = _chain_inputs(R(), boundary.DEFAULT_N)
    calls = []
    real_refine = boundary._refine_gap

    def counting_refine(*a):
        calls.append(a)
        return real_refine(*a)

    monkeypatch.setattr(boundary, "_refine_gap", counting_refine)
    assert np.array_equal(boundary._order_chain(*args), _seq_order_chain(*args))
    assert len(calls) == refined_hops


def test_batched_chain_raises_like_sequential_walk():
    args = _chain_inputs(parse_map(MARGINAL_AMBIGUOUS), 256)
    with pytest.raises(TrackingAmbiguity) as batched:
        boundary._order_chain(*args)
    with pytest.raises(TrackingAmbiguity) as sequential:
        _seq_order_chain(*args)
    assert str(batched.value) == str(sequential.value)


# Bank map degree16-0 of pipebench/bank.json: sixteen poles, every block of
# the anchor-and-fill trace passes at the default N.
DEGREE16_0 = (
    "(0.038971303878753805+0.00077844453643789475i)/(z-(0.50829346734711445-1.8812284896496094i))"
    "+(0.012465661862757224+0.01012029006818424i)/(z+(0.51821207356101384-1.6579777844243604i))"
    "-(0.0010898639210941258+0.034944434356545796i)/(z-(1.6631038947789429-0.20933768418389676i))"
    "-(0.018424579193872193+0.0047420655324596737i)/(z+(0.082994335391878948+0.7032852581864657i))"
    "-(5.3261086127831426e-05-0.026764530114757292i)/(z+(1.0329690143588186-0.66753788587716478i))"
    "-(0.011506109541158745-0.0043577185281142173i)/(z+(1.1333814310203381+0.01003802176099855i))"
    "+(0.0035262537622609111-0.028701378367568028i)/(z-(0.50939701995562281+0.6259544097709564i))"
    "-(0.040242445399274636+0.040343353544559472i)/(z-(1.6546202098413976-0.6764457971503286i))"
    "-(0.0076284867466664026-0.015428519948667788i)/(z-(1.8113652365165653-1.7940042771504414i))"
    "+(0.054274642641230712+8.0800597072316988e-05i)/(z-(1.994938031284577+1.8193939632253588i))"
    "+(0.019668085446719642+0.0027195488190957543i)/(z-(0.68164402264193358+1.1629963902039013i))"
    "-(0.048814748458573053+0.0035689464504239528i)/(z+(0.28219997981068001+1.8071753033671305i))"
    "+(0.0047541837290245312+0.0090812915955818321i)/(z+(1.7360342325785458-1.2835916086074697i))"
    "+(0.0046207182837812227+0.0075482201190690754i)/(z-(1.250924535803982-1.876417165685595i))"
    "-(0.024368677824799182-0.022608430259045159i)/(z+(1.1200646920841102+1.1782371459087337i))"
    "+(0.017446659201172512+0.033076047546996348i)/(z-(1.0841148948357171-1.2854673571473705i))"
)


def _trace_and_reference(R, N=boundary.DEFAULT_N):
    """trace's nodes as an (N, n) array, and the full-grid reference (every
    node eigensolved, ordered by _order_chain) with its columns in the same
    curve order."""
    Z = np.stack([c.z for c in boundary.trace(R, N=N).curves], axis=1)
    ref = boundary._order_chain(*_chain_inputs(R, N))
    cols = np.abs(Z[0][:, None] - ref[0][None, :]).argmin(axis=1)
    return Z, ref[:, cols]


TRACE_MAPS = [
    pytest.param(lambda: example_map(1), id="example1"),
    pytest.param(lambda: example_map(6), id="example6"),
    pytest.param(lambda: parse_map(DEGREE16_0), id="degree16-0"),
    pytest.param(lambda: parse_map(MARGINAL_REFINED), id="marginal-refined"),
]


@pytest.mark.parametrize("R", TRACE_MAPS)
def test_anchor_and_fill_matches_full_grid(R):
    Z, ref = _trace_and_reference(R())
    assert np.abs(Z - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("R", TRACE_MAPS)
def test_failed_blocks_fall_back_to_the_full_grid_walk(monkeypatch, R):
    # Fill guesses that never converge send every block to the fallback,
    # which must then reproduce the full-grid walk exactly.
    def unconverged(pc, qc, ws, Z, tol):
        return Z, np.zeros(len(ws), dtype=bool)

    fake = types.SimpleNamespace(**vars(numerics))
    fake.polish_rows = unconverged
    monkeypatch.setattr(boundary, "numerics", fake)
    refilled = []
    real_refill = boundary._refill

    def counting_refill(Z, ts, a, Zb, solver):
        refilled.append(a)
        return real_refill(Z, ts, a, Zb, solver)

    monkeypatch.setattr(boundary, "_refill", counting_refill)
    Z, ref = _trace_and_reference(R())
    assert refilled == list(range(0, boundary.DEFAULT_N, 8))
    assert np.array_equal(Z, ref)


def test_refill_must_join_the_next_anchor_in_order():
    Zraw, ts, z0, solver = _chain_inputs(example_map(1), 512)
    ref = boundary._order_chain(Zraw, ts, z0, solver)
    Z = ref.copy()
    Z[1:8] = 0
    boundary._refill(Z, ts, 0, Zraw[1:8], solver)
    assert np.array_equal(Z, ref)
    Z[8] = Z[8][::-1]  # an anchor chain that swapped the two curves
    with pytest.raises(TrackingAmbiguity, match="anchor chain's order"):
        boundary._refill(Z, ts, 0, Zraw[1:8], solver)


def test_trace_solves_only_the_anchors(monkeypatch):
    kernel, eigen = [], []
    real_aberth, real_solve = numerics.aberth_rows, numerics.solve_rows

    def counting_aberth(a, p, ws, Z0):
        kernel.append(len(ws))
        return real_aberth(a, p, ws, Z0)

    def counting_solve(pc, qc, ws, tol):
        eigen.append(len(ws))
        return real_solve(pc, qc, ws, tol)

    monkeypatch.setattr(numerics, "aberth_rows", counting_aberth)
    monkeypatch.setattr(numerics, "solve_rows", counting_solve)
    boundary.trace(parse_map(DEGREE16_0), N=4096)
    assert sum(kernel) == 4096 // 8
    assert sum(eigen) == 0


@pytest.mark.parametrize("R", TRACE_MAPS[::2])
def test_trace_seeds_from_the_first_anchor(monkeypatch, R):
    def no_preimages(*args):
        raise AssertionError("trace must not solve for the seed separately")

    monkeypatch.setattr(ratmap, "preimages", no_preimages)
    sampling = boundary.trace(R())
    assert len(sampling.curves) == R().n


@pytest.mark.parametrize("M", [1, 2, 7, 4096])
@pytest.mark.parametrize("n", [1, 3, 16])
def test_compose_matches_prefix_loop(M, n):
    rng = np.random.default_rng(1000 * M + n)
    P = np.array([rng.permutation(n) for _ in range(M)])
    expect = np.empty_like(P)
    cur = np.arange(n)
    for i in range(M):
        cur = P[i][cur]
        expect[i] = cur
    assert np.array_equal(boundary._compose(P), expect)


def test_match_rows_rejects_only_the_bad_rows():
    rows = [
        ([0, 1], [1.01, 0.01], [1, 0]),  # clean swap
        ([0, 0.1], [0.04, 5], None),  # both nearest new[0]: not injective
        ([0, 1j], [0.02, 1.01j], [0, 1]),  # clean identity
        ([0, 3], [-1, 1.5], None),  # second-nearest 1.5 < 2 x nearest 1
        ([2, -2], [-2.1, 2.1], [1, 0]),  # clean swap
    ]
    prev = np.array([r[0] for r in rows], dtype=np.complex128)
    new = np.array([r[1] for r in rows], dtype=np.complex128)
    perm, ok = boundary._match_rows(prev, new)
    assert ok.tolist() == [r[2] is not None for r in rows]
    for m, (_, _, expect) in enumerate(rows):
        if expect is not None:
            assert perm[m].tolist() == expect
