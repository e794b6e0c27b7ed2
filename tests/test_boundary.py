"""Level-set tracing, quadrature nodes, and exports."""

import tracemalloc

import numpy as np
import pytest

from capax import boundary, numerics, ratmap
from capax.cli import example_map, parse_map
from capax.errors import ComponentCountMismatch, TrackingAmbiguity
from capax.ratmap import RationalMapPF

from conftest import random_good_map, random_not_good_map


def disk_map(a=0.7, p=0.3 + 0.1j):
    return RationalMapPF([a], [p])


@pytest.mark.parametrize("max_cv, N", [
    (0.0, 128),
    (0.74, 128),  # 0.74**128 = 1.8e-17
    (0.75, 256),  # 0.75**128 = 1.02e-16
    (0.866, 512),  # 0.866**256 = 1.01e-16
    (0.999, boundary.DEFAULT_N),  # 0.999**4096 = 0.017: the cap
])
def test_start_n_table(max_cv, N):
    assert boundary.start_n(max_cv) == N


def test_start_n_never_goes_below_the_floor():
    Ns = [boundary.start_n(v) for v in np.linspace(0.0, 0.9999, 1001)]
    assert min(Ns) == boundary.AUTO_N_MIN == 128
    assert all(boundary.valid_n(N) for N in Ns) and Ns == sorted(Ns)


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


@pytest.mark.parametrize("R, real", [
    *[pytest.param(lambda k=k: example_map(k), k <= 3, id=f"example{k}") for k in range(1, 7)],
    pytest.param(
        lambda: RationalMapPF(np.full(16, 0.3 / 16), -2.0 + 4.0 * np.arange(16) / 16),
        True,
        id="real-poles-16",
    ),
])
def test_real_maps_have_exactly_conjugate_nodes(R, real):
    # a real map solves t in [0, pi] only: the node at 2pi - t is the
    # conjugate of the node at t on the same curve, bit for bit.  Example 5
    # is closed under conjugation but not real, and example 4's poles are
    # conjugate only to roundoff: they solve the whole circle.
    sampling = boundary.trace(R())
    assert sampling.conjugate_symmetric == real
    N, i = sampling.N, np.arange(1, sampling.N // 2)
    if real:
        for curve in sampling.curves:
            assert np.array_equal(curve.z[N - i], np.conj(curve.z[i]))


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


def _row_match(prev, new):
    """One row's nearest-neighbor perm, and whether it is injective and every
    nearest distance beats the second-nearest by STABILITY_RATIO."""
    D = np.abs(prev[:, None] - new[None, :])
    perm = D.argmin(axis=1)
    if np.unique(perm).size != perm.size:
        return perm, False
    if perm.size > 1:
        rows = np.arange(perm.size)
        d1 = D[rows, perm]
        D2 = D.copy()
        D2[rows, perm] = np.inf
        d2 = D2.min(axis=1)
        if np.any(d2 < boundary.STABILITY_RATIO * d1):
            return perm, False
    return perm, True


def _seq_match(prev, new):
    perm, ok = _row_match(prev, new)
    return perm if ok else None


# The reference refines a failed step uniformly, 2**depth substeps, an
# independent scheme from the bisection in boundary.
_SEQ_REFINE_DEPTH = 6


def _seq_refine_gap(left, t0, t1, solver):
    for depth in range(1, _SEQ_REFINE_DEPTH + 1):
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
        f"after {1 << _SEQ_REFINE_DEPTH} substeps"
    )


def _seq_order_chain(Z, ts, solver):
    N, n = Z.shape
    out = np.empty_like(Z)
    out[0] = Z[0]
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
        refined = _seq_refine_gap(out[-1], ts[-1], ts[0] + 2.0 * np.pi, solver)
        wrap = _seq_match(refined, out[0])
        if wrap is None:
            raise TrackingAmbiguity("closing step remained ambiguous after refinement")
    if np.any(wrap != np.arange(n)):
        raise ComponentCountMismatch("tracking around the full circle permuted the roots")
    return out


def _chain_inputs(R, N, start=0):
    """Full-grid (Z, ts, solver) for _order_chain: raw root sets from trace's
    row solver at every node of the uniform t grid of size N, rotated to
    begin at that grid's row start (ts runs on past 2pi and stays
    increasing)."""
    solver = boundary._row_solver(R)
    ts = 2.0 * np.pi * (start + np.arange(N)) / N
    Z, ok = solver(np.exp(1j * ts))
    assert ok.all()
    return Z, ts, solver


# A near-marginal three-pole map (max |critical value| in [0.999, 0.9999])
# with exactly one hop that needs refinement at N = 4096, into row 293.
MARGINAL_REFINED = (
    "1.0510999226056978/(z-(0.50829346734711445-1.8812284896496094i))"
    "+0.77500357890441585/(z+(0.51821207356101384-1.6579777844243604i))"
    "+0.62825875915628793/(z-(1.6631038947789429-0.20933768418389676i))"
)
# A near-marginal map whose continuation at N = 256 stays ambiguous under
# uniform refinement to 2**6 substeps; bisection orders it.
MARGINAL_AMBIGUOUS = (
    "0.11120784373548635/(z-(0.16865095314031864+1.9968914926305823i))"
    "+0.38932848903285017/(z+(1.0690222007712338+0.54205289817735158i))"
    "+0.25684211445241356/(z+(0.95815962127432908+1.1955315579939034i))"
)
# A good three-pole map with margin 8.0e-9 (max |critical value| 1 - 8e-9),
# drawn by the benchmark's marginal recipe: it traces at the default N only
# when failed hops are bisected down to roundoff.
MARGIN_8E_9 = (
    "0.4306676763881564/(z+(1.4185322809611756-1.0114524189386271i))"
    "+0.86999549265942488/(z+(0.19854508779690239-0.25732080578304251i))"
    "+0.31145695241535193/(z-(1.5780625966280035+1.6050115894588264i))"
)
# A good seven-pole map with margin 7.1e-4.  A Newton step on the expanded
# P - wQ after Aberth leaves its nodes at the default N = 4096 at residual
# 3.3e-9, some 60 times the largest residual that the root check
# (numerics.pf_rows_ok) accepts at these nodes; the partial fractions alone
# do not.
SEVEN_POLE = (
    "(0.05483+0.029961i)/(z+(1.315-0.144i))+(0.090149+0.14026i)/(z+(1.954+1.519i))"
    "-(0.097008-0.113832i)/(z+(1.73+0.326i))-(0.093187+0.004521i)/(z+(0.161+1.171i))"
    "+(0.079351+0.038201i)/(z-(1.898+0.857i))+(0.136563+0.047707i)/(z+(1.823-0.166i))"
    "+(0.035169+0.181036i)/(z-(1.964-0.848i))"
)


@pytest.mark.parametrize(
    "R, start, refined_into",
    [
        pytest.param(lambda: example_map(1), 0, [], id="example1"),
        pytest.param(lambda: example_map(6), 0, [], id="example6"),
        pytest.param(lambda: parse_map(MARGINAL_REFINED), 0, [293], id="marginal-refined"),
        # the grid rotated to start at row 293: the refined hop is the
        # closing one, which ends on the first row at ts[0] + 2pi
        pytest.param(
            lambda: parse_map(MARGINAL_REFINED),
            293,
            [boundary.DEFAULT_N],
            id="marginal-refined-closing",
        ),
    ],
)
def test_batched_chain_matches_sequential_walk(monkeypatch, R, start, refined_into):
    args = _chain_inputs(R(), boundary.DEFAULT_N, start)
    calls = []
    real_refine = boundary._refine_gap

    def counting_refine(*a):
        calls.append(a)
        return real_refine(*a)

    monkeypatch.setattr(boundary, "_refine_gap", counting_refine)
    assert np.array_equal(boundary._order_chain(*args), _seq_order_chain(*args))
    ts = args[1]
    ends = np.append(ts, ts[0] + 2.0 * np.pi)
    assert [(a[1], a[2]) for a in calls] == [(ends[i - 1], ends[i]) for i in refined_into]


def test_refinement_does_not_solve_the_gap_end_again():
    # The refined hop ends on the raw row the grid walk already holds; only
    # the substeps strictly inside the gap are solved.
    Z, ts, solver = _chain_inputs(parse_map(MARGINAL_REFINED), boundary.DEFAULT_N)
    seen = []

    def recording(ws, Z0=None):
        seen.append(ws)
        return solver(ws, Z0)

    boundary._order_chain(Z, ts, recording)
    assert seen
    end = np.exp(1j * ts[293])
    for ws in seen:
        assert np.abs(ws - end).min() > 1e-12


def test_bisected_chain_matches_the_finer_grid():
    # Where uniform refinement gives up, the bisected N = 256 chain orders
    # the rows exactly as the N = 512 grid does, which holds them at its
    # even rows.
    R = parse_map(MARGINAL_AMBIGUOUS)
    with pytest.raises(TrackingAmbiguity):
        _seq_order_chain(*_chain_inputs(R, 256))
    coarse = boundary._order_chain(*_chain_inputs(R, 256))
    fine = boundary._order_chain(*_chain_inputs(R, 512))
    assert np.array_equal(coarse, fine[::2])


def test_bisection_solves_each_t_once():
    # Every warm solve is one midpoint, at a t no other solve has had,
    # grid nodes included.
    Z, ts, solver = _chain_inputs(parse_map(MARGINAL_AMBIGUOUS), 256)
    seen = []

    def recording(ws, Z0=None):
        seen.append(ws)
        return solver(ws, Z0)

    boundary._order_chain(Z, ts, recording)
    assert seen and all(ws.size == 1 for ws in seen)
    ws = np.concatenate(seen + [np.exp(1j * ts)])
    assert np.unique(ws).size == ws.size


@pytest.mark.parametrize("t0", [0.0, 6.0])
def test_bisection_stops_at_roundoff(t0):
    # Midpoints that never match stably: bisection gives up with
    # TrackingAmbiguity after a bounded number of solves, also from t0 = 0,
    # where a stop on "the midpoint equals an end" would only fire among the
    # subnormals, past Python's recursion limit.
    tie = np.array([0.5, 0.5], dtype=np.complex128)
    calls = []

    def solver(ws, Z0=None):
        calls.append(ws)
        return np.tile(tie, (ws.size, 1)), np.ones(ws.size, dtype=bool)

    left = np.array([0.0, 1.0], dtype=np.complex128)
    with pytest.raises(TrackingAmbiguity):
        boundary._refine_gap(left, t0, t0 + 2.0 * np.pi / 512, tie, solver)
    assert 0 < len(calls) <= 64


# Bank map degree16-0 of pipebench/bank.json: sixteen poles, every fill row
# of its trace converges warm at the default N.
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


def _solved_rows(R, N):
    """The rows trace solves at grid size N: rows 0..N/2 of a real map,
    whose rows past N/2 are conjugates of rows below it, all N otherwise."""
    real = not (R.poles.imag.any() or R.residues.imag.any())
    return N // 2 + 1 if real else N


def _trace_and_reference(R, N=boundary.DEFAULT_N):
    """trace's nodes as an (N, n) array, and the full-grid reference (every
    node solved cold by trace's row solver, ordered by _order_chain) with its
    columns in the same curve order."""
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

# TRACE_MAPS with the grid size N and its anchor stride S: at DEFAULT_N
# (S = 8) under their own ids, and at the automatic floor N = 128 (S = 2)
TRACE_GRIDS = [pytest.param(*p.values, boundary.DEFAULT_N, 8, id=p.id) for p in TRACE_MAPS] + [
    pytest.param(*p.values, 128, 2, id=f"{p.id}-N128") for p in TRACE_MAPS
]


@pytest.mark.parametrize("R, N, S", TRACE_GRIDS)
def test_anchor_and_fill_matches_full_grid(R, N, S):
    Z, ref = _trace_and_reference(R(), N)
    assert np.abs(Z - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("R, N, S", TRACE_GRIDS)
def test_unconverged_fill_rows_go_to_the_eigensolver(monkeypatch, R, N, S):
    # Warm Aberth runs that never converge send every fill row to the
    # eigensolver, and the trace still matches the full-grid walk.
    real_aberth = numerics.aberth_rows

    def unconverged_when_warm(a, p, ws, Z0):
        Z, done = real_aberth(a, p, ws, Z0)
        if not np.array_equal(np.broadcast_to(Z0, Z.shape), p + a / ws[:, None]):
            done[:] = False
        return Z, done

    eigen = []
    real_eigvals = numerics._pf_eigvals

    def counting_eigvals(a, p, ws):
        eigen.append(len(ws))
        return real_eigvals(a, p, ws)

    monkeypatch.setattr(numerics, "aberth_rows", unconverged_when_warm)
    monkeypatch.setattr(numerics, "_pf_eigvals", counting_eigvals)
    R = R()
    Z, ref = _trace_and_reference(R, N)
    rows = _solved_rows(R, N)
    assert sum(eigen) >= rows - len(range(0, rows, S))  # less the anchors
    assert np.abs(Z - ref).max() <= 1e-12 * np.abs(ref).max()


def test_walk_that_comes_back_permuted_is_rejected():
    # The roots +-e^{it/2} swap over one turn: every hop matches stably, so
    # nothing is solved, and the closing hop lands on the first row permuted.
    N = 64
    ts = 2.0 * np.pi * np.arange(N) / N
    h = np.exp(0.5j * ts)

    def solver(ws, Z0=None):
        raise AssertionError("every hop matches stably; nothing needs a solve")

    with pytest.raises(ComponentCountMismatch, match="permuted"):
        boundary._order_chain(np.stack([h, -h], axis=1), ts, solver)


def test_trace_solves_only_the_anchors(monkeypatch):
    # the fill rows also pass through aberth_rows, but warm: count cold starts
    cold, eigen = [], []
    real_aberth, real_eigvals = numerics.aberth_rows, numerics._pf_eigvals

    def counting_aberth(a, p, ws, Z0):
        if np.array_equal(np.broadcast_to(Z0, (len(ws), p.size)), p + a / ws[:, None]):
            cold.append(len(ws))
        return real_aberth(a, p, ws, Z0)

    def counting_eigvals(a, p, ws):
        eigen.append(len(ws))
        return real_eigvals(a, p, ws)

    monkeypatch.setattr(numerics, "aberth_rows", counting_aberth)
    monkeypatch.setattr(numerics, "_pf_eigvals", counting_eigvals)
    boundary.trace(parse_map(DEGREE16_0), N=4096)
    assert sum(cold) == 4096 // 8
    assert sum(eigen) == 0


@pytest.mark.parametrize("R", [
    pytest.param(lambda: parse_map(DEGREE16_0), id="degree16-0"),
    pytest.param(lambda: example_map(2), id="example2"),
])
def test_trace_rows_use_only_the_partial_fractions(monkeypatch, R):
    # classification is the one monomial caller left; the rows never are
    R = R()
    N = boundary.start_n(ratmap.critical_data(R).max_cv_modulus)

    def forbidden(*args):
        raise AssertionError("trace's rows must not expand R into polynomials")

    for name in ("_eval", "_polish", "poly_from_roots"):
        monkeypatch.setattr(numerics, name, forbidden)
    assert len(boundary._trace(R, N).curves) == R.n


@pytest.mark.parametrize("R", TRACE_MAPS[::2])
def test_trace_seeds_from_the_first_anchor(monkeypatch, R):
    def no_preimages(*args):
        raise AssertionError("trace must not solve for the seed separately")

    monkeypatch.setattr(ratmap, "preimages", no_preimages)
    sampling = boundary.trace(R())
    assert len(sampling.curves) == R().n


def test_windings_count_signed_crossings():
    # the rays to the right of 0, -2 and 2 run through vertices of the diamond
    diamond = np.array([1, 1j, -1, -1j])
    points = [0j, -2 + 0j, 2 + 0j, 0.5j, 3 + 3j]
    expect = [1, 0, 0, 1, 0]
    assert boundary._windings(diamond, points).tolist() == expect
    assert boundary._windings(diamond[::-1], np.array(points)).tolist() == [-e for e in expect]
    assert boundary._windings(np.tile(diamond, 2), points).tolist() == [2 * e for e in expect]


def _dense_windings(z_curve, points):
    """The dense crossing count over every (edge, point) pair, kept as the
    reference for _windings, which looks only at the crossing edges."""
    a = z_curve[:, None] - np.asarray(points)
    b = np.roll(a, -1, axis=0)
    left = a.real * b.imag - a.imag * b.real
    up = (a.imag <= 0) & (b.imag > 0) & (left > 0)
    down = (a.imag > 0) & (b.imag <= 0) & (left < 0)
    return up.sum(axis=0) - down.sum(axis=0)


@pytest.mark.parametrize("seed", range(6))
def test_windings_match_the_dense_count(seed):
    # random closed polygons, self-crossing ones included, about points
    # inside and outside their bounding box and about points level with a
    # vertex (on the vertex, on its left and on its right)
    rng = np.random.default_rng(seed)
    N = int(rng.integers(3, 300))
    z = np.cumsum(rng.standard_normal(N) + 1j * rng.standard_normal(N))
    if seed % 2:
        z = np.round(z * 4) / 4  # shared heights and repeated vertices
    x0, x1, y0, y1 = z.real.min(), z.real.max(), z.imag.min(), z.imag.max()
    inside = rng.uniform(x0, x1, 40) + 1j * rng.uniform(y0, y1, 40)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    outside = np.array([x1 + 1 + 1j * cy, x0 - 1 + 1j * cy, cx + 1j * (y1 + 1), cx + 1j * (y0 - 1)])
    level = z[rng.integers(0, N, 8)]
    points = np.concatenate([inside, outside, level, level - 0.5, level + 0.5])
    assert np.array_equal(boundary._windings(z, points), _dense_windings(z, points))
    assert np.array_equal(boundary._windings(z, list(points[:3])), _dense_windings(z, points[:3]))


def test_trace_memory_stays_flat_in_the_rows():
    # n = 64: one (N, n, n) complex tensor alone is 16.8 MB at N = 256, so
    # the per-node passes must run in row blocks
    n = 64
    R = RationalMapPF(np.full(n, 0.3 / n), -2.0 + 4.0 * np.arange(n) / n)
    tracemalloc.start()
    try:
        boundary.trace(R, N=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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


# (prev, new, expected perm or None when the row must be rejected)
MATCH_TABLE = [
    ([0, 1], [1.01, 0.01], [1, 0]),  # clean swap
    ([0, 0.1], [0.04, 5], None),  # both nearest new[0]: not injective
    ([0, 1j], [0.02, 1.01j], [0, 1]),  # clean identity
    ([0, 3], [-1, 1.5], None),  # second-nearest 1.5 < 2 x nearest 1
    ([2, -2], [-2.1, 2.1], [1, 0]),  # clean swap
]


def _table_hops():
    prev = np.array([r[0] for r in MATCH_TABLE], dtype=np.complex128)
    return prev, np.array([r[1] for r in MATCH_TABLE], dtype=np.complex128)


def test_match_rows_rejects_only_the_bad_rows():
    perm, ok = boundary._match_rows(*_table_hops())
    assert ok.tolist() == [r[2] is not None for r in MATCH_TABLE]
    for m, (_, _, expect) in enumerate(MATCH_TABLE):
        if expect is not None:
            assert perm[m].tolist() == expect


def _mixed_hops(n, M=400):
    """Hops of M random root sets that mostly keep solver order: 40 new rows
    are shuffled and in 40 others a root sits midway between two old ones.
    For n = 2 the table rows and exact ties follow: a new root shared, a
    double root kept, the same set again, and the stability ratio met
    exactly."""
    rng = np.random.default_rng(n)
    prev = rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n))
    new = prev + 1e-3 * (rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n)))
    moved = rng.choice(M, 80, replace=False)
    for m in moved[:40]:
        new[m] = new[m, rng.permutation(n)]
    for m in moved[40:]:
        new[m, 0] = 0.5 * (prev[m, 0] + prev[m, -1])
    if n == 2:
        table_prev, table_new = _table_hops()
        prev = np.concatenate([prev, table_prev, [[0, 1], [0, 0], [0, 1], [0, 100], [0, -3]]])
        new = np.concatenate([new, table_new, [[0, 0], [0, 0], [0, 1], [1, -2], [1, -2]]])
    return prev, new


@pytest.mark.parametrize("R", [
    *TRACE_MAPS,
    pytest.param(None, id="table"),
    *[pytest.param(n, id=f"mixed-n{n}") for n in (1, 2, 3, 7)],
])
def test_match_rows_decides_like_a_row_loop(monkeypatch, R):
    if R is None:
        prev, new = _table_hops()
    elif isinstance(R, int):
        prev, new = _mixed_hops(R)
    else:  # every hop of the raw cold rows at the default N, closing one too
        prev = _chain_inputs(R(), boundary.DEFAULT_N)[0]
        new = np.roll(prev, -1, axis=0)
    ruled = []
    rule = boundary._nearest_rows

    def recording(prev, new):
        ruled.append(len(prev))
        return rule(prev, new)

    monkeypatch.setattr(boundary, "_nearest_rows", recording)
    perm, ok = boundary._match_rows(prev, new)
    expect = [_row_match(a, b) for a, b in zip(prev, new)]
    assert np.array_equal(perm, [e[0] for e in expect])
    assert ok.tolist() == [e[1] for e in expect]
    # the argmin rule sees only the rows that do not keep solver order stably
    kept = [e[1] and (e[0] == np.arange(prev.shape[1])).all() for e in expect]
    assert sum(ruled) == len(kept) - sum(kept)
