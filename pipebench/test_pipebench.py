"""Self-checks of the pipeline benchmark.

    PYTHONPATH=src python3 -m pytest pipebench -q
"""

import json

import numpy as np
import pytest

import bank
import oracle
import run
import worker
from capax import bounds_sequence, parse_map
from capax.cli import REFERENCE_BOUNDS, example_map

BANK = bank.load_bank()


@pytest.mark.parametrize("recipe,spec,name", [
    (bank.degree16_map, bank.DEGREE16, "degree16"),
    (bank.marginal_map, bank.MARGINAL, "marginal"),
])
def test_generators_repeat_for_a_seed(recipe, spec, name):
    assert bank.generate(recipe, spec, 7) == bank.generate(recipe, spec, 7)
    assert bank.generate(recipe, spec, 7) != bank.generate(recipe, spec, 8)
    pinned = [job["map"] for job in BANK[name]]
    assert bank.generate(recipe, spec, BANK["master_seed"]) == pinned


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_order_repeats_for_a_seed(name):
    def ids(seed):
        return [j["id"] for j in run.workload_jobs(BANK, name, seed)]

    assert ids(3) == ids(3)
    assert sorted(ids(3)) == sorted(j["id"] for j in BANK[name])
    assert any(ids(0) != ids(s) for s in range(1, 5))


def test_repro_bank_matches_the_program_at_pinning():
    for job in BANK["repro"]:
        ex = int(job["id"].split("-")[1])
        R, R0 = parse_map(job["map"]), example_map(ex)
        assert np.array_equal(R.poles, R0.poles) and np.array_equal(R.residues, R0.residues)
        assert job["kmax"] == max(REFERENCE_BOUNDS[ex])
        assert job["oracle"]["rows"] == [[k, lo, up] for k, (lo, up) in sorted(REFERENCE_BOUNDS[ex].items())]


def test_pinned_marginal_reference_recomputes():
    job = BANK["marginal"][0]
    b = bounds_sequence(parse_map(job["map"]), job["kmax"], N=job["oracle"]["N"])
    assert np.allclose([r[1:] for r in b.rows], [r[1:] for r in job["oracle"]["rows"]],
                       rtol=0, atol=1e-9)


def _result(rows, certified=True, status="consistent-with-ahlfors"):
    return {"rows": [list(r) for r in rows], "certified": certified,
            "status": status, "error": None}


@pytest.mark.parametrize("workload", ["repro", "marginal"])
@pytest.mark.parametrize("certified", [True, False])
def test_oracle_rejects_lower_shifted_up(workload, certified):
    job = BANK[workload][0]
    rows = [r for r in job["oracle"]["rows"] if r[0] <= job["kmax"]]
    status = job["oracle"].get("status") or "consistent-with-ahlfors"
    assert oracle.check(job, _result(rows, certified, status)) == (None, None)
    for k in range(len(rows)):
        shifted = [list(r) for r in rows]
        shifted[k][1] += 1e-5
        assert oracle.bracket_miss(job["oracle"], _result(shifted, certified, status))


def test_oracle_pins_example6_verdict():
    job = next(j for j in BANK["repro"] if j["id"] == "example-6")
    failure, miss = oracle.check(job, _result(job["oracle"]["rows"]))
    assert failure is None and "verdict" in miss


@pytest.mark.parametrize("rows", [
    [[1, 0.5, 0.4]],
    [[1, 0.4, 0.6], [2, 0.39, 0.6]],
    [[1, 0.4, 0.6], [2, 0.41, 0.61]],
    [[1, 0.4, 0.6], [3, 0.41, 0.59]],
])
def test_invariants_reject_broken_rows(rows):
    assert oracle.invariant_error(rows, rows[-1][0]) is not None


def test_raising_job_counts_in_fail_frac():
    good = "0.29999999999999999/(z+1)+0.20000000000000001/(z-1)"
    jobs = [{"id": "good", "map": good, "kmax": 2, "oracle": {"kind": "contains", "N": 0, "rows": []}},
            {"id": "not-good", "map": "3/(z+1)+3/(z-1)", "kmax": 2, "oracle": {"kind": "contains", "N": 0, "rows": []}},
            {"id": "unparsable", "map": "0.3/(z+", "kmax": 2, "oracle": {"kind": "contains", "N": 0, "rows": []}}]
    records, passes = worker.run_loop([(j["map"], j["kmax"]) for j in jobs], 0.0, 1)
    records = json.loads(json.dumps(records))
    failed, missed, pinned_miss, _ = run.check_records(jobs, records)
    assert (failed, missed, pinned_miss) == (2, 2, False)
    loop = {"records": records * 4, "passes": passes * 4}
    _, fracs = run.end_to_end(loop, 0.5, 1024, 4 * failed, 4 * missed)
    assert fracs["fail_frac"] == pytest.approx(2 / 3)


def test_self_times_subtract_children():
    spans = [("job", 0, None, 0, 100, None), ("a", 0, 0, 10, 40, None),
             ("b", 0, 1, 15, 25, None), ("c", 0, 0, 50, 60, None)]
    assert run.self_times(spans) == [60, 20, 10, 10]


def test_tail_leaves_ten_jobs_beyond():
    value, pct = run.tail(list(range(24)))
    assert value == 13 and sum(x > value for x in range(24)) == 10
    assert pct == pytest.approx(100 * 14 / 24)


def test_jobs_per_s_is_a_median_over_passes():
    loop = {"records": [{"index": i % 3, "wall_s": 0.1} for i in range(9)], "passes": [1.0, 2.0, 10.0]}
    assert run.jobs_per_s(loop) == pytest.approx(1.5)
