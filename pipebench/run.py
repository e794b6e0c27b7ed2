"""Pipeline benchmark: time to a checked capacity bracket.

    python3 pipebench/run.py --workload repro --seed 1 --seconds 30 --trace 0

The program is imported from the src/ directory beside pipebench/; without
it the run exits with code 2 and prints no result line.  Self-checks:
PYTHONPATH=src python3 -m pytest pipebench -q

A job is parse_map(text) -> bounds_sequence(R, kmax) at the default
resolution -> verdict(b), run by one client in a closed loop in one worker
process with BLAS/OpenMP pinned to one thread.  Every job's rows are checked
against the invariants and the workload's oracle (oracle.py, bank.py).

Workloads (the seed sets the order in which the bank is walked):
  repro     the six built-in examples at their reference kmax: the paper's
            tables; trace dominated by chain ordering, example 2 sets the tail
            with its ridge-retry solves.
  degree16  eight degree-16 good maps, kmax 4: batched root solves, Gram
            assembly (m = 64) and memory.
  marginal  32 three-pole maps with max |critical value| in [0.999, 0.9999],
            kmax 5: tracking refinement and quadrature error at the default N.

--trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and then
a traced loop on the same jobs and prints the per-layer metrics.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}.  Its
metrics are never 0, so fail_frac and bracket_miss_frac (printed above it)
go into it as job_ok_frac and bracket_ok_frac, their complements.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import oracle
from bank import load_bank

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".pipebench"

WORKLOADS = ("repro", "degree16", "marginal")
BLAS_THREADS = "1"
SETUP_RUNS = 7
SETUP_SNIPPET = (
    "import capax\n"
    "from capax import bounds_sequence, parse_map, verdict\n"
    "verdict(bounds_sequence(parse_map('0.3/(z+1)+0.2/(z-1)'), 1))\n"
)
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160


def pinned_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def workload_jobs(bank, workload, seed):
    """The workload's bank in the seed's order."""
    jobs = list(bank[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def measure_setup(env):
    """Median wall time of a fresh interpreter that imports capax and runs
    one tiny job; one untimed spawn first fills the bytecode cache."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the time; a blocking wait with a kill timer does not
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with code {code}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_worker(jobs, seconds, trace, env, spans_path):
    plan = {"jobs": [[j["map"], j["kmax"]] for j in jobs], "seconds": seconds,
            "trace": trace, "spans_path": str(spans_path)}
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")],
                          input=json.dumps(plan), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """(value, percentile) at the highest nearest-rank percentile with at
    least ten jobs beyond it."""
    xs = sorted(times)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def check_records(jobs, records):
    """Counts of failed and missed jobs, whether a pinned oracle missed, and
    the first miss reason of each map that missed."""
    failed = missed = 0
    pinned_miss = False
    reasons = {}
    for rec in records:
        job = jobs[rec["index"]]
        failure, miss = oracle.check(job, rec)
        failed += failure is not None
        if miss is not None:
            missed += 1
            pinned_miss |= job["oracle"]["kind"] == "pinned"
            reasons.setdefault(job["id"], miss)
    return failed, missed, pinned_miss, reasons


def job_p50(loop):
    """Median over the bank's maps of each map's median job time in the loop.

    The host's speed drifts by up to 1.5x over seconds to minutes.  A plain
    median over all jobs of a mixed bank jumps between the cost levels of
    neighbouring maps as the speed drifts; a median per map first keeps it on
    one map's level, and is not pulled by a burst of slow passes."""
    by_map = defaultdict(list)
    for r in loop["records"]:
        by_map[r["index"]].append(r["wall_s"])
    return statistics.median(statistics.median(v) for v in by_map.values())


def jobs_per_s(loop):
    """Median over the loop's passes of jobs completed per second of pass
    wall time; every pass runs each map once."""
    pool = len(loop["records"]) // len(loop["passes"])
    return statistics.median(pool / w for w in loop["passes"])


def end_to_end(loop, setup_s, peak_rss_kb, failed, missed):
    times = [r["wall_s"] for r in loop["records"]]
    n = len(times)
    tail_s, pct = tail(times)
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_RUNS} fresh interpreters: import capax + one tiny job"),
        "job_p50_s": (job_p50(loop), "s", f"median over maps of median job time; median of all {n} jobs {statistics.median(times):.4f}"),
        "job_tail_s": (tail_s, "s", f"p{pct:.2f} of {n} jobs"),
        "jobs_per_s": (jobs_per_s(loop), "1/s", f"median over {len(loop['passes'])} passes; {n} jobs in {sum(loop['passes']):.3f} s of loop wall time"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB", "ru_maxrss of the worker process"),
        "job_ok_frac": (1.0 - failed / n, "ratio", "1 - fail_frac"),
        "bracket_ok_frac": (1.0 - missed / n, "ratio", "1 - bracket_miss_frac"),
    }, {"fail_frac": failed / n, "bracket_miss_frac": missed / n}


def self_times(spans):
    """Per-span self time in ns: duration minus the time of its children."""
    covered = [0] * len(spans)
    for name, job, parent, t0, t1, counts in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    return [s[4] - s[3] - c for s, c in zip(spans, covered)]


def per_layer(spans, traced, untraced, pool):
    """Layer times are self times per job over the traced loop; counts are
    per job over its first pass, so they repeat exactly for a seed."""
    jobs = len(traced["records"])
    self_ns = Counter()
    calls = Counter()
    counts = Counter()
    for (name, job, parent, t0, t1, c), s in zip(spans, self_times(spans)):
        self_ns[name] += s
        if job < pool:
            calls[name] += 1
            counts.update(c or {})
    first = traced["records"][:pool]

    def per_job_s(*names):
        return sum(self_ns[n] for n in names) / 1e9 / jobs

    nodes_all = sum((c or {}).get("nodes", 0) for *_, c in spans)
    overhead = job_p50(traced) - job_p50(untraced)
    return {
        "boundary.trace_s": (per_job_s("boundary.trace"), "s", "self time per job"),
        "boundary.trace_ns_per_node": (self_ns["boundary.trace"] / max(nodes_all, 1), "ns", "trace self time / nodes"),
        "boundary.nodes": (counts["nodes"] / pool, "count", "n*N per job"),
        "boundary.trace_calls": (calls["boundary.trace"] / pool, "count", "per job"),
        "capacity.gram_s": (per_job_s("capacity.assemble_gram"), "s", "self time per job"),
        "capacity.gram_flops": (counts["flops"] / pool, "flop", "computed 8 m^2 nN per job, not measured"),
        "capacity.gram_bytes": (counts["bytes"] / pool, "B", "computed size of B and B*lam per job, not measured"),
        "capacity.basis_size": (counts["basis_size"] / pool, "count", "2m per job"),
        "capacity.solve_s": (per_job_s("capacity.bounds_sequence", "capacity.enumerate_basis", "capacity.cho_factor"), "s", "bounds_sequence self time incl. factorizations, per job"),
        "capacity.factorizations": (calls["capacity.cho_factor"] / pool, "count", "cho_factor calls per job"),
        "capacity.uncertified_frac": (sum(r["certified"] is False for r in first) / pool, "ratio", "jobs with certified: no"),
        "capacity.verdict_s": (per_job_s("capacity.verdict"), "s", "self time per job"),
        "ratmap.classify_s": (per_job_s("ratmap.classify"), "s", "is_n_good self time per job"),
        "ratmap.classify_calls": (calls["ratmap.classify"] / pool, "count", "per job"),
        "ratmap.preimages_s": (per_job_s("ratmap.preimages"), "s", "self time per job"),
        "numerics.roots_s": (per_job_s("numerics.roots"), "s", "self time per job"),
        "numerics.roots_calls": (calls["numerics.roots"] / pool, "count", "per job"),
        "trace_overhead_s": (overhead, "s", "traced job_p50_s - untraced job_p50_s"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "capax" / "__init__.py").is_file():
        sys.stderr.write(f"pipebench: no capax sources under {ROOT / 'src'}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = pinned_env()
    jobs = workload_jobs(load_bank(), args.workload, args.seed)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    setup_s = None if args.trace else measure_setup(env)
    result = run_worker(jobs, args.seconds, bool(args.trace), env, spans_path)

    e = result["env"]
    if Path(e["capax.path"]).resolve() != (ROOT / "src" / "capax").resolve():
        sys.stderr.write(f"pipebench: worker imported capax from {e['capax.path']}\n")
        return 2
    records = [r for loop in result["loops"] for r in loop["records"]]
    failed, missed, pinned_miss, reasons = check_records(jobs, records)
    print(f"pipebench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: closed loop, 1 client, 1 worker process, "
          f"{len(jobs)} maps per pass")
    print(f"env python={e['python']} numpy={e['numpy']} scipy={e['scipy']} "
          f"nproc={e['nproc']} capax.BACKEND={e['capax.BACKEND']} "
          + " ".join(f"{k}={v}" for k, v in e["threads"].items()))
    print(f"checked {len(records)} jobs: {failed} failed, {missed} bracket misses "
          f"on {len(reasons)} of {len(jobs)} maps")
    for job_id, reason in list(reasons.items())[:5]:
        print(f"  miss {job_id}: {reason}")

    if args.trace:
        untraced, traced = result["loops"]
        with open(spans_path) as f:
            metrics = per_layer(json.load(f), traced, untraced, len(jobs))
        print(f"spans: {spans_path}")
    else:
        (loop,) = result["loops"]
        metrics, fracs = end_to_end(loop, setup_s, result["peak_rss_kb"], failed, missed)
        for name, value in fracs.items():
            print(f"{name:<28} {value!r:>24} ratio")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<28} {value!r:>24} {unit:<6} {note}")
    print(json.dumps({
        "correct": failed == 0 and not pinned_miss,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
