"""Alternating benchmark pairs: the working tree against a git ref.

    python tools/bench_pairs.py BASE_REF --workload W --pairs P [--seed S]

BASE_REF's src/, pipebench/ and BENCHMARK.json are extracted with
`git archive` into a temporary directory.  The run is refused when
pipebench/ or BENCHMARK.json in the working tree differ from BASE_REF, so
that both sides run one benchmark.  Pair i runs BENCHMARK.json's command
with --seed S + i and its run_seconds on both sides, the base first in even
pairs and the working tree first in odd ones.

For each end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles over the pairs, the pairs the working tree won (ties
count for neither side), and whether a gain is shown: the working tree won
at least nine tenths of the pairs and its median is better than the base's
by more than the base's interquartile range.

Exit status: 0 when every run completed, 1 when a run failed, 2 when the
benchmark differs from BASE_REF or BASE_REF cannot be read.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ("pipebench", "BENCHMARK.json")
WIN_SHARE = 0.9  # the share of pairs a gain must win


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)


def benchmark_changes(ref):
    """The benchmark's files that differ from ref in the working tree,
    untracked ones included; None when git cannot compare with ref."""
    diff = git("diff", "--name-only", ref, "--", *BENCH)
    if diff.returncode != 0:
        print(diff.stderr.decode().strip(), file=sys.stderr)
        return None
    new = git("ls-files", "--others", "--exclude-standard", "--", *BENCH)
    return (diff.stdout + new.stdout).decode().split()


def extract(ref, into):
    """BASE_REF's program and benchmark under the directory into."""
    archive = git("archive", ref, "src", *BENCH)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return False
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return True


def run(root, command, workload, seed, seconds):
    """One benchmark run in the tree root: its metric values by name, or
    None when it failed."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def verdict(base, head, better):
    """(pairs won by head, whether the gain rule holds) for one metric's
    paired values."""
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (np.asarray(head) - np.asarray(base))
    wins = int((gap > 0).sum())
    q1, q3 = np.percentile(base, [25, 75])
    gain = wins >= WIN_SHARE * len(base) and sign * (np.median(head) - np.median(base)) > q3 - q1
    return wins, gain


def report(runs, metrics):
    """The per-metric table of the pairs in runs, [(base, head)]."""
    print(f"{'metric':16s} {'base median [q1, q3]':>36s} {'change median [q1, q3]':>36s}  won  gain")
    for m in metrics:
        name = m["name"]
        base = [b[name] for b, _ in runs]
        head = [h[name] for _, h in runs]
        wins, gain = verdict(base, head, m["better"])
        sides = [f"{np.median(v):.6g} [{np.percentile(v, 25):.6g}, {np.percentile(v, 75):.6g}]"
                 for v in (base, head)]
        print(f"{name:16s} {sides[0]:>36s} {sides[1]:>36s} {wins:2d}/{len(runs):<2d} "
              f"{'yes' if gain else 'no'}")
    print(f"(won: pairs where the change is better, ties count for neither side; gain: "
          f"won at least {WIN_SHARE:.0%} of the pairs and the median gap exceeds the base's IQR)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_ref", help="the git ref to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed (default 1)")
    args = ap.parse_args(argv)
    changed = benchmark_changes(args.base_ref)
    if changed is None:
        return 2
    if changed:
        print(f"refused: the benchmark differs from {args.base_ref}: {' '.join(changed)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp), "change": ROOT}
        if not extract(args.base_ref, sides["base"]):
            return 2
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            values = {}
            for side in order:
                values[side] = run(sides[side], bench["command"], args.workload, seed, seconds)
                if values[side] is None:
                    print(f"pair {i}: the {side} run failed at seed {seed}", file=sys.stderr)
                    return 1
            runs.append((values["base"], values["change"]))
            print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m['name']} {values['base'][m['name']]:.6g} -> {values['change'][m['name']]:.6g}"
                for m in bench["end_to_end"]), flush=True)
    print(f"{args.base_ref} -> working tree, workload {args.workload}, {args.pairs} pairs "
          f"of {seconds} s runs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    report(runs, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
