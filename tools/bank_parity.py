"""Compare capax's outputs on the benchmark bank with those of a git ref.

    python tools/bank_parity.py BASE_REF

Every map of pipebench/bank.json (six repro, eight degree16, 32 marginal)
runs bounds_sequence and verdict at the default resolution, then trace again
at the N the bounds ended on.  That happens twice, in two fresh interpreters:
once on this checkout's src/ and once on BASE_REF's src/, which `git archive`
extracts into a temporary directory.  For each workload the report gives the
largest |delta| of the bound rows (in two columns: the maps whose base run is
certified, and the others), of quad_error, of the nodes z and of the speeds,
and whether every output is the same to the bit; below it, one line per map
whose N, certified flag or verdict changed, or whose job failed on one side,
and two verdicts: whether every output is bit-identical, and whether the
change is within roundoff, that is N, the certified flag and the verdict are
unchanged on every map, no job failed on one side only, and every certified
map's rows moved by at most ROWS_TOL.

Exit status: 0 when the change is within roundoff, 1 when it is not, 2 when
BASE_REF cannot be extracted.  BLAS thread settings pass through from the
environment.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BANK = ROOT / "pipebench" / "bank.json"
FLOATS = ("rows", "quad_error", "z", "speed")
# the report's columns: FLOATS with the rows split by the base's certified flag
COLUMNS = ("rows_cert", "rows_uncert", "quad_error", "z", "speed")
# how far a certified map's rows may move for the change to count as roundoff
ROWS_TOL = 1e-13


def dump(src, out):
    """Run every bank map on the capax under src and save its outputs to the
    .npz file out, keyed "<map id>/<field>"."""
    sys.path.insert(0, str(src))
    from capax import bounds_sequence, parse_map, trace, verdict

    arrays = {}
    for workload, jobs in json.loads(BANK.read_text()).items():
        if not isinstance(jobs, list):
            continue
        for job in jobs:
            key = f"{workload}/{job['id']}"
            try:
                R = parse_map(job["map"])
                b = bounds_sequence(R, job["kmax"])
                v = verdict(b)
                s = trace(R, N=b.N)
            except Exception as exc:  # a failed job is reported, not fatal
                arrays[f"{key}/error"] = np.array(f"{type(exc).__name__}: {exc}")
                continue
            arrays[f"{key}/rows"] = np.array(b.rows, dtype=float)
            arrays[f"{key}/quad_error"] = np.array(b.quad_error)
            arrays[f"{key}/z"] = np.stack([c.z for c in s.curves])
            arrays[f"{key}/speed"] = np.stack([c.speed for c in s.curves])
            arrays[f"{key}/N"] = np.array(b.N)
            arrays[f"{key}/certified"] = np.array(b.certified)
            arrays[f"{key}/verdict"] = np.array(f"{v.status} at k = {v.k_used}")
    np.savez(out, **arrays)


def run_side(src, out):
    """dump in a fresh interpreter; returns {map key: {field: array}}."""
    subprocess.run([sys.executable, __file__, "--dump", str(src), str(out)], check=True)
    maps = {}
    with np.load(out) as f:
        for name in f.files:
            key, field = name.rsplit("/", 1)
            maps.setdefault(key, {})[field] = f[name]
    return maps


def extract(ref, into):
    """BASE_REF's src/ under the directory into; False when git cannot."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return False
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return True


def compare(base, head):
    """Print the per-workload table, the changed maps and both verdicts.
    Returns True when no map's N, certified flag or verdict changed, no job
    failed on one side only, and every certified map's rows moved by at most
    ROWS_TOL."""
    table, notes, same_all, changed = {}, [], True, False
    for key in head:  # both sides ran the one bank
        workload, map_id = key.split("/")
        row = table.setdefault(workload, {"maps": 0, "same": True, **{f: 0.0 for f in COLUMNS}})
        row["maps"] += 1
        b, h = base[key], head[key]
        if "error" in b or "error" in h:
            eb, eh = str(b.get("error", "ok")), str(h.get("error", "ok"))
            if eb != eh:
                notes.append(f"{map_id}: {eb} -> {eh}")
                changed = True
            row["same"] &= eb == eh
            continue
        for field in ("N", "certified", "verdict"):
            if b[field].tobytes() != h[field].tobytes():
                notes.append(f"{map_id}: {field} {b[field]} -> {h[field]}")
                changed = True
        for field in FLOATS:
            if b[field].shape != h[field].shape:  # z and speed when N changed
                continue
            col = field if field != "rows" else "rows_cert" if b["certified"] else "rows_uncert"
            d = float(np.abs(h[field] - b[field]).max())
            row[col] = max(row[col], d if d == d else np.inf)  # a NaN counts as a change
        row["same"] &= all(b[f].shape == h[f].shape and b[f].tobytes() == h[f].tobytes() for f in b)
    print(f"{'workload':10s} {'maps':>4s} {'|drow| c':>9s} {'|drow| u':>9s} {'|dquad|':>9s} "
          f"{'|dz|':>9s} {'|dspeed|':>9s}  bit-identical")
    for workload, row in table.items():
        print(f"{workload:10s} {row['maps']:4d} " + " ".join(f"{row[f]:9.2e}" for f in COLUMNS)
              + f"  {'yes' if row['same'] else 'no'}")
        same_all &= row["same"]
    print("(|drow| c: maps certified at the base; |drow| u: the others)")
    for note in notes:
        print(note)
    worst = max(row["rows_cert"] for row in table.values())
    ok = not changed and worst <= ROWS_TOL
    print(f"bit-identical: {'yes' if same_all else 'no'}")
    print(f"within roundoff: {'pass' if ok else 'fail'} (certified |drow| {worst:.2e} against "
          f"{ROWS_TOL:.0e}, N/certified/verdict {'changed' if changed else 'unchanged'})")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_ref", nargs="?", help="the git ref to compare against")
    ap.add_argument("--dump", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(*args.dump)
        return 0
    if not args.base_ref:
        ap.error("BASE_REF is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if not extract(args.base_ref, tmp):
            return 2
        base = run_side(tmp / "src", tmp / "base.npz")
        head = run_side(ROOT / "src", tmp / "head.npz")
    print(f"{args.base_ref} -> working tree, {len(head)} maps")
    return 0 if compare(base, head) else 1


if __name__ == "__main__":
    sys.exit(main())
