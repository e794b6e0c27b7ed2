"""Input banks for the pipeline benchmark, and the tool that pins them.

Each workload draws its jobs from a bank of maps held in bank.json, together
with the oracle every job's output is checked against:

* repro: the six built-in examples at their reference kmax, checked against a
  copy of the pinned reference rows (lower to 1e-6, upper to 1e-5) taken when
  the bank was written, so that a change to the program cannot move its own
  oracle.
* degree16 / marginal: maps drawn by the recipes below from MASTER_SEED,
  checked for containment of a high-resolution bracket of the same map.

Why banks and not fresh maps per run seed: whether a near-marginal bracket
misses its reference is close to a coin flip per map (23 of 40 fresh maps
missed), so a per-run miss fraction over a few dozen fresh maps spreads by
about 30% of its median between seeds, and each N=65536 reference costs about
2 s.  A pinned bank makes the accuracy metric exact and the references free
at run time; the run seed sets the order in which the bank is walked.

Regenerate (takes a few minutes and about 1.6 GB for the degree-16
references) with

    PYTHONPATH=src python3 pipebench/bank.py

capax is imported inside the functions that need it: run.py loads the bank
before it has checked that the sources are there.
"""

import json
import sys
from pathlib import Path

import numpy as np

BANK_PATH = Path(__file__).with_name("bank.json")
MASTER_SEED = 20140519
REPRO_STATUS = {6: "not-ahlfors"}
DEGREE16 = {"count": 8, "n": 16, "kmax": 4, "cv": (0.2, 0.85), "reference_N": 32768}
MARGINAL = {"count": 32, "n": 3, "kmax": 5, "cv": (0.999, 0.9999), "reference_N": 65536}


def random_poles(rng, n, box=2.0, min_sep=0.4):
    """n poles in a centered box with pairwise separation >= min_sep."""
    poles = []
    while len(poles) < n:
        p = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(p - q) >= min_sep for q in poles):
            poles.append(p)
    return np.asarray(poles, dtype=np.complex128)


def scaled_map(residues, poles, rng, lo, hi):
    """The map with residues rescaled so that max |critical value| is a
    uniform draw from [lo, hi]; critical values scale linearly with a common
    residue factor."""
    from capax.ratmap import RationalMapPF, critical_data

    R = RationalMapPF(residues, poles)
    target = rng.uniform(lo, hi)
    return RationalMapPF(residues * (target / critical_data(R).max_cv_modulus), poles)


def degree16_map(rng):
    """Complex residues, max |cv| in [0.2, 0.85]: the good-map recipe of the
    test suite at degree 16."""
    n = DEGREE16["n"]
    poles = random_poles(rng, n)
    residues = rng.uniform(0.1, 1.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return scaled_map(residues, poles, rng, *DEGREE16["cv"])


def marginal_map(rng):
    """Positive real residues, max |cv| in [0.999, 0.9999]."""
    n = MARGINAL["n"]
    poles = random_poles(rng, n)
    residues = rng.uniform(0.1, 1.0, size=n).astype(np.complex128)
    return scaled_map(residues, poles, rng, *MARGINAL["cv"])


def generate(recipe, spec, seed):
    """Map texts drawn by recipe; the same seed gives the same texts."""
    from capax.cli import format_map

    rng = np.random.default_rng(seed)
    return [format_map(recipe(rng)) for _ in range(spec["count"])]


def load_bank():
    with open(BANK_PATH) as f:
        return json.load(f)


def _reference_job(job_id, text, kmax, N):
    from capax import bounds_sequence, parse_map

    b = bounds_sequence(parse_map(text), kmax, N=N)
    print(f"{job_id}: reference at N={N}, certified={b.certified}", file=sys.stderr)
    rows = [[k, lo, up] for k, lo, up in b.rows]
    return {"id": job_id, "map": text, "kmax": kmax,
            "oracle": {"kind": "contains", "N": N, "rows": rows}}


def build_bank():
    from capax import format_map, parse_map
    from capax.cli import REFERENCE_BOUNDS, example_map

    repro = []
    for ex, ref in sorted(REFERENCE_BOUNDS.items()):
        R = example_map(ex)
        text = format_map(R)
        R2 = parse_map(text)
        if not (np.array_equal(R2.poles, R.poles) and np.array_equal(R2.residues, R.residues)):
            raise RuntimeError(f"example {ex} does not round-trip through its text")
        rows = [[k, lo, up] for k, (lo, up) in sorted(ref.items())]
        repro.append({"id": f"example-{ex}", "map": text, "kmax": max(ref),
                      "oracle": {"kind": "pinned", "rows": rows,
                                 "status": REPRO_STATUS.get(ex)}})
    bank = {"master_seed": MASTER_SEED, "repro": repro}
    for name, recipe, spec in (("degree16", degree16_map, DEGREE16),
                               ("marginal", marginal_map, MARGINAL)):
        texts = generate(recipe, spec, MASTER_SEED)
        bank[name] = [_reference_job(f"{name}-{i}", t, spec["kmax"], spec["reference_N"])
                      for i, t in enumerate(texts)]
    return bank


if __name__ == "__main__":
    bank = build_bank()
    with open(BANK_PATH, "w") as f:
        json.dump(bank, f, indent=1)
        f.write("\n")
