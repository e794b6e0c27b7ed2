"""The pipeline benchmark's worker against the current package: the traced
run patches attributes by name and records capax.BACKEND, so a rename here
would otherwise only show up as a broken benchmark.

The worker still spans scipy.linalg.cho_factor as capacity.cho_factor, but
capax factors its Gram with np.linalg.cholesky, so that span never occurs
and the benchmark's capacity.factorizations reads 0.  One factorization per
bound sequence is asserted in tests/test_capacity.py instead
(test_one_factorization_per_bound_sequence)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "pipebench" / "worker.py"


def test_traced_worker_run(tmp_path):
    spans_path = tmp_path / "spans.json"
    plan = {"jobs": [["0.3/(z+1)+0.2/(z-1)", 2]], "seconds": 0, "trace": True,
            "spans_path": str(spans_path)}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(WORKER)], input=json.dumps(plan), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert "capax.BACKEND" in out["env"]
    for loop in out["loops"]:
        assert all(r["error"] is None for r in loop["records"])
    spans = json.loads(spans_path.read_text())
    names = {span[0] for span in spans}
    assert {"numerics.roots", "boundary.trace", "capacity.assemble_gram"} <= names
    assert any(span[0] == "job" for span in spans)
