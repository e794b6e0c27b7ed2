"""The pipeline benchmark's worker against the current package: the traced
run patches attributes by name and records capax.BACKEND, so a rename here
would otherwise only show up as a broken benchmark.  Its
capacity.factorizations metric counts the capacity.cho_factor spans, so a
factorization that bypasses scipy.linalg.cho_factor must fail here too."""

import json
import os
import subprocess
import sys
from collections import Counter
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
    jobs = {span[1] for span in spans if span[0] == "job"}
    factorizations = Counter(span[1] for span in spans if span[0] == "capacity.cho_factor")
    assert jobs and factorizations == Counter(dict.fromkeys(jobs, 1))
