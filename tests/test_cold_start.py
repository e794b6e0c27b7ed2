"""A fresh interpreter runs capax on numpy alone: scipy's import takes longer
than a small job, so neither the library nor the CLI may load it."""

import os
import subprocess
import sys
from pathlib import Path

import capax

SRC = str(Path(capax.__file__).resolve().parents[1])
GOOD_TEXT = "0.3/(z+1)+0.2/(z-1)"


def _scipy_modules(names):
    return sorted(m for m in names if m == "scipy" or m.startswith("scipy."))


def _run(args):
    proc = subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_library_job_loads_no_scipy():
    # the benchmark's set-up job: import capax, then one tiny bound sequence
    proc = _run(["-c", (
        "import sys\n"
        "import capax\n"
        "from capax import bounds_sequence, parse_map, verdict\n"
        f"verdict(bounds_sequence(parse_map('{GOOD_TEXT}'), 1))\n"
        "print('\\n'.join(sys.modules))\n"
    )])
    assert _scipy_modules(proc.stdout.split()) == []


def test_cli_verdict_loads_no_scipy():
    proc = _run(["-X", "importtime", "-m", "capax", "verdict", "--map", GOOD_TEXT])
    assert "verdict: consistent-with-ahlfors" in proc.stdout
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "capax.capacity" in imported
    assert _scipy_modules(imported) == []
