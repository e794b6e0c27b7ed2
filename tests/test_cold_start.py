"""A fresh interpreter runs capax on numpy alone: scipy's import takes longer
than a small job, so neither the library nor the CLI may load it.  Once warm,
a job reuses the heap it has: it takes almost no fresh pages."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import capax

from test_boundary import DEGREE16_0, MARGINAL_REFINED

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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
def test_warm_jobs_take_few_fresh_pages():
    # Freeing and re-allocating large temporaries per block or per grid class
    # can make glibc trim and regrow its heap on every job: hundreds of minor
    # page faults and milliseconds of system time per job.  The loop runs in
    # its own interpreter, since a long-lived heap such as pytest's hides it.
    proc = _run(["-c", (
        "import resource\n"
        "from capax import bounds_sequence, parse_map, verdict\n"
        "from capax.cli import example_map\n"
        "jobs = [(example_map(2), 40), (example_map(4), 6),\n"
        f"        (parse_map({DEGREE16_0!r}), 4), (parse_map({MARGINAL_REFINED!r}), 5)]\n"
        "def rounds(k):\n"
        "    for _ in range(k):\n"
        "        for R, kmax in jobs:\n"
        "            verdict(bounds_sequence(R, kmax))\n"
        "rounds(2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "rounds(5)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (5 * len(jobs)))\n"
    )])
    assert float(proc.stdout) <= 50
