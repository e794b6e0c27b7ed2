"""Closed-loop job runner: one client in one process, each job starting only
after the previous one ends.

Reads a plan from stdin, {"jobs": [[map_text, kmax], ...], "seconds": s,
"trace": bool, "spans_path": path}, and prints one JSON result line.  A job
is parse_map(text), then bounds_sequence(R, kmax) at the program's default
resolution, then verdict(b).  The program sees only the map text and kmax.

A loop walks the job list in whole passes until at least `seconds` have
passed, so every metric covers each map equally often; the end-to-end loop
also runs at least MIN_JOBS jobs.  With trace on, an untraced loop and then
a traced loop each take half the time.  The traced loop records spans
around the calls into ratmap, numerics, boundary and capacity, kept in
memory and written to spans_path at exit.
"""

import inspect
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy
import scipy.linalg

import capax
from capax import boundary, capacity, numerics, ratmap
from capax.cli import parse_map

# A tail percentile with ten jobs beyond it is at least the median from here on.
MIN_JOBS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Tracer:
    """Spans (name, job, parent, start_ns, end_ns, counts) of wrapped calls;
    parent is the index of the enclosing span."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        self.spans.append(None)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, self.job, parent, start, end, None)
        if count is not None:
            self.spans[index] = self.spans[index][:5] + (count(out, args, kwargs),)
        return out

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr, the attribute callers look up, by a spanning
        wrapper; uninstall() puts the original back."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, count)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self):
        gram_sig = inspect.signature(capacity.assemble_gram)

        def gram_counts(out, args, kwargs):
            bound = gram_sig.bind(*args, **kwargs).arguments
            m = len(bound["basis"].elements)
            nodes = sum(c.z.size for c in bound["sampling"].curves)
            # computed from array sizes: C = (B * lam) @ B^H on m x nN complex
            # arrays is m^2 nN complex multiply-adds; B and B * lam are read
            return {"flops": 8 * m * m * nodes, "bytes": 2 * 16 * m * nodes,
                    "basis_size": 2 * m}

        def trace_counts(out, args, kwargs):
            return {"nodes": sum(c.z.size for c in out.curves)}

        self.wrap(boundary, "is_n_good", "ratmap.classify")
        self.wrap(ratmap, "preimages", "ratmap.preimages")
        self.wrap(numerics, "roots", "numerics.roots")
        self.wrap(capacity, "trace", "boundary.trace", trace_counts)
        self.wrap(capacity, "enumerate_basis", "capacity.enumerate_basis")
        self.wrap(capacity, "assemble_gram", "capacity.assemble_gram", gram_counts)
        self.wrap(scipy.linalg, "cho_factor", "capacity.cho_factor")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def run_job(text, kmax, tracer=None):
    if tracer is None:
        b = capacity.bounds_sequence(parse_map(text), kmax)
        v = capacity.verdict(b)
    else:
        R = tracer.call("cli.parse_map", parse_map, (text,))
        b = tracer.call("capacity.bounds_sequence", capacity.bounds_sequence, (R, kmax))
        v = tracer.call("capacity.verdict", capacity.verdict, (b,))
    return b, v


def run_loop(jobs, seconds, min_jobs, tracer=None):
    """Whole passes over jobs until `seconds` and min_jobs are both reached.
    Returns (per-job records, wall seconds of each pass)."""
    records = []
    passes = []
    while True:
        start = time.perf_counter()
        for index, (text, kmax) in enumerate(jobs):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    b, v = run_job(text, kmax)
                else:
                    tracer.job = len(records)
                    b, v = tracer.call("job", run_job, (text, kmax, tracer))
            except Exception as exc:  # a failed job is counted, not fatal
                out = {"rows": None, "certified": None, "status": None,
                       "error": f"{type(exc).__name__}: {exc}"}
            else:
                out = {"rows": [list(r) for r in b.rows], "certified": bool(b.certified),
                       "status": v.status, "error": None}
            records.append({"index": index, "wall_s": time.perf_counter() - t0, **out})
        passes.append(time.perf_counter() - start)
        if sum(passes) >= seconds and len(records) >= min_jobs:
            return records, passes


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "capax.BACKEND": capax.BACKEND,
        "capax.path": os.path.dirname(capax.__file__),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main():
    plan = json.load(sys.stdin)
    jobs = [(text, int(kmax)) for text, kmax in plan["jobs"]]
    seconds = float(plan["seconds"])
    try:  # warm-up: lazy imports and first-call costs stay out of the loop
        run_job(*jobs[0])
    except Exception:
        pass  # the same job runs again in the loop, where it is counted
    loops = []
    if not plan["trace"]:
        records, passes = run_loop(jobs, seconds, MIN_JOBS)
        loops.append({"traced": False, "passes": passes, "records": records})
    else:
        records, passes = run_loop(jobs, seconds / 2, 1)
        loops.append({"traced": False, "passes": passes, "records": records})
        tracer = Tracer()
        tracer.install()
        try:
            records, passes = run_loop(jobs, seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        loops.append({"traced": True, "passes": passes, "records": records})
        with open(plan["spans_path"], "w") as f:
            json.dump(tracer.spans, f)
    out = {"env": environment(), "loops": loops,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
