"""Checks on one job's output: rows [(k, lower, upper)] for k = 1..kmax.

A job fails when it raised or when its rows break an invariant.  Its bracket
misses when the rows fail the workload's accuracy oracle from bank.json:

* "pinned": every row matches the pinned reference rows, lower to 1e-6 and
  upper to 1e-5 (the acceptance tolerances), and the verdict matches where
  one is pinned.  A job that reports certified: no has had a ridge added to
  its Gram solves, which can only widen its bracket; its rows may instead
  contain the pinned rows to the same tolerances.  (Example 2 at kmax 40 is
  such a job: rows 30, 35 and 40 are wider than pinned by 6e-5 to 1.8e-4.)
  A miss here is a wrong answer, so it makes the run incorrect.
* "contains": every row contains the high-resolution reference row of the
  same map to 1e-6.  A miss here is measured quadrature error at the
  default resolution, reported as a rate.
"""

# Slack for the ordering and monotonicity checks; the acceptance suite
# allows the same roundoff on its monotone rows.
ROUNDOFF = 1e-12
PINNED_TOL_LOWER = 1e-6
PINNED_TOL_UPPER = 1e-5
CONTAIN_TOL = 1e-6


def invariant_error(rows, kmax):
    """None when rows are k = 1..kmax with lower <= upper, lower
    non-decreasing and upper non-increasing in k; otherwise the reason."""
    ks = [r[0] for r in rows]
    if ks != list(range(1, kmax + 1)):
        return f"rows cover k = {ks}, expected 1..{kmax}"
    for k, lo, up in rows:
        if not lo <= up + ROUNDOFF:
            return f"k={k}: lower {lo!r} > upper {up!r}"
    for (k0, l0, u0), (k1, l1, u1) in zip(rows, rows[1:]):
        if l1 < l0 - ROUNDOFF:
            return f"lower falls from k={k0} to k={k1}: {l0!r} -> {l1!r}"
        if u1 > u0 + ROUNDOFF:
            return f"upper rises from k={k0} to k={k1}: {u0!r} -> {u1!r}"
    return None


def bracket_miss(oracle, result):
    """None when the job's rows pass the oracle; otherwise the first reason."""
    by_k = {k: (lo, up) for k, lo, up in result["rows"]}
    for k, rlo, rup in oracle["rows"]:
        if k not in by_k:
            continue
        lo, up = by_k[k]
        if oracle["kind"] == "pinned":
            match = abs(lo - rlo) <= PINNED_TOL_LOWER and abs(up - rup) <= PINNED_TOL_UPPER
            widened = (not result["certified"] and lo <= rlo + PINNED_TOL_LOWER
                       and up >= rup - PINNED_TOL_UPPER)
            if not (match or widened):
                return f"k={k}: [{lo!r}, {up!r}] vs pinned [{rlo!r}, {rup!r}]"
        elif not (lo <= rlo + CONTAIN_TOL and up >= rup - CONTAIN_TOL):
            return (f"k={k}: [{lo!r}, {up!r}] does not contain the N={oracle['N']} "
                    f"bracket [{rlo!r}, {rup!r}]")
    expected = oracle.get("status")
    if expected is not None and result["status"] != expected:
        return f"verdict {result['status']} vs pinned {expected}"
    return None


def check(job, result):
    """(failure reason, miss reason) for one job; a failed job also misses."""
    if result["error"] is not None:
        return result["error"], result["error"]
    failure = invariant_error(result["rows"], job["kmax"])
    if failure is not None:
        return failure, failure
    return None, bracket_miss(job["oracle"], result)
