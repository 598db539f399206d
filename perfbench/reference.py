"""A fixed reference computation that gauges how fast the machine runs now.

The benchmark shares a few cores of a host with other tenants, and their
load changes this machine's speed by 20-40 % over minutes, far more than
the bounds a change is judged by.  A run therefore times this kernel between
its operations and reports the workload's time relative to it.

The kernel mimics lyapdisp's word-tree scan, which does nearly all of the
work in the `scan` workload: a depth-first walk over tuples of four small
integers with a run-length limit, Kahan-summed ln, ln^2 and power sums per
depth, spread over a fork-context pool of one worker per core that is
started for each call, as the scan's pool is.  It imports nothing from
lyapdisp, so no change to the program can move it.
"""

from __future__ import annotations

import math
import multiprocessing
import time

# walk depth and task count: one call takes about 0.25 s on two cores of
# an Intel Xeon virtual machine
DEPTH = 15
TASKS = 16


def _walk(task: int) -> float:
    n = DEPTH + 2
    counts = [0] * n
    s_ln, c_ln, s_ln2, c_ln2, s_pow, c_pow = ([0.0] * n for _ in range(6))
    stack = [(1, task % 3, 1, 2, 0, 0)]
    pop, push = stack.pop, stack.append
    log, exp = math.log, math.exp
    while stack:
        r0, r1, r2, r3, run, d = pop()
        d1 = d + 1
        v = r0 + 2 * r1 + r3
        counts[d1] += 1
        if v:
            lc = log(v)
            y = lc - c_ln[d1]
            t0 = s_ln[d1]
            t1 = t0 + y
            c_ln[d1] = (t1 - t0) - y
            s_ln[d1] = t1
            y = lc * lc - c_ln2[d1]
            t0 = s_ln2[d1]
            t1 = t0 + y
            c_ln2[d1] = (t1 - t0) - y
            s_ln2[d1] = t1
            y = exp(0.5 * lc) - c_pow[d1]
            t0 = s_pow[d1]
            t1 = t0 + y
            c_pow[d1] = (t1 - t0) - y
            s_pow[d1] = t1
        if d1 < DEPTH:
            push((r0 + r1, r1 + r2, r2 + r3, r3 + r0, 0, d1))
            if run < 2:
                push((r0, r0 + r1, r1 + r2, r2, run + 1, d1))
    return sum(s_ln) + sum(s_ln2) + sum(s_pow)


def run(workers: int) -> float:
    """Time one call of the kernel on `workers` processes; returns seconds."""
    start = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        sums = pool.map(_walk, range(TASKS), chunksize=1)
    elapsed = time.perf_counter() - start
    if not all(math.isfinite(s) and s > 0.0 for s in sums):
        raise RuntimeError("reference kernel returned a non-finite sum")
    return elapsed
