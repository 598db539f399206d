#!/usr/bin/env python3
"""Benchmark of lyapdisp as its users drive it: one `cli.main(argv)` per operation.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  An untraced run cycles through the workload's fixed list of
operations (one pass) for `--seconds`, at least once, timing the reference
kernel of `reference.py` every few seconds in between, and then times
set-up in fresh interpreters.  Every operation is gated for correctness.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  `norm_wall_s` is
one pass, the median time of each operation summed, divided by the
machine's slowdown: the reference kernel's median time over REF_S.
`norm_words_per_s` is the words one pass scans over `norm_wall_s`.
`setup_s` and `peak_rss_mb` are as measured.  The next-to-last line holds
the raw times.  With `--trace 1` the run makes one pass with only the
word-count tap, then one pass with every layer wrapped, and reports the
per-layer metrics of the traced pass plus `trace.overhead_s`, the traced
pass's wall time minus the untraced one.  The spans of the traced pass are
written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up runs in fresh interpreters this many times; the median is reported
SETUP_REPEATS = 9
# every operation runs at least this many times in an untraced run
MIN_ROUNDS = 1
# an untraced run times the reference kernel at its start and then whenever
# this many seconds have passed since the last time, between operations
REF_EVERY_S = 2.0
# the reference kernel's time that the normalized metrics are scaled to:
# about its median on the machine that recorded perfbench/baseline.json
REF_S = 0.25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    """One set-up in this fresh interpreter: import, then seeded inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lyapdisp.cli  # noqa: F401

    workloads.build(workload, seed, workdir)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup{i}")
        os.mkdir(probe_dir)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe", probe_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (pool workers)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_op(cli, tracer: tracing.Tracer, op: workloads.Op) -> workloads.Result:
    tracer.op = op.id
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # anything cli.main lets escape fails the op
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    tracer.op = None
    stdout = out.getvalue()
    bytes_out = len(stdout.encode()) + sum(
        os.path.getsize(path) for path in op.outputs if os.path.exists(path))
    return workloads.Result(
        rc=rc, stdout=stdout, stderr=err.getvalue(), wall_s=wall_s,
        bytes_out=bytes_out, scans=tracer.scans(op.id), error=error,
    )


def run_pass(cli, tracer, ops):
    """All operations once, in order; returns (wall seconds, results by op id)."""
    tracer.reset()
    results = {}
    start = time.perf_counter()
    for op in ops:
        results[op.id] = run_op(cli, tracer, op)
    return time.perf_counter() - start, results


def run_rounds(cli, tracer, ops, seconds: float):
    """Cycle through the operations, in order, until `seconds` are used up.

    Every operation runs at least MIN_ROUNDS times; after that the next one
    starts only if its previous time still fits.  The reference kernel runs
    every REF_EVERY_S seconds in between.  Returns (rounds, reference
    times); each round is a dict of results by op id, and the last one may
    hold only the first few ops.
    """
    rounds: list[dict] = []
    last_s: dict[str, float] = {}
    workers = workloads.nproc()
    ref_s = [reference.run(workers)]
    last_ref = started = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if (i >= MIN_ROUNDS * len(ops)
                and time.perf_counter() - started + last_s[op.id] > seconds):
            break
        if i % len(ops) == 0:
            rounds.append({})
            tracer.reset()
        rounds[-1][op.id] = run_op(cli, tracer, op)
        last_s[op.id] = rounds[-1][op.id].wall_s
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            ref_s.append(reference.run(workers))
            last_ref = time.perf_counter()
    return rounds, ref_s


def bench(args, workdir: str) -> dict:
    sys.path.insert(0, str(SRC))
    import lyapdisp
    import numpy
    from lyapdisp import cli

    if Path(lyapdisp.__file__).resolve().parent != SRC / "lyapdisp":
        raise RuntimeError(f"lyapdisp imported from {lyapdisp.__file__}, not {SRC}")
    ops = workloads.build(args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    tracer.install([tracing.SCAN_TARGET])  # word counts for gates and words/s

    if args.trace:
        untraced_wall, untraced = run_pass(cli, tracer, ops)
        tracer.install(tracing.ALL_TARGETS)
        traced_wall, traced = run_pass(cli, tracer, ops)
        rounds = [untraced, traced]
    else:
        rounds, ref_s = run_rounds(cli, tracer, ops, args.seconds)

    attempted = failed = 0
    problems, known = {}, {}
    for before, results in zip([{}] + rounds, rounds):
        # a short last round is gated against the one before it
        done = [op for op in ops if op.id in results]
        pass_problems, pass_known = workloads.check(done, {**before, **results})
        attempted += len(done)
        failed += sum(1 for p in pass_problems.values() if p)
        problems.update({k: v for k, v in pass_problems.items() if v})
        known.update(pass_known)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {"nproc": workloads.nproc(), "python": platform.python_version(),
                "numpy": numpy.__version__},
        "op_wall_s": {op.id: [r[op.id].wall_s for r in rounds if op.id in r]
                      for op in ops},
        "known_failures": known,
        "problems": problems,
    }
    if args.trace:
        bytes_out = sum(r.bytes_out for r in traced.values())
        metrics = tracing.layer_metrics(tracer.spans, bytes_out)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        peak_mb = peak_rss_mb()  # before the set-up probes join the children
        # one pass: the median time of each operation, summed
        wall_s = sum(statistics.median(times)
                     for times in detail["op_wall_s"].values())
        words = sum(scan["words"] for r in rounds[0].values() for scan in r.scans)
        # > 1 while the machine runs slower than when REF_S was taken
        slowdown = statistics.median(ref_s) / REF_S
        detail.update(wall_s=wall_s, ref_s=ref_s, slowdown=slowdown)
        metrics = {
            "norm_wall_s": (wall_s / slowdown, "s"),
            "setup_s": (measure_setup(args.workload, args.seed, workdir), "s"),
            "norm_words_per_s": (words * slowdown / wall_s, "words/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    print(json.dumps(detail, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lyapdisp" / "__init__.py").is_file():
        print(f"run.py: no lyapdisp sources in {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
