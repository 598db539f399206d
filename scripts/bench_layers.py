"""Time lyapdisp's layers side by side, one source tree per side.

Each side is LABEL=SRC, a label and the src/ directory its processes
import.  Every mode measures alike: one untimed run per side, so that
byte-compiling a tree is not timed, then REPEAT runs per side
(TIER1_REPEAT for --tier1), the sides alternating which goes first from
one repetition to the next.  A run is either fresh processes, one per
command, so that start-up and import are timed as a user meets them, or
calls into a worker: a process that imports one side's src/ (this file
run as `bench_layers.py serve`, that src/ on PYTHONPATH), reads one JSON
line [function, *args] at a time and answers with one JSON line of what
that function of this file returns.  The script never imports lyapdisp;
it asks a worker.  Each mode writes one JSON file (--out, default
BENCH_<mode>.json, BENCH_digitsum.json without a mode flag) and exits 1
after writing it if runs that must agree do not.

    python3 scripts/bench_layers.py parent=../parent/src change=src [--mc]

Without a mode flag, --mc and --conjugated run COMMANDS (the digit-sum
layer), MC_COMMANDS (Monte Carlo, and `fit`, whose GF(2) row counts are
its exact check) or CONJUGATED_COMMANDS (`exponents` on the family files
of `write_conjugated`, written once by a worker of the first side), each
as a fresh `python -m lyapdisp.cli` process.  Per command and side the
file records every wall time and peak resident set size (from the
process's own rusage), their medians, the exit statuses and the SHA-1s of
stdout and of each file written (to a temporary directory per side).
`identical_outputs` says per command whether every run on every side
agreed on these; a command that differs, or failed on every side, is an
error.  --conjugated also records `balance` per side and family file, in
a fresh worker per run: the median over the runs, in µs.

--tier1 runs the tier-1 tests in the checkout that holds each src/ and
records every wall time, their median and pytest's summary line; a run
with failing tests is an error.

--scan runs `scan` in one worker per side on every family at the
benchmark depth (28, or 25 for q = 3), without t samples and with the
benchmark's 10-point L(t) grid, at threads 1 and 2.  Per case it records
each side's wall times and median words/s, whether both sides counted the
same words and each side's scans were identical at 1 and 2 threads (an
error if not), and the largest relative difference of sum_ln, sum_ln2 and
pow_sums between the first side and each other side.

--lt runs `lt` in one worker per side on LT_CASES: `exponents` at the
benchmark's settings on g3, h3, g4 and h4, and `lt --family g3 --t 2`.
Each call is served a scan made before any timing, so it times the
factorization, lambda, kappa and mu, the L(t) root finding and the
replica.  Per case it records each side's run medians and their median,
and whether every call on every side gave the same samples (or error) and
the same lambda, kappa and mu (an error if not).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

# {out} is the side's temporary directory for the files a command writes
COMMANDS = (
    ("phi", "--jmax", "24", "--csv", "{out}/phi.csv",
     "--density-csv", "{out}/phi-density.csv"),
    ("psi", "--jmax", "24", "--csv", "{out}/psi.csv",
     "--density-csv", "{out}/psi-density.csv"),
    ("phi", "--jmax", "28", "--csv", "{out}/phi28.csv",
     "--density-csv", "{out}/phi28-density.csv"),
    ("psi", "--jmax", "28", "--csv", "{out}/psi28.csv",
     "--density-csv", "{out}/psi28-density.csv"),
    ("phi", "--jmax", "34", "--csv", "{out}/phi34.csv",
     "--density-csv", "{out}/phi34-density.csv"),
    ("psi", "--jmax", "34", "--csv", "{out}/psi34.csv",
     "--density-csv", "{out}/psi34-density.csv"),
    ("phi", "--jmax", "40", "--csv", "{out}/phi40.csv",
     "--density-csv", "{out}/phi40-density.csv"),
    ("psi", "--jmax", "38", "--csv", "{out}/psi38.csv",
     "--density-csv", "{out}/psi38-density.csv"),
    ("dispersion", "--family", "h4", "--jmax", "20"),
    ("dispersion", "--family", "g5", "--jmax", "20"),
    ("dispersion", "--family", "h4", "--jmax", "23"),
    ("dispersion", "--family", "h4", "--jmax", "30"),
    ("digits", "--a", "3", "--b", "0", "--j", "24", "--samples", "1000000",
     "--seed", "1"),
    ("fit", "--family", "h4"),
)
# {fam} is the directory of the conjugated family files
CONJUGATED = ("g1", "g2", "g3", "h3", "g4", "h4", "g5", "g6")
SHEARED = ("h4",)
CONJUGATED_COMMANDS = tuple(
    ("exponents", "--family", f"@{{fam}}/{name}-conj.json", "--max-len", "18")
    for name in CONJUGATED
) + tuple(
    ("exponents", "--family", f"@{{fam}}/{name}-shear.json", "--max-len", "22")
    for name in SHEARED
)
CONJUGATED_SEED = 1
# calls of exactmat.diagonal_balance per family file in one --conjugated run
BALANCE_CALLS = 101
MC_COMMANDS = (
    ("simulate", "--family", "h4", "--k", "256", "--trials", "5000",
     "--csv", "{out}/sim-h4.csv"),
    ("simulate", "--family", "g5", "--k", "256", "--trials", "5000",
     "--csv", "{out}/sim-g5.csv"),
    ("simulate", "--family", "h4", "--csv", "{out}/sim-h4-default.csv"),
    ("simulate", "--family", "g3", "--k", "256", "--trials", "5000",
     "--t", "2"),
    ("simulate", "--family", "g3", "--t", "2"),
    ("fit", "--family", "h4"),
    ("fit", "--family", "g5"),
)
REPEAT = 5
# PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_REPEAT = 3
# --scan: the benchmark's verify depth per q and its lt-curve t grid
SCAN_MAX_LEN = {1: 28, 2: 28, 3: 25}
SCAN_GRID = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
SCAN_THREADS = (1, 2)
# --lt: (kind, family, max_len or None for the default, ts)
LT_CASES = tuple(("exponents", name, 28, SCAN_GRID)
                 for name in ("g3", "h3", "g4", "h4")) + (
    ("lt", "g3", None, (2.0,)),
)
LT_CALLS = 11


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def side_env(src: str) -> dict[str, str]:
    """This process's environment with src as the only PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def alternate(sides: dict[str, str], repeat: int, run) -> tuple[dict, dict]:
    """({label: untimed result}, {label: [timed results]}) of run(label):
    once per side, then `repeat` times per side with the sides alternating
    which goes first."""
    warm = {label: run(label) for label in sides}
    runs = {label: [] for label in sides}
    order = list(sides)
    for rep in range(repeat):
        for label in order if rep % 2 == 0 else order[::-1]:
            runs[label].append(run(label))
    return warm, runs


@contextlib.contextmanager
def workers(sides: dict[str, str]):
    """{label: ask}: ask(function, *args) is function(*args) as run by a
    worker process that imports the side's src/, one JSON line each way."""
    procs = {label: subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "serve"], text=True,
        env=side_env(src), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for label, src in sides.items()}

    def asker(proc):
        def ask(function, *args):
            proc.stdin.write(json.dumps([function.__name__, *args]) + "\n")
            proc.stdin.flush()
            return json.loads(proc.stdout.readline())
        return ask

    try:
        yield {label: asker(proc) for label, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.communicate()  # closes its stdin, so the worker exits


def serve() -> None:
    """A worker's loop: answer each [function, *args] line on stdin."""
    for line in sys.stdin:
        name, *args = json.loads(line)
        print(json.dumps(globals()[name](*args)), flush=True)


# -- what a worker runs, on its side's lyapdisp

def write_conjugated(directory: str) -> None:
    """Write CONJUGATED and SHEARED as family files <family>-conj.json and
    <family>-shear.json.

    The diagonal copies are Q^-1 D Q for a positive diagonal Q of entries
    a/b, a and b uniform on 1..9 from a fixed seed (as the benchmark's
    crosscheck workload draws them); scans balance them back to integers.
    The shear Q = I + E01 / 3 leaves a 3 in a diagonal denominator, so
    scans round those copies to float64.  Of the built-ins only g2 and h4
    stay nonnegative under it, and g2 has one word per length.
    """
    from lyapdisp import catalog

    def write(fam, suffix, conj):
        with open(os.path.join(directory, f"{fam.name}-{suffix}.json"),
                  "w") as fh:
            json.dump({"name": f"{fam.name}-{suffix}", "q": fam.q,
                       "dim": fam.dim, "d0": conj(fam.d0.rows),
                       "d1": conj(fam.d1.rows)}, fh)

    rng = random.Random(CONJUGATED_SEED)
    for name in CONJUGATED:
        fam = catalog.get_family(name)
        diag = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(fam.dim)]
        write(fam, "conj", lambda rows: [
            [str(rows[i][j] * diag[j] / diag[i]) for j in range(fam.dim)]
            for i in range(fam.dim)])

    def shear(rows):
        # Q^-1 D Q: row 0 less row 1 / 3, then column 1 plus column 0 / 3
        rows = [list(row) for row in rows]
        rows[0] = [a - b / 3 for a, b in zip(rows[0], rows[1])]
        for row in rows:
            row[1] += row[0] / 3
        return [[str(x) for x in row] for row in rows]

    for name in SHEARED:
        write(catalog.get_family(name), "shear", shear)


def balance(paths: list[str]) -> dict[str, float]:
    """{family: median µs of BALANCE_CALLS exactmat.diagonal_balance calls}
    for each family file."""
    from lyapdisp import catalog, exactmat

    medians = {}
    for path in paths:
        fam = catalog.load_family_file(path)
        walls = []
        for _ in range(BALANCE_CALLS):
            start = time.perf_counter()
            exactmat.diagonal_balance(fam.d0.rows, fam.d1.rows)
            walls.append(time.perf_counter() - start)
        medians[fam.name] = round(statistics.median(walls) * 1e6, 1)
    return medians


def scan_cases() -> list[tuple[str, int, tuple]]:
    """(family, max_len, ts) for every case of --scan."""
    from lyapdisp import catalog

    return [(name, SCAN_MAX_LEN[catalog.get_family(name).q], ts)
            for name in catalog.family_names()
            for ts in ((), SCAN_GRID)]


def factorization(name: str):
    """The built-in family's sentinel factorization, which a scan takes."""
    from lyapdisp import catalog, conjugate

    fam = catalog.get_family(name)
    return conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, name)


def scan(name: str, max_len: int, ts: list, threads: int) -> tuple:
    """(wall s, [counts, sum_ln, sum_ln2, pow_sums]) of one scan."""
    from lyapdisp import words

    fact = factorization(name)
    start = time.perf_counter()
    stats = words.scan_corner_stats(fact, max_len, ts=ts, threads=threads)
    wall = time.perf_counter() - start
    return wall, [stats.counts, stats.sum_ln, stats.sum_ln2, stats.pow_sums]


@functools.cache
def scanned(name: str, depth: int, ts: tuple):
    """The family's ScanStats, scanned once per worker on one thread."""
    from lyapdisp import words

    return words.scan_corner_stats(factorization(name), depth, ts=ts,
                                   threads=1)


def lt(kind: str, name: str, max_len: int | None, ts: list, calls: int
       ) -> tuple:
    """(median wall s, last outcome) of `calls` calls of gle.l_of_t (kind
    'lt') or gle.exponents, with the scan they ask for served from
    `scanned`; an ArithmeticError's outcome is its type and message."""
    from lyapdisp import catalog, gle, words

    depth = (gle.default_max_len(catalog.get_family(name).q)
             if max_len is None else max_len)
    served = {(name, depth, tuple(ts)): scanned(name, depth, tuple(ts))}
    real, words.scan_corner_stats = words.scan_corner_stats, (
        lambda fact, max_len, ts=(), threads=None:
        served[fact.family, max_len, tuple(ts)])
    walls = []
    try:
        for _ in range(calls):
            start = time.perf_counter()
            try:
                if kind == "lt":
                    out = gle.l_of_t(name, ts[0], max_len=max_len)
                else:
                    report = gle.exponents(name, max_len=max_len, threads=1,
                                           lt_samples=ts)
                    out = [report.l_samples] + [
                        [v.accel, v.err, v.depth]
                        for v in (report.lam, report.kappa, report.mu)]
            except ArithmeticError as exc:
                out = [type(exc).__name__, str(exc)]
            walls.append(time.perf_counter() - start)
    finally:
        words.scan_corner_stats = real
    return statistics.median(walls), out


# -- the modes

def run_once(src: str, argv: tuple[str, ...], out: str, fam: str = ""
             ) -> tuple[float, float, str, tuple[str, ...], int]:
    """(wall s, peak RSS MB, stdout SHA-1, SHA-1 of each written file, exit
    status) of one fresh CLI process, with {out} in argv set to the
    directory out and {fam} to the directory fam."""
    argv = tuple(arg.format(out=out, fam=fam) for arg in argv)
    written = [arg for arg in argv if arg.startswith(out + os.sep)]
    for path in written:
        if os.path.exists(path):
            os.remove(path)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lyapdisp.cli", *argv],
                            env=side_env(src), stdout=subprocess.PIPE)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    files = tuple(sha1(pathlib.Path(path).read_bytes()) for path in written
                  if os.path.exists(path))
    return (wall, usage.ru_maxrss / 1024.0, sha1(stdout), files,
            proc.returncode)


def bench(sides: dict[str, str], repeat: int, commands: tuple,
          fam: str = "") -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        outs = {label: os.path.join(tmp, label) for label in sides}
        for out in outs.values():
            os.mkdir(out)
        _, runs = alternate(sides, repeat, lambda label: [
            run_once(sides[label], argv, outs[label], fam)
            for argv in commands])
    result = {}
    for label, reps in runs.items():
        result[label] = {}
        for argv, samples in zip(commands, zip(*reps)):
            walls = [round(wall, 4) for wall, *_ in samples]
            rss = [round(mb, 1) for _, mb, *_ in samples]
            result[label][" ".join(argv)] = {
                "wall_s": walls,
                "median_wall_s": round(statistics.median(walls), 4),
                "peak_rss_mb": rss,
                "median_peak_rss_mb": round(statistics.median(rss), 1),
                "stdout_sha1": sorted({sample[2] for sample in samples}),
                "files_sha1": sorted({sample[3] for sample in samples}),
                "exit_codes": sorted({sample[4] for sample in samples}),
            }
    return result


def bench_balance(sides: dict[str, str], repeat: int, directory: str) -> dict:
    """Per side and family file in directory: the median over the runs,
    a fresh worker each, of `balance`'s median µs."""
    paths = sorted(os.path.join(directory, name)
                   for name in os.listdir(directory))

    def run(label):
        with workers({label: sides[label]}) as ask:
            return ask[label](balance, paths)

    _, runs = alternate(sides, repeat, run)
    return {label: {name: statistics.median(run[name] for run in samples)
                    for name in samples[0]}
            for label, samples in runs.items()}


def identical_outputs(sides: dict) -> dict[str, bool]:
    """Per command: every run on every side exited alike and wrote the same
    stdout and files."""
    return {
        command: len({(code, digest, files) for row in sides.values()
                      for code in row[command]["exit_codes"]
                      for digest in row[command]["stdout_sha1"]
                      for files in row[command]["files_sha1"]}) == 1
        for command in next(iter(sides.values()))
    }


def run_tier1(src: str) -> tuple[float, str]:
    """(wall s, pytest summary line) of the tier-1 tests in src's checkout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1],
                          cwd=os.path.dirname(os.path.abspath(src)),
                          env=side_env(src), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    if proc.returncode != 0:
        raise RuntimeError(f"tier-1 in {src} exited {proc.returncode}: {summary}")
    # "583 passed, 2 xfailed in 60.27s (0:01:00)" without its time
    return wall, summary.rsplit(" in ", 1)[0]


def bench_tier1(sides: dict[str, str], repeat: int) -> dict:
    _, runs = alternate(sides, repeat, lambda label: run_tier1(sides[label]))
    result = {}
    for label, samples in runs.items():
        walls = [round(wall, 2) for wall, _ in samples]
        result[label] = {
            "wall_s": walls,
            "median_wall_s": statistics.median(walls),
            "summary": sorted({summary for _, summary in samples}),
        }
    return result


def max_rel_diff(got, want) -> float:
    """Largest |got - want| / |want| over paired floats; inf where want is 0
    and got is not."""
    worst = 0.0
    for a, b in zip(got, want):
        if a != b:
            worst = max(worst, abs(a - b) / abs(b) if b else math.inf)
    return worst


def bench_scan(sides: dict[str, str], repeat: int) -> dict:
    order = list(sides)
    first = order[0]
    cases = {}
    with workers(sides) as ask:
        for name, max_len, ts in ask[first](scan_cases):
            # every result of one side at any thread count
            results = {label: [] for label in order}
            for threads in SCAN_THREADS:
                warm, runs = alternate(sides, repeat, lambda label: ask[label](
                    scan, name, max_len, ts, threads))
                for label in order:
                    results[label] += [stats for _, stats in
                                       [warm[label], *runs[label]]]
                words = sum(results[first][0][0])
                cases[f"{name} L={max_len} ts={len(ts)} threads={threads}"] = {
                    label: {
                        "wall_s": [round(wall, 4) for wall, _ in samples],
                        "median_words_per_s": round(words / statistics.median(
                            wall for wall, _ in samples)),
                    }
                    for label, samples in runs.items()
                }
            counts, sum_ln, sum_ln2, pow_sums = results[first][0]
            cases[f"{name} L={max_len} ts={len(ts)}"] = {
                "words": sum(counts),
                "counts_agree": all(results[label][0][0] == counts
                                    for label in order),
                # every scan of the side, at threads 1 and 2, gave one result
                "identical_across_runs": {
                    label: all(stats == results[label][0]
                               for stats in results[label])
                    for label in order
                },
                "max_rel_diff": {
                    label: {
                        "sum_ln": max_rel_diff(results[label][0][1], sum_ln),
                        "sum_ln2": max_rel_diff(results[label][0][2], sum_ln2),
                        "pow_sums": max_rel_diff(
                            [x for row in results[label][0][3] for x in row],
                            [x for row in pow_sums for x in row]),
                    }
                    for label in order[1:]
                },
            }
    return cases


def bench_lt(sides: dict[str, str], repeat: int) -> dict:
    cases = {}
    with workers(sides) as ask:
        for kind, name, max_len, ts in LT_CASES:
            warm, runs = alternate(sides, repeat, lambda label: ask[label](
                lt, kind, name, max_len, ts, LT_CALLS))
            outcomes = {json.dumps(out) for _, out in [
                *warm.values(), *(run for rs in runs.values() for run in rs)]}
            key = (f"{kind} {name} L={max_len or 'default'} "
                   f"t={','.join(map(str, ts))}")
            sides_ms = {label: [round(wall * 1e3, 3) for wall, _ in rs]
                        for label, rs in runs.items()}
            cases[key] = {
                "sides": {label: {"median_ms": statistics.median(walls),
                                  "run_median_ms": walls}
                          for label, walls in sides_ms.items()},
                "identical_outcomes": len(outcomes) == 1,
                "outcome": json.loads(min(outcomes)),
            }
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL=SRC",
                        help="a label and the src/ directory to import from")
    modes = {"tier1": "time the tier-1 tests instead of CLI commands",
             "conjugated": "time exponents on conjugated family files",
             "scan": "time word scans at the benchmark depth",
             "mc": "time simulate and fit commands",
             "lt": "time exponents and lt on precomputed scans"}
    group = parser.add_mutually_exclusive_group()
    for mode, text in modes.items():
        group.add_argument(f"--{mode}", action="store_true", help=text)
    parser.add_argument("--out", help="default BENCH_<mode>.json, or "
                        "BENCH_digitsum.json without a mode flag")
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.sides)
    repeat = TIER1_REPEAT if args.tier1 else REPEAT
    report = {
        "script": "scripts/bench_layers.py",
        "repeat": repeat,
        "machine": {
            "cpus": os.cpu_count(),
            "processor": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    # {what went wrong: the commands or cases it went wrong for}
    problems = {}
    if args.tier1:
        report["command"] = "PYTHONPATH=src python " + " ".join(TIER1)
        report["sides"] = bench_tier1(sides, repeat)
        for label, row in report["sides"].items():
            print(f"{label:>8}  tier-1 {row['median_wall_s']:8.2f} s  "
                  f"{'; '.join(row['summary'])}")
    elif args.scan:
        report["cases"] = bench_scan(sides, repeat)
        for key, row in report["cases"].items():
            if "threads" in key:
                print(f"{key:<32} " + "  ".join(
                    f"{label} {side['median_words_per_s'] / 1e6:7.2f} Mwords/s"
                    for label, side in row.items()))
            else:
                print(f"{key:<32} counts agree {row['counts_agree']}, "
                      f"max rel diff {row['max_rel_diff']}")
        problems["counts differ or a side's runs differ"] = [
            key for key, row in report["cases"].items()
            if "threads" not in key and not (
                row["counts_agree"]
                and all(row["identical_across_runs"].values()))]
    elif args.lt:
        report["lt_calls"] = LT_CALLS
        report["cases"] = bench_lt(sides, repeat)
        for key, row in report["cases"].items():
            print(f"{key:<44} " + "  ".join(
                f"{label} {side['median_ms']:8.3f} ms"
                for label, side in row["sides"].items())
                  + f"  identical {row['identical_outcomes']}")
        problems["outcomes differ"] = [
            key for key, row in report["cases"].items()
            if not row["identical_outcomes"]]
    else:
        if args.conjugated:
            report["conjugated_seed"] = CONJUGATED_SEED
            with tempfile.TemporaryDirectory() as fam:
                first = next(iter(sides))
                with workers({first: sides[first]}) as ask:
                    ask[first](write_conjugated, fam)
                report["sides"] = bench(sides, repeat, CONJUGATED_COMMANDS,
                                        fam)
                report["diagonal_balance_us"] = bench_balance(sides, repeat,
                                                              fam)
        else:
            report["sides"] = bench(sides, repeat,
                                    MC_COMMANDS if args.mc else COMMANDS)
        same = report["identical_outputs"] = identical_outputs(report["sides"])
        for label, per_command in report["sides"].items():
            for command, row in per_command.items():
                print(f"{label:>8}  {command.split(' --csv')[0]:<40} "
                      f"{row['median_wall_s']:8.3f} s "
                      f"{row['median_peak_rss_mb']:8.1f} MB  "
                      f"exit {row['exit_codes']}")
        problems["outputs differ between sides"] = [
            cmd for cmd, ok in same.items() if not ok]
        problems["no side ran these"] = [
            cmd for cmd in same
            if all(0 not in per_command[cmd]["exit_codes"]
                   for per_command in report["sides"].values())]
    mode = next((mode for mode in modes if getattr(args, mode)), "digitsum")
    with open(args.out or f"BENCH_{mode}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for what, keys in problems.items():
        if keys:
            print(f"{what}: {keys}", file=sys.stderr)
    return 1 if any(problems.values()) else 0


if __name__ == "__main__":
    sys.exit(serve() if sys.argv[1:] == ["serve"] else main())
