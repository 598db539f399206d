"""Time the digit-sum layer's CLI commands, or another layer's, per side.

The digit-sum commands are `phi` and `psi` at --jmax 24, 28 and 34 and at
their caps (40 for phi, 38 for psi), writing both CSV tables,
`dispersion --jmax 20` on h4 and g5, `dispersion` on h4
at --jmax 23 and at its limit 30, `digits` at the benchmark's crosscheck
settings (a = 3, b = 0, j = 24, 10^6 samples) and `fit` on h4.  Each
command runs as its own `python -m lyapdisp.cli` process against the
given source trees, so interpreter start-up and import are part of every
time, as they are for a user.  The sides
alternate which runs first from one repetition to the next; one untimed
run per command and side comes first so that byte-compiling the tree is
not timed.  Per command and side
the file records every wall time, their median, the peak resident set
size of each process (from its own rusage), its exit status and the
SHA-1 of its stdout and of each file it writes (`phi`/`psi` write their
--csv and --density-csv tables to a temporary directory per side).  Sides
that claim identical output must agree on all of these; `identical_outputs`
records per command whether they do, and the script exits 1 after writing
the file if one does not, or if a command failed on every side.

    python3 scripts/bench_layers.py parent=../parent/src change=src \
        --out BENCH_digitsum.json

With --conjugated it times `exponents --max-len 18` on diagonally
conjugated copies of all 8 built-in families instead, in the same way, and
`exponents --max-len 22` on a sheared copy of h4.  The script writes the
family files once per run and every run of every side reads the same
files.  The diagonal copies are under D -> Q^-1 D Q for a random positive
diagonal Q with entries a/b, a and b uniform on 1..9 (drawn from a fixed
seed, the way the benchmark's crosscheck workload draws them); scans
balance them back to integer pairs.  The sheared copy is under
Q = I + E01 / 3, which leaves a 3 in a diagonal denominator, so it has no
integral diagonal conjugate and scans round its fractions to float64.  Of
the built-in families only g2 and h4 stay nonnegative under that shear, as
a family file must, and g2 has one word per length.  Per side and family
file it also records `exactmat.diagonal_balance` timed in process: the
median over the side's REPEAT processes of each process's median call, in
microseconds.

    python3 scripts/bench_layers.py parent=../parent/src change=src \
        --conjugated --out BENCH_conjugated.json

With --mc it times the Monte Carlo layer instead, in the same way:
`simulate --csv` on h4 and g5 at the benchmark's crosscheck settings (k 256,
5,000 trials), h4 at the default 100,000 trials, `simulate --t 2` on g3 at
the benchmark's settings and at the defaults, and `fit` on h4 and g5, whose
GF(2) row counts are its exact check.

    python3 scripts/bench_layers.py parent=../parent/src change=src --mc

With --tier1 it times the tier-1 test command instead, run in the checkout
that holds each src/ directory, in the same alternating order after one
untimed run per side.  Per side the file records every wall time, their
median and pytest's summary line; a run with failing tests is an error.

    python3 scripts/bench_layers.py parent=../parent/src change=src --tier1

With --scan it times `words.scan_corner_stats` itself, in one long-lived
process per side: every family at the benchmark depth (28, or 25 for
q = 3), without t samples and with the benchmark's 10-point L(t) grid, at
threads 1 and 2.  Each case runs once untimed per side, then REPEAT times
per side with the sides alternating which runs first.  Per case the file
records each side's wall times and median words/s, whether both sides
counted the same words, whether each side's scans were identical at 1
and 2 threads, and the largest relative difference of sum_ln, sum_ln2 and
pow_sums between the first side and each other side; the script exits 1
after writing the file if counts or one side's runs differ.

    python3 scripts/bench_layers.py parent=../parent/src change=src --scan

With --lt it times the layers above the scan, in one long-lived process per
side: `gle.exponents` at the benchmark's `exponents` settings (depth 28,
the 10-point t grid, one thread) on g3, h3, g4 and h4, and the one-sample
`gle.l_of_t` of `lt --family g3 --t 2` (default depth).  Each process
replaces `words.scan_corner_stats` with the family's ScanStats, scanned
once before any timing, so a call times the factorization, lambda, kappa
and mu, the L(t) root finding and the replica, but no scan.  A run times
LT_CALLS calls and reports their median; each case runs once untimed per
side, then REPEAT runs per side with the sides alternating which runs
first.  Per case the file records each side's run medians and their
median, and whether every call on every side gave the same samples (or
the same error) and the same lambda, kappa and mu; the script exits 1
after writing the file if one did not.

    python3 scripts/bench_layers.py parent=../parent/src change=src --lt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
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
# --conjugated: a side's process calls exactmat.diagonal_balance argv[1]
# times on each family file after it and prints {family: median µs}
BALANCE_CALLS = 101
BALANCE_WORKER = """
import json, statistics, sys, time
from lyapdisp import catalog, exactmat
medians = {}
for path in sys.argv[2:]:
    fam = catalog.load_family_file(path)
    walls = []
    for _ in range(int(sys.argv[1])):
        start = time.perf_counter()
        exactmat.diagonal_balance(fam.d0.rows, fam.d1.rows)
        walls.append(time.perf_counter() - start)
    medians[fam.name] = round(statistics.median(walls) * 1e6, 1)
print(json.dumps(medians))
"""
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
# A side's scan process: reads one JSON case per line, answers one line of
# the wall time and the ScanStats fields.
SCAN_WORKER = """
import json, sys, time
from lyapdisp import catalog, conjugate, words
for line in sys.stdin:
    name, max_len, ts, threads = json.loads(line)
    fam = catalog.get_family(name)
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, name)
    start = time.perf_counter()
    stats = words.scan_corner_stats(fact, max_len, ts=ts, threads=threads)
    wall = time.perf_counter() - start
    print(json.dumps([wall, stats.counts, stats.sum_ln, stats.sum_ln2,
                      stats.pow_sums]), flush=True)
"""

# --lt: (kind, family, max_len or None for the default, ts)
LT_CASES = tuple(("exponents", name, 28, SCAN_GRID)
                 for name in ("g3", "h3", "g4", "h4")) + (
    ("lt", "g3", None, (2.0,)),
)
LT_CALLS = 11
# A side's process for --lt: reads one JSON case per line, answers one line
# of the median wall time of LT_CALLS calls and the last call's outcome.
LT_WORKER = """
import json, statistics, sys, time
from lyapdisp import catalog, conjugate, gle, words
scan = words.scan_corner_stats
scanned = {}
words.scan_corner_stats = lambda fact, max_len, ts=(), threads=None: (
    scanned[fact.family, max_len, tuple(ts)])
for line in sys.stdin:
    kind, name, max_len, ts, calls = json.loads(line)
    fam = catalog.get_family(name)
    depth = gle.default_max_len(fam.q) if max_len is None else max_len
    if (name, depth, tuple(ts)) not in scanned:
        fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, name)
        scanned[name, depth, tuple(ts)] = scan(fact, depth, ts=ts, threads=1)
    walls = []
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
    print(json.dumps([statistics.median(walls), out]), flush=True)
"""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def run_once(src: str, argv: tuple[str, ...], out: str, fam: str = ""
             ) -> tuple[float, float, str, tuple[str, ...], int]:
    """(wall s, peak RSS MB, stdout SHA-1, SHA-1 of each written file, exit
    status) of one fresh CLI process, with {out} in argv set to the
    directory out and {fam} to the directory fam."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = tuple(arg.format(out=out, fam=fam) for arg in argv)
    written = [arg for arg in argv if arg.startswith(out + os.sep)]
    for path in written:
        if os.path.exists(path):
            os.remove(path)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lyapdisp.cli", *argv],
                            env=env, stdout=subprocess.PIPE)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    files = []
    for path in written:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files.append(sha1(fh.read()))
    return (wall, usage.ru_maxrss / 1024.0, sha1(stdout), tuple(files),
            os.waitstatus_to_exitcode(status))


def write_conjugated(src: str, directory: str) -> None:
    """Write CONJUGATED under a seeded random diagonal similarity and
    SHEARED under Q = I + E01 / 3, as JSON family files named
    <family>-conj.json and <family>-shear.json, built from src's catalog."""
    sys.path.insert(0, os.path.abspath(src))
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


def bench(sides: dict[str, str], commands=COMMANDS, fam: str = "") -> dict:
    runs = {label: {" ".join(argv): [] for argv in commands} for label in sides}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {label: os.path.join(tmp, label) for label in sides}
        for label, src in sides.items():
            os.mkdir(outs[label])
            for argv in commands:
                run_once(src, argv, outs[label], fam)
        order = list(sides)
        for rep in range(REPEAT):
            for label in order if rep % 2 == 0 else order[::-1]:
                for argv in commands:
                    runs[label][" ".join(argv)].append(
                        run_once(sides[label], argv, outs[label], fam))
    result = {}
    for label, per_command in runs.items():
        result[label] = {}
        for command, samples in per_command.items():
            walls = [round(wall, 4) for wall, *_ in samples]
            rss = [round(mb, 1) for _, mb, *_ in samples]
            result[label][command] = {
                "wall_s": walls,
                "median_wall_s": round(statistics.median(walls), 4),
                "peak_rss_mb": rss,
                "median_peak_rss_mb": round(statistics.median(rss), 1),
                "stdout_sha1": sorted({sample[2] for sample in samples}),
                "files_sha1": sorted({sample[3] for sample in samples}),
                "exit_codes": sorted({sample[4] for sample in samples}),
            }
    return result


def bench_balance(sides: dict[str, str], directory: str) -> dict:
    """Per side and family file in directory: the median over REPEAT
    processes, the sides alternating, of BALANCE_WORKER's median µs."""
    paths = sorted(os.path.join(directory, name)
                   for name in os.listdir(directory))
    runs = {label: [] for label in sides}
    order = list(sides)
    for rep in range(REPEAT):
        for label in order if rep % 2 == 0 else order[::-1]:
            proc = subprocess.run(
                [sys.executable, "-c", BALANCE_WORKER, str(BALANCE_CALLS),
                 *paths], env=dict(os.environ, PYTHONPATH=os.path.abspath(
                     sides[label])), capture_output=True, text=True,
                check=True)
            runs[label].append(json.loads(proc.stdout))
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
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=os.path.dirname(src),
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    if proc.returncode != 0:
        raise RuntimeError(f"tier-1 in {src} exited {proc.returncode}: {summary}")
    # "583 passed, 2 xfailed in 60.27s (0:01:00)" without its time
    return wall, summary.rsplit(" in ", 1)[0]


def bench_tier1(sides: dict[str, str]) -> dict:
    runs = {label: [] for label in sides}
    for src in sides.values():
        run_tier1(src)
    order = list(sides)
    for rep in range(TIER1_REPEAT):
        for label in order if rep % 2 == 0 else order[::-1]:
            runs[label].append(run_tier1(sides[label]))
    result = {}
    for label, samples in runs.items():
        walls = [round(wall, 2) for wall, _ in samples]
        result[label] = {
            "wall_s": walls,
            "median_wall_s": statistics.median(walls),
            "summary": sorted({summary for _, summary in samples}),
        }
    return result


def scan_cases(src: str) -> list[tuple[str, int, tuple]]:
    """(family, max_len, ts) for every case of --scan, from src's catalog."""
    sys.path.insert(0, os.path.abspath(src))
    from lyapdisp import catalog

    return [(name, SCAN_MAX_LEN[catalog.get_family(name).q], ts)
            for name in catalog.family_names()
            for ts in ((), SCAN_GRID)]


def max_rel_diff(got, want) -> float:
    """Largest |got - want| / |want| over paired floats; inf where want is 0
    and got is not."""
    worst = 0.0
    for a, b in zip(got, want):
        if a != b:
            worst = max(worst, abs(a - b) / abs(b) if b else math.inf)
    return worst


def bench_scan(sides: dict[str, str]) -> dict:
    workers = {
        label: subprocess.Popen(
            [sys.executable, "-c", SCAN_WORKER], text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for label, src in sides.items()
    }

    def scan(label, case):
        """(wall s, [counts, sum_ln, sum_ln2, pow_sums]) of one scan."""
        workers[label].stdin.write(json.dumps(case) + "\n")
        workers[label].stdin.flush()
        wall, *stats = json.loads(workers[label].stdout.readline())
        return wall, stats

    order = list(sides)
    first = order[0]
    cases = {}
    try:
        for name, max_len, ts in scan_cases(sides[first]):
            # every result of one side at any thread count
            results = {label: [] for label in order}
            for threads in SCAN_THREADS:
                case = (name, max_len, ts, threads)
                runs = {label: [] for label in order}
                for label in order:
                    results[label].append(scan(label, case)[1])
                for rep in range(REPEAT):
                    for label in order if rep % 2 == 0 else order[::-1]:
                        runs[label].append(scan(label, case))
                words = sum(results[first][0][0])
                cases[f"{name} L={max_len} ts={len(ts)} threads={threads}"] = {
                    label: {
                        "wall_s": [round(wall, 4) for wall, _ in samples],
                        "median_words_per_s": round(words / statistics.median(
                            wall for wall, _ in samples)),
                    }
                    for label, samples in runs.items()
                }
                for label, samples in runs.items():
                    results[label] += [stats for _, stats in samples]
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
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    return cases


def bench_lt(sides: dict[str, str]) -> dict:
    workers = {
        label: subprocess.Popen(
            [sys.executable, "-c", LT_WORKER], text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for label, src in sides.items()
    }

    def run(label, case, calls):
        """(median wall s, outcome as JSON text) of one run."""
        workers[label].stdin.write(json.dumps([*case, calls]) + "\n")
        workers[label].stdin.flush()
        wall, out = json.loads(workers[label].stdout.readline())
        return wall, json.dumps(out)

    order = list(sides)
    cases = {}
    try:
        for case in LT_CASES:
            kind, name, max_len, ts = case
            outcomes = {run(label, case, 1)[1] for label in order}
            runs = {label: [] for label in order}
            for rep in range(REPEAT):
                for label in order if rep % 2 == 0 else order[::-1]:
                    wall, out = run(label, case, LT_CALLS)
                    runs[label].append(round(wall * 1e3, 3))
                    outcomes.add(out)
            key = (f"{kind} {name} L={max_len or 'default'} "
                   f"t={','.join(map(str, ts))}")
            cases[key] = {
                "sides": {label: {"median_ms": statistics.median(walls),
                                  "run_median_ms": walls}
                          for label, walls in runs.items()},
                "identical_outcomes": len(outcomes) == 1,
                "outcome": json.loads(min(outcomes)),
            }
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL=SRC",
                        help="a label and the src/ directory to import from")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--tier1", action="store_true",
                      help="time the tier-1 tests instead of CLI commands")
    mode.add_argument("--conjugated", action="store_true",
                      help="time exponents on conjugated family files")
    mode.add_argument("--scan", action="store_true",
                      help="time word scans at the benchmark depth")
    mode.add_argument("--mc", action="store_true",
                      help="time simulate and fit commands")
    mode.add_argument("--lt", action="store_true",
                      help="time exponents and lt on precomputed scans")
    parser.add_argument("--out", help="default BENCH_digitsum.json, "
                        "BENCH_tier1.json, BENCH_conjugated.json, "
                        "BENCH_scan.json, BENCH_mc.json or BENCH_lt.json")
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.sides)
    report = {
        "script": "scripts/bench_layers.py",
        "repeat": TIER1_REPEAT if args.tier1 else REPEAT,
        "machine": {
            "cpus": os.cpu_count(),
            "processor": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if args.tier1:
        report["command"] = "PYTHONPATH=src python " + " ".join(TIER1)
        report["sides"] = bench_tier1(sides)
    elif args.scan:
        report["cases"] = bench_scan(sides)
    elif args.lt:
        report["lt_calls"] = LT_CALLS
        report["cases"] = bench_lt(sides)
    elif args.conjugated:
        report["conjugated_seed"] = CONJUGATED_SEED
        with tempfile.TemporaryDirectory() as fam:
            write_conjugated(next(iter(sides.values())), fam)
            report["sides"] = bench(sides, CONJUGATED_COMMANDS, fam)
            report["diagonal_balance_us"] = bench_balance(sides, fam)
    elif args.mc:
        report["sides"] = bench(sides, MC_COMMANDS)
    else:
        report["sides"] = bench(sides)
    if not (args.tier1 or args.scan or args.lt):
        report["identical_outputs"] = identical_outputs(report["sides"])
    out = args.out or ("BENCH_tier1.json" if args.tier1 else
                       "BENCH_conjugated.json" if args.conjugated else
                       "BENCH_scan.json" if args.scan else
                       "BENCH_mc.json" if args.mc else
                       "BENCH_lt.json" if args.lt else
                       "BENCH_digitsum.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.scan:
        for key, row in report["cases"].items():
            if "threads" in key:
                print(f"{key:<32} " + "  ".join(
                    f"{label} {side['median_words_per_s'] / 1e6:7.2f} Mwords/s"
                    for label, side in row.items()))
            else:
                print(f"{key:<32} counts agree {row['counts_agree']}, "
                      f"max rel diff {row['max_rel_diff']}")
        broken = [key for key, row in report["cases"].items()
                  if "threads" not in key and not (
                      row["counts_agree"]
                      and all(row["identical_across_runs"].values()))]
        if broken:
            print(f"counts differ or a side's runs differ: {broken}",
                  file=sys.stderr)
            return 1
        return 0
    if args.lt:
        for key, row in report["cases"].items():
            print(f"{key:<44} " + "  ".join(
                f"{label} {side['median_ms']:8.3f} ms"
                for label, side in row["sides"].items())
                  + f"  identical {row['identical_outcomes']}")
        differ = [key for key, row in report["cases"].items()
                  if not row["identical_outcomes"]]
        if differ:
            print(f"outcomes differ: {differ}", file=sys.stderr)
            return 1
        return 0
    if args.tier1:
        for label, row in report["sides"].items():
            print(f"{label:>8}  tier-1 {row['median_wall_s']:8.2f} s  "
                  f"{'; '.join(row['summary'])}")
        return 0
    for label, per_command in report["sides"].items():
        for command, row in per_command.items():
            print(f"{label:>8}  {command.split(' --csv')[0]:<40} "
                  f"{row['median_wall_s']:8.3f} s "
                  f"{row['median_peak_rss_mb']:8.1f} MB  "
                  f"exit {row['exit_codes']}")
    differ = [cmd for cmd, same in report["identical_outputs"].items() if not same]
    if differ:
        print(f"outputs differ between sides: {differ}", file=sys.stderr)
    failed = [cmd for cmd in report["identical_outputs"]
              if all(0 not in per_command[cmd]["exit_codes"]
                     for per_command in report["sides"].values())]
    if failed:
        print(f"no side ran these: {failed}", file=sys.stderr)
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
