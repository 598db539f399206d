"""Time the digit-sum layer's CLI commands, or the tier-1 tests, per side.

Each command runs as its own `python -m lyapdisp.cli` process against the
given source trees, so interpreter start-up and import are part of every
time, as they are for a user.  The sides alternate which runs first from
one repetition to the next; one untimed run per command and side comes
first so that byte-compiling the tree is not timed.  Per command and side
the file records every wall time, their median, the peak resident set
size of each process (from its own rusage) and the SHA-1 of its stdout and
of each file it writes (`phi`/`psi` write their --csv and --density-csv
tables to a temporary directory per side).  Sides that claim identical
output must agree on all of these; `identical_outputs` records per command
whether they do, and the script exits 1 after writing the file if one
does not.

    python3 scripts/bench_layers.py parent=../parent/src change=src \
        --out BENCH_digitsum.json

With --conjugated it times `exponents --max-len 18` on diagonally
conjugated copies of h4, g5 and g6 instead, in the same way.  The script
writes the three family files once per run, each under D -> Q^-1 D Q for a
random positive diagonal Q with entries a/b, a and b uniform on 1..9
(drawn from a fixed seed, the way the benchmark's crosscheck workload
draws them), and every run of every side reads the same files.

    python3 scripts/bench_layers.py parent=../parent/src change=src \
        --conjugated --out BENCH_conjugated.json

With --tier1 it times the tier-1 test command instead, run in the checkout
that holds each src/ directory, in the same alternating order after one
untimed run per side.  Per side the file records every wall time, their
median and pytest's summary line; a run with failing tests is an error.

    python3 scripts/bench_layers.py parent=../parent/src change=src --tier1
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    ("dispersion", "--family", "h4", "--jmax", "20"),
    ("dispersion", "--family", "g5", "--jmax", "20"),
)
# {fam} is the directory of the conjugated family files
CONJUGATED = ("h4", "g5", "g6")
CONJUGATED_COMMANDS = tuple(
    ("exponents", "--family", f"@{{fam}}/{name}-conj.json", "--max-len", "18")
    for name in CONJUGATED
)
CONJUGATED_SEED = 1
REPEAT = 5
# PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_REPEAT = 3


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


def run_once(src: str, argv: tuple[str, ...], out: str,
             fam: str = "") -> tuple[float, float, str, tuple[str, ...]]:
    """(wall s, peak RSS MB, stdout SHA-1, SHA-1 of each written file) of
    one fresh CLI process, with {out} in argv set to the directory out and
    {fam} to the directory fam."""
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
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    files = []
    for path in written:
        with open(path, "rb") as fh:
            files.append(sha1(fh.read()))
    return wall, usage.ru_maxrss / 1024.0, sha1(stdout), tuple(files)


def write_conjugated(src: str, directory: str) -> None:
    """Write CONJUGATED under a seeded random diagonal similarity, as JSON
    family files named <family>-conj.json, built from src's catalog."""
    sys.path.insert(0, os.path.abspath(src))
    from lyapdisp import catalog

    rng = random.Random(CONJUGATED_SEED)
    for name in CONJUGATED:
        fam = catalog.get_family(name)
        diag = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(fam.dim)]

        def conj(matrix):
            return [[str(matrix.rows[i][j] * diag[j] / diag[i])
                     for j in range(fam.dim)] for i in range(fam.dim)]

        with open(os.path.join(directory, f"{name}-conj.json"), "w") as fh:
            json.dump({"name": f"{name}-conj", "q": fam.q, "dim": fam.dim,
                       "d0": conj(fam.d0), "d1": conj(fam.d1)}, fh)


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
            walls = [round(wall, 4) for wall, _, _, _ in samples]
            rss = [round(mb, 1) for _, mb, _, _ in samples]
            result[label][command] = {
                "wall_s": walls,
                "median_wall_s": round(statistics.median(walls), 4),
                "peak_rss_mb": rss,
                "median_peak_rss_mb": round(statistics.median(rss), 1),
                "stdout_sha1": sorted({digest for _, _, digest, _ in samples}),
                "files_sha1": sorted({files for _, _, _, files in samples}),
            }
    return result


def identical_outputs(sides: dict) -> dict[str, bool]:
    """Per command: every run on every side wrote the same stdout and files."""
    return {
        command: len({(digest, files) for row in sides.values()
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL=SRC",
                        help="a label and the src/ directory to import from")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--tier1", action="store_true",
                      help="time the tier-1 tests instead of CLI commands")
    mode.add_argument("--conjugated", action="store_true",
                      help="time exponents on conjugated family files")
    parser.add_argument("--out", help="default BENCH_digitsum.json, "
                        "BENCH_tier1.json or BENCH_conjugated.json")
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
    elif args.conjugated:
        report["conjugated_seed"] = CONJUGATED_SEED
        with tempfile.TemporaryDirectory() as fam:
            write_conjugated(next(iter(sides.values())), fam)
            report["sides"] = bench(sides, CONJUGATED_COMMANDS, fam)
    else:
        report["sides"] = bench(sides)
    if not args.tier1:
        report["identical_outputs"] = identical_outputs(report["sides"])
    out = args.out or ("BENCH_tier1.json" if args.tier1 else
                       "BENCH_conjugated.json" if args.conjugated else
                       "BENCH_digitsum.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.tier1:
        for label, row in report["sides"].items():
            print(f"{label:>8}  tier-1 {row['median_wall_s']:8.2f} s  "
                  f"{'; '.join(row['summary'])}")
        return 0
    for label, per_command in report["sides"].items():
        for command, row in per_command.items():
            print(f"{label:>8}  {command.split(' --csv')[0]:<40} "
                  f"{row['median_wall_s']:8.3f} s "
                  f"{row['median_peak_rss_mb']:8.1f} MB")
    differ = [cmd for cmd, same in report["identical_outputs"].items() if not same]
    if differ:
        print(f"outputs differ between sides: {differ}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
