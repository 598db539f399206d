"""Workloads of the lyapdisp benchmark: seeded inputs, operations and gates.

An operation is one `lyapdisp.cli.main(argv)` call.  `build` draws every
seeded input (Monte Carlo and digit seeds, the diagonal conjugators of the
`@file.json` families), writes the family files and returns the operations
in a fixed order: the peak resident set depends on the order, so it stays
the same for every seed.  `scan` has no seeded input.  `check` is the
correctness gate: it looks only at what the program printed, wrote or
returned from its word scans.

This module imports lyapdisp lazily, so that importing it costs nothing the
set-up time should not show.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("scan", "crosscheck")

# scan: `verify` on every family (op ids verify/<family>), then `exponents`
# with the L(t) grid (lt-curve/<family>).  A run repeats each workload's
# operations, so a pass is kept to about half of a run.
# verify: the scan depth per q; ~1.7e7 words in total.
# Every row passes at these depths; at some others a row fails, its
# accelerated value off the reference by more than its error bar allows
# (g3 at 27, h4 at 26, g6 at 24).
VERIFY_MAX_LEN = {1: 28, 2: 28, 3: 25}
# lt-curve: t grid on [-0.5, 2] holding 0, 1 and 2, where L(t) is known.
# At depth 28 h3's t = 2 sample shows the known failure as at 30; at 26 and
# 27 h3 and h4 stop earlier, at t = 1.75 and t = 2.
LT_FAMILIES = ("g3", "h3", "g4", "h4")
LT_MAX_LEN = 28
LT_GRID = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
# crosscheck
SIM_FAMILIES = ("g2", "g3", "h4", "g5")
SIM_K = 256
SIM_TRIALS = 5000
SHALLOW_MAX_LEN = 18
DIGIT_REP_FAMILIES = ("h4", "g5")
REPLICA_T = 3
# dim^3 of the replica matrix: g5 and g6 (216) are in, h4 (512) is out
KRONECKER_CAP = 216

# gate tolerances, each a few times the agreement measured at the seed commit
TOL_L = 1e-9          # L(t) vs closed form / replica: measured <= 7.2e-11
TOL_CONJ = 1e-8       # conjugated vs parent lambda, sigma^2: measured <= 3e-9
TOL_RAW = 1e-12       # conjugated vs parent raw partial sums, relative
TOL_PHI_INF = 1e-7    # phi inf vs ln3/(2 ln2) - 1: measured 2.3e-8
# Monte Carlo lambda-hat carries a norm-prefactor bias of c/k with c measured
# at 0.5 (g2) to 1.7 (h4) for k = 256, on top of the sampling error
MC_BIAS_MAX = 2.5
MC_SIGMAS = 5.0
# digits --a 3: the standardized mean of #(3N) sits 2/3 / (sqrt(j)/2) above
# that of #(N); the sampling error of the mean is 1e-3 at 10^6 samples
DIGITS_MEAN_TOL = 0.01

# A failure the program shows at the seed commit and this benchmark keeps in
# view.  h3's L(2) at depth 30: the re-solve without the last four length
# slabs lands on a spurious accelerated root (0.2366 against 1.0716), so
# `exponents` raises TruncationUnstable.  The operation still counts as
# attempted; it counts as failed only if it fails some other way.  Once the
# program answers it, the ordinary L(t) gates apply.
KNOWN_FAILURES = {
    "lt-curve/h3": {
        "stderr": "L(2.0) moved by",
        "cause": "TruncationUnstable at t=2: the depth L-4 re-solve lands on "
                 "a spurious accelerated root (0.2366 against 1.0716)",
    },
}
# The second known failure depends on the seed.  A conjugated family's raw
# partial sums equal its parent's up to rounding, yet the accelerated sigma^2
# can differ by more than its own error bar: Wynn's column choice flips
# under a rounding-level change (g3 at depth 18: column 16 against 8, sigma^2
# off by 2.0e-3 with sigma2_err 6.1e-4).  It is reported when the raw sums
# agree and the accelerated values do not.
KNOWN_WYNN_FLIP = ("accelerated lambda/sigma^2 differ from the parent's while "
                   "the raw partial sums agree: Wynn column flip")


@dataclass
class Op:
    id: str
    argv: list[str]
    family: str | None = None
    outputs: tuple[str, ...] = ()     # files the operation writes
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    bytes_out: int
    scans: list[dict]
    error: str | None = None          # exception that escaped cli.main


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _conjugated_family(fam, rng: random.Random) -> dict:
    """fam under D -> Q^-1 D Q for a random positive rational diagonal Q."""
    diag = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(fam.dim)]

    def conj(matrix):
        return [[str(matrix.rows[i][j] * diag[j] / diag[i])
                 for j in range(fam.dim)] for i in range(fam.dim)]

    return {
        "name": f"{fam.name}-conj",
        "q": fam.q,
        "dim": fam.dim,
        "d0": conj(fam.d0),
        "d1": conj(fam.d1),
    }


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Seeded inputs and operations of one workload; writes family files."""
    from lyapdisp import catalog

    rng = random.Random(f"{workload}:{seed}")
    threads = str(nproc())
    ops: list[Op] = []
    if workload == "scan":
        for name in catalog.family_names():
            max_len = VERIFY_MAX_LEN[catalog.get_family(name).q]
            ops.append(Op(f"verify/{name}", [
                "verify", "--family", name, "--max-len", str(max_len),
                "--threads", threads], family=name, meta={"max_len": max_len}))
        for name in LT_FAMILIES:
            argv = ["exponents", "--family", name, "--max-len", str(LT_MAX_LEN),
                    "--threads", threads]
            for t in LT_GRID:
                argv += ["--t", repr(t)]
            ops.append(Op(f"lt-curve/{name}", argv, family=name))
    elif workload == "crosscheck":
        for name in SIM_FAMILIES:
            csv = os.path.join(workdir, f"sim_{name}.csv")
            ops.append(Op(f"simulate/{name}", [
                "simulate", "--family", name, "--k", str(SIM_K),
                "--trials", str(SIM_TRIALS), "--seed", str(rng.randrange(1, 2**31)),
                "--csv", csv], family=name, outputs=(csv,)))
        ops.append(Op("simulate-t2/g3", [
            "simulate", "--family", "g3", "--k", str(SIM_K),
            "--trials", str(SIM_TRIALS), "--seed", str(rng.randrange(1, 2**31)),
            "--t", "2"], family="g3"))
        for name in catalog.family_names():
            fam = catalog.get_family(name)
            if fam.dim**REPLICA_T <= KRONECKER_CAP:
                ops.append(Op(f"replica/{name}", [
                    "replica", "--family", name, "--t", str(REPLICA_T)],
                    family=name))
            path = os.path.join(workdir, f"{name}-conj.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(_conjugated_family(fam, rng), handle)
            ops.append(Op(f"exponents/{name}", [
                "exponents", "--family", name,
                "--max-len", str(SHALLOW_MAX_LEN)], family=name))
            ops.append(Op(f"exponents-conj/{name}", [
                "exponents", "--family", "@" + path,
                "--max-len", str(SHALLOW_MAX_LEN)], family=name))
        for kind in ("phi", "psi"):
            ops.append(Op(kind, [kind, "--jmax", "24"]))
        for name in DIGIT_REP_FAMILIES:
            ops.append(Op(f"fit/{name}", ["fit", "--family", name], family=name))
            ops.append(Op(f"dispersion/{name}", [
                "dispersion", "--family", name, "--jmax", "20"], family=name,
                meta={"rows": 20 - 8 + 1}))
        ops.append(Op("digits", [
            "digits", "--a", "3", "--b", "0", "--j", "24",
            "--samples", str(10**6), "--seed", str(rng.randrange(1, 2**31))]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _json(result: Result) -> dict:
    return json.loads(result.stdout)


def _check_scans(result: Result, problems: list[str]) -> None:
    from lyapdisp import words

    for scan in result.scans:
        expected = [words.word_count(scan["q"], l)
                    for l in range(scan["max_len"] + 1)]
        if list(scan["counts"]) != expected:
            problems.append(f"word counts of {scan['family']} at depth "
                            f"{scan['max_len']} differ from word_count")


def _check_verify(op: Op, result: Result, problems: list[str]) -> None:
    rows = result.stdout.splitlines()
    if not rows or any(not row.startswith("PASS ") for row in rows):
        problems.append("verify printed a row that is not PASS")
    if [s["max_len"] for s in result.scans] != [op.meta["max_len"]]:
        problems.append("expected exactly one scan at the requested depth")


def _check_lt_curve(op: Op, result: Result, problems: list[str]) -> None:
    report = _json(result)
    samples = [(s["t"], s["L"]) for s in report["L_samples"]]
    if [t for t, _ in samples] != list(LT_GRID):
        problems.append("L_samples do not cover the requested grid")
        return
    ts = [t for t, _ in samples]
    ls = [value for _, value in samples]
    replica = {r["t"]: math.log(r["value"]) for r in report["replica"]}
    for t, value in samples:
        if t == 0.0 and abs(value) > TOL_L:
            problems.append(f"L(0) = {value:.3e}, expected 0")
        if t in replica and abs(value - replica[t]) > TOL_L:
            problems.append(f"L({t}) differs from ln replica by "
                            f"{abs(value - replica[t]):.2e}")
        if op.family == "g3":
            closed = math.log((2.0**t + 1.0) / 2.0)
            if abs(value - closed) > TOL_L:
                problems.append(f"g3 L({t}) differs from ln((2^t+1)/2) by "
                                f"{abs(value - closed):.2e}")
    if sorted(replica) != [1, 2]:
        problems.append("replica values for t = 1 and 2 are missing")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        problems.append("L(t) is not increasing on the grid")
    slopes = [(ls[i + 1] - ls[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
    if any(b < a - TOL_L for a, b in zip(slopes, slopes[1:])):
        problems.append("L(t) is not convex on the grid")


def _lambda_ref(name: str) -> float:
    from lyapdisp import catalog

    return float(catalog.get_family(name).constants.lambda_ref)


def _check_simulate(op: Op, result: Result, problems: list[str]) -> None:
    report = _json(result)
    if report["degenerate_trials"] != 0:
        problems.append(f"{report['degenerate_trials']} degenerate trials")
    k, lam = report["k"], _lambda_ref(op.family)
    slack = MC_SIGMAS * report["stderr_lyap"]
    if not lam - slack <= report["lyap_hat"] <= lam + MC_BIAS_MAX / k + slack:
        problems.append(f"lambda-hat {report['lyap_hat']:.6f} is outside "
                        f"[lambda, lambda + {MC_BIAS_MAX}/k] +- {MC_SIGMAS} sd")
    for path in op.outputs:
        with open(path, encoding="utf-8") as handle:
            lines = sum(1 for _ in handle)
        if lines != SIM_TRIALS + 1:
            problems.append(f"{os.path.basename(path)} has {lines} lines")
    if "moment_rate" in report:
        t = report["t"]
        rate = report["moment_rate"]
        # Jensen on the sample: (1/k) ln mean e^{t x} >= t * mean x / k
        if rate < t * report["lyap_hat"] - 1e-12:
            problems.append("moment rate below t * lambda-hat (Jensen)")
        closed = math.log((2.0**t + 1.0) / 2.0)
        top = closed + MC_BIAS_MAX / k + MC_SIGMAS * report["moment_stderr"]
        if rate > top:
            problems.append(f"moment rate {rate:.6f} above L({t}) band")


def _check_phi(op: Op, result: Result, problems: list[str]) -> None:
    inf = _json(result)["inf"]
    expected = math.log(3.0) / (2.0 * math.log(2.0)) - 1.0
    if abs(inf - expected) > TOL_PHI_INF:
        problems.append(f"phi inf {inf!r} differs from ln3/(2ln2)-1")


def _check_psi(op: Op, result: Result, problems: list[str]) -> None:
    report = _json(result)
    if not 0.0 < report["inf"] <= report["mean"] <= report["sup"] <= 1.0:
        problems.append("psi statistics outside (0, 1] or out of order")


def _check_fit(op: Op, result: Result, problems: list[str]) -> None:
    if _json(result)["validated_n"] < 4096:
        problems.append("representation validated on fewer than 4096 n")


def _check_dispersion(op: Op, result: Result, problems: list[str]) -> None:
    report = _json(result)
    if len(report["per_octave"]) != op.meta["rows"] or not all(
            math.isfinite(report[k]) for k in ("avg_slope", "typ_slope")):
        problems.append("dispersion trend incomplete")


def _check_digits(op: Op, result: Result, problems: list[str]) -> None:
    report = _json(result)
    offset = (2.0 / 3.0) / (math.sqrt(report["j"]) / 2.0)
    mean = report["standardized_moments"]["mean"]
    ref_mean = report["standardized_moments_ref"]["mean"]
    if (report["n_samples"] != 10**6 or abs(mean - offset) > DIGITS_MEAN_TOL
            or abs(ref_mean) > DIGITS_MEAN_TOL):
        problems.append("digit-sum means off their known offsets")


def _check_conjugate(op: Op, result: Result, parent: Result,
                     problems: list[str], known: dict[str, str]) -> None:
    conj, base = _json(result), _json(parent)
    # the corner values are equal exactly, so the raw partial sums may
    # differ only by rounding
    for key in ("lambda", "kappa", "mu"):
        a, b = conj[key]["raw"], base[key]["raw"]
        if abs(a - b) > TOL_RAW * max(1.0, abs(b)):
            problems.append(f"raw {key} differs from {op.family}'s by {abs(a - b):.2e}")
    drift = max(abs(conj["lambda"]["accel"] - base["lambda"]["accel"]),
                abs(conj["sigma2"] - base["sigma2"]))
    if not problems and drift > TOL_CONJ:
        known[op.id] = (f"{KNOWN_WYNN_FLIP} ({drift:.2e}; sigma2_err "
                        f"{base['sigma2_err']:.2e})")


def _check_replica(op: Op, result: Result, parent: Result,
                   problems: list[str], known: dict[str, str]) -> None:
    ls = {r["t"]: math.log(r["value"]) for r in _json(parent)["replica"]}
    ls[REPLICA_T] = _json(result)["L"]
    if ls[1] - 2.0 * ls[2] + ls[3] < -1e-12 * max(1.0, abs(ls[3])):
        problems.append("replica L(1), L(2), L(3) are not convex")


# gates on one operation's output, by the kind in its id ("simulate/g2")
_GATES = {
    "verify": _check_verify,
    "lt-curve": _check_lt_curve,
    "simulate": _check_simulate,
    "simulate-t2": _check_simulate,
    "phi": _check_phi,
    "psi": _check_psi,
    "fit": _check_fit,
    "dispersion": _check_dispersion,
    "digits": _check_digits,
}
# gates comparing an operation with the `exponents/<family>` one
_PAIR_GATES = {
    "exponents-conj": _check_conjugate,
    "replica": _check_replica,
}


def check(ops: list[Op], results: dict[str, Result]):
    """Gate every operation of one pass.

    Returns (problems per op id, known-failure causes per op id).  An
    operation fails when it raised, exited non-zero, wrote output the gate
    cannot read or has a problem; a known failure that shows exactly as
    documented is reported, not failed.
    """
    problems: dict[str, list[str]] = {op.id: [] for op in ops}
    known: dict[str, str] = {}
    for op in ops:
        result = results[op.id]
        mine = problems[op.id]
        expected = KNOWN_FAILURES.get(op.id)
        if result.error:
            mine.append(f"raised {result.error}")
        elif (expected and result.rc == 1
              and expected["stderr"] in result.stderr):
            known[op.id] = expected["cause"]
        elif result.rc != 0:
            mine.append(f"exit code {result.rc}: {result.stderr.strip()[:200]}")
        _check_scans(result, mine)
        if mine or op.id in known:
            continue
        kind = op.id.split("/")[0]
        try:
            if kind in _GATES:
                _GATES[kind](op, result, mine)
            elif kind in _PAIR_GATES:
                parent = results[f"exponents/{op.family}"]
                if parent.rc != 0 or parent.error:
                    mine.append("the parent exponents operation failed")
                else:
                    _PAIR_GATES[kind](op, result, parent, mine, known)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            mine.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems, known
