"""Command-line front end.

Every command is deterministic given its flags (seeds included) and JSON
output is byte-identical across runs: floats are serialized with 17
significant digits and object keys are sorted.  Exit codes: 0 success,
1 computation error, 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import catalog, digitsum, gle, mcsim

SCHEMA_VERSION = 1


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format(x, ".17g")


def dumps_fixed(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{dumps_fixed(str(k))}:{dumps_fixed(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_fixed(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(path: str | None, lines) -> None:
    """Write each line of the iterable lines, and a newline, to path or else
    to stdout, as it comes, so no table is held whole."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{line}\n" for line in lines)
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)


def _write_json(path: str | None, payload: dict) -> None:
    """Write a JSON report, stamped with SCHEMA_VERSION."""
    _write(path, [dumps_fixed(dict(payload, schema_version=SCHEMA_VERSION))])


def _add_common(parser, *, family=False, max_len=False, threads=False,
                tol=False, csv_out=False):
    if family:
        parser.add_argument(
            "--family", required=True,
            help="built-in family name or @path to a definition file",
        )
    if max_len:
        parser.add_argument("--max-len", type=int, default=None,
                            help="word-length truncation of the series")
    if threads:
        parser.add_argument("--threads", type=int, default=None,
                            help="worker processes for the word scan")
    if tol:
        parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report here instead of stdout")
    if csv_out:
        parser.add_argument("--csv", metavar="PATH", default=None,
                            help="write the CSV table to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lyapdisp",
        description=(
            "Lyapunov exponents, moment exponents L(t) and dispersion "
            "parameters of random products of nonnegative matrix pairs, "
            "plus digital-sum fluctuation scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in families")
    _add_common(p)

    p = sub.add_parser("exponents", help="lambda/kappa/mu/sigma^2 report")
    _add_common(p, family=True, max_len=True, threads=True, csv_out=True)
    p.add_argument("--t", type=float, action="append", default=None,
                   help="also sample L(t) at this t (repeatable)")

    p = sub.add_parser("lt", help="moment exponent L(t) by root finding")
    _add_common(p, family=True, max_len=True, threads=True, tol=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("replica", help="e^{L(t)} for integer t by Kronecker powers")
    _add_common(p, family=True)
    p.add_argument("--t", type=int, default=2)

    p = sub.add_parser("simulate", help="Monte Carlo lambda/sigma^2 estimates")
    _add_common(p, family=True, csv_out=True)
    p.add_argument("--k", type=int, default=256, help="word length")
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=20080318)
    p.add_argument("--t", type=float, default=None,
                   help="also estimate the t-th moment growth rate")

    p = sub.add_parser("regroup-check",
                       help="three-letter regrouping of the quadrinomial family")
    _add_common(p, tol=True)
    p.add_argument("--t", type=float, action="append", default=None,
                   help="t values to check (default 0 0.5 1 2)")

    for name, helptext in (
        ("phi", "average digit-sum fluctuation scan"),
        ("psi", "odd-coefficient average fluctuation scan"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p, csv_out=True)
        p.add_argument("--jmax", type=int, default=24)
        p.add_argument("--samples", type=int, default=1 << 16,
                       help="log-uniform samples per octave")
        p.add_argument("--density-csv", metavar="PATH", default=None,
                       help="write the value-density histogram here")

    p = sub.add_parser("dispersion", help="empirical dispersion trend of counts")
    _add_common(p, family=True, csv_out=True)
    p.add_argument("--jmax", type=int, default=20)
    p.add_argument("--jmin", type=int, default=8)

    p = sub.add_parser("digits", help="exact distribution of #(aN+b) vs #(N) "
                       "over all N < 2^j")
    _add_common(p)
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--j", type=int, default=24)
    p.add_argument("--samples", type=int, default=10**6,
                   help="unused, the distributions are exact: checked >= 1 "
                   "and echoed as n_samples for the benchmark's digits check")
    p.add_argument("--seed", type=int, default=20080318, help="unused")

    p = sub.add_parser("fit", help="exact linear representation of counts")
    _add_common(p, family=True)
    p.add_argument("--ncheck", type=int, default=4096)

    p = sub.add_parser("verify", help="check computed values against references")
    _add_common(p, max_len=True, threads=True)
    p.add_argument("--family", default=None,
                   help="single family (default: all built-ins)")

    return parser


def _cmd_catalog(args) -> int:
    rows = []
    for name in catalog.family_names():
        fam = catalog.get_family(name)
        c = fam.constants
        rows.append({
            "name": fam.name,
            "aliases": list(fam.aliases),
            "q": fam.q,
            "dim": fam.dim,
            "poly_mask": fam.poly_mask,
            "lambda": c.lambda_ref,
            "sigma2": c.sigma2_ref,
            "avg": c.avg_ref,
            "typ": c.typ_ref,
        })
    if args.json:
        _write_json(args.json, {"families": rows})
    else:
        for row in rows:
            print(
                f"{row['name']:<3} ({', '.join(row['aliases'])}): "
                f"q={row['q']} dim={row['dim']} lambda={row['lambda']} "
                f"sigma2={row['sigma2']}"
            )
    return 0


def _cmd_exponents(args) -> int:
    fam = catalog.resolve_family(args.family)
    report = gle.exponents(
        fam,
        max_len=args.max_len,
        threads=args.threads,
        lt_samples=tuple(args.t or ()),
    )
    if args.csv:
        _write(args.csv, report.csv_rows())
    _write_json(args.json, report.to_json_dict())
    return 0


def _cmd_lt(args) -> int:
    fam = catalog.resolve_family(args.family)
    value = gle.l_of_t(
        fam, args.t, max_len=args.max_len, tol=args.tol, threads=args.threads
    )
    payload = {
        "family": fam.name,
        "t": args.t,
        "L": value,
        "exp_L": math.exp(value),
        "L_over_ln2": value / math.log(2.0),
    }
    _write_json(args.json, payload)
    return 0


def _cmd_replica(args) -> int:
    fam = catalog.resolve_family(args.family)
    value = gle.replica_exponent(fam, args.t)
    payload = {
        "family": fam.name,
        "t": args.t,
        "exp_L": value,
        "L": math.log(value),
        "L_over_ln2": math.log(value) / math.log(2.0),
    }
    _write_json(args.json, payload)
    return 0


def _cmd_simulate(args) -> int:
    fam = catalog.resolve_family(args.family)
    config = mcsim.SimConfig(family=fam, k=args.k, trials=args.trials,
                             seed=args.seed)
    if args.t is not None:
        result = mcsim.simulate_moment(config, args.t)
    else:
        result = mcsim.simulate(config)
    if args.csv:
        _write(args.csv, result.csv_rows())
    _write_json(args.json, result.to_json_dict())
    return 0


def _cmd_regroup_check(args) -> int:
    ts = args.t if args.t else [0.0, 0.5, 1.0, 2.0]
    rows = []
    for t in ts:
        value = gle.quadrinomial_regroup_L(t, tol=args.tol)
        closed = math.log((2.0**t + 1.0) / 2.0)
        rows.append({
            "t": t,
            "L_regrouped": value,
            "L_closed_form": closed,
            "abs_diff": abs(value - closed),
        })
    _write_json(args.json, {"samples": rows})
    return 0


def _cmd_fluctuation(args, kind: str) -> int:
    stats_fn = digitsum.phi_statistics if kind == "phi" else digitsum.psi_statistics
    scan = stats_fn(j_max=args.jmax, samples_per_octave=args.samples)
    if args.csv:
        _write(args.csv, scan.samples_csv_rows())
    if args.density_csv:
        _write(args.density_csv, scan.histogram_csv_rows())
    _write_json(args.json, scan.to_json_dict())
    return 0


def _cmd_dispersion(args) -> int:
    fam = catalog.resolve_family(args.family)
    trend = digitsum.empirical_dispersion(fam, j_max=args.jmax, j_min=args.jmin)
    if args.csv:
        _write(args.csv, trend.csv_rows())
    _write_json(args.json, trend.to_json_dict())
    return 0


def _cmd_digits(args) -> int:
    if args.samples < 1:
        raise ValueError("n_samples must be >= 1")
    result = digitsum.digit_distribution_compare(args.a, args.b, j=args.j)
    _write_json(args.json, dict(result.to_json_dict(), n_samples=args.samples))
    return 0


def _cmd_fit(args) -> int:
    fam = catalog.resolve_family(args.family)
    rep = digitsum.fit_linear_representation(fam, n_check=args.ncheck)
    _write_json(args.json, rep.to_json_dict())
    return 0


def _cmd_verify(args) -> int:
    names = [args.family] if args.family else list(catalog.family_names())
    all_rows = []
    failed = False
    for name in names:
        fam = catalog.resolve_family(name)
        report = gle.exponents(fam, max_len=args.max_len, threads=args.threads)
        rows = catalog.verify_constants(fam, report)
        for row in rows:
            row = dict(row, family=fam.name)
            all_rows.append(row)
            status = "PASS" if row["pass"] else "FAIL"
            failed = failed or not row["pass"]
            print(
                f"{status} {fam.name:<3} {row['quantity']:<18} "
                f"computed={row['computed']:.12g} reference={row['reference']:.12g} "
                f"tol={row['tol']:.2g}"
            )
    if args.json:
        _write_json(args.json, {"rows": all_rows})
    return 3 if failed else 0


_HANDLERS = {
    "catalog": _cmd_catalog,
    "exponents": _cmd_exponents,
    "lt": _cmd_lt,
    "replica": _cmd_replica,
    "simulate": _cmd_simulate,
    "regroup-check": _cmd_regroup_check,
    "phi": lambda args: _cmd_fluctuation(args, "phi"),
    "psi": lambda args: _cmd_fluctuation(args, "psi"),
    "dispersion": _cmd_dispersion,
    "digits": _cmd_digits,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
}


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write '--opt -inf' as '--opt=-inf'.

    argparse takes a word that starts with '-' for an option unless it looks
    like a plain negative number, so '-inf', '-nan' and '-1e3' would never
    reach the option's own checks.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={arg}"
                continue
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return _HANDLERS[args.command](args)
    except (
        ValueError,
        ArithmeticError,
        KeyError,
        OSError,
    ) as exc:
        print(f"lyapdisp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
