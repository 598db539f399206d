"""Span recording around lyapdisp's public functions, from outside the package.

Each traced function is replaced, at its module attribute, by a wrapper that
records one span per call: name, start, end, parent span, operation id and
whether the call raised.  Spans stay in memory; `layer_metrics` turns them
into per-layer numbers and `dump` writes them out when the run ends.

Nothing under `src/` is changed.  Because the wrappers live at module
attributes, a caller that bound a traced function under its own name
(`from .words import scan_corner_stats`) would bypass them; `install`
rebinds every such alias it finds in the package and then refuses to start
if any lyapdisp module still holds an unwrapped original.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
from time import perf_counter

# (module, attribute) pairs; the span name is "module.attribute"
SCAN_TARGET = ("words", "scan_corner_stats")
ALL_TARGETS = (
    SCAN_TARGET,
    ("gle", "exponents"),
    ("gle", "l_from_scan"),
    ("gle", "wynn_epsilon"),
    ("gle", "replica_exponent"),
    ("exactmat", "kronecker"),
    ("exactmat", "spectral_radius"),
    ("conjugate", "sentinel_factorization"),
    ("mcsim", "log_product_norms"),
    ("mcsim", "simulate"),
    ("mcsim", "simulate_moment"),
    ("digitsum", "phi_statistics"),
    ("digitsum", "psi_statistics"),
    ("digitsum", "fit_linear_representation"),
    ("digitsum", "counts_via_representation"),
    ("digitsum", "empirical_dispersion"),
    ("digitsum", "digit_distribution_compare"),
    ("catalog", "load_family_file"),
    ("catalog", "verify_constants"),
    ("cli", "main"),
)
LAYERS = ("words", "gle", "exactmat", "conjugate", "mcsim", "digitsum",
          "catalog", "cli")
# families whose scan rate is reported on its own; conjugated copies
# ("g3-conj") count towards their parent
RATE_FAMILIES = ("g3", "h3", "g4", "h4", "g5", "g6")


def _cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.error = False
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _scan_info(signature):
    """Counts for a scan span: words, power-sum terms, threads, CPU."""

    def info(args, kwargs, result, cpu_used):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        threads = bound.arguments["threads"] or os.cpu_count() or 1
        words = sum(result.counts)
        return {
            "family": bound.arguments["fact"].family,
            "q": result.q,
            "max_len": result.max_len,
            "counts": tuple(result.counts),
            "words": words,
            "pow_terms": words * len(result.ts),
            "threads": max(1, int(threads)),
            "cpu_s": cpu_used,
        }

    return info


def _trial_steps_info(signature):
    def info(args, kwargs, result, cpu_used):
        config = signature.bind(*args, **kwargs).arguments["config"]
        return {"trial_steps": config.trials * config.k}

    return info


# counts taken from a call's arguments and return value, per target
_INFO = {
    SCAN_TARGET: _scan_info,
    ("mcsim", "log_product_norms"): _trial_steps_info,
}


class Tracer:
    """Owns the spans of one run and the wrappers that record them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._installed: dict[tuple[str, str], object] = {}

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, name, fn, info=None, cpu=False):
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            cpu_before = _cpu_seconds() if cpu else 0.0
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if info is not None:
                cpu_used = _cpu_seconds() - cpu_before if cpu else 0.0
                span.info = info(args, kwargs, result, cpu_used)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, targets) -> None:
        """Wrap each (module, attribute) target, aliases included."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "lyapdisp" or key.startswith("lyapdisp.")]
        for target in targets:
            if target in self._installed:
                continue
            module_name, attr = target
            owner = sys.modules[f"lyapdisp.{module_name}"]
            original = getattr(owner, attr)
            if hasattr(original, "__wrapped__"):
                raise RuntimeError(f"{module_name}.{attr} is already wrapped")
            info = _INFO.get(target)
            wrapper = self._wrap(
                f"{module_name}.{attr}", original,
                info and info(inspect.signature(original)),
                cpu=target == SCAN_TARGET,
            )
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            self._installed[target] = original
        self._check_reachable(modules)

    def _check_reachable(self, modules) -> None:
        """Fail if any lyapdisp module can still reach an unwrapped original."""
        originals = {id(fn): key for key, fn in self._installed.items()}
        for mod in modules:
            for key, value in vars(mod).items():
                if isinstance(value, dict):
                    held = list(value.values())
                elif isinstance(value, (list, tuple)):
                    held = list(value)
                else:
                    held = [value]
                for item in held:
                    if id(item) in originals:
                        module_name, attr = originals[id(item)]
                        raise RuntimeError(
                            f"{mod.__name__}.{key} holds the unwrapped "
                            f"{module_name}.{attr}; its calls would escape "
                            "the layer timings"
                        )

    def scans(self, op: str) -> list[dict]:
        """Counts of the scans that operation `op` made in this pass."""
        return [s.info for s in self.spans
                if s.name == "words.scan_corner_stats" and s.op == op]

    def dump(self, path) -> None:
        records = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "error": s.error}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)


def _self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans, bytes_out: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one pass worth of spans: {name: (value, unit)}."""
    own = _self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors = {layer: 0 for layer in LAYERS}
    for s, own_s in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own_s
        if s.error:
            errors[s.name.split(".")[0]] += 1

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    scans = [s for s in spans if s.name == "words.scan_corner_stats" and s.info]
    words = sum(s.info["words"] for s in scans)
    scan_s = total.get("words.scan_corner_stats", 0.0)
    scan_cpu = sum(s.info["cpu_s"] for s in scans)
    busy = sum(s.duration * s.info["threads"] for s in scans)
    steps = sum(s.info["trial_steps"] for s in spans
                if s.name == "mcsim.log_product_norms" and s.info)
    log_norms_s = total.get("mcsim.log_product_norms", 0.0)

    out = {
        "words.scan_s": (scan_s, "s"),
        "words.calls": (calls.get("words.scan_corner_stats", 0), "count"),
        "words.words": (words, "words"),
        "words.words_per_s": (ratio(words, scan_s), "words/s"),
    }
    for fam in RATE_FAMILIES:
        mine = [s for s in scans if s.info["family"].split("-")[0] == fam]
        out[f"words.words_per_s.{fam}"] = (
            ratio(sum(s.info["words"] for s in mine),
                  sum(s.duration for s in mine)),
            "words/s",
        )
    out.update({
        "words.pow_terms": (sum(s.info["pow_terms"] for s in scans), "count"),
        "words.scan_cpu_s": (scan_cpu, "s"),
        "words.parallel_eff": (ratio(scan_cpu, busy), "ratio"),
        "gle.exponents_self_s": (self_s.get("gle.exponents", 0.0), "s"),
        "gle.rootfind_s": (total.get("gle.l_from_scan", 0.0), "s"),
        "gle.rootfind_calls": (calls.get("gle.l_from_scan", 0), "count"),
        "gle.wynn_s": (total.get("gle.wynn_epsilon", 0.0), "s"),
        "gle.wynn_calls": (calls.get("gle.wynn_epsilon", 0), "count"),
        "gle.replica_s": (total.get("gle.replica_exponent", 0.0), "s"),
        "exactmat.kronecker_s": (total.get("exactmat.kronecker", 0.0), "s"),
        "exactmat.spectral_radius_s": (
            total.get("exactmat.spectral_radius", 0.0), "s"),
        "conjugate.factorize_s": (
            total.get("conjugate.sentinel_factorization", 0.0), "s"),
        "conjugate.calls": (
            calls.get("conjugate.sentinel_factorization", 0), "count"),
        "mcsim.log_norms_s": (log_norms_s, "s"),
        "mcsim.log_norms_calls": (
            calls.get("mcsim.log_product_norms", 0), "count"),
        "mcsim.trial_steps": (steps, "count"),
        "mcsim.trial_steps_per_s": (ratio(steps, log_norms_s), "steps/s"),
        "mcsim.bootstrap_s": (self_s.get("mcsim.simulate_moment", 0.0), "s"),
        "digitsum.phi_s": (total.get("digitsum.phi_statistics", 0.0), "s"),
        "digitsum.psi_s": (total.get("digitsum.psi_statistics", 0.0), "s"),
        "digitsum.fit_s": (
            total.get("digitsum.fit_linear_representation", 0.0), "s"),
        "digitsum.counts_s": (
            total.get("digitsum.counts_via_representation", 0.0), "s"),
        "digitsum.dispersion_s": (
            total.get("digitsum.empirical_dispersion", 0.0), "s"),
        "digitsum.digits_s": (
            total.get("digitsum.digit_distribution_compare", 0.0), "s"),
        "catalog.load_s": (total.get("catalog.load_family_file", 0.0), "s"),
        "catalog.verify_s": (total.get("catalog.verify_constants", 0.0), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
    })
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors[layer], "count")
    return out
