"""Digital sums, odd-coefficient counts over GF(2), and their fluctuations.

Everything here is exact until the final float: the summatory functions

    S(n)  = sum_{k<n} #(k)         (#(k) = binary digit sum)
    Sf(n) = sum_{k<n} 2^{#(k)}     (odd coefficients in (1+x)^k)

satisfy S(2m) = 2 S(m) + m and Sf(2m) = 3 Sf(m) with odd-argument splits,
so both are O(log n) integer recursions.  The period-1 fluctuation
functions they define,

    Phi(log2 n) = S(n)/n - log2(n)/2           (<= 0, sup 0 at powers of 2)
    Psi(log2 n) = Sf(n) / n^{log2 3}           (in (0, 1], sup 1 at powers)

are evaluated through those identities in a form that is bitwise periodic:
writing n = f * 2^j with f in [1, 2), the power-of-two part cancels in
exact integer arithmetic and only log2(f) is floating point.

The rest of the module connects counts to the matrix families: GF(2) row
iteration as the oracle, an exactly validated linear representation
count(n) = u * D_{z(n)} * v over the binary digits of n, empirical
dispersion slopes, and the distribution comparison of #(aN + b) samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import catalog, conjugate, exactmat
from .catalog import MatrixFamily

__all__ = [
    "LinearRepresentation",
    "summatory_digit_sum",
    "summatory_f",
    "phi",
    "psi",
    "phi_statistics",
    "psi_statistics",
    "FluctuationScan",
    "gf2_row_counts",
    "fit_linear_representation",
    "counts_via_representation",
    "empirical_dispersion",
    "DispersionTrend",
    "digit_distribution_compare",
    "DigitCompare",
    "NoRepresentationFound",
]

LOG2_3 = math.log2(3.0)
DEFAULT_PERCENTILES = (1, 5, 10, 25, 50, 75, 90, 95, 99, 100)
HISTOGRAM_BINS = 200


class NoRepresentationFound(ValueError):
    pass


def summatory_digit_sum(n: int) -> int:
    """S(n) = sum of digit sums below n, by the doubling recursion."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(m: int) -> int:
        if m <= 1:
            return 0
        half, odd = divmod(m, 2)
        s = 2 * rec(half) + half
        if odd:
            s += half.bit_count()
        return s

    return rec(n)


def summatory_f(n: int) -> int:
    """Sf(n) = sum of 2^{#(k)} below n; Sf(2^j) = 3^j."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(m: int) -> int:
        if m == 0:
            return 0
        if m == 1:
            return 1
        half, odd = divmod(m, 2)
        s = 3 * rec(half)
        if odd:
            s += 1 << half.bit_count()
        return s

    return rec(n)


def _split_power_of_two(n: int) -> tuple[int, float]:
    """n = f * 2^j with f in [1, 2); the division is exact for n < 2^53."""
    j = n.bit_length() - 1
    return j, n / (1 << j)


def _phi_parts(n: int, s: int) -> tuple[float, float]:
    """(log2 f, Phi) at n = f * 2^j from the exact S(n) = s; see `phi`."""
    j, f = _split_power_of_two(n)
    x = math.log2(f)
    value = (2 * s - j * n) / (2 * n) - x / 2.0
    if not value <= 0.0:
        raise ArithmeticError(f"phi({n}) = {value!r} is above its supremum 0")
    return x, value


def _psi_parts(n: int, s: int) -> tuple[float, float]:
    """(log2 f, Psi) at n = f * 2^j from the exact Sf(n) = s; see `psi`."""
    j, f = _split_power_of_two(n)
    value = (s / 3**j) * f**-LOG2_3
    if not 0.0 < value <= 1.0:
        raise ArithmeticError(f"psi({n}) = {value!r} is outside (0, 1]")
    return math.log2(f), value


def phi(n: int) -> float:
    """Average-digit-sum fluctuation: S(n)/n - log2(n)/2, exactly.

    Computed as (2 S(n) - j n) / (2 n) - log2(f)/2 with n = f 2^j, so the
    value at 2n is bit-identical to the value at n and the supremum 0 is
    attained exactly at powers of two.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _phi_parts(n, summatory_digit_sum(n))[1]


def psi(n: int) -> float:
    """Odd-coefficient-average fluctuation: Sf(n) / n^{log2 3}, exactly.

    Computed as (Sf(n) / 3^j) * f^{-log2 3}; at powers of two Sf(2^j) = 3^j
    collapses the first factor to exactly 1.0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _psi_parts(n, summatory_f(n))[1]


# ---------------------------------------------------------------------------
# scans and statistics of the fluctuation functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluctuationScan:
    name: str
    j_max: int
    inf: float
    inf_at: int
    sup: float
    sup_at: int
    mean: float
    percentiles: tuple[tuple[float, float], ...]   # (percent, threshold)
    histogram: tuple[tuple[float, float, float], ...]  # (bin lo, bin hi, mass)
    sample_n: np.ndarray = field(repr=False, compare=False)
    sample_x: np.ndarray = field(repr=False, compare=False)
    sample_value: np.ndarray = field(repr=False, compare=False)

    def samples_csv_rows(self) -> list[str]:
        lines = ["n,x,value"]
        for n, x, v in zip(self.sample_n.tolist(), self.sample_x.tolist(),
                           self.sample_value.tolist()):
            lines.append(f"{n},{x!r},{v!r}")
        return lines

    def histogram_csv_rows(self) -> list[str]:
        lines = ["bin_lo,bin_hi,mass"]
        for lo, hi, mass in self.histogram:
            lines.append(f"{lo!r},{hi!r},{mass!r}")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "function": self.name,
            # the extremes scan covers every n from 2 = 2^1 up to 2^j_max
            "j_min": 1,
            "j_max": self.j_max,
            "inf": self.inf,
            "inf_at": self.inf_at,
            "sup": self.sup,
            "sup_at": self.sup_at,
            "mean": self.mean,
            "percentiles": [
                {"percent": p, "value": v} for p, v in self.percentiles
            ],
        }


def _chunk_values(kind: str, ns: np.ndarray, s_vals: np.ndarray) -> np.ndarray:
    """Phi (kind 'phi') or Psi at each n of ns from S(n) or Sf(n), in numpy."""
    mant, exp = np.frexp(ns.astype(np.float64))
    j = exp - 1
    f = 2.0 * mant
    if kind == "phi":
        return (2 * s_vals - j * ns) / (2.0 * ns) - 0.5 * np.log2(f)
    return s_vals / np.power(3.0, j) * np.power(f, -LOG2_3)


def _scan_extremes(kind: str, j_max: int) -> tuple[int, int]:
    """Where the minimum and maximum over every n in [2, 2^j_max] sit.

    Values come from exact summatory counts but float64 numpy formulas,
    which can differ from the scalar `phi`/`psi` in the last bit; callers
    evaluate the scalar formula at the positions returned.
    """
    chunk = 1 << 20
    lo = 2
    top = (1 << j_max) + 1
    running = summatory_digit_sum(lo) if kind == "phi" else summatory_f(lo)
    best_min, best_min_at = math.inf, lo
    best_max, best_max_at = -math.inf, lo
    while lo < top:
        hi = min(lo + chunk, top)
        ns = np.arange(lo, hi, dtype=np.int64)
        pops = np.bitwise_count(ns).astype(np.int64)
        increments = pops if kind == "phi" else np.int64(1) << pops
        cums = np.cumsum(increments)
        s_vals = running + cums - increments  # S(n) or Sf(n) for each n in chunk
        values = _chunk_values(kind, ns, s_vals)
        k = int(values.argmin())
        if values[k] < best_min:
            best_min, best_min_at = float(values[k]), int(ns[k])
        k = int(values.argmax())
        if values[k] > best_max:
            best_max, best_max_at = float(values[k]), int(ns[k])
        running += int(cums[-1])
        lo = hi
    return best_min_at, best_max_at


def _summatory_array(kind: str, ns: np.ndarray) -> np.ndarray:
    """S(n) (kind 'phi') or Sf(n) ('psi') for every n in ns, exactly in int64.

    The n' < n that agree with n above a set bit p of n and have a 0 at p
    are 2^p numbers sharing the i set bits of n above p, so
    S(n) = sum_p (i 2^p + p 2^(p-1)) and Sf(n) = sum_p 2^i 3^p over the set
    bits p of n.  S(n) <= 40 * 2^39 < 2^45 for n <= 2^40, while
    Sf(n) <= 3^39 < 2^63 needs n <= 2^39.
    """
    ns = np.asarray(ns, dtype=np.int64)
    top = int(ns.max())
    if top > 1 << (40 if kind == "phi" else 39):
        raise OverflowError(f"{kind} summatory values of n = {top} exceed int64")
    total = np.zeros_like(ns)
    above = np.zeros_like(ns)
    for p in range(top.bit_length() - 1, -1, -1):
        bit = (ns >> p) & 1
        if kind == "phi":
            total += bit * ((above << p) + (p << p >> 1))
        else:
            total += bit * (np.int64(3**p) << above)
        above += bit
    return total


def _log_uniform_samples(j: int, samples: int) -> np.ndarray:
    # stay below 2^{j+1}: the top endpoint wraps around to x = 0
    grid = np.round(2.0 ** (j + np.arange(samples + 1) / samples)).astype(np.int64)
    grid = np.clip(grid, 1 << j, (1 << (j + 1)) - 1)
    return np.unique(grid)


def _scan_statistics(kind: str, j_max: int, samples: int) -> FluctuationScan:
    point = phi if kind == "phi" else psi
    inf_at, sup_at = _scan_extremes(kind, j_max)

    ns = _log_uniform_samples(j_max - 1, samples)
    parts = _phi_parts if kind == "phi" else _psi_parts
    sums = _summatory_array(kind, ns)
    pts = [parts(n, s) for n, s in zip(ns.tolist(), sums.tolist())]
    xs = np.array([x for x, _ in pts])
    vals = np.array([v for _, v in pts])

    # trapezoid over one period; both endpoints sit at powers of two where
    # the fluctuation takes its supremum value exactly
    edge = point(1 << (j_max - 1))
    xs_closed = np.concatenate([xs, [1.0]])
    vals_closed = np.concatenate([vals, [edge]])
    widths = np.diff(xs_closed)
    mean = float(np.sum(widths * (vals_closed[:-1] + vals_closed[1:]) / 2.0))

    # per-sample measure weights for percentiles and the density histogram
    weights = np.empty_like(vals)
    weights[0] = (xs_closed[1] - xs_closed[0]) / 2.0 + xs_closed[0]
    weights[1:] = (xs_closed[2:] - xs_closed[:-2]) / 2.0
    weights /= weights.sum()

    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    cumw = np.cumsum(weights[order])
    percentiles = []
    for pct in DEFAULT_PERCENTILES:
        idx = int(np.searchsorted(cumw, pct / 100.0, side="left"))
        idx = min(idx, len(sorted_vals) - 1)
        percentiles.append((float(pct), float(sorted_vals[idx])))

    hist, edges = np.histogram(vals, bins=HISTOGRAM_BINS, weights=weights)
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), float(hist[i]))
        for i in range(len(hist))
    )
    return FluctuationScan(
        name=kind,
        j_max=j_max,
        inf=point(inf_at),
        inf_at=inf_at,
        sup=point(sup_at),
        sup_at=sup_at,
        mean=mean,
        percentiles=tuple(percentiles),
        histogram=histogram,
        sample_n=ns,
        sample_x=xs,
        sample_value=vals,
    )


def phi_statistics(
    j_max: int = 24,
    samples_per_octave: int = 1 << 16,
) -> FluctuationScan:
    """Extremes over all n <= 2^j_max plus mean/percentiles/density.

    The infimum and supremum come from an exhaustive exact-summatory scan;
    the mean is a trapezoid over one period sampled log-uniformly in the
    top octave, and percentiles approximate the measure of {x : Phi(x) < t}.
    The fractal roughness makes the quadrature error heuristic, roughly
    2e-3 at the default sampling.
    """
    if not 2 <= j_max <= 40:
        raise ValueError("need 2 <= j_max <= 40")
    return _scan_statistics("phi", j_max, samples_per_octave)


def psi_statistics(
    j_max: int = 24,
    samples_per_octave: int = 1 << 16,
) -> FluctuationScan:
    """Same scan for the odd-coefficient fluctuation; values lie in (0, 1]."""
    if not 2 <= j_max <= 38:
        raise ValueError("need 2 <= j_max <= 38 (int64 cumulants)")
    return _scan_statistics("psi", j_max, samples_per_octave)


# ---------------------------------------------------------------------------
# GF(2) row iteration
# ---------------------------------------------------------------------------

def gf2_row_counts(mask: int, n_max: int) -> Iterator[int]:
    """Popcounts of p(x)^n mod 2 for n = 0 .. n_max-1.

    p is the bitset `mask` (bit i is the coefficient of x^i, as in
    `MatrixFamily.poly_mask`).  Multiplication by p is carry-free: XOR of
    the current row shifted by each exponent of p, on machine-word-parallel
    int bitsets.
    """
    if mask <= 0:
        raise ValueError("polynomial must be nonzero")
    if n_max > 1 << 18:
        raise ValueError("n_max capped at 2^18 (quadratic bit cost)")
    shifts = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    row = 1
    for _ in range(n_max):
        yield row.bit_count()
        acc = 0
        for i in shifts:
            acc ^= row << i
        row = acc


# ---------------------------------------------------------------------------
# linear representation of counts over binary digits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearRepresentation:
    """count(n) = u * D_{z(n)} * v with z(n) the binary digits of n.

    z(n) reads the most significant digit first (leftmost matrix factor);
    n = 0 gives the empty product.  Validated exactly against the GF(2) row
    oracle for all n < validated_n.
    """

    family: str
    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    validated_n: int
    digit_order = "msb"  # a class constant, not a field: the only order

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family,
            "u": [str(x) for x in self.u],
            "v": [str(x) for x in self.v],
            "digit_order": self.digit_order,
            "validated_n": self.validated_n,
        }


def _int_matrices(fam: MatrixFamily) -> tuple[np.ndarray, np.ndarray]:
    """(D0, D1) as int64 arrays; OverflowError if an entry does not fit."""
    scaled = [exactmat.int_rows(mat.rows) for mat in (fam.d0, fam.d1)]
    if any(den != 1 for _, den in scaled):
        raise ValueError("integer matrices required for the int64 tables")
    return tuple(np.array(rows, dtype=np.int64) for rows, _ in scaled)


def _check_int64(factor: np.ndarray, growth: int) -> None:
    """Raise OverflowError unless a product with `factor` fits in int64.

    growth bounds the absolute sums of the other factor along the summed
    index, so no entry of the product, nor any partial sum, exceeds
    max|factor| * growth.
    """
    if max(int(factor.max()), -int(factor.min())) * growth >= 1 << 63:
        raise OverflowError("int64 table would overflow")


def _doubling_table(seed: np.ndarray, mats: tuple[np.ndarray, np.ndarray],
                    levels: int) -> np.ndarray:
    """X(2n+d) = X(n) @ mats[d] for n < 2^levels with X(0) = seed, in int64.

    X(n) is seed times the mats product over the binary digits of n, most
    significant digit first; index 0 is pinned to seed (the empty word).
    """
    growth = max(int(np.abs(mat).sum(axis=0).max()) for mat in mats)
    table = seed[None]
    for _ in range(levels):
        _check_int64(table, growth)
        new = np.empty((table.shape[0] * 2,) + seed.shape, dtype=np.int64)
        new[0::2] = table @ mats[0]
        new[1::2] = table @ mats[1]
        new[0] = seed
        table = new
    return table


def fit_linear_representation(family, n_check: int = 4096) -> LinearRepresentation:
    """u = beta, v = alpha of the sentinel factorization D0^q = alpha beta^T.

    In the state basis of the built-ins (see `catalog._polynomial_pair`)
    beta is the row of state counts at n = 0 and alpha = e1 reads off the
    state r = 1; a change of basis moves both along with the matrices.  The
    pair must reproduce the GF(2) row counts for every n < n_check, or
    NoRepresentationFound is raised.
    """
    fam = catalog.resolve_family(family)
    if fam.poly_mask <= 0:
        raise ValueError(f"family {fam.name} carries no counting polynomial")
    if n_check < 2 * fam.dim**2:
        raise ValueError(f"n_check must be at least 2*dim^2 = {2 * fam.dim ** 2}")
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q)
    rep = LinearRepresentation(
        family=fam.name, u=fact.beta, v=fact.alpha, validated_n=n_check)
    computed = counts_via_representation(fam, rep, n_check)
    oracle = gf2_row_counts(fam.poly_mask, n_check)
    mismatch = next(
        (n for n, count in enumerate(oracle) if computed[n] != count), None)
    if mismatch is not None:
        raise NoRepresentationFound(
            f"no exact digit representation found for {fam.name} on "
            f"n < {n_check}: (beta, alpha) first mismatches at n = {mismatch}"
        )
    return rep


def counts_via_representation(fam: MatrixFamily, rep: LinearRepresentation,
                              n_top: int) -> np.ndarray:
    """count(n) for all n < n_top through the representation, exactly (int64).

    Levels double the rows U(2n+d) = U(n) D_d from U(0) = u, then each row
    meets v.  Raises on int64 overflow risk instead of wrapping.
    """
    levels = max(1, (n_top - 1).bit_length())
    if (1 << levels) * fam.dim > 1 << 26:
        raise ValueError("n_top too large for the in-memory level table")
    (u_int,), u_den = exactmat.int_rows([rep.u])
    (v_int,), v_den = exactmat.int_rows([rep.v])
    v_int = np.array(v_int, dtype=np.int64)
    table = _doubling_table(
        np.array(u_int, dtype=np.int64), _int_matrices(fam), levels)
    _check_int64(table, int(np.abs(v_int).sum()))
    raw = table[:n_top] @ v_int
    if ((raw % (u_den * v_den)) != 0).any():
        raise ArithmeticError("representation does not produce integer counts")
    return raw // (u_den * v_den)


# ---------------------------------------------------------------------------
# empirical dispersion trends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionTrend:
    family: str
    j_min: int
    j_max: int
    rows: tuple[tuple[int, float, float, float, float], ...]
    avg_slope: float   # regression of ln Var(count) on ln n
    typ_slope: float   # regression of Var(ln count) on ln n

    def csv_rows(self) -> list[str]:
        lines = ["j,var,var_ln,avg_ratio,typ_ratio"]
        for j, var, var_ln, avg_ratio, typ_ratio in self.rows:
            lines.append(f"{j},{var!r},{var_ln!r},{avg_ratio!r},{typ_ratio!r}")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family,
            "j_min": self.j_min,
            "j_max": self.j_max,
            "avg_slope": self.avg_slope,
            "typ_slope": self.typ_slope,
            "per_octave": [
                {"j": j, "var": var, "var_ln": var_ln,
                 "avg_ratio": avg_ratio, "typ_ratio": typ_ratio}
                for j, var, var_ln, avg_ratio, typ_ratio in self.rows
            ],
        }


def empirical_dispersion(
    family,
    j_max: int = 20,
    j_min: int = 8,
) -> DispersionTrend:
    """Variance growth of count(N) and ln count(N) for N uniform on [0, 2^j).

    This is a trend check: the limits converge like 1/ln n, so the slopes
    carry finite-size corrections of a few percent at j_max = 20.  Counts
    come from a validated linear representation.
    """
    fam = catalog.resolve_family(family)
    if not 2 <= j_min < j_max:
        raise ValueError("need 2 <= j_min < j_max")
    rep = fit_linear_representation(fam)
    counts = counts_via_representation(fam, rep, 1 << j_max)
    if counts.min() < 1:
        raise ArithmeticError("counts must be positive to take logs")
    logs = np.log(counts.astype(np.float64))
    rows = []
    xs, ys_avg, ys_typ = [], [], []
    for j in range(j_min, j_max + 1):
        block = counts[: 1 << j].astype(np.float64)
        var = float(block.var())
        var_ln = float(logs[: 1 << j].var())
        ln_n = j * math.log(2.0)
        rows.append((j, var, var_ln, math.log(var) / ln_n, var_ln / ln_n))
        xs.append(ln_n)
        ys_avg.append(math.log(var))
        ys_typ.append(var_ln)
    # the low octaves carry the subleading-eigenvalue transient, so the
    # slopes are fitted over the top seven octaves only
    fit_from = max(0, len(xs) - 7)
    avg_slope = float(np.polyfit(xs[fit_from:], ys_avg[fit_from:], 1)[0])
    typ_slope = float(np.polyfit(xs[fit_from:], ys_typ[fit_from:], 1)[0])
    return DispersionTrend(
        family=fam.name,
        j_min=j_min,
        j_max=j_max,
        rows=tuple(rows),
        avg_slope=avg_slope,
        typ_slope=typ_slope,
    )


# ---------------------------------------------------------------------------
# distribution of #(aN + b)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DigitCompare:
    a: int
    b: int
    j: int
    n_samples: int
    moments: tuple[float, float, float]       # standardized mean, var, skew
    moments_ref: tuple[float, float, float]   # same for #(N)
    two_sample_distance: float
    normal_distance: float
    normal_distance_ref: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "a": self.a,
            "b": self.b,
            "j": self.j,
            "n_samples": self.n_samples,
            "standardized_moments": {
                "mean": self.moments[0],
                "var": self.moments[1],
                "skew": self.moments[2],
            },
            "standardized_moments_ref": {
                "mean": self.moments_ref[0],
                "var": self.moments_ref[1],
                "skew": self.moments_ref[2],
            },
            "two_sample_distance": self.two_sample_distance,
            "normal_distance": self.normal_distance,
            "normal_distance_ref": self.normal_distance_ref,
        }


def _standardized_moments(values: np.ndarray, j: int) -> tuple[float, float, float]:
    center = j / 2.0
    scale = math.sqrt(j) / 2.0
    z = (values - center) / scale
    mean = float(z.mean())
    var = float(z.var())
    sd = math.sqrt(var)
    skew = float(((z - mean) ** 3).mean() / sd**3) if sd > 0 else 0.0
    return mean, var, skew


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _lattice_cdf(values: np.ndarray, top: int) -> np.ndarray:
    counts = np.bincount(values, minlength=top + 1)
    return np.cumsum(counts) / values.size


def digit_distribution_compare(
    a: int,
    b: int,
    j: int = 24,
    n_samples: int = 10**6,
    seed: int = 20080318,
) -> DigitCompare:
    """Compare the distribution of #(aN + b) with #(N), N uniform on [0, 2^j).

    Both are standardized by the digit-sum CLT normalization (center j/2,
    scale sqrt(j)/2).  The two-sample statistic is the maximum CDF gap over
    the lattice; distances to the standard normal use the usual half-step
    continuity correction since the samples live on a lattice.
    """
    if not 0 <= b < a:
        raise ValueError("need 0 <= b < a")
    if j > 48:
        raise ValueError("j capped at 48")
    # a * N + b is formed in int64 for N < 2^j
    if a * ((1 << j) - 1) + b >= 1 << 63:
        raise ValueError(f"a * (2^{j} - 1) + b must be below 2^63 (int64)")
    rng_test = np.random.Generator(np.random.Philox(key=[seed, (a << 20) | b]))
    # the reference stream is the (a, b) = (1, 0) slot, so comparing (1, 0)
    # against itself gives identical samples and distance exactly zero
    rng_ref = np.random.Generator(np.random.Philox(key=[seed, 1 << 20]))
    n = 1 << j
    sample = np.bitwise_count(
        a * rng_test.integers(0, n, size=n_samples, dtype=np.int64) + b
    ).astype(np.int64)
    ref = np.bitwise_count(
        rng_ref.integers(0, n, size=n_samples, dtype=np.int64)
    ).astype(np.int64)

    top = int(max(sample.max(), ref.max()))
    cdf_sample = _lattice_cdf(sample, top)
    cdf_ref = _lattice_cdf(ref, top)
    two_sample = float(np.abs(cdf_sample - cdf_ref).max())

    center = j / 2.0
    scale = math.sqrt(j) / 2.0
    grid = (np.arange(top + 1) + 0.5 - center) / scale
    normal = _normal_cdf(grid)
    return DigitCompare(
        a=a,
        b=b,
        j=j,
        n_samples=n_samples,
        moments=_standardized_moments(sample, j),
        moments_ref=_standardized_moments(ref, j),
        two_sample_distance=two_sample,
        normal_distance=float(np.abs(cdf_sample - normal).max()),
        normal_distance_ref=float(np.abs(cdf_ref - normal).max()),
    )
