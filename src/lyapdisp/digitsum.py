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
exact integer arithmetic and only log2(f) is floating point.  One formula,
`_sample_parts`, evaluates every reported value: `phi(n)` and `psi(n)`
are its one-point calls on Python ints, exact for any n >= 1.  Because
the value at 2n repeats the value at n, the extremes over all
n <= 2^j_max are found in the top octave [2^(j_max-1), 2^j_max) alone.
That octave, [2^j, 2^(j+1)), is cut into 2^(j-b) chunks of 2^b points,
with b about j/2 and at most 16 (`_chunk_bits`), and for n = h 2^b + l
with l < 2^b the block identities

    S(n)  = S(h 2^b) + #(h) l + S(l)
    Sf(n) = Sf(h 2^b) + 2^#(h) Sf(l)

give every sum from one int64 table of S(l) or Sf(l) and the chunk
starts: the sampled points' sums by a gather, each chunk's interval of
values, and each chunk's full sums where that interval reaches within
SCAN_SLACK = 2^-40 of an extreme, the only chunks `_scan_extremes`
evaluates.  The slack exceeds the rounding of the values and of the
bounds, each a few ulps of an O(1) number, and runtime checks back it.
The int64 sums hold up to the j_max caps, 40 for phi and 38 for psi.
Both the gather and the evaluation of the samples go 2^SAMPLE_BITS points
at a time, so no step holds more than a few arrays the size of the
samples.

The rest of the module connects counts to the matrix families: GF(2) row
iteration as the oracle, an exactly validated linear representation
count(n) = u * D_{z(n)} * v over the binary digits of n, empirical
dispersion slopes, and the distribution of #(aN + b) against #(N).
`counts_via_representation` forms every count below 2^levels
meet-in-the-middle: one int64 product of a table of the rows u D_{z(a)}
for the high digits and a table of the columns D_{z(b)} v for the low
ones, every product bounded before it is formed.  `dispersion` forms no
count.  For N uniform below 2^j it reports Var(count) and Var(ln count)
at each octave j.  Var(count) is exact, from the j-th power of
D0^(x)t + D1^(x)t (t = 1, 2) in Python ints, and rounded once.
Var(ln count) is a renewal sum: cutting N's digits after each 0^q makes
count(N) a product of corner values of chi(q) words, whose per-length
log tallies one word scan to depth j_max gives.  The scan has to reach
j_max, so j_max is capped at the default scan depth of the family's q.
`digits` forms no N either: the histogram of #(aN + b) over all N < 2^j
comes from a dynamic program over the carries of the multiplication by
a, exact in Python ints, and that of #(N) is binomial.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import catalog, conjugate, exactmat, gle, words
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
# the extremes scan evaluates the top octave in chunks of at most
# 2^CHUNK_BITS points (`_chunk_bits`), only where a chunk's bound comes
# within SCAN_SLACK of a level
CHUNK_BITS = 16
SCAN_SLACK = 2.0**-40
# sampled points are gathered and evaluated 2^SAMPLE_BITS at a time
SAMPLE_BITS = 12
# the carry DP of `digits` costs at most about j^2 min(a, 2^j) additions
DIGITS_WORK_MAX = 1 << 24
# the GF(2) row oracle's cost grows with the square of the rows it forms
GF2_ROWS_MAX = 1 << 18


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


def _point(kind: str, n: int, s: int) -> float:
    """Phi or Psi at one n from its exact S(n) or Sf(n), on Python ints."""
    ns, sums = np.array([n], dtype=object), np.array([s], dtype=object)
    return float(_sample_parts(kind, n.bit_length() - 1, ns, sums)[1][0])


def phi(n: int) -> float:
    """Average-digit-sum fluctuation: S(n)/n - log2(n)/2, exactly.

    Computed as (2 S(n) - j n) / (2 n) - log2(f)/2 with n = f 2^j, so the
    value at 2n is bit-identical to the value at n and the supremum 0 is
    attained exactly at powers of two.
    """
    return _point("phi", n, summatory_digit_sum(n))


def psi(n: int) -> float:
    """Odd-coefficient-average fluctuation: Sf(n) / n^{log2 3}, exactly.

    Computed as (Sf(n) / 3^j) * f^{-log2 3}; at powers of two Sf(2^j) = 3^j
    collapses the first factor to exactly 1.0.
    """
    return _point("psi", n, summatory_f(n))


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

    def samples_csv_rows(self) -> Iterator[str]:
        """The header, then one row per sample, formed 2^SAMPLE_BITS at a
        time."""
        yield "n,x,value"
        for lo in range(0, self.sample_n.size, 1 << SAMPLE_BITS):
            block = slice(lo, lo + (1 << SAMPLE_BITS))
            for n, x, v in zip(self.sample_n[block].tolist(),
                               self.sample_x[block].tolist(),
                               self.sample_value[block].tolist()):
                yield f"{n},{x!r},{v!r}"

    def histogram_csv_rows(self) -> Iterator[str]:
        yield "bin_lo,bin_hi,mass"
        for lo, hi, mass in self.histogram:
            yield f"{lo!r},{hi!r},{mass!r}"

    def to_json_dict(self) -> dict:
        return {
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


def _chunk_values(kind: str, j: int, ns: np.ndarray,
                  s_vals: np.ndarray) -> np.ndarray:
    """Phi (kind 'phi') or Psi at each n of ns in [2^j, 2^(j+1)), in numpy.

    s_vals holds S(n) or Sf(n).  f = n / 2^j is exact, so only the
    quotient and log2(f) or f^(-log2 3) are rounded.
    """
    f = ns * 2.0**-j
    if kind == "phi":
        return (2 * s_vals - j * ns) / (2.0 * ns) - 0.5 * np.log2(f)
    return s_vals / np.power(3.0, j) * np.power(f, -LOG2_3)


def _prefix_sums(kind: str, lo: int, top: int, block: int) -> Iterator[
        tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(h, #(h), S(h) or Sf(h)) for h in [lo, top), in int64 blocks of at
    most `block` points, by a running sum carried from block to block."""
    if lo == 0:
        running = 0
    else:
        running = (summatory_digit_sum if kind == "phi" else summatory_f)(lo)
    while lo < top:
        hs = np.arange(lo, min(lo + block, top), dtype=np.int64)
        pops = np.bitwise_count(hs).astype(np.int64)
        increments = pops if kind == "phi" else np.int64(1) << pops
        cums = np.cumsum(increments)
        yield hs, pops, running + cums - increments
        running += int(cums[-1])
        lo += block


def _low_sums(kind: str, b: int) -> np.ndarray:
    """S(l) or Sf(l) for every l < 2^b, in int64."""
    (_, _, sums), = _prefix_sums(kind, 0, 1 << b, 1 << b)
    return sums


def _block_sums(kind: str, starts, pops, ls: np.ndarray,
                low: np.ndarray) -> np.ndarray:
    """S or Sf at h 2^b + l, l < 2^b, from S or Sf at h 2^b (starts),
    #(h) (pops), l (ls) and S(l) or Sf(l) (low)."""
    if kind == "phi":
        return starts + pops * ls + low    # S(h 2^b) + #(h) l + S(l)
    return starts + (low << pops)          # Sf(h 2^b) + 2^#(h) Sf(l)


def _chunk_bits(j: int) -> int:
    """b for the chunks of 2^b points of the octave [2^j, 2^(j+1)): half of
    j, which balances the 2^(j-b) chunk bounds against the 2^b points of
    each evaluated chunk, and at most CHUNK_BITS."""
    return min(CHUNK_BITS, max(1, j // 2))


def _chunk_starts(kind: str, j: int, b: int) -> Iterator[
        tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(h, #(h), S(h 2^b) or Sf(h 2^b)) for the chunks [h 2^b, (h+1) 2^b)
    of the octave [2^j, 2^(j+1)), in blocks of at most 2^CHUNK_BITS chunks."""
    for hs, pops, sums in _prefix_sums(kind, 1 << (j - b), 1 << (j - b + 1),
                                       1 << CHUNK_BITS):
        if kind == "phi":
            # S(h 2^b) = 2^b S(h) + h S(2^b), S(2^b) = b 2^(b-1)
            yield hs, pops, (sums << b) + hs * (b << b >> 1)
        else:
            # Sf(h 2^b) = 3^b Sf(h)
            yield hs, pops, sums * 3**b


def _chunk_bounds(kind: str, j: int, b: int, low: np.ndarray) -> Iterator[
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """`_chunk_starts` with a lower and an upper bound of each chunk's
    values appended; low is `_low_sums(kind, b)`.

    The bounds hold for the exact values of `_chunk_values`' formula; see
    `_scan_extremes`.
    """
    if kind == "phi":
        # exact extremes of (2k - j) l + 2 S(l) over l < 2^b for each k = #(h)
        ls = np.arange(1 << b, dtype=np.int64)
        tails = np.array([(t.min(), t.max()) for t in (
            (2 * k - j) * ls + 2 * low for k in range(j - b + 2))])
    for hs, pops, starts in _chunk_starts(kind, j, b):
        # f runs over [f0, f1) in the chunk
        f0, f1 = hs * 2.0**(b - j), (hs + 1) * 2.0**(b - j)
        if kind == "phi":
            numer = 2 * starts - j * (hs << b)
            den0, den1 = 2.0 * (hs << b), 2.0 * ((hs + 1) << b)
            n_lo, n_hi = numer + tails[pops, 0], numer + tails[pops, 1]
            lower = np.minimum(n_lo / den0, n_lo / den1) - 0.5 * np.log2(f1)
            upper = np.maximum(n_hi / den0, n_hi / den1) - 0.5 * np.log2(f0)
        else:
            scale = np.power(3.0, j)
            lower = starts / scale * np.power(f1, -LOG2_3)
            # Sf((h+1) 2^b) = Sf(h 2^b) + 2^#(h) 3^b
            upper = (starts + (3**b << pops)) / scale * np.power(f0, -LOG2_3)
        yield hs, pops, starts, lower, upper


def _first_in_orbit(hits: list[np.ndarray]) -> int:
    """Smallest n >= 2 whose doubling orbit meets one of the hits.

    That is the smallest odd part of a hit, with the odd part 1 of a power
    of two standing for n = 2.
    """
    ns = np.concatenate(hits)
    odd = ns >> np.bitwise_count((ns & -ns) - 1)
    return max(2, int(odd.min()))


def _scan_extremes(kind: str, j_max: int,
                   samples: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The smallest n in [2, 2^j_max] at which the minimum and the maximum
    sit, and S(n) or Sf(n) at each of the sorted top-octave points samples.

    Only the top octave [2^(j_max-1), 2^j_max) is searched: `_chunk_values`
    gives 2n the value of n bit for bit, because S(2n) = 2 S(n) + n doubles
    the numerator and denominator of (2S - jn) / (2n), and Sf(2n) = 3 Sf(n)
    over 3^(j+1) is the same rational, and both quotients are correctly
    rounded from exact operands.  For phi that holds at every allowed j_max
    (2S - jn < 2^53); for psi while 3^j and Sf(n) stay below 2^53, that is
    j_max <= 33.  Every n <= 2^j_max then shares its value with the top
    octave point of its doubling orbit, so the top octave holds every
    value, and the smallest n taking an extreme is the smallest odd part
    among the top octave points taking it.  Above j_max = 33 psi's values
    along an orbit can differ in the last bit, and so can its positions.

    The octave is cut into chunks [h 2^b, (h+1) 2^b) of 2^b points, with
    b = `_chunk_bits`(j_max - 1) (11 at j_max = 24, 16 from j_max = 33 on),
    and `_chunk_values` is evaluated only on the chunks that can hold an
    extreme.  For n = h 2^b + l with l < 2^b,

        S(n)  = S(h 2^b) + #(h) l + S(l)
        Sf(n) = Sf(h 2^b) + 2^#(h) Sf(l),

    so one table of S(l) or Sf(l) gives each chunk's sums from its start,
    and the starts S(h 2^b) = 2^b S(h) + h b 2^(b-1) and
    Sf(h 2^b) = 3^b Sf(h) come from one running sum over h
    (`_chunk_starts`).  Each chunk's values lie in an interval
    [lower, upper]: for psi, Sf(n) / 3^j rises and f^(-log2 3) falls
    across the chunk, so its two ends bound it; for phi, 2S - jn is
    2 S(h 2^b) - j h 2^b plus (2#(h) - j) l + 2 S(l), whose exact integer
    extremes over l are taken once per value of #(h), divided by the two
    ends of 2n's range, less log2(f)/2 at the two ends of f's.  The values
    at the chunk starts are attained, so the minimum is at most the
    smallest of them and the maximum at least the largest; only chunks
    whose interval reaches within SCAN_SLACK = 2^-40 of those levels are
    evaluated, and their ties collected as in a full sweep.  Values and
    bounds are O(1) (|Phi| < 1/4, Psi in (0, 1], bounds at most 3 in
    magnitude, 3 only when one chunk spans the octave) and each comes
    from exact integers by a few correctly rounded operations and one
    log2 or power within a few ulps, so each is within 2^-47 of the exact
    value of its formula; the slack covers both errors 64 times over.
    An evaluated chunk outside its interval by more than the slack, or
    extremes found beyond the levels by more than the slack, raise
    ArithmeticError.

    Everything is int64: S(n) < 2^45 and |2S - jn| < 2^53 below 2^40, and
    Sf(n) <= 3^j_max < 2^61 for j_max <= 38, the caps of `phi_statistics`
    and `psi_statistics`.  No more than one chunk's points, one block of
    2^CHUNK_BITS chunks' bounds, or 2^SAMPLE_BITS samples' gathered sums
    is held at a time, besides the sums returned.

    Values come from exact summatory counts but float64 numpy formulas,
    which can differ from `_sample_parts` in the last bit; callers evaluate
    that formula at the positions returned.
    """
    j = j_max - 1
    b = _chunk_bits(j)
    low_sums = _low_sums(kind, b)
    ls = np.arange(1 << b, dtype=np.int64)
    level_low, level_high = math.inf, -math.inf
    for hs, _, starts in _chunk_starts(kind, j, b):
        values = _chunk_values(kind, j, hs << b, starts)
        level_low = min(level_low, values.min())
        level_high = max(level_high, values.max())
    low, low_hits = math.inf, []
    high, high_hits = -math.inf, []
    sums = np.empty_like(samples)
    for hs, pops, starts, lower, upper in _chunk_bounds(kind, j, b, low_sums):
        start, stop = np.searchsorted(samples, (hs[0] << b, (hs[-1] + 1) << b))
        for first in range(start, stop, 1 << SAMPLE_BITS):
            last = min(first + (1 << SAMPLE_BITS), stop)
            at = samples[first:last]
            chunk, l = (at >> b) - hs[0], at & ((1 << b) - 1)
            sums[first:last] = _block_sums(
                kind, starts[chunk], pops[chunk], l, low_sums[l])
        candidates = ((lower <= level_low + SCAN_SLACK)
                      | (upper >= level_high - SCAN_SLACK))
        for k in np.flatnonzero(candidates):
            ns = (hs[k] << b) + ls
            values = _chunk_values(
                kind, j, ns, _block_sums(kind, starts[k], pops[k], ls, low_sums))
            chunk_low, chunk_high = values.min(), values.max()
            if not (lower[k] - SCAN_SLACK <= chunk_low
                    and chunk_high <= upper[k] + SCAN_SLACK):
                raise ArithmeticError(
                    f"{kind} on [{int(ns[0])}, {int(ns[-1])}] spans "
                    f"[{chunk_low!r}, {chunk_high!r}], outside its bound "
                    f"[{lower[k]!r}, {upper[k]!r}]")
            if chunk_low < low:
                low, low_hits = chunk_low, []
            if chunk_low == low:
                low_hits.append(ns[values == low])
            if chunk_high > high:
                high, high_hits = chunk_high, []
            if chunk_high == high:
                high_hits.append(ns[values == high])
    if not (low <= level_low + SCAN_SLACK and high >= level_high - SCAN_SLACK):
        raise ArithmeticError(
            f"{kind} extremes {low!r}, {high!r} miss the chunk-start levels "
            f"{level_low!r}, {level_high!r}")
    return _first_in_orbit(low_hits), _first_in_orbit(high_hits), sums


def _log_uniform_samples(j: int, samples: int) -> np.ndarray:
    # stay below 2^{j+1}: the top endpoint wraps around to x = 0
    grid = np.round(2.0 ** (j + np.arange(samples + 1) / samples)).astype(np.int64)
    grid = np.clip(grid, 1 << j, (1 << (j + 1)) - 1)
    # non-decreasing: neighbouring 2^x differ far beyond pow's rounding
    return grid[np.concatenate(([True], np.diff(grid) > 0))]


def _sample_parts(kind: str, j: int, ns: np.ndarray,
                  sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log2 f, Phi or Psi) at every n = f 2^j of ns in [2^j, 2^(j+1)).

    The one formula behind every reported value, from the exact S(n) or
    Sf(n) in sums.  f = n / 2^j is exact below 2^53 and correctly rounded
    above; the quotients (2S - jn) / (2n) and Sf(n) / 3^j are correctly
    rounded, whether from int64 operands below 2^53 or, for object arrays
    of Python ints, by Python's int division (Sf(n) passes 2^53 above
    j = 33); log2 and the power are the scalar libm calls, which numpy's
    own can miss by a last bit.  The points are taken 2^SAMPLE_BITS at a
    time, so no list of Python floats or ints spans all of them.
    """
    xs, values = np.empty(len(ns)), np.empty(len(ns))
    for first in range(0, len(ns), 1 << SAMPLE_BITS):
        at = slice(first, first + (1 << SAMPLE_BITS))
        f = (ns[at] / (1 << j)).tolist()
        xs[at] = np.fromiter(map(math.log2, f), np.float64, len(f))
        if kind == "phi":
            quotients = np.asarray((2 * sums[at] - j * ns[at]) / (2 * ns[at]),
                                   dtype=np.float64)
            np.subtract(quotients, xs[at] / 2.0, out=values[at])
        else:
            quotients = np.fromiter(
                map(operator.truediv, sums[at].tolist(), itertools.repeat(3**j)),
                np.float64, len(f))
            powers = np.fromiter(map(pow, f, itertools.repeat(-LOG2_3)),
                                 np.float64, len(f))
            np.multiply(quotients, powers, out=values[at])
    if kind == "phi":
        outside, bound = ~(values <= 0.0), "is above its supremum 0"
    else:
        outside, bound = ~((values > 0.0) & (values <= 1.0)), "is outside (0, 1]"
    if outside.any():
        k = int(outside.argmax())
        raise ArithmeticError(
            f"{kind}({int(ns[k])}) = {float(values[k])!r} {bound}")
    return xs, values


def _scan_statistics(kind: str, j_max: int, samples: int) -> FluctuationScan:
    if samples < 1:
        raise ValueError("samples_per_octave must be >= 1")
    point = phi if kind == "phi" else psi
    ns = _log_uniform_samples(j_max - 1, samples)
    inf_at, sup_at, sums = _scan_extremes(kind, j_max, ns)
    xs, vals = _sample_parts(kind, j_max - 1, ns, sums)
    del sums

    # trapezoid over one period; both endpoints sit at powers of two where
    # the fluctuation takes its supremum value exactly, and ns[0] = 2^(j_max-1).
    # widths * (v_i + v_(i+1)) / 2 with v_n = v_0 is formed in one buffer:
    # + and * commute bit for bit
    xs_closed = np.concatenate([xs, [1.0]])
    trapezoids = np.concatenate([vals[1:], vals[:1]])
    trapezoids += vals
    trapezoids *= np.diff(xs_closed)
    trapezoids /= 2.0
    mean = float(np.sum(trapezoids))
    del trapezoids

    # per-sample measure weights for percentiles and the density histogram
    weights = np.empty_like(vals)
    weights[0] = (xs_closed[1] - xs_closed[0]) / 2.0 + xs_closed[0]
    np.subtract(xs_closed[2:], xs_closed[:-2], out=weights[1:])
    weights[1:] /= 2.0
    del xs_closed
    weights /= weights.sum()

    order = np.argsort(vals, kind="stable")
    cumw = np.cumsum(weights[order])
    percentiles = []
    for pct in DEFAULT_PERCENTILES:
        idx = int(np.searchsorted(cumw, pct / 100.0, side="left"))
        idx = min(idx, len(vals) - 1)
        percentiles.append((float(pct), float(vals[order[idx]])))
    del order, cumw

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

    The infimum and supremum come from an exact-summatory scan of the top
    octave, which takes every value of [2, 2^j_max] (see `_scan_extremes`);
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
    """Popcounts of p(x)^n mod 2 for n = 0 .. n_max-1, in order.

    p is the bitset `mask` (bit i is the coefficient of x^i, as in
    `MatrixFamily.poly_mask`).  Over GF(2) squaring is the Frobenius map,
    p(x)^2 = p(x^2), so p^(2n) is p^n with its exponents doubled and has the
    same popcount: count(2n) = count(n) is read back, and only the odd rows
    are formed, by p^(n+2) = p^n * p(x^2).  That product is carry-free: XOR
    of the row shifted by each exponent of p(x^2), on machine-word-parallel
    int bitsets.  The counts are exact and use nothing but p.
    """
    if mask <= 0:
        raise ValueError("polynomial must be nonzero")
    if n_max > GF2_ROWS_MAX:
        raise ValueError("n_max capped at 2^18 (quadratic bit cost)")
    shifts = [2 * i for i in range(mask.bit_length()) if (mask >> i) & 1]
    counts = []
    row = mask
    for n in range(n_max):
        if n & 1:
            count = row.bit_count()
            acc = 0
            for i in shifts:
                acc ^= row << i
            row = acc
        else:
            count = counts[n >> 1] if n else 1
        counts.append(count)
        yield count


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


def _abs_sum_max(table: np.ndarray, axis: int) -> int:
    """Largest sum of absolute values along axis, exactly.

    When max|entry| times the n terms of a line is below 2^63, no partial
    sum of magnitudes can wrap, so the sums are taken in int64; otherwise
    in Python ints.
    """
    n = table.shape[axis]
    lines = np.moveaxis(table, axis, -1).reshape(-1, n)
    if max(int(table.max()), -int(table.min())) * n < 1 << 63:
        return int(np.abs(lines).sum(axis=-1).max())
    return max(sum(map(abs, line)) for line in lines.tolist())


def _check_bound(factor: np.ndarray, growth: int) -> None:
    """Raise OverflowError unless an int64 product with `factor` stays
    below 2^63.

    growth bounds the absolute sums of the other factor along the summed
    index, so no entry of the product, nor any partial sum, exceeds
    max|factor| * growth.
    """
    if max(int(factor.max()), -int(factor.min())) * growth >= 1 << 63:
        raise OverflowError("int64 table would overflow: a product could "
                            "reach 2^63")


def _doubling_table(seed: np.ndarray, mats: tuple[np.ndarray, np.ndarray],
                    levels: int) -> np.ndarray:
    """X(2n+d) = X(n) @ mats[d] for n < 2^levels with X(0) = seed, in int64.

    X(n) is seed times the mats product over the binary digits of n, most
    significant digit first; index 0 is pinned to seed (the empty word).
    """
    growth = max(_abs_sum_max(mat, 0) for mat in mats)
    table = seed[None]
    for _ in range(levels):
        _check_bound(table, growth)
        new = np.empty((table.shape[0] * 2,) + seed.shape, dtype=np.int64)
        new[0::2] = table @ mats[0]
        new[1::2] = table @ mats[1]
        new[0] = seed
        table = new
    return table


def _column_table(seed: np.ndarray, mats: tuple[np.ndarray, np.ndarray],
                  levels: int) -> np.ndarray:
    """Column b is D_{z(b)} seed for b < 2^levels, in int64.

    z(b) is all `levels` binary digits of b, leading zeros included, most
    significant first: each level prepends a digit on the left.
    """
    growth = max(_abs_sum_max(mat, 1) for mat in mats)
    table = seed[:, None]
    for _ in range(levels):
        _check_bound(table, growth)
        table = np.concatenate([mats[0] @ table, mats[1] @ table], axis=1)
    return table


def fit_linear_representation(family, n_check: int = 4096) -> LinearRepresentation:
    """u = beta, v = alpha of the sentinel factorization D0^q = alpha beta^T.

    In the state basis of the built-ins (see `catalog._polynomial_pair`)
    beta is the row of state counts at n = 0 and alpha = e1 reads off the
    state r = 1; a change of basis moves both along with the matrices.  The
    pair must reproduce the GF(2) row counts for every n < n_check, or
    NoRepresentationFound is raised.  n_check is capped at the GF(2)
    oracle's GF2_ROWS_MAX, checked before any count is formed.
    """
    fam = catalog.resolve_family(family)
    if fam.poly_mask <= 0:
        raise ValueError(f"family {fam.name} carries no counting polynomial")
    if n_check < 2 * fam.dim**2:
        raise ValueError(f"n_check must be at least 2*dim^2 = {2 * fam.dim ** 2}")
    if n_check > GF2_ROWS_MAX:
        raise ValueError(f"n_check = {n_check} exceeds the limit 2^18 of the "
                         f"GF(2) row check (quadratic bit cost)")
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
    """count(n) for all n < n_top through the representation, exactly, in
    int64, from one meet-in-the-middle product.

    With levels the bit length of n_top - 1, n = a 2^lo + b for
    lo = levels // 2 and b < 2^lo.  Row a of the doubling table is
    U(a) = u D_{z(a)} for a < 2^(levels - lo), column b of the column table
    is W(b) = D_{b, lo digits} v, and count(n) is U(a) W(b) for a >= 1;
    the counts n < 2^lo (a = 0) are U(n) v, read off the same doubling
    table with its pinned seed.  u and v are scaled to integers, and their
    common denominator must divide every count.  Both tables are built in
    int64, each level checked against overflow, and so is their product,
    so every count is exact; OverflowError is raised past 2^63.
    """
    levels = max(1, (n_top - 1).bit_length())
    if levels > 23:
        # the tables are small; memory goes to the counts returned, 8 bytes
        # each whatever the dimension
        raise ValueError(
            f"n_top = {n_top} too large: 2^{levels} counts exceed the limit "
            f"2^23, at 8 bytes of memory per count")
    (u_int,), u_den = exactmat.int_rows([rep.u])
    (v_int,), v_den = exactmat.int_rows([rep.v])
    v_int = np.array(v_int, dtype=np.int64)
    mats = _int_matrices(fam)
    lo = levels // 2
    rows = _doubling_table(np.array(u_int, dtype=np.int64), mats, levels - lo)
    cols = _column_table(v_int, mats, lo)
    _check_bound(rows, max(_abs_sum_max(v_int, 0), _abs_sum_max(cols, 0)))
    counts = (rows @ cols).ravel()
    counts[:1 << lo] = rows[:1 << lo] @ v_int
    counts = counts[:n_top]
    den = u_den * v_den
    if den != 1:
        if (counts % den).any():
            raise ArithmeticError(
                "representation does not produce integer counts")
        counts //= den
    return counts


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

    def csv_rows(self) -> Iterator[str]:
        yield "j,var,var_ln,avg_ratio,typ_ratio"
        for j, var, var_ln, avg_ratio, typ_ratio in self.rows:
            yield f"{j},{var!r},{var_ln!r},{avg_ratio!r},{typ_ratio!r}"

    def to_json_dict(self) -> dict:
        return {
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


def _kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Kronecker product of integer matrices given as rows; block (i, j) is
    a[i][j] * b."""
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def _count_variances(fact: conjugate.SentinelFactorization,
                     octaves: range) -> list[float]:
    """Var(count(N)), N uniform on [0, 2^j), for each j in octaves, from
    sum_N count(N)^t = (beta^(x)t)^T (D0^(x)t + D1^(x)t)^j alpha^(x)t,
    t = 1, 2, in Python ints over one denominator; rounded once."""
    dim = fact.d0.dim
    n, den = exactmat.int_rows([*fact.d0.rows, *fact.d1.rows])
    (alpha,), den_alpha = exactmat.int_rows([fact.alpha])
    (beta,), den_beta = exactmat.int_rows([fact.beta])
    d0, d1 = n[:dim], n[dim:]
    # t = 1, 2: the rows of N0^(x)t + N1^(x)t, beta^(x)t and alpha^(x)t
    steps = [[list(map(operator.add, r0, r1)) for r0, r1 in zip(k0, k1)]
             for k0, k1 in ((d0, d1), (_kron(d0, d0), _kron(d1, d1)))]
    betas = [beta, _kron([beta], [beta])[0]]
    vs = [alpha, _kron([alpha], [alpha])[0]]
    variances = []
    for j in range(1, octaves.stop):
        vs = [exactmat.row_times(v, step) for v, step in zip(vs, steps)]
        if j in octaves:
            s1, s2 = (Fraction(exactmat.dot(b, v),
                               (den_alpha * den_beta * den**j) ** t)
                      for t, (b, v) in enumerate(zip(betas, vs), 1))
            variances.append(float(s2 / 2**j - (s1 / 2**j) ** 2))
    return variances


def _log_variances(stats: words.ScanStats, octaves: range) -> list[float]:
    """Var(ln count(N)), N uniform on [0, 2^j), for each j in octaves, by
    the renewal convolution of `empirical_dispersion` over the tallies of a
    scan to depth octaves.stop - 1."""
    if any(stats.zero_words):
        raise ArithmeticError("counts must be positive to take logs")
    q, top = stats.q, octaves.stop

    def piece(lengths, m: int, shift: float) -> tuple[int, float, float]:
        # pieces of length m from the chi(q) words of these lengths: their
        # number, sum of ln phi - shift m, and sum of its square
        c = [stats.counts[l] for l in lengths]
        s1 = [stats.sum_ln[l] for l in lengths]
        h = shift * m
        return (sum(c), math.fsum([*s1, *(-h * k for k in c)]),
                math.fsum([*(stats.sum_ln2[l] for l in lengths),
                           *(-2.0 * h * x for x in s1), *(h * h * k for k in c)]))

    def octave_sums(shift: float) -> list[tuple[int, float, float]]:
        # per j: the strings s of length j, and the sums of their shifted
        # ln count and its square.  s is w 0^i whole, or a first piece p 0^q
        # of length m followed by any string of length j - m.
        blocks = [piece(range(max(0, m - q), m - q + 1), m, shift)
                  for m in range(top)]
        sums = []
        for j in range(top):
            n, s1, s2 = piece(range(max(0, j - q + 1), j + 1), j, shift)
            terms1, terms2 = [s1], [s2]
            for (nb, sb1, sb2), (nr, sr1, sr2) in zip(blocks[q:j + 1],
                                                      sums[j - q::-1]):
                n += nb * nr
                terms1.extend((sb1 * nr, nb * sr1))
                terms2.extend((sb2 * nr, 2.0 * sb1 * sr1, nb * sr2))
            if n != 1 << j:
                raise ArithmeticError(f"the renewal pieces cover {n} strings "
                                      f"of length {j}, not 2^{j}")
            sums.append((n, math.fsum(terms1), math.fsum(terms2)))
        return sums

    # shifting by the mean log per digit keeps the sums of squares small
    _, s1, _ = octave_sums(0.0)[-1]
    return [s2 / n - (s1 / n) ** 2 for j, (n, s1, s2) in enumerate(
        octave_sums(s1 / (top - 1) / 2.0 ** (top - 1))) if j in octaves]


def empirical_dispersion(
    family,
    j_max: int = 20,
    j_min: int = 8,
) -> DispersionTrend:
    """Variance growth of count(N) and ln count(N) for N uniform on [0, 2^j).

    This is a trend check: the limits converge like 1/ln n, so the slopes
    carry finite-size corrections of a few percent at j_max = 20.  The
    sentinel pair must reproduce the GF(2) row counts
    (`fit_linear_representation`); then count(N) = beta^T D_s alpha for
    the j digits s of N, leading zeros included.  var is exact
    (`_count_variances`), rounded once.

    var_ln is a renewal sum (Feller, An Introduction to Probability Theory
    and Its Applications, vol. 1, ch. XIII).  Cut s after each first
    occurrence of 0^q: s = p1 0^q ... pk 0^q w 0^i with every p and w in
    chi(q) and i < q.  D0^q = alpha beta^T with beta^T alpha = 1, so
    D0 alpha beta^T = D0^(q+1) = alpha beta^T D0 gives
    D0 alpha = (beta^T D0 alpha) alpha with (beta^T D0 alpha)^q = 1; the
    scan refuses negative entries, so beta^T D0 alpha = 1 and
    D0 alpha = alpha (and beta^T D0 = beta^T likewise).  Hence
    count(N) = phi(p1) ... phi(pk) phi(w) with phi the corner value, and
    the octave's number of strings (2^j, checked), sum of ln count and sum
    of ln^2 count follow from the per-length tallies of one
    `words.scan_corner_stats` to depth j_max by a convolution over the
    first piece, in O(j_max^2) math.fsum sums.  Every piece's logs are
    shifted by the mean log per digit first, which leaves each variance
    unchanged and halves the rounding error.

    Against np.var over all 2^j counts, for every built-in at j <= 19,
    var is within 2^-50 relative (measured up to 2.9e-16), var_ln within
    2^-45 (3.2e-15) and each slope within 2^-40 (2.9e-14).  The scan holds
    the pieces up to length j_max, so j_max is capped at the scan-depth
    limit `gle.default_max_len(q)`: 36 for q <= 2, 30 for q = 3.  A scan
    to 30 takes about 0.05 s for h4 and 0.7-0.9 s for g5 on a 2-core Xeon.
    """
    fam = catalog.resolve_family(family)
    if not 2 <= j_min < j_max:
        raise ValueError("need 2 <= j_min < j_max")
    limit = gle.default_max_len(fam.q)
    if j_max > limit:
        raise ValueError(f"j_max = {j_max} exceeds the scan-depth limit "
                         f"{limit} of q = {fam.q} families")
    fit_linear_representation(fam)
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name)
    octaves = range(j_min, j_max + 1)
    variances = zip(octaves, _count_variances(fact, octaves),
                    _log_variances(words.scan_corner_stats(fact, j_max),
                                   octaves))
    rows = []
    xs, ys_avg, ys_typ = [], [], []
    for j, var, var_ln in variances:
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
    moments: tuple[float, float, float]       # standardized mean, var, skew
    moments_ref: tuple[float, float, float]   # same for #(N)
    two_sample_distance: float
    normal_distance: float
    normal_distance_ref: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "j": self.j,
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


def _digit_sum_counts(a: int, b: int, j: int) -> list[int]:
    """hist[v] = how many N < 2^j have #(aN + b) = v, exactly, for
    v <= j + bitlength(a); aN + b < a 2^j has no more bits.

    Multiplying by a and adding b, least significant bit first, is a
    transducer whose state is the carry: before bit n of N with carry c,
    the output bit is (a n + c) & 1 and the next carry (a n + c) >> 1.  The
    carry starts at b < a and stays below a, since a n + c < 2a.  Per
    carry, the DP counts the low bits of N that reach it with each digit
    sum of the output so far.  Past N's j bits, n = 0 shifts out the
    carry's own bits until it is 0.
    """
    size = j + a.bit_length() + 1
    states = {b: [1] + [0] * (size - 1)}
    for i in range(size - 1):
        nxt = {}
        for carry, counts in states.items():
            for value in (carry, a + carry)[:1 + (i < j)]:
                out = [0, *counts[:-1]] if value & 1 else counts
                prev = nxt.get(value >> 1)
                nxt[value >> 1] = (out if prev is None
                                   else list(map(operator.add, prev, out)))
        states = nxt
    return states[0]


def _standardized_moments(hist: list[int], j: int) -> tuple[float, float, float]:
    """Mean, variance and skewness of (values - j/2) / (sqrt(j)/2), from the
    histogram of the values: hist[v] of them equal v.

    The values are non-negative ints, so their power sums are exact
    integers, and each moment takes only the few roundings of its last
    divisions, square root and power.
    """
    n = sum(hist)
    s1, s2, s3 = (sum(c * v**p for v, c in enumerate(hist)) for p in (1, 2, 3))
    # n^2 and n^3 times the second and third central moments
    m2 = n * s2 - s1 * s1
    m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
    mean = (2 * s1 - j * n) / n / math.sqrt(j)
    var = 4 * m2 / (j * n * n)
    skew = (m3 / n**3) / (m2 / n**2) ** 1.5 if m2 > 0 else 0.0
    return mean, var, skew


def digit_distribution_compare(a: int, b: int, j: int = 24) -> DigitCompare:
    """Compare the distribution of #(aN + b) with #(N), N uniform on [0, 2^j).

    Both distributions are exact, over all 2^j values of N: #(N) is
    binomial, C(j, v), and #(aN + b) comes from a carry transducer
    (`_digit_sum_counts`; Allouche & Shallit, Automatic Sequences, 2003).
    Both are standardized by the digit-sum CLT normalization (center j/2,
    scale sqrt(j)/2).  The two-sample statistic is the maximum CDF gap over
    the lattice; distances to the standard normal use the usual half-step
    continuity correction since the values live on a lattice.  The DP takes
    O(j^2 min(a, 2^j)) integer additions, so that product is capped at
    DIGITS_WORK_MAX, about a second of work.
    """
    if not 0 <= b < a:
        raise ValueError("need 0 <= b < a")
    if j < 1:
        raise ValueError("j must be >= 1")
    work = j * j * min(a, 1 << j)
    if work > DIGITS_WORK_MAX:
        raise ValueError(f"j^2 min(a, 2^j) = {work} exceeds the work bound "
                         f"DIGITS_WORK_MAX = 2^24 of the carry DP")
    hist = _digit_sum_counts(a, b, j)
    hist_ref = [math.comb(j, v) for v in range(len(hist))]
    # exact CDFs, each value rounded once
    n, scale = 1 << j, math.sqrt(j) / 2.0
    cdf, cdf_ref = (list(itertools.accumulate(h)) for h in (hist, hist_ref))
    normal = [0.5 * (1.0 + math.erf((v + 0.5 - j / 2.0) / scale / math.sqrt(2.0)))
              for v in range(len(hist))]
    return DigitCompare(
        a=a,
        b=b,
        j=j,
        moments=_standardized_moments(hist, j),
        moments_ref=_standardized_moments(hist_ref, j),
        two_sample_distance=max(map(abs, map(operator.sub, cdf, cdf_ref))) / n,
        normal_distance=max(abs(c / n - p) for c, p in zip(cdf, normal)),
        normal_distance_ref=max(abs(c / n - p) for c, p in zip(cdf_ref, normal)),
    )
