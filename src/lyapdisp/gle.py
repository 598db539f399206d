"""Lyapunov exponent series, dispersion parameters, and moment exponents.

For a pair (D0, D1) with rank-1 sentinel D0^q = alpha*beta^T (trace 1) and
corner values phi(w) = beta^T D_w alpha over the word set chi(q), this module
assembles:

  lambda = P(q) * sum_w 2^{-l(w)} ln phi(w),          P(q) = 1/(2^{q+1} (2^q-1))
  kappa  = P(q) * sum_w (q+l(w)) 2^{-l(w)} ln phi(w)
  mu     = P(q) * sum_w 2^{-l(w)} (ln phi(w))^2
  sigma2 = (1 + 2 (2^{2q+1} - (3+q) 2^q + 1)/(2^q - 1)) lambda^2
           - 2 lambda kappa + mu

with per-length partial sums accelerated by Wynn's epsilon process, plus the
moment exponent L(t) two independent ways: as -ln s(t) where the generating
function F(s, t) = sum_w (s/2)^{l(w)+q} phi(w)^t crosses 1, found by
Brent's bracketed root finder, and (for integer t) as the log spectral radius
of the averaged t-fold Kronecker powers.  The three-letter-alphabet
regrouping check for the quadrinomial family lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import catalog, conjugate, exactmat, words
from .exactmat import RationalMatrix
from .words import ScanStats

__all__ = [
    "wynn_epsilon",
    "WynnResult",
    "series_prefactor",
    "sigma2_prefactor",
    "sigma2_from_moments",
    "MomentSeries",
    "AcceleratedValue",
    "ExponentReport",
    "exponents",
    "l_of_t",
    "l_from_scan",
    "replica_exponent",
    "quadrinomial_regroup_L",
    "regrouped_matrices",
    "DegenerateSequence",
    "Overflow",
    "NoBracket",
    "TruncationUnstable",
    "NoRoot",
    "DimensionCap",
]

LN2 = math.log(2.0)

DEFAULT_MAX_LEN = {1: 36, 2: 36, 3: 30}
# largest dim^t of a replica matrix; checked before anything is built
MAX_REPLICA_DIM = 4096
WYNN_GUARD = 1e-300


class DegenerateSequence(ValueError):
    pass


class Overflow(ArithmeticError):
    pass


class NoBracket(ArithmeticError):
    pass


class TruncationUnstable(ArithmeticError):
    pass


class NoRoot(ArithmeticError):
    pass


class DimensionCap(ValueError):
    pass


def default_max_len(q: int) -> int:
    return DEFAULT_MAX_LEN.get(q, 28)


# ---------------------------------------------------------------------------
# Wynn's epsilon acceleration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WynnResult:
    estimate: float
    error: float
    depth: int     # even column the estimate came from (0 = no acceleration)


def wynn_epsilon(partials: Sequence[float]) -> WynnResult:
    """Accelerate a sequence of partial sums with the epsilon algorithm.

    Builds the table eps[k+1][n] = eps[k-1][n+1] + 1/(eps[k][n+1]-eps[k][n]),
    never dividing by a difference below an absolute guard of 1e-300 (a tiny
    difference means the previous column already converged, typically
    exactly).  Even columns are the extrapolants; once a column has converged
    to working precision, deeper columns divide by rounding noise and
    degrade, so the returned entry is the one whose successive even-column
    difference is smallest, and that difference is the error estimate.
    """
    s = [float(x) for x in partials]
    n_terms = len(s)
    if n_terms < 3:
        raise DegenerateSequence(f"need at least 3 partial sums, got {n_terms}")

    prev2 = [0.0] * (n_terms + 1)   # eps[k-1], starts as the zero column
    prev, usable_prev = list(s), [True] * n_terms
    usable2 = [True] * (n_terms + 1)
    best = [(s[-1], 0)]             # (value, column) per usable even column
    for k in range(1, n_terms):
        width = n_terms - k
        cur = [0.0] * width
        usable = [False] * width
        for n in range(width):
            diff = prev[n + 1] - prev[n]
            if (
                usable_prev[n]
                and usable_prev[n + 1]
                and usable2[n + 1]
                and abs(diff) > WYNN_GUARD
            ):
                cur[n] = prev2[n + 1] + 1.0 / diff
                usable[n] = math.isfinite(cur[n])
        if k % 2 == 0:
            pick = next(
                (cur[n] for n in range(width - 1, -1, -1) if usable[n]), None
            )
            if pick is not None:
                best.append((pick, k))
        prev2, usable2 = prev, usable_prev
        prev, usable_prev = cur, usable
        if not any(usable):
            break
    if len(best) == 1:
        return WynnResult(estimate=s[-1], error=abs(s[-1] - s[-2]), depth=0)
    diffs = [abs(b[0] - a[0]) for a, b in zip(best, best[1:])]
    j = min(range(len(diffs)), key=diffs.__getitem__)
    estimate, depth = best[j + 1]
    return WynnResult(estimate=estimate, error=diffs[j], depth=depth)


# ---------------------------------------------------------------------------
# moment series
# ---------------------------------------------------------------------------

def series_prefactor(q: int) -> Fraction:
    return Fraction(1, 2 ** (q + 1) * (2**q - 1))


def sigma2_prefactor(q: int) -> Fraction:
    """Coefficient of lambda^2 in the dispersion formula; 3, 29/3, 169/7, ..."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return 1 + Fraction(2 * (2 ** (2 * q + 1) - (3 + q) * 2**q + 1), 2**q - 1)


def sigma2_from_moments(lam: float, kappa: float, mu: float, q: int) -> float:
    return float(sigma2_prefactor(q)) * lam * lam - 2.0 * lam * kappa + mu


@dataclass(frozen=True)
class MomentSeries:
    """Per-length contributions to the lambda/kappa/mu series (no prefactor).

    s_lambda[l] = 2^-l * sum over words of length l of ln phi
    s_kappa[l]  = (q+l) * s_lambda[l]
    s_mu[l]     = 2^-l * sum of (ln phi)^2
    """

    family: str
    q: int
    max_len: int
    counts: tuple[int, ...]
    zero_words: tuple[int, ...]
    s_lambda: tuple[float, ...]
    s_kappa: tuple[float, ...]
    s_mu: tuple[float, ...]

    def partials(self, which: str) -> list[float]:
        """Cumulative prefactored partial sums by length, the Wynn input."""
        slabs = getattr(self, "s_" + which)
        pref = float(series_prefactor(self.q))
        out, acc = [], 0.0
        for value in slabs:
            acc += value
            out.append(pref * acc)
        return out

    def csv_rows(self) -> list[str]:
        lines = ["len,words,Slambda,Skappa,Smu"]
        for l in range(self.max_len + 1):
            lines.append(
                f"{l},{self.counts[l]},{self.s_lambda[l]!r},"
                f"{self.s_kappa[l]!r},{self.s_mu[l]!r}"
            )
        return lines


def moments_from_scan(name: str, stats: ScanStats) -> MomentSeries:
    q = stats.q
    s_lambda, s_kappa, s_mu = [], [], []
    for l in range(stats.max_len + 1):
        w = 2.0 ** -l
        s_lambda.append(w * stats.sum_ln[l])
        s_kappa.append((q + l) * w * stats.sum_ln[l])
        s_mu.append(w * stats.sum_ln2[l])
    return MomentSeries(
        family=name,
        q=q,
        max_len=stats.max_len,
        counts=stats.counts,
        zero_words=stats.zero_words,
        s_lambda=tuple(s_lambda),
        s_kappa=tuple(s_kappa),
        s_mu=tuple(s_mu),
    )


# ---------------------------------------------------------------------------
# exponent reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcceleratedValue:
    raw: float        # last cumulative partial sum
    accel: float      # Wynn estimate (== raw when acceleration is off)
    err: float        # error estimate
    depth: int        # epsilon-table column used


def _accelerate(partials: Sequence[float], accel: bool) -> AcceleratedValue:
    raw = partials[-1]
    if accel:
        wynn = wynn_epsilon(partials)
        # a vanishing column difference means exact convergence; the estimate
        # is still only representable to double precision, so floor the
        # error there
        err = max(wynn.error, abs(wynn.estimate) * 5e-16)
        return AcceleratedValue(raw=raw, accel=wynn.estimate, err=err,
                                depth=wynn.depth)
    # without acceleration the error is the geometric continuation of the
    # last raw increment
    if len(partials) < 3:
        return AcceleratedValue(raw=raw, accel=raw, err=float("nan"), depth=0)
    inc1 = partials[-1] - partials[-2]
    inc2 = partials[-2] - partials[-3]
    err = abs(inc1)
    if inc2 != 0.0 and 0.0 < abs(inc1 / inc2) < 1.0:
        r = abs(inc1 / inc2)
        err = abs(inc1) * r / (1.0 - r)
    return AcceleratedValue(raw=raw, accel=raw, err=err, depth=0)


@dataclass(frozen=True)
class ExponentReport:
    family: str
    q: int
    max_len: int
    lam: AcceleratedValue
    kappa: AcceleratedValue
    mu: AcceleratedValue
    sigma2: float
    sigma2_err: float
    l_samples: tuple[tuple[float, float, float], ...]  # (t, L(t), err)
    replica: tuple[tuple[int, float], ...]             # (t, e^{L(t)})
    skipped_words: int
    series: MomentSeries = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family,
            "q": self.q,
            "max_len": self.max_len,
            "lambda": {"raw": self.lam.raw, "accel": self.lam.accel,
                       "err": self.lam.err},
            "kappa": {"raw": self.kappa.raw, "accel": self.kappa.accel,
                      "err": self.kappa.err},
            "mu": {"raw": self.mu.raw, "accel": self.mu.accel,
                   "err": self.mu.err},
            "sigma2": self.sigma2,
            "sigma2_err": self.sigma2_err,
            "sigma2_over_ln2": self.sigma2 / LN2,
            "L_samples": [
                {"t": t, "L": value, "err": err}
                for t, value, err in self.l_samples
            ],
            "replica": [{"t": t, "value": v} for t, v in self.replica],
            "skipped_words": self.skipped_words,
        }


def exponents(
    family,
    max_len: int | None = None,
    accel: bool = True,
    threads: int | None = None,
    lt_samples: Sequence[float] = (),
    lt_tol: float = 1e-10,
) -> ExponentReport:
    """One word-tree scan turned into the full exponent report.

    lambda, kappa and mu are each accelerated independently from cumulative
    per-length partial sums and combined into sigma^2; replica values
    e^{L(1)}, e^{L(2)} always come along (they are cheap), and L(t) is
    root-found for each requested sample t from power sums collected in the
    same scan.
    """
    fam = catalog.resolve_family(family)
    if max_len is None:
        max_len = default_max_len(fam.q)
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name)
    stats = words.scan_corner_stats(
        fact, max_len, ts=tuple(lt_samples), threads=threads
    )
    series = moments_from_scan(fam.name, stats)

    lam = _accelerate(series.partials("lambda"), accel)
    kappa = _accelerate(series.partials("kappa"), accel)
    mu = _accelerate(series.partials("mu"), accel)
    pref = float(sigma2_prefactor(fam.q))
    sigma2 = sigma2_from_moments(lam.accel, kappa.accel, mu.accel, fam.q)
    sigma2_err = (
        abs(2.0 * pref * lam.accel - 2.0 * kappa.accel) * lam.err
        + 2.0 * abs(lam.accel) * kappa.err
        + mu.err
    )

    l_samples = []
    for k, t in enumerate(stats.ts):
        value, err = l_from_scan(stats, k, tol=lt_tol)
        l_samples.append((t, value, err))

    replica = []
    for t in (1, 2):
        if fam.dim**t <= MAX_REPLICA_DIM:
            replica.append((t, replica_exponent(fam, t)))

    return ExponentReport(
        family=fam.name,
        q=fam.q,
        max_len=max_len,
        lam=lam,
        kappa=kappa,
        mu=mu,
        sigma2=sigma2,
        sigma2_err=sigma2_err,
        l_samples=tuple(l_samples),
        replica=tuple(replica),
        skipped_words=stats.total_zero_words,
        series=series,
    )


# ---------------------------------------------------------------------------
# the generating function F(s, t) and L(t)
# ---------------------------------------------------------------------------

def _slab_values(q: int, power_sums, zeros, t: float, s: float) -> list[float]:
    """Per-length terms (s/2)^{l+q} * sum of phi^t, zero corners count at t=0."""
    half_s = 0.5 * s
    slabs = []
    for l, g in enumerate(power_sums):
        total = g + (zeros[l] if t == 0.0 else 0.0)
        slabs.append(half_s ** (l + q) * total)
    return slabs


def _f_from_sums(q, power_sums, zeros, s, t, accel) -> float:
    """Truncated F(s, t) = sum over words of (s/2)^{l(w)+q} phi(w)^t.

    The closed form at t = 0 is `f_closed_form_t0`; accel applies the
    epsilon process to the by-length partial sums, which is how the slowly
    decaying truncation tail at s near the crossing point is squeezed out.
    """
    slabs = _slab_values(q, power_sums, zeros, t, s)
    total = math.fsum(slabs)
    if not math.isfinite(total):
        raise Overflow(f"F({s}, {t}) overflows at this truncation")
    if accel and len(slabs) >= 3:
        partials, acc = [], 0.0
        for x in slabs:
            acc += x
            partials.append(acc)
        total = wynn_epsilon(partials).estimate
    return total


def f_closed_form_t0(q: int, s: float) -> float:
    half = 0.5 * s
    return half**q * (1.0 - half) / (1.0 - s + half ** (q + 1))


def _brent(f, a: float, b: float, f_a: float, f_b: float, tol: float) -> float:
    """A point within tol/2 of a root of f between a and b.

    f_a = f(a) and f_b = f(b) must not have the same sign, else NoBracket; a
    root is an exact zero of f or a point where its sign changes.  This is
    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4): b is the best point so far and [b, c] always holds a root;
    each step tries inverse quadratic or secant interpolation and bisects
    instead when the interpolant leaves the bracket or the bracket shrinks
    too slowly.  No step is shorter than tol/4, so once b is that close to
    the root the next point lands across it.  The search stops at an exact
    zero or when |c - b| <= tol/2 (two ulps, if tol is below that), and
    returns b, the end with the smaller |f|.
    """
    if (f_a < 0.0) == (f_b < 0.0) and f_a != 0.0 and f_b != 0.0:
        raise NoBracket(
            f"no sign change between {a!r} (f = {f_a!r}) and {b!r} (f = {f_b!r})"
        )
    c, f_c = a, f_a
    d = e = b - a
    while True:
        if (f_b < 0.0) == (f_c < 0.0):
            c, f_c = a, f_a
            d = e = b - a
        if abs(f_c) < abs(f_b):
            a, f_a = b, f_b
            b, f_b = c, f_c
            c, f_c = a, f_a
        min_step = max(math.ulp(b), 0.25 * tol)
        m = 0.5 * (c - b)
        if abs(m) <= min_step or f_b == 0.0:
            return b
        if abs(e) >= min_step and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = f_a / f_c, f_b / f_c
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(min_step * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, f_a = b, f_b
        b += d if abs(d) > min_step else math.copysign(min_step, m)
        f_b = f(b)


# bracket of the raw solve for s(t) = e^{-L(t)}: L(t) from -ln 2 to 27.6
S_LO, S_HI = 1e-12, 2.0 * (1.0 - 1e-12)


def _brent_root(q, power_sums, zeros, t, tol, accel) -> float:
    """Root of F(s, t) = 1 in s, within tol/2 of where F crosses 1.

    The raw truncated sum is strictly increasing in s, so [1e-12, 2) brackets
    the root unless F is already >= 1 at the lower end (L(t) above
    -ln 1e-12 = 27.6) or still below 1 at the upper one; either raises
    NoBracket, and so does a root within tol/2 of the lower end, where the
    solve cannot tell it from the end itself.  Acceleration refines the root
    afterwards in a small interval around the raw one: inside the
    convergence region the epsilon process approximates the true
    (untruncated) F, but far outside it produces antilimits, so it must not
    be used for the global bracket.
    """

    def ln_f_raw(s: float) -> float:
        # ln F has the sign of F - 1 and is far nearer linear in s than F, so
        # Brent needs fewer steps; an underflowed F = 0 maps to ln(5e-324)
        value = _f_from_sums(q, power_sums, zeros, s, t, False)
        return math.log(max(value, math.ulp(0.0)))

    f_lo, f_hi = ln_f_raw(S_LO), ln_f_raw(S_HI)
    if f_hi < 0.0:
        raise NoBracket(
            f"F({S_HI:.6f}, {t}) = {math.exp(f_hi)} < 1; truncation too "
            "shallow or t too negative"
        )
    if f_lo >= 0.0:
        raise NoBracket(
            f"F({S_LO:g}, {t}) = {math.exp(f_lo)} >= 1; L({t}) exceeds "
            f"-ln {S_LO:g} = {-math.log(S_LO):.1f}"
        )
    root = _brent(ln_f_raw, S_LO, S_HI, f_lo, f_hi, tol)
    if root - 0.5 * tol <= S_LO:
        # the sign change is not told apart from the end of the bracket
        raise NoBracket(
            f"F(s, {t}) crosses 1 within tol/2 = {0.5 * tol:.1e} of "
            f"s = {S_LO:g}; L({t}) > {-math.log(root + 0.5 * tol):.1f} is "
            "out of reach at this tol"
        )
    if not accel:
        return root

    def f_acc(s: float) -> float:
        return _f_from_sums(q, power_sums, zeros, s, t, True) - 1.0

    delta = 0.02
    for _ in range(4):
        lo = max(root * (1.0 - delta), S_LO)
        hi = min(root * (1.0 + delta), S_HI)
        if (f_lo := f_acc(lo)) < 0.0 < (f_hi := f_acc(hi)):
            return _brent(f_acc, lo, hi, f_lo, f_hi, tol)
        delta *= 4.0
    return root  # acceleration did not improve the bracket; raw root stands


def l_from_scan(
    stats: ScanStats, t_index: int, tol: float = 1e-10, accel: bool = True
) -> tuple[float, float]:
    """L(t) from precollected power sums; returns (L, truncation error estimate).

    Solves F(s, t) = 1 with a bracketed Brent step (F is strictly increasing
    in s), then re-solves with the deepest four length slabs dropped;
    disagreement beyond max(10*tol, 1e-8) raises TruncationUnstable,
    otherwise it is reported as the error.
    """
    t = stats.ts[t_index]
    sums = stats.pow_sums[t_index]
    zeros = stats.zero_words
    root = _brent_root(stats.q, sums, zeros, t, tol, accel)
    value = -math.log(root)
    if len(sums) > 8:
        shallow_root = _brent_root(
            stats.q, sums[:-4], zeros[:-4], t, tol, accel
        )
        shallow = -math.log(shallow_root)
        # the epsilon process itself carries a noise floor of about 1e-8
        # on near-geometric data, so the depth check cannot be held below it
        threshold = max(10.0 * tol, 1e-8)
        if abs(value - shallow) > threshold:
            raise TruncationUnstable(
                f"L({t}) moved by {abs(value - shallow):.3e} when the last 4 "
                f"length slabs were dropped (tol {tol:.1e})"
            )
        err = abs(value - shallow)
    else:
        err = float("nan")
    return value, err


def l_of_t(
    family,
    t: float,
    max_len: int | None = None,
    tol: float = 1e-10,
    threads: int | None = None,
) -> float:
    """Moment exponent L(t) = -ln s(t) where F(s(t), t) = 1."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    fam = catalog.resolve_family(family)
    if max_len is None:
        max_len = default_max_len(fam.q)
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name)
    stats = words.scan_corner_stats(fact, max_len, ts=(t,), threads=threads)
    value, _ = l_from_scan(stats, 0, tol=tol)
    return value


# ---------------------------------------------------------------------------
# replica route
# ---------------------------------------------------------------------------

def replica_exponent(family, t: int) -> float:
    """e^{L(t)} for integer t: spectral radius of (D0^(x)t + D1^(x)t)/2.

    (x)t is the t-fold Kronecker power; t = 1 is the plain average.  The
    powers and their average are built in float64 from D0 and D1 rounded to
    float.  For an integer family every entry is an integer, exact while it
    stays below 2^53 (the built-in families have entries of at most 2, so
    for every t <= 51), and the matrix is the exact average rounded to
    float.  For a fractional family an entry of the sum is a product of t
    rounded entries of D0 or D1, t - 1 rounded multiplications and one
    rounded addition: 2t roundings of at most 2^-53 relative each, so every
    entry of the average is within about 2t * 2^-53 relative of the exact
    one.  The matrices are nonnegative and the spectral radius is monotone
    in their entries, so it moves by at most that same relative amount.
    """
    fam = catalog.resolve_family(family)
    if t < 1:
        raise ValueError("replica exponent needs integer t >= 1")
    if fam.dim**t > MAX_REPLICA_DIM:
        raise DimensionCap(f"dim^t = {fam.dim ** t} exceeds cap {MAX_REPLICA_DIM}")
    d0, d1 = fam.d0.to_float(), fam.d1.to_float()
    pow0, pow1 = d0, d1
    for _ in range(t - 1):
        pow0 = exactmat.kronecker(pow0, d0)
        pow1 = exactmat.kronecker(pow1, d1)
    return exactmat.spectral_radius((pow0 + pow1) / 2, tol=1e-13)


# ---------------------------------------------------------------------------
# quadrinomial regrouping over a three-letter alphabet
# ---------------------------------------------------------------------------

def regrouped_matrices():
    """Collapse the quadrinomial pair into three 2x2 letters.

    Every binary word starting with 1 factors into blocks 1 0^j, i.e. into
    products of B_j = D1 * D0^j; for the quadrinomial family B_j is constant
    from j = 2 on and every B_j has zero first row, so the lower-right 2x2
    blocks close under multiplication.  Returns (E0, M, E2, a1, b1, a2, b2)
    with E0 = a1 b1^T (block of B_0), M (block of B_1, invertible), and
    E2 = a2 b2^T (block of B_j, j >= 2).
    """
    fam = catalog.get_family("g3")
    blocks = []
    power = exactmat.identity(fam.dim)
    for j in range(4):
        b_j = exactmat.mat_mul(fam.d1, power)
        blocks.append(b_j)
        power = exactmat.mat_mul(power, fam.d0)
    if blocks[2] != blocks[3]:
        raise AssertionError("B_j did not stabilize at j = 2")
    for b_j in blocks[:3]:
        if any(x != 0 for x in b_j.rows[0]):
            raise AssertionError("regrouped letters must have zero first row")

    def lower_right(matrix: RationalMatrix) -> RationalMatrix:
        return RationalMatrix([row[1:] for row in matrix.rows[1:]])

    e0, m, e2 = (lower_right(b) for b in blocks[:3])
    a1, b1 = exactmat.rank_one_factor(e0)
    a2, b2 = exactmat.rank_one_factor(e2)
    return e0, m, e2, a1, b1, a2, b2


def _geometric_profile(m: RationalMatrix, beta, alpha) -> tuple[Fraction, Fraction]:
    """Exact (a, g) with beta^T M^k alpha = a * g^k, verified on k = 0..5."""
    values = []
    vec = alpha
    for _ in range(6):
        values.append(exactmat.dot(beta, vec))
        vec = exactmat.row_times(vec, m.rows)  # the column product M . vec
    a = values[0]
    if a == 0:
        raise NoRoot("sentinel cross moments vanish; regrouping not applicable")
    g = values[1] / values[0]
    for k, val in enumerate(values):
        if val != a * g**k:
            raise AssertionError("cross moments are not exactly geometric")
    return a, g


def quadrinomial_regroup_L(t: float, tol: float = 1e-12) -> float:
    """L(t) for the quadrinomial family via the three-letter regrouping.

    The letters carry weights r1 = s/2, rM = (s/2)^2 and
    r2 = (s/2)^3 / (1 - s/2) (the tail of 1 0^j blocks with j >= 2), giving a
    2x2 matrix F with entries
        F[i][j](s, t) = r_i(s) * a_ij^t / (1 - (s/2)^2 * g_ij^t),
    the closed geometric sums of r_i(s) ((s/2)^2)^k |b_j^T M^k a_i|^t.  L(t)
    is -ln of the smallest s in (0, 2) where det(I - F) vanishes.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, m, _, a1, b1, a2, b2 = regrouped_matrices()
    profiles = [
        [_geometric_profile(m, b, a) for b in (b1, b2)] for a in (a1, a2)
    ]

    def det_i_minus_f(s: float) -> float:
        z = 0.5 * s
        weights = (z, z**3 / (1.0 - z))
        f = [[0.0, 0.0], [0.0, 0.0]]
        for i in range(2):
            for j in range(2):
                a, g = profiles[i][j]
                denom = 1.0 - z * z * float(g) ** t
                if denom == 0.0:
                    raise ZeroDivisionError
                f[i][j] = weights[i] * float(a) ** t / denom
        return (1.0 - f[0][0]) * (1.0 - f[1][1]) - f[0][1] * f[1][0]

    # scan upward for the first sign change; the smallest zero precedes
    # every pole of the continued entries, so the bracketed solve finishes it
    steps = 4096
    prev_s, prev_v = None, None
    for k in range(1, steps + 1):
        s = 2.0 * k / (steps + 1)
        try:
            value = det_i_minus_f(s)
        except ZeroDivisionError:
            continue
        if prev_v is not None and (value == 0.0 or (prev_v > 0.0) != (value > 0.0)):
            root = _brent(det_i_minus_f, prev_s, s, prev_v, value, tol)
            return -math.log(root)
        prev_s, prev_v = s, value
    raise NoRoot(f"det(I - F(s, {t})) has no zero on (0, 2) at this resolution")
