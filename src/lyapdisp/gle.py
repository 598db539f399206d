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

An `ExponentReport` keeps the `words.ScanStats` of its scan and reads every
per-length term from it: the Wynn inputs of lambda, kappa and mu, and the
rows of `exponents --csv`.

Every series value is `wynn_epsilon`'s estimate, and every epsilon table is
built by it, several sequences at once: lambda, kappa and mu as one
three-row table, and the L(t) samples of one call in lockstep.  It takes
any non-empty row; a row too short to form an even column (fewer than three
partial sums) is its last partial sum, unaccelerated.  Each L(t) sample is
solved twice, at full depth and four lengths shallower, and each solve is a
generator that yields the s at which it needs the accelerated F; every
round, the pending requests of all solves become the rows of one table,
shorter rows padded with NaN on the left.  The padding changes no row's
result, and numpy's float64 arithmetic rounds as Python's does, so every
root, error and exception is bit for bit what solving the samples one after
the other gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from . import catalog, conjugate, exactmat, words
from .exactmat import RationalMatrix
from .words import ScanStats

__all__ = [
    "wynn_epsilon",
    "WynnResult",
    "series_prefactor",
    "sigma2_prefactor",
    "sigma2_from_moments",
    "AcceleratedValue",
    "ExponentReport",
    "exponents",
    "l_of_t",
    "l_from_scan",
    "replica_exponent",
    "quadrinomial_regroup_L",
    "regrouped_matrices",
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


def _check_inputs(ts: Sequence[float], tol: float) -> None:
    """ValueError naming the first non-finite t, or a tol that is not finite
    and positive, before any scan."""
    bad = next((t for t in ts if not math.isfinite(t)), None)
    if bad is not None:
        raise ValueError(f"t must be finite, got {bad!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


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


def wynn_epsilon(rows: Sequence[Sequence[float]]) -> list[WynnResult]:
    """Accelerate sequences of partial sums with the epsilon algorithm.

    Builds the table eps[k+1][n] = eps[k-1][n+1] + 1/(eps[k][n+1]-eps[k][n])
    of each row, never dividing by a difference below an absolute guard of
    1e-300 (a tiny difference means the previous column already converged,
    typically exactly).  Even columns are the extrapolants; once a column
    has converged to working precision, deeper columns divide by rounding
    noise and degrade, so the returned entry is the one whose successive
    even-column difference is smallest, and that difference is the error
    estimate.  A row with no even column (fewer than three partial sums, or
    none that can be formed) comes back as its last partial sum at depth 0,
    with the last difference |s[-1] - s[-2]| as its error (NaN for a row of
    one); an empty row raises ValueError.

    All rows are built as one numpy table.  Row i fills the right end of an
    array as wide as the longest row and the rest is NaN.  An entry that
    cannot be formed (a difference within the guard, or a result that is
    not finite) is NaN, and so is every entry built on it, so an entry that
    touches the padding is NaN and the others are exactly those of the
    row's own table: numpy's float64 +, -, / and abs round as Python's do.
    A column with no entry left ends the row's table, and every later
    column of it is NaN, so each row's even columns, their last entries and
    its estimate, error and depth are bit for bit those of the row alone.
    """
    if not all(map(len, rows)):
        raise ValueError("need at least 1 partial sum, got 0")
    # two columns at least, so a row of one has NaN as its second-last sum
    width = max([2, *map(len, rows)])
    table = np.full((len(rows), width), np.nan)
    for i, row in enumerate(rows):
        table[i, width - len(row):] = row
    prev2 = np.zeros((len(rows), width + 1))   # eps[k-1], starts as the zero column
    prev = table
    evens = []                                  # eps[2], eps[4], ... as formed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, width):
            diff = prev[:, 1:] - prev[:, :-1]
            formed = np.abs(diff) > WYNN_GUARD
            cur = prev2[:, 1:width - k + 1] + 1.0 / diff
            formed &= np.isfinite(cur)
            if not formed.any():
                break
            cur = np.where(formed, cur, np.nan)
            if k % 2 == 0:
                evens.append(cur)
            prev2, prev = prev, cur
    # each even column's last formed entry per row, if it has one
    even = np.full((len(evens), len(rows), width), np.nan)
    for j, cur in enumerate(evens):
        even[j, :, width - cur.shape[1]:] = cur
    formed = ~np.isnan(even[:, :, ::-1])
    lasts = np.take_along_axis(even[:, :, ::-1],
                               formed.argmax(axis=2)[:, :, np.newaxis], axis=2)
    results = []
    for (second, last), values, has in zip(table[:, -2:].tolist(),
                                           lasts[:, :, 0].T.tolist(),
                                           formed.any(axis=2).T.tolist()):
        # (value, column) per even column with entries; column 0 is the last
        # partial sum, inf or NaN included
        best = [(last, 0)] + [(value, 2 * j + 2) for j, value in enumerate(values)
                              if has[j]]
        if len(best) == 1:
            results.append(WynnResult(estimate=last, error=abs(last - second),
                                      depth=0))
            continue
        diffs = [abs(b[0] - a[0]) for a, b in zip(best, best[1:])]
        j = min(range(len(diffs)), key=diffs.__getitem__)
        estimate, depth = best[j + 1]
        results.append(WynnResult(estimate=estimate, error=diffs[j], depth=depth))
    return results


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


def _terms(stats: ScanStats) -> tuple[list[float], ...]:
    """Per-length terms of the lambda, kappa and mu series, no prefactor:
    at length l, 2^-l times the sum of ln phi over its words, (q+l) times
    that, and 2^-l times the sum of (ln phi)^2."""
    weights = [2.0 ** -l for l in range(stats.max_len + 1)]
    return ([w * x for w, x in zip(weights, stats.sum_ln)],
            [(stats.q + l) * w * x
             for l, (w, x) in enumerate(zip(weights, stats.sum_ln))],
            [w * x for w, x in zip(weights, stats.sum_ln2)])


# ---------------------------------------------------------------------------
# exponent reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcceleratedValue:
    raw: float        # last cumulative partial sum
    accel: float      # Wynn estimate (== raw at depth 0)
    err: float        # error estimate
    depth: int        # epsilon-table column used


def _accelerate(stats: ScanStats) -> list[AcceleratedValue]:
    """lambda, kappa and mu from their cumulative prefactored partial sums,
    in one Wynn table."""
    pref = float(series_prefactor(stats.q))
    rows = [[pref * acc for acc in accumulate(terms, initial=0.0)][1:]
            for terms in _terms(stats)]
    # a vanishing column difference means exact convergence; the estimate is
    # still only representable to double precision, so floor the error there
    return [AcceleratedValue(raw=partials[-1], accel=wynn.estimate,
                             err=max(wynn.error, abs(wynn.estimate) * 5e-16),
                             depth=wynn.depth)
            for partials, wynn in zip(rows, wynn_epsilon(rows))]


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
    stats: ScanStats = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
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

    def csv_rows(self) -> Iterator[str]:
        """The per-length terms of lambda, kappa and mu, one row per length."""
        yield "len,words,Slambda,Skappa,Smu"
        for l, (count, lam, kappa, mu) in enumerate(
                zip(self.stats.counts, *_terms(self.stats))):
            yield f"{l},{count},{lam!r},{kappa!r},{mu!r}"


def _scan(family, max_len: int | None, ts: Sequence[float], tol: float,
          threads: int | None) -> tuple[catalog.MatrixFamily, ScanStats]:
    """(family, ScanStats): t and tol checked, then one scan of the family
    to max_len (its default depth if None) with power sums at ts."""
    _check_inputs(ts, tol)
    fam = catalog.resolve_family(family)
    if max_len is None:
        max_len = default_max_len(fam.q)
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name)
    return fam, words.scan_corner_stats(fact, max_len, ts=tuple(ts),
                                        threads=threads)


def exponents(
    family,
    max_len: int | None = None,
    threads: int | None = None,
    lt_samples: Sequence[float] = (),
    lt_tol: float = 1e-10,
) -> ExponentReport:
    """One word-tree scan turned into the full exponent report.

    lambda, kappa and mu are each accelerated independently from cumulative
    per-length partial sums and combined into sigma^2; below three partial
    sums (max_len 0 or 1) no even Wynn column forms, and each is reported
    at depth 0 with accel == raw.  The replica values e^{L(1)}, e^{L(2)}
    come along, each skipped when dim^t exceeds MAX_REPLICA_DIM, and L(t)
    is root-found for each requested sample t from power sums collected in
    the same scan.
    """
    fam, stats = _scan(family, max_len, lt_samples, lt_tol, threads)
    lam, kappa, mu = _accelerate(stats)
    pref = float(sigma2_prefactor(fam.q))
    sigma2 = sigma2_from_moments(lam.accel, kappa.accel, mu.accel, fam.q)
    sigma2_err = (
        abs(2.0 * pref * lam.accel - 2.0 * kappa.accel) * lam.err
        + 2.0 * abs(lam.accel) * kappa.err
        + mu.err
    )
    l_samples = _l_samples(stats, range(len(stats.ts)), lt_tol)
    return ExponentReport(
        family=fam.name,
        q=fam.q,
        max_len=stats.max_len,
        lam=lam,
        kappa=kappa,
        mu=mu,
        sigma2=sigma2,
        sigma2_err=sigma2_err,
        l_samples=tuple((t, value, err)
                        for t, (value, err) in zip(stats.ts, l_samples)),
        replica=tuple((t, replica_exponent(fam, t)) for t in (1, 2)
                      if fam.dim**t <= MAX_REPLICA_DIM),
        skipped_words=stats.total_zero_words,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# the generating function F(s, t) and L(t)
# ---------------------------------------------------------------------------

def _f_slabs(q: int, power_sums, zeros, s: float, t: float):
    """Per-length terms of F(s, t) and their fsum, the truncated F.

    F(s, t) = sum over words of (s/2)^{l(w)+q} phi(w)^t, so the term of
    length l is (s/2)^{l+q} times the sum of phi^t; zero corners count at
    t = 0.  At t = 0 the limit is (s/2)^q (1 - s/2) / (1 - s + (s/2)^(q+1))
    in closed form.  Raises Overflow if the sum is not finite.
    """
    half_s = 0.5 * s
    extra = zeros if t == 0.0 else [0.0] * len(power_sums)
    slabs = [half_s ** (l + q) * (g + z)
             for l, (g, z) in enumerate(zip(power_sums, extra))]
    total = math.fsum(slabs)
    if not math.isfinite(total):
        raise Overflow(f"F({s}, {t}) overflows at this truncation")
    return slabs, total


def _brent(a: float, b: float, f_a: float, f_b: float, tol: float):
    """A point within tol/2 of a root of f between a and b.

    A generator: it yields every point at which it needs f, takes f there
    by send() and returns the point (`_solve` drives it with a function,
    `_solve_lockstep` with batched evaluations).  f_a = f(a) and f_b = f(b)
    must not have the same sign, else NoBracket; a root is an exact zero of
    f or a point where its sign changes.  This is Brent's method (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4): b is the
    best point so far and [b, c] always holds a root; each step tries
    inverse quadratic or secant interpolation and bisects instead when the
    interpolant leaves the bracket or the bracket shrinks too slowly.  No
    step is shorter than tol/4, so once b is that close to the root the
    next point lands across it.  The search stops at an exact zero or when
    |c - b| <= tol/2 (two ulps, if tol is below that), and returns b, the
    end with the smaller |f|.
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
        f_b = yield b


def _solve(steps, f) -> float:
    """The point a search such as `_brent` returns, f evaluated as it asks."""
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as done:
        return done.value


# bracket of the raw solve for s(t) = e^{-L(t)}: L(t) from -ln 2 to 27.6
S_LO, S_HI = 1e-12, 2.0 * (1.0 - 1e-12)


def _root_steps(q, power_sums, zeros, t, tol):
    """Root of F(s, t) = 1 in s, within tol/2 of where F crosses 1.

    A generator, run by `_solve_lockstep`: it yields each s at which it
    needs the accelerated F, takes F(s, t) - 1 there by send() and returns
    the root.  The raw truncated sum is strictly increasing in s, so
    [1e-12, 2) brackets the root unless F is already >= 1 at the lower end
    (L(t) above -ln 1e-12 = 27.6) or still below 1 at the upper one; either
    raises NoBracket, and so does a root within tol/2 of the lower end,
    where the solve cannot tell it from the end itself.  Acceleration
    refines the root afterwards in a small interval around the raw one:
    inside the convergence region the epsilon process approximates the true
    (untruncated) F, but far outside it produces antilimits, so it must not
    be used for the global bracket.
    """

    def ln_f_raw(s: float) -> float:
        # ln F has the sign of F - 1 and is far nearer linear in s than F, so
        # Brent needs fewer steps; an underflowed F = 0 maps to ln(5e-324)
        value = _f_slabs(q, power_sums, zeros, s, t)[1]
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
    root = _solve(_brent(S_LO, S_HI, f_lo, f_hi, tol), ln_f_raw)
    if root - 0.5 * tol <= S_LO:
        # the sign change is not told apart from the end of the bracket
        raise NoBracket(
            f"F(s, {t}) crosses 1 within tol/2 = {0.5 * tol:.1e} of "
            f"s = {S_LO:g}; L({t}) > {-math.log(root + 0.5 * tol):.1f} is "
            "out of reach at this tol"
        )
    delta = 0.02
    for _ in range(4):
        lo = max(root * (1.0 - delta), S_LO)
        hi = min(root * (1.0 + delta), S_HI)
        if (f_lo := (yield lo)) < 0.0 < (f_hi := (yield hi)):
            return (yield from _brent(lo, hi, f_lo, f_hi, tol))
        delta *= 4.0
    return root  # acceleration did not improve the bracket; raw root stands


def _solve_lockstep(problems, tol: float) -> list:
    """`_root_steps` for every (q, power_sums, zeros, t), side by side.

    Returns per problem its root, or the exception its solve raised.  Each
    round, every solve still running has asked for the accelerated F at one
    s: its by-length partial sums become one row of a single `wynn_epsilon`
    table, and each solve gets its own estimate back.  A row's result does
    not depend on the other rows, so each solve takes the steps it would
    take alone.  F of one or two terms comes back as its last partial sum;
    the terms are nonnegative, so that sum is their fsum bit for bit.
    """
    searches = [_root_steps(*problem, tol) for problem in problems]
    outcomes: list = [None] * len(problems)
    asked = {}   # solve -> the s it waits at

    def resume(i, reply) -> None:
        try:
            asked[i] = searches[i].send(reply)
        except StopIteration as done:
            outcomes[i] = done.value
        except Exception as exc:   # the caller raises it in its turn
            outcomes[i] = exc

    for i in range(len(problems)):
        resume(i, None)
    while asked:
        waiting = dict(asked)
        asked.clear()
        rows = {}
        for i, s in waiting.items():
            q, power_sums, zeros, t = problems[i]
            try:
                slabs, _ = _f_slabs(q, power_sums, zeros, s, t)
            except Exception as exc:   # F is evaluated for this solve alone
                outcomes[i] = exc
                continue
            rows[i] = list(accumulate(slabs, initial=0.0))[1:]
        if rows:
            for i, wynn in zip(rows, wynn_epsilon(list(rows.values()))):
                resume(i, wynn.estimate - 1.0)
    return outcomes


def _l_samples(stats: ScanStats, t_indices, tol: float):
    """`l_from_scan` of each t_index, every solve of them in one lockstep.

    The samples are read in order, so the first that fails raises what it
    would raise alone: its full-depth solve's error, then its shallow
    solve's, then TruncationUnstable.
    """
    problems = []
    for k in t_indices:
        sums = stats.pow_sums[k]
        problems.append((stats.q, sums, stats.zero_words, stats.ts[k]))
        if len(sums) > 8:
            problems.append((stats.q, sums[:-4], stats.zero_words[:-4],
                             stats.ts[k]))
    outcomes = iter(_solve_lockstep(problems, tol))

    def root() -> float:
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out

    samples = []
    for k in t_indices:
        t = stats.ts[k]
        value = -math.log(root())
        if len(stats.pow_sums[k]) > 8:
            shallow = -math.log(root())
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
        samples.append((value, err))
    return samples


def l_from_scan(
    stats: ScanStats, t_index: int, tol: float = 1e-10
) -> tuple[float, float]:
    """L(t) from precollected power sums; returns (L, truncation error estimate).

    Solves F(s, t) = 1 with a bracketed Brent step (F is strictly increasing
    in s), then refines the root on F accelerated by `wynn_epsilon`, which
    leaves an F of one or two length slabs as their plain sum.  With more
    than 8 slabs it re-solves with the deepest four dropped; disagreement
    beyond max(10*tol, 1e-8) raises TruncationUnstable, otherwise it is
    reported as the error (NaN with 8 slabs or fewer).  This is the
    one-sample call of the solver that `exponents` runs on all its samples
    at once: the two solves share each round's Wynn table (see the module
    docstring), and the result is bit for bit that of solving them one
    after the other.
    """
    return _l_samples(stats, (t_index,), tol)[0]


def l_of_t(
    family,
    t: float,
    max_len: int | None = None,
    tol: float = 1e-10,
    threads: int | None = None,
) -> float:
    """Moment exponent L(t) = -ln s(t) where F(s(t), t) = 1."""
    _, stats = _scan(family, max_len, (t,), tol, threads)
    return l_from_scan(stats, 0, tol=tol)[0]


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
    d0_cols = tuple(zip(*fam.d0.rows))
    blocks = [fam.d1]   # B_{j+1} = B_j D0
    for _ in range(3):
        blocks.append(RationalMatrix(exactmat.row_times(row, d0_cols)
                                     for row in blocks[-1].rows))
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
    _check_inputs((t,), tol)
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
            root = _solve(_brent(prev_s, s, prev_v, value, tol),
                          det_i_minus_f)
            return -math.log(root)
        prev_s, prev_v = s, value
    raise NoRoot(f"det(I - F(s, {t})) has no zero on (0, 2) at this resolution")
