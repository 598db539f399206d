"""Reference implementations that the tests check the package against.

Nothing in `src/lyapdisp` calls these: each is an independent second route
to a number the package computes another way.

- `words_of_length` and `is_chi_word` enumerate and test chi(q) words one
  string at a time.
- `fold_products` visits every chi(q) word with its exact corner value,
  depth first; `corner_value` computes one word's corner, and `corner`
  any row . D_w . column.  All three walk a row through the word one symbol
  at a time on integer-scaled matrices and divide by the scale once, so
  they are exact without carrying a `Fraction` per entry.  None of them
  uses the scan's internals.
- `fraction_power_factor` factors D0^q formed by a numpy matrix power on
  `Fraction` entries.
- `f_closed_form_t0` is F(s, 0) in closed form.
- `family_to_dict` writes a family in the family-file schema.
- `phi_parts` and `psi_parts` are the scalar (log2 f, Phi) and
  (log2 f, Psi) at one n from its exact summatory value, in plain Python
  floats and ints.
- `octave_sums` and `sweep_extremes` are the unpruned top-octave sweep:
  every point's running digit-sum total, and `digitsum._chunk_values` on
  every chunk, which `digitsum._scan_extremes` must match.
- `gf2_row_counts_direct` multiplies the GF(2) row by p once per n, with no
  Frobenius step; `digitsum.gf2_row_counts` must yield the same counts.
- `abs_sum_max_object` bounds a table's absolute sums on a numpy object
  array of Python ints; `digitsum._abs_sum_max` must return the same int.
- `empirical_dispersion_full` takes every octave's variances by np.var on
  all the counts below 2^j; `digitsum.empirical_dispersion`, which forms
  no count, must stay within the bounds of its docstring.
- `digit_distribution_compare_full` takes the digit sums of aN + b and of
  N for every N < 2^j and reads CDFs and moments off those arrays; the
  carry DP of `digitsum.digit_distribution_compare` must give the same
  histograms and the same fields, to the rounding of the skewness.
- `log_product_norms_where` is the Monte Carlo kernel that picks each
  trial's product with `np.where`; `mcsim.log_product_norms` must return
  the same arrays bit for bit.
- `slab_sums` is the exact sum of corner^t over the chi(q) words of each
  length at an integer t >= 1, from a linear recurrence on Kronecker
  powers; the scan's `pow_sums` must lie within their stated bound of it.
- `diagonal_balance_by_base` balances a pair one element of a coprime
  base at a time, with b-adic valuations and an integer Bellman-Ford per
  element; `exactmat.diagonal_balance` must return the same tuple, or
  None with it.
- `wynn_sequential` builds one epsilon table column by column in Python
  floats (a row of one or two partial sums is its last one), and
  `l_samples_sequential` solves each L(t) sample on its own, in order, one
  F evaluation at a time (`brent_root_sequential`); the batched
  `gle.wynn_epsilon` and the lockstep `gle._l_samples` must give the same
  results and raise the same exceptions bit for bit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from lyapdisp import catalog, digitsum, exactmat, gle, mcsim
from lyapdisp.catalog import MatrixFamily
from lyapdisp.conjugate import SentinelFactorization
from lyapdisp.exactmat import RationalMatrix


def is_chi_word(word: str, q: int) -> bool:
    """Membership test: empty, or no 0^q factor and rightmost symbol 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if word == "":
        return True
    if word[-1] != "1":
        return False
    return "0" * q not in word


def words_of_length(q: int, length: int) -> Iterator[str]:
    """Yield the chi(q) words of exactly this length in lexicographic order."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if length == 0:
        yield ""
        return

    def extend(prefix: list[str], run: int, remaining: int) -> Iterator[str]:
        if remaining == 0:
            if prefix[-1] == "1":
                yield "".join(prefix)
            return
        if run + 1 < q:
            prefix.append("0")
            yield from extend(prefix, run + 1, remaining - 1)
            prefix.pop()
        prefix.append("1")
        yield from extend(prefix, 0, remaining - 1)
        prefix.pop()

    yield from extend([], 0, length)


@functools.lru_cache(maxsize=8)
def _int_steps(d0: RationalMatrix, d1: RationalMatrix) -> dict:
    """symbol -> (columns of the integer matrix N, den) with D = N / den."""
    steps = {}
    for symbol, matrix in (("0", d0), ("1", d1)):
        rows, den = exactmat.int_rows(matrix.rows)
        steps[symbol] = (tuple(zip(*rows)), den)
    return steps


def corner(row, col, d0: RationalMatrix, d1: RationalMatrix,
           word: str) -> Fraction:
    """Exact row . D_w . col for a binary word w over the pair (d0, d1)."""
    steps = _int_steps(d0, d1)
    (row,), den_row = exactmat.int_rows([row])
    (col,), den_col = exactmat.int_rows([col])
    scale = den_row * den_col
    for symbol in word:
        if symbol not in steps:
            raise ValueError(f"word must be over 0/1, got {symbol!r}")
        cols, den = steps[symbol]
        row = exactmat.row_times(row, cols)
        scale *= den
    return Fraction(exactmat.dot(row, col), scale)


def corner_value(fact: SentinelFactorization, word: str) -> Fraction:
    """Exact beta^T * D_w * alpha for a binary word w over the original pair."""
    return corner(fact.beta, fact.alpha, fact.d0, fact.d1, word)


def fold_products(
    fact: SentinelFactorization,
    max_len: int,
    visitor: Callable[[str, Fraction], None],
) -> None:
    """Visit every chi(q) word of length <= max_len with its exact corner value.

    With D0 = N0 / den0, D1 = N1 / den1 and beta, alpha scaled to integers
    by den together, the row beta^T D_prefix is kept as its integer row and
    each corner is handed over once as the Fraction
    (integer corner) / (den * den0^n0 * den1^n1) for a word of n0 zeros and
    n1 ones.  Traversal is depth-first lexicographic ('0' branch before
    '1'); the empty word comes first with corner beta^T * alpha.  Visitor
    exceptions propagate and abort the traversal.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    q = fact.q
    steps = _int_steps(fact.d0, fact.d1)
    d0_cols, den0 = steps["0"]
    d1_cols, den1 = steps["1"]
    (alpha,), den_alpha = exactmat.int_rows([fact.alpha])
    (beta,), den_beta = exactmat.int_rows([fact.beta])
    den = den_alpha * den_beta
    visitor("", Fraction(exactmat.dot(beta, alpha), den))

    def walk(prefix: list[str], row: tuple, run: int, scale: int) -> None:
        if len(prefix) == max_len:
            return
        if run + 1 < q:
            prefix.append("0")
            walk(prefix, exactmat.row_times(row, d0_cols), run + 1, scale * den0)
            prefix.pop()
        row1 = exactmat.row_times(row, d1_cols)
        scale1 = scale * den1
        prefix.append("1")
        visitor("".join(prefix), Fraction(exactmat.dot(row1, alpha), scale1))
        walk(prefix, row1, 0, scale1)
        prefix.pop()

    walk([], beta, 0, den)


def _kron(a, b) -> list:
    """The Kronecker product of two matrices given as rows."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def slab_sums(fact: SentinelFactorization, t: int, max_len: int) -> list[Fraction]:
    """G_l = sum of corner(w)^t over the chi(q) words w of length l, exactly.

    For an integer t >= 1, corner(w)^t = B^T D_w^(x)t A with A, B the t-th
    Kronecker powers of alpha, beta.  A word of length l >= 1 is one block
    0^(i-1) 1, i <= min(q, l), followed by a word of length l - i, so the
    sum v_l of D_w^(x)t A over the words of length l obeys
    v_l = sum_i K0^(i-1) K1 v_(l-i), v_0 = A, K = D^(x)t, and G_l = B^T v_l.
    With D0, D1 = N0, N1 / den over one denominator, v_l is kept as the
    integer vector den^(t l) (den_alpha)^t v_l.  Returns [G_0, ..., G_max_len].
    """
    dim = fact.d0.dim
    n, den = exactmat.int_rows([*fact.d0.rows, *fact.d1.rows])
    (alpha,), den_alpha = exactmat.int_rows([fact.alpha])
    (beta,), den_beta = exactmat.int_rows([fact.beta])
    k0, k1, a, b = n[:dim], n[dim:], [alpha], [beta]
    for _ in range(t - 1):
        k0, k1 = _kron(k0, n[:dim]), _kron(k1, n[dim:])
        a, b = _kron(a, [alpha]), _kron(b, [beta])
    # blocks[i - 1] = K0^(i-1) K1, as rows
    blocks = [k1]
    for _ in range(fact.q - 1):
        cols = tuple(zip(*blocks[-1]))
        blocks.append([exactmat.row_times(row, cols) for row in k0])
    vs = [a[0]]
    for length in range(1, max_len + 1):
        parts = [exactmat.row_times(vs[length - i], block)
                 for i, block in enumerate(blocks[:length], start=1)]
        vs.append([sum(xs) for xs in zip(*parts)])
    scale = (den_alpha * den_beta) ** t
    return [Fraction(exactmat.dot(b[0], v), scale * den ** (t * length))
            for length, v in enumerate(vs)]


def fraction_power_factor(d0: RationalMatrix, q: int):
    """(alpha, beta) with D0^q = alpha beta^T, the power taken on Fractions."""
    power = np.linalg.matrix_power(np.array(d0.rows, dtype=object), q)
    return exactmat.rank_one_factor(RationalMatrix(power.tolist()))


def f_closed_form_t0(q: int, s: float) -> float:
    """F(s, 0): (s/2)^q (1 - s/2) / (1 - s + (s/2)^(q+1))."""
    half = 0.5 * s
    return half**q * (1.0 - half) / (1.0 - s + half ** (q + 1))


def family_to_dict(fam: MatrixFamily) -> dict:
    """JSON-ready form with exact 'p/q' entry strings (see README for schema)."""

    def entries(matrix: RationalMatrix) -> list[list[str]]:
        return [[str(x) for x in row] for row in matrix.rows]

    out = {
        "name": fam.name,
        "q": fam.q,
        "dim": fam.dim,
        "d0": entries(fam.d0),
        "d1": entries(fam.d1),
    }
    if fam.poly_mask:
        out["poly_mask"] = fam.poly_mask
    if fam.d0_prime is not None:
        out["d0_prime"] = entries(fam.d0_prime)
        out["d1_prime"] = entries(fam.d1_prime)
    if fam.constants is not None:
        out["constants"] = {
            "lambda": fam.constants.lambda_ref,
            "sigma2": fam.constants.sigma2_ref,
            "avg": fam.constants.avg_ref,
            "typ": fam.constants.typ_ref,
            "minpoly": list(fam.constants.minpoly),
        }
    return out


LOG2_3 = math.log2(3.0)


def split_power_of_two(n: int) -> tuple[int, float]:
    """n = f * 2^j with f in [1, 2); the division is exact for n < 2^53."""
    j = n.bit_length() - 1
    return j, n / (1 << j)


def phi_parts(n: int, s: int) -> tuple[float, float]:
    """(log2 f, Phi) at n = f * 2^j from the exact S(n) = s."""
    j, f = split_power_of_two(n)
    x = math.log2(f)
    value = (2 * s - j * n) / (2 * n) - x / 2.0
    if not value <= 0.0:
        raise ArithmeticError(f"phi({n}) = {value!r} is above its supremum 0")
    return x, value


def psi_parts(n: int, s: int) -> tuple[float, float]:
    """(log2 f, Psi) at n = f * 2^j from the exact Sf(n) = s."""
    j, f = split_power_of_two(n)
    value = (s / 3**j) * f**-LOG2_3
    if not 0.0 < value <= 1.0:
        raise ArithmeticError(f"psi({n}) = {value!r} is outside (0, 1]")
    return math.log2(f), value


def octave_sums(kind: str, j: int, bits: int = 16
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(ns, S(n) or Sf(n)) over n in [2^j, 2^(j+1)) in 2^bits-point chunks,
    by a running sum of every point's digit sum."""
    chunk = 1 << bits
    lo, top = 1 << j, 1 << (j + 1)
    # S(2^j) = j 2^(j-1) and Sf(2^j) = 3^j start the running sums
    running = j << j >> 1 if kind == "phi" else 3**j
    while lo < top:
        ns = np.arange(lo, min(lo + chunk, top), dtype=np.int64)
        pops = np.bitwise_count(ns).astype(np.int64)
        increments = pops if kind == "phi" else np.int64(1) << pops
        cums = np.cumsum(increments)
        yield ns, running + cums - increments
        running += int(cums[-1])
        lo += chunk


def sweep_extremes(kind: str, j_max: int,
                   samples: np.ndarray) -> tuple[int, int, np.ndarray]:
    """What `digitsum._scan_extremes` returns, from `digitsum._chunk_values`
    on every chunk of `octave_sums` over the top octave, none skipped."""
    j = j_max - 1
    low, low_hits = math.inf, []
    high, high_hits = -math.inf, []
    sums = np.empty_like(samples)
    for ns, s_vals in octave_sums(kind, j):
        start, stop = np.searchsorted(samples, (ns[0], ns[-1] + 1))
        sums[start:stop] = s_vals[samples[start:stop] - ns[0]]
        values = digitsum._chunk_values(kind, j, ns, s_vals)
        chunk_low, chunk_high = values.min(), values.max()
        if chunk_low < low:
            low, low_hits = chunk_low, []
        if chunk_low == low:
            low_hits.append(ns[values == low])
        if chunk_high > high:
            high, high_hits = chunk_high, []
        if chunk_high == high:
            high_hits.append(ns[values == high])
    return (digitsum._first_in_orbit(low_hits),
            digitsum._first_in_orbit(high_hits), sums)


def gf2_row_counts_direct(mask: int, n_max: int) -> Iterator[int]:
    """Popcounts of p(x)^n mod 2 for n < n_max, one multiplication by p per
    n: XOR of the row shifted by each exponent of p."""
    shifts = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    row = 1
    for _ in range(n_max):
        yield row.bit_count()
        acc = 0
        for i in shifts:
            acc ^= row << i
        row = acc


def abs_sum_max_object(table: np.ndarray, axis: int) -> int:
    """Largest sum of absolute values along axis, over Python ints."""
    return int(np.max(np.abs(table.astype(object)).sum(axis=axis)))


def empirical_dispersion_full(family, j_max: int = 20,
                              j_min: int = 8) -> digitsum.DispersionTrend:
    """`digitsum.empirical_dispersion` with every octave's variances taken
    by np.var on all the counts below 2^j and on their logs."""
    fam = catalog.resolve_family(family)
    rep = digitsum.fit_linear_representation(fam)
    values = digitsum.counts_via_representation(
        fam, rep, 1 << j_max).astype(np.float64)
    logs = np.log(values)
    rows = []
    for j in range(j_min, j_max + 1):
        var = float(values[: 1 << j].var())
        var_ln = float(logs[: 1 << j].var())
        ln_n = j * math.log(2.0)
        rows.append((j, var, var_ln, math.log(var) / ln_n, var_ln / ln_n))
    top = rows[-7:]
    xs = [j * math.log(2.0) for j, *_ in top]
    return digitsum.DispersionTrend(
        family=fam.name, j_min=j_min, j_max=j_max, rows=tuple(rows),
        avg_slope=float(np.polyfit(xs, [math.log(r[1]) for r in top], 1)[0]),
        typ_slope=float(np.polyfit(xs, [r[2] for r in top], 1)[0]))


def _digit_moments(values: np.ndarray, j: int) -> tuple[float, float, float]:
    """Standardized mean, variance and skewness of digit sums, from their
    power sums in int64 (exact: values <= 63 and at most 2^30 of them)."""
    n = len(values)
    s1, s2, s3 = (int(np.sum(values**p)) for p in (1, 2, 3))
    m2 = n * s2 - s1 * s1
    m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
    return ((2 * s1 - j * n) / n / math.sqrt(j), 4 * m2 / (j * n * n),
            m3 / m2 / math.sqrt(m2) if m2 > 0 else 0.0)


def digit_distribution_compare_full(a: int, b: int,
                                    j: int) -> digitsum.DigitCompare:
    """`digitsum.digit_distribution_compare` by brute force: the digit sums
    of aN + b and of N for every N < 2^j, lattice CDFs by bincount."""
    ns = np.arange(1 << j, dtype=np.int64)
    sample = np.bitwise_count(a * ns + b).astype(np.int64)
    ref = np.bitwise_count(ns).astype(np.int64)
    top = int(max(sample.max(), ref.max()))
    cdf_sample, cdf_ref = (np.cumsum(np.bincount(values, minlength=top + 1))
                           / values.size for values in (sample, ref))
    grid = (np.arange(top + 1) + 0.5 - j / 2.0) / (math.sqrt(j) / 2.0)
    normal = 0.5 * (1.0 + np.vectorize(math.erf)(grid / math.sqrt(2.0)))
    return digitsum.DigitCompare(
        a=a, b=b, j=j,
        moments=_digit_moments(sample, j),
        moments_ref=_digit_moments(ref, j),
        two_sample_distance=float(np.abs(cdf_sample - cdf_ref).max()),
        normal_distance=float(np.abs(cdf_sample - normal).max()),
        normal_distance_ref=float(np.abs(cdf_ref - normal).max()))


def log_product_norms_where(config) -> tuple[np.ndarray, int]:
    """What `mcsim.log_product_norms` returns, each step selecting D1 v or
    D0 v per trial with `np.where` and renormalizing only the trials past
    the threshold."""
    fam = catalog.resolve_family(config.family)
    d0, d1 = fam.d0.to_float(), fam.d1.to_float()
    digits = np.ascontiguousarray(
        mcsim._digit_matrix(config.seed, config.trials, config.k).T,
        dtype=bool)
    vec = np.ones((fam.dim, config.trials))
    log_acc = np.zeros(config.trials)
    for j in range(config.k - 1, -1, -1):
        vec = np.where(digits[j], d1 @ vec, d0 @ vec)
        norms = vec.max(axis=0)
        big = norms > mcsim.RENORM_THRESHOLD
        if big.any():
            vec[:, big] /= norms[big]
            log_acc[big] += np.log(norms[big])
    norms = vec.max(axis=0)
    alive = norms > 0.0
    return log_acc[alive] + np.log(norms[alive]), int(config.trials - alive.sum())


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime b > 1 such that every number is a product of their powers.

    Factor refinement by gcds alone, so no number is factored: a base
    element may be composite, but then every number holds its primes in the
    same proportion.  Each split replaces b and n by gcd(b, n), b / gcd and
    n / gcd, which lowers the product of all pending numbers, so it ends.
    """
    base = []
    todo = [n for n in numbers if n > 1]
    while todo:
        n = todo.pop()
        for k, b in enumerate(base):
            g = math.gcd(n, b)
            if g > 1:
                del base[k]
                todo += [x for x in (g, b // g, n // g) if x > 1]
                break
        else:
            base.append(n)
    return base


def _valuation(b: int, n: int) -> int:
    """The exponent of b in the nonzero int n."""
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e


def diagonal_balance_by_base(*matrices) -> tuple[Fraction, ...] | None:
    """What `exactmat.diagonal_balance` returns, one coprime base element
    at a time.

    Write P_i = prod b^x_b(i) over a coprime base of the entries'
    numerators and denominators.  For each b that divides a denominator,
    every nonzero D_ij asks for x(j) - x(i) <= v_b(D_ij), a system of
    difference constraints that Bellman-Ford solves from x = 0 in at most
    dim + 1 rounds, or finds a negative cycle and returns None.
    """
    n = len(matrices[0])
    entries = [(i, j, x) for rows in matrices for i, row in enumerate(rows)
               for j, x in enumerate(row) if x]
    dens = {x.denominator for _, _, x in entries if x.denominator > 1}
    diag = [Fraction(1)] * n
    if not dens:
        return tuple(diag)
    numbers = dens | {abs(x.numerator) for _, _, x in entries}
    for b in _coprime_base(numbers):
        if not any(den % b == 0 for den in dens):
            continue
        weight = {}
        for i, j, x in entries:
            w = _valuation(b, x.numerator) - _valuation(b, x.denominator)
            weight[i, j] = min(w, weight.get((i, j), w))
        x = [0] * n
        for _ in range(n + 1):
            changed = False
            for (i, j), w in weight.items():
                if x[i] + w < x[j]:
                    x[j] = x[i] + w
                    changed = True
            if not changed:
                break
        else:
            return None
        diag = [p * Fraction(b) ** e for p, e in zip(diag, x)]
    return tuple(diag)


def wynn_sequential(partials) -> gle.WynnResult:
    """The epsilon table of one sequence, built entry by entry in Python."""
    s = [float(x) for x in partials]
    n_terms = len(s)
    if n_terms == 0:
        raise ValueError("need at least 1 partial sum, got 0")
    prev2 = [0.0] * (n_terms + 1)
    prev = s
    best = [(s[-1], 0)]
    for k in range(1, n_terms):
        cur = []
        for n in range(n_terms - k):
            diff = prev[n + 1] - prev[n]
            eps = (prev2[n + 1] + 1.0 / diff if abs(diff) > gle.WYNN_GUARD
                   else math.nan)
            cur.append(eps if math.isfinite(eps) else math.nan)
        formed = [x for x in cur if not math.isnan(x)]
        if not formed:
            break
        if k % 2 == 0:
            best.append((formed[-1], k))
        prev2, prev = prev, cur
    if len(best) == 1:
        second = s[-2] if n_terms > 1 else math.nan
        return gle.WynnResult(estimate=s[-1], error=abs(s[-1] - second), depth=0)
    diffs = [abs(b[0] - a[0]) for a, b in zip(best, best[1:])]
    j = min(range(len(diffs)), key=diffs.__getitem__)
    estimate, depth = best[j + 1]
    return gle.WynnResult(estimate=estimate, error=diffs[j], depth=depth)


def f_sequential(q, power_sums, zeros, s, t, accel) -> float:
    """Truncated F(s, t), accelerated by `wynn_sequential` if accel.

    F of one or two slabs stays their fsum, unaccelerated: the lockstep
    solve, which hands every F to `gle.wynn_epsilon`, must give the same
    bits through its short-row rule.
    """
    half_s = 0.5 * s
    slabs = []
    for l, g in enumerate(power_sums):
        total = g + (zeros[l] if t == 0.0 else 0.0)
        slabs.append(half_s ** (l + q) * total)
    total = math.fsum(slabs)
    if not math.isfinite(total):
        raise gle.Overflow(f"F({s}, {t}) overflows at this truncation")
    if accel and len(slabs) >= 3:
        partials, acc = [], 0.0
        for x in slabs:
            acc += x
            partials.append(acc)
        total = wynn_sequential(partials).estimate
    return total


def brent_root_sequential(q, power_sums, zeros, t, tol) -> float:
    """Root of F(s, t) = 1: the raw bracketed solve, then the accelerated
    refinement, each F evaluated when Brent's method asks for it."""

    def ln_f_raw(s):
        value = f_sequential(q, power_sums, zeros, s, t, False)
        return math.log(max(value, math.ulp(0.0)))

    s_lo, s_hi = gle.S_LO, gle.S_HI
    f_lo, f_hi = ln_f_raw(s_lo), ln_f_raw(s_hi)
    if f_hi < 0.0:
        raise gle.NoBracket(
            f"F({s_hi:.6f}, {t}) = {math.exp(f_hi)} < 1; truncation too "
            "shallow or t too negative")
    if f_lo >= 0.0:
        raise gle.NoBracket(
            f"F({s_lo:g}, {t}) = {math.exp(f_lo)} >= 1; L({t}) exceeds "
            f"-ln {s_lo:g} = {-math.log(s_lo):.1f}")
    root = gle._solve(gle._brent(s_lo, s_hi, f_lo, f_hi, tol), ln_f_raw)
    if root - 0.5 * tol <= s_lo:
        raise gle.NoBracket(
            f"F(s, {t}) crosses 1 within tol/2 = {0.5 * tol:.1e} of "
            f"s = {s_lo:g}; L({t}) > {-math.log(root + 0.5 * tol):.1f} is "
            "out of reach at this tol")

    def f_acc(s):
        return f_sequential(q, power_sums, zeros, s, t, True) - 1.0

    delta = 0.02
    for _ in range(4):
        lo = max(root * (1.0 - delta), s_lo)
        hi = min(root * (1.0 + delta), s_hi)
        if (f_lo := f_acc(lo)) < 0.0 < (f_hi := f_acc(hi)):
            return gle._solve(gle._brent(lo, hi, f_lo, f_hi, tol), f_acc)
        delta *= 4.0
    return root


def l_samples_sequential(stats, tol=1e-10) -> list:
    """(L, err) for every t of stats, one sample after the other; raises
    what the first failing sample raises."""
    samples = []
    for t, sums in zip(stats.ts, stats.pow_sums):
        zeros = stats.zero_words
        value = -math.log(brent_root_sequential(stats.q, sums, zeros, t, tol))
        if len(sums) > 8:
            shallow = -math.log(brent_root_sequential(
                stats.q, sums[:-4], zeros[:-4], t, tol))
            threshold = max(10.0 * tol, 1e-8)
            if abs(value - shallow) > threshold:
                raise gle.TruncationUnstable(
                    f"L({t}) moved by {abs(value - shallow):.3e} when the last "
                    f"4 length slabs were dropped (tol {tol:.1e})")
            err = abs(value - shallow)
        else:
            err = float("nan")
        samples.append((value, err))
    return samples
