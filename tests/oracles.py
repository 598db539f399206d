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
- `fraction_power_factor` factors D0^q formed by `Fraction` matrix powers.
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
- `log_product_norms_where` is the Monte Carlo kernel that picks each
  trial's product with `np.where`; `mcsim.log_product_norms` must return
  the same arrays bit for bit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from lyapdisp import catalog, digitsum, exactmat, mcsim
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


def fraction_power_factor(d0: RationalMatrix, q: int):
    """(alpha, beta) with D0^q = alpha beta^T, the power taken on Fractions."""
    return exactmat.rank_one_factor(exactmat.mat_pow(d0, q))


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


def octave_sums(kind: str, j: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(ns, S(n) or Sf(n)) over n in [2^j, 2^(j+1)) in 2^16-point chunks,
    by a running sum of every point's digit sum."""
    chunk = 1 << 16
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
