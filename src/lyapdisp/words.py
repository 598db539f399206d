"""Enumeration of binary words with no q-run of zeros and trailing 1.

The word set indexing every series in this package is

    chi(q) = {empty} + {all finite binary words with no factor 0^q
                        whose last symbol is 1}

Each word w is weighted by the exact corner value beta^T * D_w * alpha of
the sentinel factorization.  `fold_products` is the reference traversal
(exact Fractions handed to a visitor); `scan_corner_stats` is the
workhorse used by the series code.  It expands the word tree one level at
a time with numpy: the rows beta^T * D_prefix of all live prefixes of one
depth, grouped by their trailing run of zeros, give the corners of the
next word length as one matrix-vector product.  Rows are scaled integers,
held in float64 when a bound computed before the scan shows every entry
stays below 2^53, and as Python ints otherwise, so corner values are exact
either way.  Per-length sums are reduced with math.fsum in a fixed
chunking, so results are reproducible bit for bit for any worker count.
Large scans run on one fork pool per process, started by the first of them
and kept until exit; small ones run in-process.
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from . import exactmat
from .conjugate import SentinelFactorization

__all__ = [
    "word_count",
    "words_of_length",
    "is_chi_word",
    "fold_products",
    "scan_corner_stats",
    "ScanStats",
]


def is_chi_word(word: str, q: int) -> bool:
    """Membership test: empty, or no 0^q factor and rightmost symbol 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if word == "":
        return True
    if word[-1] != "1":
        return False
    return "0" * q not in word


def word_count(q: int, length: int) -> int:
    """Number of chi(q) words of the given length.

    Satisfies c_0 = 1 and c_l = sum of c_{l-i} for i = 1..min(q, l): a word
    of length l ends in a block 0^{i-1}1.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    counts = [1]
    for ell in range(1, length + 1):
        counts.append(sum(counts[max(0, ell - q) : ell]))
    return counts[length]


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


def fold_products(
    fact: SentinelFactorization,
    max_len: int,
    visitor: Callable[[str, Fraction], None],
) -> None:
    """Visit every chi(q) word of length <= max_len with its exact corner value.

    The corner value beta^T * D_w * alpha is maintained incrementally: one
    row-vector times matrix multiply per appended symbol.  Traversal is
    depth-first lexicographic ('0' branch before '1'); the empty word comes
    first with corner beta^T * alpha.  Visitor exceptions propagate and abort
    the traversal.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    q = fact.q
    d0_cols = tuple(zip(*fact.d0.rows))
    d1_cols = tuple(zip(*fact.d1.rows))
    alpha = fact.alpha
    visitor("", exactmat.dot(fact.beta, alpha))

    def walk(prefix: list[str], row: tuple, run: int) -> None:
        depth = len(prefix)
        if depth == max_len:
            return
        if run + 1 < q:
            prefix.append("0")
            walk(prefix, exactmat.row_times(row, d0_cols), run + 1)
            prefix.pop()
        row1 = exactmat.row_times(row, d1_cols)
        prefix.append("1")
        visitor("".join(prefix), exactmat.dot(row1, alpha))
        walk(prefix, row1, 0)
        prefix.pop()

    walk([], fact.beta, 0)


# ---------------------------------------------------------------------------
# frontier scan engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanStats:
    """Per-length tallies over all chi(q) words of length <= max_len.

    counts[l]    number of words of length l (zero corners included)
    zero_words[l] words whose corner value is exactly 0 (skipped from sums)
    sum_ln[l]    sum over words of lnphi, phi = corner value
    sum_ln2[l]   sum over words of (ln phi)^2
    pow_sums[k][l] sum over words of phi^{ts[k]} (zero corners skipped)
    """

    q: int
    max_len: int
    ts: tuple[float, ...]
    counts: tuple[int, ...]
    zero_words: tuple[int, ...]
    sum_ln: tuple[float, ...]
    sum_ln2: tuple[float, ...]
    pow_sums: tuple[tuple[float, ...], ...]

    @property
    def total_zero_words(self) -> int:
        return sum(self.zero_words)


# A level whose children outnumber this many rows is halved and each half is
# finished depth-first, which keeps a scan worker's frontier to a few MB.
ROW_CAP = 2048
# float64 represents every integer below 2**53 exactly
_FLOAT_EXACT = 2**53


@dataclass(frozen=True)
class _ScanContext:
    """One family's scan inputs: matrices scaled to integers, in the scan dtype.

    For a word with n0 zeros and n1 ones, the integer corner is the corner
    value times den * den0**n0 * den1**n1.  `bound` caps |entry| of every
    row beta^T D_prefix and every corner the scan forms.  The last level's
    corners are formed as row . (D_d w1) without the child row: each partial
    sum is at most |row| |D_d| |w1|, which is the child's state times |w1|,
    and the bound covers |D_d| |w1| itself.  The arrays are float64 when the
    bound is below 2**53 and every scale is 1 (catalog families are
    integer); otherwise they hold Python ints (`exact`).
    """

    q: int
    max_len: int
    ts: tuple[float, ...]
    d0: np.ndarray
    d1: np.ndarray
    w1: np.ndarray          # D1 * alpha: the corner of prefix+'1' is row . w1
    d0w1: np.ndarray        # D0 * w1: the corner of prefix+'01' is row . d0w1
    d1w1: np.ndarray        # D1 * w1: the corner of prefix+'11' is row . d1w1
    beta: np.ndarray
    empty_corner: int       # beta^T alpha, the corner of the empty word
    den: int                # scale of beta and alpha together
    den0: int               # scale of D0
    den1: int               # scale of D1
    bound: int
    exact: bool


def _entry_bound(q: int, d0, d1, w1, beta, max_len: int) -> int:
    """Bound on |entry| of every row and corner a scan to max_len forms.

    state[r] is the elementwise max of |beta^T D_prefix| over the prefixes of
    one depth that end in exactly r zeros; |x D| <= |x| |D| bounds their
    children.  Every partial sum of a dot product is at most its sum of
    absolute terms, so the bound covers the intermediate sums as well.  It
    also covers |D_d| |w1|, the vectors the last level multiplies by.
    """
    a0, a1, aw, row = (abs(np.array(x, dtype=object)) for x in (d0, d1, w1, beta))
    bound = max(a0.max(), a1.max(), aw.max(), row.max(),
                (a0 @ aw).max(), (a1 @ aw).max())
    state = [row] + [0 * row] * (q - 1)
    for _ in range(max_len):
        bound = max(bound, *(max(s.max(), s @ aw) for s in state))
        ones = np.maximum.reduce([s @ a1 for s in state])
        state = [ones] + [s @ a0 for s in state[:-1]]
    return bound


def _scan_context(fact: SentinelFactorization, max_len: int, ts) -> _ScanContext:
    """Scale the family to integers and pick float64 or Python ints."""
    d0, den0 = exactmat.int_rows(fact.d0.rows)
    d1, den1 = exactmat.int_rows(fact.d1.rows)
    (alpha,), den_a = exactmat.int_rows([fact.alpha])
    (beta,), den_b = exactmat.int_rows([fact.beta])
    # row_times over the rows of D gives the column product D . w
    w1 = exactmat.row_times(alpha, d1)
    bound = _entry_bound(fact.q, d0, d1, w1, beta, max_len)
    exact = bound >= _FLOAT_EXACT or den_a * den_b * den0 * den1 != 1
    dtype = object if exact else np.float64
    return _ScanContext(
        q=fact.q,
        max_len=max_len,
        ts=tuple(float(t) for t in ts),
        d0=np.array(d0, dtype=dtype),
        d1=np.array(d1, dtype=dtype),
        w1=np.array(w1, dtype=dtype),
        d0w1=np.array(exactmat.row_times(w1, d0), dtype=dtype),
        d1w1=np.array(exactmat.row_times(w1, d1), dtype=dtype),
        beta=np.array(beta, dtype=dtype),
        empty_corner=exactmat.dot(beta, alpha),
        den=den_a * den_b,
        den0=den0,
        den1=den1,
        bound=bound,
        exact=exact,
    )


def _fsum(parts) -> float:
    """math.fsum; +inf where finite power-sum parts overflow when added."""
    try:
        return math.fsum(parts)
    except OverflowError:
        return math.inf


class _Tally:
    """Per-length word counts and the float parts still to be fsummed.

    A part is [sum ln, sum ln^2, sum phi^t for each t] over one level of
    one frontier block, or a whole chunk's per-length totals.
    """

    def __init__(self, max_len: int, width: int):
        self.counts = [0] * (max_len + 1)
        self.zeros = [0] * (max_len + 1)
        self.parts = [[] for _ in range(max_len + 1)]
        self.width = width

    def add(self, length: int, words: int, zeros: int, sums) -> None:
        self.counts[length] += words
        self.zeros[length] += zeros
        if words > zeros:
            self.parts[length].append(sums)

    def merge(self, totals) -> None:
        for length, (words, zeros, sums) in enumerate(zip(*totals)):
            self.add(length, words, zeros, sums)

    def totals(self):
        """(counts, zeros, per-length sums), each sum one fsum over its parts."""
        sums = [
            [_fsum(col) for col in zip(*parts)] if parts else [0.0] * self.width
            for parts in self.parts
        ]
        return self.counts, self.zeros, sums


def _sums(ctx: _ScanContext, lc: np.ndarray) -> list[float]:
    """[sum ln, sum ln^2, sum phi^t for each t] over ln-corners lc."""
    sums = [lc.sum(), (lc * lc).sum()]
    if ctx.ts:
        # phi^t overflows to inf past e^709.78; callers check for it
        with np.errstate(over="ignore"):
            sums.extend(np.exp(np.multiply.outer(ctx.ts, lc)).sum(axis=1))
    return [float(s) for s in sums]


def _emit(ctx: _ScanContext, rows, ones, length: int, tally: _Tally) -> None:
    """Tally the words prefix+'1' of `length` for the prefixes in `rows`.

    ones[i] counts the 1s of prefix i, which fixes the scale of its word.
    One-dimensional `rows` are the corners themselves.
    """
    corners = rows if rows.ndim == 1 else rows @ ctx.w1
    words = len(corners)
    nonzero = corners != 0
    live = int(np.count_nonzero(nonzero))
    if live < words:
        corners = corners[nonzero]
        ones = ones[nonzero]
    if ctx.exact:
        # corner / scale is one correctly rounded int division, so ln phi
        # carries no cancellation from the logs of large scales
        scale = [ctx.den * ctx.den0 ** (length - k) * ctx.den1 ** k
                 for k in range(length + 1)]
        lc = np.fromiter(
            (math.log(c / scale[k]) for c, k in zip(corners, (ones + 1).tolist())),
            dtype=np.float64, count=live,
        )
    else:
        lc = np.log(corners)
    tally.add(length, words, words - live, _sums(ctx, lc) if live else None)


def _walk(ctx: _ScanContext, blocks, depth: int, tally: _Tally,
          stop: int | None = None) -> list:
    """Expand a frontier level by level, tallying every word below it.

    blocks[r] = (rows, ones) holds the live prefixes of length `depth` that
    end in exactly r zeros: their rows beta^T D_prefix and counts of 1s.
    One level emits the words prefix+'1' and forms the children: every row
    times D1 starts run 0, run r times D0 becomes run r+1 for r < q-1.
    Children of the last level are only ever multiplied by w1, so they are
    formed as their corners, row . (D_d w1).  Children above ROW_CAP rows
    are split in halves, each finished depth-first.  With `stop`, the
    frontier states reaching that depth are returned unexpanded; otherwise
    the walk ends at max_len.
    """
    kept = []
    stack = [(depth, blocks)]
    while stack:
        depth, blocks = stack.pop()
        if depth == stop:
            kept.append(blocks)
            continue
        rows = np.concatenate([b[0] for b in blocks])
        ones = np.concatenate([b[1] for b in blocks])
        _emit(ctx, rows, ones, depth + 1, tally)
        if depth + 1 == ctx.max_len:
            continue
        if depth + 2 == ctx.max_len:
            d0, d1 = ctx.d0w1, ctx.d1w1
        else:
            d0, d1 = ctx.d0, ctx.d1
        children = [(rows @ d1, ones + 1)]
        children += [(r @ d0, o) for r, o in blocks[:-1]]
        if sum(len(o) for _, o in children) > ROW_CAP:
            cuts = [len(o) // 2 for _, o in children]
            pairs = list(zip(children, cuts))
            stack.append((depth + 1, [(r[c:], o[c:]) for (r, o), c in pairs]))
            stack.append((depth + 1, [(r[:c], o[:c]) for (r, o), c in pairs]))
        else:
            stack.append((depth + 1, children))
    return kept


def _split(ctx: _ScanContext, prefix_len: int):
    """The words of length <= prefix_len, and the prefixes of length prefix_len.

    Returns the totals of the short words (the empty word included) and the
    rows, trailing runs and counts of 1s of the prefixes, in the walk's
    fixed order.
    """
    tally = _Tally(ctx.max_len, 2 + len(ctx.ts))
    if ctx.empty_corner:
        lc = np.array([math.log(ctx.empty_corner / ctx.den)])
        tally.add(0, 1, 0, _sums(ctx, lc))
    else:
        tally.add(0, 1, 1, None)
    beta = ctx.beta[np.newaxis, :]
    root = [(beta, np.zeros(1, dtype=np.int64))]
    root += [(beta[:0], np.zeros(0, dtype=np.int64))] * (ctx.q - 1)
    frontier = [
        (rows, np.full(len(ones), r), ones)
        for blocks in _walk(ctx, root, 0, tally, stop=prefix_len)
        for r, (rows, ones) in enumerate(blocks)
    ]
    rows, runs, ones = (np.concatenate(part) for part in zip(*frontier))
    return tally.totals(), rows, runs, ones


def _chunk(ctx: _ScanContext, prefix_len: int, split, index: int):
    """Totals of chunk `index` of a scan split at prefix_len.

    Chunk -1 is the words of length <= prefix_len; chunk i >= 0 is the
    subtrees below prefixes 8i .. 8i+7 of the split.
    """
    short, rows, runs, ones = split
    if index < 0:
        return short
    part = slice(8 * index, 8 * index + 8)
    rows, runs, ones = rows[part], runs[part], ones[part]
    tally = _Tally(ctx.max_len, 2 + len(ctx.ts))
    blocks = [(rows[runs == r], ones[runs == r]) for r in range(ctx.q)]
    _walk(ctx, blocks, prefix_len, tally)
    return tally.totals()


# A scan of fewer words runs in-process.  On 2 cores a warm two-worker pool
# breaks even with a serial float64 scan at about 2e5 words: pooled/serial
# time on g3, g4, h4 was 0.95-1.07 at 1.96e5 words and 0.84-0.99 at 3.2e5.
POOL_MIN_WORDS = 250_000


class _ScanPool:
    """One process's fork pool, made on first use and kept until exit.

    Pooled scans hold `lock`, so a scan that asks for another worker count,
    or fails, never replaces the pool under another thread's scan.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.workers = 0
        self.pool = None

    def get(self, workers: int):
        if workers != self.workers:
            self.drop()
            self.pool = multiprocessing.get_context("fork").Pool(workers)
            self.workers = workers
        return self.pool

    def drop(self) -> None:
        if self.pool is not None:
            self.pool.terminate()
        self.pool, self.workers = None, 0


# The scan pool of each process, by pid.  A forked child inherits its
# parent's entry, whose handler threads it lacks; it neither uses nor closes
# that pool and makes its own.
_POOLS: dict[int, _ScanPool] = {}
_SCAN_IDS = itertools.count()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _scan_pool() -> _ScanPool:
    return _POOLS.setdefault(os.getpid(), _ScanPool())


@atexit.register
def _drop_pool() -> None:
    _scan_pool().drop()


# A worker's (scan id, `_split`) of the scan it last served.  Each worker
# walks the prefixes itself, so the parent does none of a scan's array work.
_WORKER_SPLIT = (None, None)


def _pool_run(job):
    global _WORKER_SPLIT
    scan_id, ctx, prefix_len, index = job
    if _WORKER_SPLIT[0] != scan_id:
        _WORKER_SPLIT = (scan_id, _split(ctx, prefix_len))
    return _chunk(ctx, prefix_len, _WORKER_SPLIT[1], index)


def _pick_prefix_len(q: int, max_len: int) -> int:
    """Chunking depth: enough chunks to balance a pool, 0 for small trees.

    Appending '1' maps the live prefixes of length p one to one onto the
    chi(q) words of length p + 1, so there are word_count(q, p + 1) of them.
    """
    if max_len <= 18:
        return 0
    for p in range(1, max_len - 3):
        if word_count(q, p + 1) >= 192:
            return p
    return 0


def scan_corner_stats(
    fact: SentinelFactorization,
    max_len: int,
    ts: Sequence[float] = (),
    threads: int | None = None,
) -> ScanStats:
    """Tally corner-value statistics over all chi(q) words of length <= max_len.

    The word tree is expanded level by level (see `_walk`) down to a fixed
    prefix depth; the prefixes there are cut into batches of 8, and the
    subtree below each batch is one chunk.  Each chunk reduces its
    per-length parts with math.fsum, and the chunk totals are fsummed once
    more, so the result is identical for any thread count.  Rows are
    float64 when `_entry_bound` keeps every integer the scan forms below
    2^53 and Python ints otherwise.  ts requests additional power sums
    (corner^t per length).

    threads caps the worker processes (default and upper limit: the CPUs
    this process may run on).  Scans of POOL_MIN_WORDS words or more run
    on a fork pool that the first of them starts and later scans reuse
    until the process exits; smaller scans, and all scans with one thread,
    run in-process.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    ctx = _scan_context(fact, max_len, ts)
    cpus = _usable_cpus()
    threads = cpus if threads is None else max(1, min(int(threads), cpus))

    prefix_len = _pick_prefix_len(ctx.q, max_len)
    chunks = 0
    if max_len > 0:
        chunks = -(-word_count(ctx.q, prefix_len + 1) // 8)
    total = sum(word_count(ctx.q, length) for length in range(max_len + 1))
    tally = _Tally(max_len, 2 + len(ctx.ts))
    if threads == 1 or total < POOL_MIN_WORDS:
        split = _split(ctx, prefix_len)
        for index in range(-1, chunks):
            tally.merge(_chunk(ctx, prefix_len, split, index))
    else:
        # several chunks per message, as Pool.map does; each chunk still
        # reduces on its own, so this does not change the result.  Within
        # one message pickle sends ctx once.
        batch = -(-(chunks + 1) // (4 * threads))
        scan_id = next(_SCAN_IDS)
        jobs = ((scan_id, ctx, prefix_len, index) for index in range(-1, chunks))
        pool = _scan_pool()
        with pool.lock:
            try:
                for totals in pool.get(threads).imap(_pool_run, jobs,
                                                     chunksize=batch):
                    tally.merge(totals)
            except BaseException:
                # the workers may still be busy with this scan, or broken
                pool.drop()
                raise
    counts, zeros, sums = tally.totals()
    return ScanStats(
        q=ctx.q,
        max_len=max_len,
        ts=ctx.ts,
        counts=tuple(counts),
        zero_words=tuple(zeros),
        sum_ln=tuple(s[0] for s in sums),
        sum_ln2=tuple(s[1] for s in sums),
        pow_sums=tuple(
            tuple(s[2 + k] for s in sums) for k in range(len(ctx.ts))
        ),
    )
