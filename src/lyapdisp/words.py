"""Enumeration of binary words with no q-run of zeros and trailing 1.

The word set indexing every series in this package is

    chi(q) = {empty} + {all finite binary words with no factor 0^q
                        whose last symbol is 1}

Each word w is weighted by the corner value beta^T * D_w * alpha of the
sentinel factorization.  `scan_corner_stats` is the one traversal of
the word tree, and every series value comes from it.  It expands the tree
one level at a time with numpy: the rows beta^T * D_prefix of all live
prefixes of one depth, grouped by their trailing run of zeros, give the
corners of the next word length as one matrix-vector product.  Within
LEAF levels of the last length no more rows are formed: the corner of
prefix+u+'1' is row . (D_u w1), so one product of the rows with a table of
the vectors D_u w1 of all short suffixes u gives every word below them.

Everything is float64: the pair is balanced to an integer pair where a
diagonal conjugate allows it (`exactmat.balanced_pair`) and rounded once.
D0, D1, alpha and beta must be nonnegative, so no sum cancels and a float64
product of nonnegative matrices is componentwise within relative error
gamma_n = n u / (1 - n u), u = 2^-53, of the exact one (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., section 3.5).  A corner of
length l, l + 1 dot products of length dim over l + 2 rounded factors, is
within about ((l + 1)(dim + 1) + 1) u of exact, relative, and exact for an
integer pair while below 2^53.  The bound needs normal floats, so a scan
whose nonzero corners could fall below 2^-1022 is refused, and a corner
that overflows raises OverflowError.

Per-length sums are reduced with math.fsum in a fixed chunking, so results
are reproducible bit for bit for any worker count.  The calling process
splits the tree at a fixed prefix depth and runs the subtrees below each
batch of prefixes itself, or, for large scans, sends each worker of one
fork pool per process a single task with its share of the batches; the
first such scan starts the pool and it is kept until exit.
"""

from __future__ import annotations

import atexit
import bisect
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exactmat
from .conjugate import SentinelFactorization

__all__ = [
    "word_count",
    "scan_corner_stats",
    "ScanStats",
]


def word_count(q: int, length: int) -> int:
    """Number of chi(q) words of the given length.

    Satisfies c_0 = 1 and c_l = sum of c_{l-i} for i = 1..min(q, l): a word
    of length l ends in a block 0^{i-1}1.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    return _word_counts(q, length)[length]


def _word_counts(q: int, max_len: int) -> list[int]:
    """word_count(q, l) for every l from 0 to max_len, in one pass."""
    counts = [1]
    for ell in range(1, max_len + 1):
        counts.append(sum(counts[max(0, ell - q) : ell]))
    return counts


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
# A frontier within this many levels of max_len forms no more rows: every
# word below it is read off a suffix table (see `_leaf`).  Serial g4, h4
# (L=28), g5 and g6 (L=25) scans took 318-385, 206-257, 227-251 and
# 221-244 ms in all with 2, 4, 6 and 8 leaf levels, and 471-731, 376-401,
# 289-313 and 252-312 ms for g4, h4, g5 with 10 t samples (best of 5,
# 2-3 rounds, 2-core Xeon).  Six is as fast as eight and keeps a leaf's
# largest group of words 2.6-4x smaller.
LEAF = 6


@dataclass(frozen=True)
class _ScanContext:
    """One family's scan inputs: the balanced pair rounded to float64.

    suffixes[r][k] serves the prefixes that end in exactly r zeros, for
    k < min(LEAF, max_len): its rows are D_u w1 for every suffix u of
    length k that may follow them (0^r u 1 has no factor 0^q).
    """

    q: int
    max_len: int
    ts: tuple[float, ...]
    d0: np.ndarray
    d1: np.ndarray
    w1: np.ndarray          # D1 * alpha: the corner of prefix+'1' is row . w1
    suffixes: tuple         # per run, per suffix length: D_u w1 rows
    beta: np.ndarray


def _suffix_levels(q: int, d0, d1, w1, levels: int) -> list:
    """(D_u w1, leading zeros of u) for the chi suffixes u.

    Level k lists every u of length k for which u + '1' has no factor 0^q.
    Prepending a symbol to u multiplies D_u w1 by its matrix.
    """
    out = [[(w1, 0)]]
    while len(out) < levels:
        out.append(
            [(d1 @ v, 0) for v, _ in out[-1]]
            + [(d0 @ v, lead + 1) for v, lead in out[-1] if lead + 1 < q])
    return out[:levels]


def _scan_context(fact: SentinelFactorization, max_len: int, ts) -> _ScanContext:
    """Balance the family (`exactmat.balanced_pair`) and round it to float64.

    A diagonal conjugate of an integer pair balances to an integer pair
    with the same corners, and scans bit for bit as its parent below 2^53.
    Raises the ValueError and FloatingPointError of `scan_corner_stats`.
    """
    d0, d1, alpha, beta = exactmat.balanced_pair(
        fact.d0.rows, fact.d1.rows, fact.alpha, fact.beta)
    entries = [x for row in (*d0, *d1) for x in row]
    if min(entries + [*alpha, *beta]) < 0:
        raise ValueError(f"family {fact.family!r} has a negative entry; the "
                         "scan's error bound needs nonnegative matrices")
    # every nonzero row entry and corner is at least one path product: an
    # entry of beta, at most max_len matrix entries and an entry of alpha
    least = (min([1, *filter(None, alpha)]) * min([1, *filter(None, beta)])
             * min([1, *filter(None, entries)]) ** max_len)
    if least * 2**1022 < 1:
        raise FloatingPointError(f"family {fact.family!r}: a nonzero corner "
                                 f"could fall below 2^-1022 by length {max_len}")
    d0, d1, alpha, beta = (np.array(x, dtype=np.float64)
                           for x in (d0, d1, alpha, beta))
    w1 = d1 @ alpha
    levels = _suffix_levels(fact.q, d0, d1, w1, min(LEAF, max_len))
    # the u that may follow r zeros: r + leading zeros of u stays below q
    suffixes = tuple(
        tuple(np.array([v for v, lead in level if r + lead < fact.q])
              .reshape(-1, len(w1))
              for level in levels)
        for r in range(fact.q)
    )
    return _ScanContext(q=fact.q, max_len=max_len, ts=tuple(map(float, ts)),
                        d0=d0, d1=d1, w1=w1, suffixes=suffixes, beta=beta)


def _fsum(parts) -> float:
    """math.fsum; +inf where finite power-sum parts overflow when added."""
    try:
        return math.fsum(parts)
    except OverflowError:
        return math.inf


class _Tally:
    """Per-length word counts and the float parts still to be fsummed.

    A part is [sum ln, sum ln^2, sum phi^t for each t] over one emitted
    group of words, or a whole chunk's per-length totals.
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
        powers = np.multiply.outer(ctx.ts, lc)
        with np.errstate(over="ignore"):
            sums.extend(np.exp(powers, out=powers).sum(axis=1))
    return [float(s) for s in sums]


def _emit(ctx: _ScanContext, corners, length: int, tally: _Tally) -> None:
    """Tally words of `length` by their corners; OverflowError on inf or NaN."""
    words = len(corners)
    nonzero = corners != 0
    live = int(np.count_nonzero(nonzero))
    if live < words:
        corners = corners[nonzero]
    sums = _sums(ctx, np.log(corners)) if live else None
    # corners are >= 0, so sum ln is finite unless some corner is inf or NaN
    if live and not math.isfinite(sums[0]):
        raise OverflowError(f"a corner of length {length} is not a finite float64")
    tally.add(length, words, words - live, sums)


def _leaf(ctx: _ScanContext, blocks, depth: int, tally: _Tally) -> None:
    """Tally every word below the prefixes in `blocks` from the suffix tables.

    The corner of prefix+u+'1' is row . (D_u w1), so one product of each
    run's rows with its table of one suffix length gives the corners of
    all words of that length below them; they go to `_emit` together.
    """
    for k in range(ctx.max_len - depth):
        corners = np.concatenate([(tables[k] @ rows.T).ravel()
                                  for tables, rows in zip(ctx.suffixes, blocks)])
        _emit(ctx, corners, depth + k + 1, tally)


# an overflow, and inf * 0 = NaN after it, reach a corner: `_emit` raises
@np.errstate(over="ignore", invalid="ignore")
def _walk(ctx: _ScanContext, blocks, depth: int, tally: _Tally,
          stop: int | None = None) -> list:
    """Expand a frontier level by level, tallying every word below it.

    blocks[r] holds the rows beta^T D_prefix of the live prefixes of length
    `depth` that end in exactly r zeros.
    One level emits the words prefix+'1' and forms the children: every row
    times D1 starts run 0, run r times D0 becomes run r+1 for r < q-1.
    Children above ROW_CAP rows are split in halves, each finished
    depth-first.  A frontier within LEAF levels of max_len forms no
    children: `_leaf` tallies all words below it at once.  With `stop`,
    the frontier states reaching that depth are returned unexpanded.
    """
    kept = []
    stack = [(depth, blocks)]
    while stack:
        depth, blocks = stack.pop()
        if depth == stop:
            kept.append(blocks)
            continue
        if ctx.max_len - depth <= LEAF:
            _leaf(ctx, blocks, depth, tally)
            continue
        rows = np.concatenate(blocks)
        _emit(ctx, rows @ ctx.w1, depth + 1, tally)
        children = [rows @ ctx.d1] + [r @ ctx.d0 for r in blocks[:-1]]
        if sum(map(len, children)) > ROW_CAP:
            cuts = [len(c) // 2 for c in children]
            stack.append((depth + 1, [c[k:] for c, k in zip(children, cuts)]))
            stack.append((depth + 1, [c[:k] for c, k in zip(children, cuts)]))
        else:
            stack.append((depth + 1, children))
    return kept


def _split(ctx: _ScanContext, prefix_len: int):
    """Split a scan at prefix_len into the short words and batches of prefixes.

    Returns the totals of the words of length <= prefix_len (the empty word
    included) and one job per batch of 8 prefixes of length prefix_len, in
    the walk's fixed order.  A job is (ctx, prefix_len, blocks), blocks as
    in `_walk`; a scan to max_len 0 has none.
    """
    tally = _Tally(ctx.max_len, 2 + len(ctx.ts))
    # the empty word's corner is beta^T alpha = trace(D0^q) = 1
    _emit(ctx, np.ones(1), 0, tally)
    if ctx.max_len == 0:
        return tally.totals(), []
    beta = ctx.beta[np.newaxis, :]
    root = [beta] + [beta[:0]] * (ctx.q - 1)
    frontier = [
        (rows, np.full(len(rows), r))
        for blocks in _walk(ctx, root, 0, tally, stop=prefix_len)
        for r, rows in enumerate(blocks)
    ]
    rows, runs = (np.concatenate(part) for part in zip(*frontier))
    jobs = []
    for start in range(0, len(runs), 8):
        batch = slice(start, start + 8)
        b_rows, b_runs = rows[batch], runs[batch]
        blocks = [b_rows[b_runs == r] for r in range(ctx.q)]
        jobs.append((ctx, prefix_len, blocks))
    return tally.totals(), jobs


def _chunk(job):
    """Totals of the words below one batch of prefixes, a job of `_split`."""
    ctx, prefix_len, blocks = job
    tally = _Tally(ctx.max_len, 2 + len(ctx.ts))
    _walk(ctx, blocks, prefix_len, tally)
    return tally.totals()


def _chunks(jobs) -> list:
    """`_chunk` of every job in one pool task: a worker's share of a scan."""
    return [_chunk(job) for job in jobs]


# A scan of fewer words runs in-process.  On 2 cores a warm two-worker pool
# breaks even with a serial float64 scan between about 2e5 and 5e5 words:
# pooled/serial time on g3, g4, h4, with and without 10 t samples, was
# 0.73-1.94 at 1.96e5 words, 0.73-1.16 at 3.2e5, 0.80-1.12 at 5.1e5 and
# 0.60-0.80 at 1.35e6.  At the benchmark depth (BENCH_scan.json) it was
# 0.48-0.67 with t samples and 0.71-0.90 without, except 1.20 for g3
# without them, a 1.35e6-word scan of 26 ms.
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


_POOL = _ScanPool()
# A forked child inherits the pool but not its handler threads; it neither
# uses nor closes that pool and makes its own.
os.register_at_fork(after_in_child=_POOL.__init__)
atexit.register(_POOL.drop)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pick_prefix_len(q: int, max_len: int) -> int:
    """Chunking depth: enough chunks to balance a pool, 0 for small trees.

    Appending '1' maps the live prefixes of length p one to one onto the
    chi(q) words of length p + 1, so there are word_count(q, p + 1) of them:
    the least p from 1 to max_len - 4 with 192 or more, or 0 if none has.
    Counts never fall with the length, so a bisection finds it in
    O(log max_len) counts (for q = 1 there is one word per length).
    """
    if max_len <= 18:
        return 0
    depths = range(1, max_len - 3)
    k = bisect.bisect_left(depths, 192, key=lambda p: word_count(q, p + 1))
    return depths[k] if k < len(depths) else 0


def scan_corner_stats(
    fact: SentinelFactorization,
    max_len: int,
    ts: Sequence[float] = (),
    threads: int | None = None,
) -> ScanStats:
    """Tally corner-value statistics over all chi(q) words of length <= max_len.

    The calling process expands the word tree level by level (see `_walk`)
    down to a fixed prefix depth and cuts the prefixes there into batches
    of 8; the subtree below each batch is one chunk.  Each chunk reduces its
    per-length parts with math.fsum, and the chunk totals are fsummed once
    more, so the result is identical for any thread count.  ts requests
    additional power sums (corner^t per length).

    Corners carry the error bound of the module docstring.  Raises
    ValueError on a negative entry of D0, D1, alpha or beta,
    FloatingPointError if a nonzero corner could fall below 2^-1022, and
    OverflowError if a corner is not a finite float64.

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

    short, jobs = _split(ctx, _pick_prefix_len(ctx.q, max_len))
    tally = _Tally(max_len, 2 + len(ctx.ts))
    tally.merge(short)
    if threads == 1 or sum(_word_counts(ctx.q, max_len)) < POOL_MIN_WORDS:
        for totals in map(_chunk, jobs):
            tally.merge(totals)
    else:
        # one message per worker: an interleaved share of the jobs, so that
        # neighbouring (similar) subtrees spread over the workers, and pickle
        # sends ctx once per share.  Each job still reduces on its own and
        # math.fsum of the parts is correctly rounded in any order, so
        # neither changes the result.
        shares = [jobs[k::threads] for k in range(threads)]
        with _POOL.lock:
            try:
                for share in _POOL.get(threads).imap_unordered(_chunks, shares):
                    for totals in share:
                        tally.merge(totals)
            except BaseException:
                # the workers may still be busy with this scan, or broken
                _POOL.drop()
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
