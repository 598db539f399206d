"""Word enumeration and the corner-value scan against brute-force oracles."""

import math
import multiprocessing
import os
import pathlib
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
from lyapdisp import catalog, conjugate, exactmat, words
from lyapdisp.exactmat import RationalMatrix


def brute_words(q: int, length: int) -> list[str]:
    """Independent oracle: filter all 2^length words by the two rules."""
    if length == 0:
        return [""]
    out = []
    for bits in product("01", repeat=length):
        word = "".join(bits)
        if word.endswith("1") and "0" * q not in word:
            out.append(word)
    return out


def fact_for(name: str):
    fam = catalog.get_family(name)
    return conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name)


def conjugated_fact_for(name: str, diag=None):
    """The family under D -> Q^-1 D Q for a positive rational diagonal Q.

    Corner values are unchanged.  The default Q = diag((2i + 3) / (i + 2))
    puts every prime up to dim + 1 in a denominator.  Scans balance the pair
    back to an integer one and take the float64 path.
    """
    fam = catalog.get_family(name)
    if diag is None:
        diag = [Fraction(2 * i + 3, i + 2) for i in range(fam.dim)]

    def conj(matrix):
        return RationalMatrix([
            [matrix.rows[i][j] * diag[j] / diag[i] for j in range(fam.dim)]
            for i in range(fam.dim)
        ])

    return conjugate.sentinel_factorization(
        conj(fam.d0), conj(fam.d1), fam.q, f"{name}-conj"
    )


def fractional_fact():
    """A family whose rank-1 idempotent d0 has non-integer entries."""
    d0 = RationalMatrix([["1/2", 1], ["1/4", "1/2"]])
    d1 = RationalMatrix([[1, 2], [1, 1]])
    return conjugate.sentinel_factorization(d0, d1, 1, "fractional")


def random_diagonal(dim: int, rng: random.Random) -> list[Fraction]:
    """Entries a/b with a, b uniform on 1..9, as perfbench's crosscheck
    workload draws them for its conjugated family files."""
    return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(dim)]


def unbalanceable_fact_for(name: str):
    """The family under D -> Q^-1 D Q for Q = I + E01 / 3.

    The conjugate has a diagonal entry with 3 in its denominator, so no
    diagonal conjugate of it is integer, and scans round its fractions to
    float64.  Of the built-ins, g2 and h4 stay nonnegative under Q; g3 and
    g5 do not, and scans refuse them.  Needs dim >= 2.
    """
    fam = catalog.get_family(name)
    shear = [[Fraction(int(i == j)) for j in range(fam.dim)]
             for i in range(fam.dim)]
    shear[0][1] = Fraction(1, 3)
    q = np.array(shear, dtype=object)
    shear[0][1] = Fraction(-1, 3)
    q_inv = np.array(shear, dtype=object)

    def conj(matrix):
        return RationalMatrix((q_inv @ np.array(matrix.rows, dtype=object)
                               @ q).tolist())

    return conjugate.sentinel_factorization(
        conj(fam.d0), conj(fam.d1), fam.q, f"{name}-shear"
    )


class TestWordsOfLength:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", range(0, 13))
    def test_matches_brute_force(self, q, length):
        assert list(oracles.words_of_length(q, length)) == brute_words(q, length)

    def test_q1_is_all_ones(self):
        for k in range(8):
            expected = ["1" * k] if k else [""]
            assert list(oracles.words_of_length(1, k)) == expected

    def test_spec_examples(self):
        assert list(oracles.words_of_length(2, 3)) == ["011", "101", "111"]
        assert len(list(oracles.words_of_length(3, 4))) == 7


class TestWordCount:
    @pytest.mark.parametrize("q,expected", [
        (2, [1, 1, 2, 3, 5, 8]),
        (3, [1, 1, 2, 4, 7, 13]),
    ])
    def test_small_sequences(self, q, expected):
        assert [words.word_count(q, l) for l in range(6)] == expected

    def test_q1_always_one(self):
        assert all(words.word_count(1, l) == 1 for l in range(20))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_brute_filter_up_to_16(self, q):
        for length in range(17):
            assert words.word_count(q, length) == len(brute_words(q, length))
            assert words.word_count(q, length) == sum(
                1 for _ in oracles.words_of_length(q, length)
            )

    def test_membership_helper(self):
        assert oracles.is_chi_word("", 2)
        assert oracles.is_chi_word("101", 2)
        assert not oracles.is_chi_word("1001", 2)
        assert not oracles.is_chi_word("10", 2)


class TestFoldProducts:
    def test_empty_word_only(self):
        fact = fact_for("g2")
        seen = []
        oracles.fold_products(fact, 0, lambda w, c: seen.append((w, c)))
        assert seen == [("", Fraction(1))]

    def test_binomial_powers_of_two(self):
        fact = fact_for("g1")
        seen = {}
        oracles.fold_products(fact, 10, seen.__setitem__)
        assert seen == {"1" * k: Fraction(2**k) for k in range(11)}

    def test_trinomial_closed_form(self):
        fact = fact_for("g2")
        seen = {}
        oracles.fold_products(fact, 12, seen.__setitem__)
        for k in range(13):
            assert seen["1" * k] == Fraction(2 ** (k + 2) - (-1) ** k, 3)

    def test_visits_each_chi_word_once_in_order(self):
        fact = fact_for("g3")
        visited = []
        oracles.fold_products(fact, 7, lambda w, c: visited.append(w))

        # depth-first lexicographic reference walk
        expected = []

        def ref(prefix, run):
            if prefix == "" or prefix.endswith("1"):
                expected.append(prefix)
            if len(prefix) == 7:
                return
            if run + 1 < fact.q:
                ref(prefix + "0", run + 1)
            ref(prefix + "1", 0)

        ref("", 0)
        assert visited == expected
        assert len(set(visited)) == len(visited)

    def test_corners_match_full_matrix_products(self):
        """1000+ random visited words against a from-scratch recomputation."""
        rng = random.Random(41)
        for name in ("g2", "g3", "h4", "g5"):
            fact = fact_for(name)
            collected = []
            oracles.fold_products(fact, 10, lambda w, c: collected.append((w, c)))
            # every matrix and vector as integers over its own scale
            dim = fact.d0.dim
            d0, den0 = exactmat.int_rows(fact.d0.rows)
            d1, den1 = exactmat.int_rows(fact.d1.rows)
            cols = {"0": (tuple(zip(*d0)), den0), "1": (tuple(zip(*d1)), den1)}
            (beta,), den_beta = exactmat.int_rows([fact.beta])
            (alpha,), den_alpha = exactmat.int_rows([fact.alpha])
            for word, corner in rng.choices(collected, k=260):
                matrix = [[int(i == j) for j in range(dim)] for i in range(dim)]
                scale = den_beta * den_alpha
                for symbol in word:
                    symbol_cols, den = cols[symbol]
                    matrix = [exactmat.row_times(row, symbol_cols) for row in matrix]
                    scale *= den
                expected = sum(
                    beta[i] * matrix[i][j] * alpha[j]
                    for i in range(dim)
                    for j in range(dim)
                )
                assert corner == Fraction(expected, scale)

    def test_fractional_rows_give_the_same_corners(self):
        # the conjugated g3 has non-integer rows, so every corner is divided
        # by a scale other than 1; its corners are those of g3
        fact = conjugated_fact_for("g3")
        assert exactmat.int_rows(fact.d0.rows)[1] > 1
        assert exactmat.int_rows(fact.d1.rows)[1] > 1
        seen, conj = {}, {}
        oracles.fold_products(fact_for("g3"), 12, seen.__setitem__)
        oracles.fold_products(fact, 12, conj.__setitem__)
        assert list(conj) == list(seen)
        assert conj == seen
        assert all(type(c) is Fraction for c in conj.values())

    def test_visitor_errors_propagate(self):
        fact = fact_for("g2")

        class Boom(Exception):
            pass

        def visitor(word, corner):
            if len(word) == 3:
                raise Boom

        with pytest.raises(Boom):
            oracles.fold_products(fact, 10, visitor)


def reference_stats(fact, max_len, ts=()):
    """Aggregate fold_products output with math.fsum as the oracle."""
    lns = [[] for _ in range(max_len + 1)]
    ln2s = [[] for _ in range(max_len + 1)]
    pows = [[[] for _ in range(max_len + 1)] for _ in ts]
    counts = [0] * (max_len + 1)
    zeros = [0] * (max_len + 1)

    def visit(word, corner):
        counts[len(word)] += 1
        if corner == 0:
            zeros[len(word)] += 1
            return
        value = math.log(abs(corner))
        lns[len(word)].append(value)
        ln2s[len(word)].append(value * value)
        for idx, t in enumerate(ts):
            pows[idx][len(word)].append(math.exp(t * value))

    oracles.fold_products(fact, max_len, visit)
    return (
        counts,
        zeros,
        [math.fsum(v) for v in lns],
        [math.fsum(v) for v in ln2s],
        [[math.fsum(v) for v in per_len] for per_len in pows],
    )


def assert_within_bound(stats, dim, counts, zeros, sum_ln, sum_ln2, pow_sums):
    """stats within the scan's error bound of sums of correctly rounded corners.

    A corner of length l is within e_l = ((l + 1)(dim + 1) + 2) 2^-53 of
    exact, relative (the `words` docstring, plus the other side's one
    rounding), so each ln phi moves by at most e_l.  Over the live words of
    one length, with A = sum |ln phi| <= sqrt(n sum ln^2) and
    M = max |ln phi| <= sqrt(sum ln^2): sum ln moves by n e_l, sum ln^2 by
    2 A e_l, and sum phi^t by |t| (e_l + 2 M 2^-52) relative, the last term
    for the rounding of t ln phi.  64 ulps of each sum cover np.log, np.exp
    and the pairwise summation on both sides.
    """
    u = 2.0**-53
    assert list(stats.counts) == counts
    assert list(stats.zero_words) == zeros
    for length, (live, ln, ln2) in enumerate(zip(
            (c - z for c, z in zip(counts, zeros)), sum_ln, sum_ln2)):
        e = ((length + 1) * (dim + 1) + 2) * u
        span, top = math.sqrt(live * ln2), math.sqrt(ln2)
        assert abs(stats.sum_ln[length] - ln) <= live * e + 64 * u * span
        assert abs(stats.sum_ln2[length] - ln2) <= 2 * span * e + 64 * u * ln2
        for t, got, want in zip(stats.ts, stats.pow_sums, pow_sums):
            assert abs(got[length] - want[length]) <= want[length] * (
                abs(t) * (e + 4 * top * u) + 64 * u)


def assert_matches(stats, counts, zeros, sum_ln, sum_ln2, pow_sums, rel=1e-14):
    assert list(stats.counts) == counts
    assert list(stats.zero_words) == zeros
    for a, b in zip(stats.sum_ln, sum_ln):
        assert a == pytest.approx(b, rel=rel)
    for a, b in zip(stats.sum_ln2, sum_ln2):
        assert a == pytest.approx(b, rel=rel)
    for got, want in zip(stats.pow_sums, pow_sums):
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=rel)


class TestScanCornerStats:
    @pytest.mark.parametrize(
        "name", ["g1", "g2", "g3", "h3", "g4", "h4", "g5", "g6"]
    )
    def test_matches_fold_aggregates(self, name):
        fact = fact_for(name)
        ts = (2.0, -0.5)
        stats = words.scan_corner_stats(fact, 9, ts=ts, threads=1)
        assert_matches(stats, *reference_stats(fact, 9, ts))

    def test_chunked_scan_matches_fold_aggregates(self):
        # depth 21 is above the depth-18 split, so the scan runs in chunks
        fact = fact_for("g3")
        assert words._pick_prefix_len(fact.q, 21) > 0
        ts = (1.0, -0.5)
        stats = words.scan_corner_stats(fact, 21, ts=ts, threads=1)
        assert_matches(stats, *reference_stats(fact, 21, ts))

    def test_fields_are_python_numbers(self):
        stats = words.scan_corner_stats(fact_for("g5"), 22, ts=(2.0,), threads=2)
        assert all(type(c) is int for c in stats.counts + stats.zero_words)
        sums = stats.sum_ln + stats.sum_ln2 + stats.pow_sums[0]
        assert all(type(v) is float for v in sums)

    def test_counts_match_word_count(self):
        for name in ("g2", "g5"):
            fact = fact_for(name)
            stats = words.scan_corner_stats(fact, 14, threads=1)
            assert list(stats.counts) == [
                words.word_count(fact.q, l) for l in range(15)
            ]

    def test_fractional_entries_use_exact_offsets(self):
        fact = fractional_fact()
        stats = words.scan_corner_stats(fact, 9, ts=(1.5,), threads=1)
        counts, zeros, sum_ln, sum_ln2, pow_sums = reference_stats(
            fact, 9, (1.5,)
        )
        assert list(stats.counts) == counts
        for a, b in zip(stats.sum_ln, sum_ln):
            assert a == pytest.approx(b, abs=1e-10)
        for a, b in zip(stats.pow_sums[0], pow_sums[0]):
            assert a == pytest.approx(b, rel=1e-12)

    def test_zero_corners_counted_and_skipped(self):
        d0 = RationalMatrix([[1, 0], [0, 0]])
        d1 = RationalMatrix([[0, 1], [1, 0]])
        fact = conjugate.sentinel_factorization(d0, d1, 1, "zeroy")
        stats = words.scan_corner_stats(fact, 6, threads=1)
        counts, zeros, sum_ln, _, _ = reference_stats(fact, 6)
        assert list(stats.zero_words) == zeros
        assert sum(stats.zero_words) > 0
        for a, b in zip(stats.sum_ln, sum_ln):
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("name", ["g2", "g3", "g5"])
    @pytest.mark.parametrize("max_len", [0, 1, 5, 6, 7, 13])
    def test_leaf_matches_fold_aggregates(self, name, max_len):
        # q = 1, 2, 3 around the depth LEAF where the walk forms no rows
        # and reads every word off the suffix tables
        ts = (2.0, -0.5)
        fact = fact_for(name)
        stats = words.scan_corner_stats(fact, max_len, ts=ts, threads=1)
        assert_matches(stats, *reference_stats(fact, max_len, ts))

    @pytest.mark.parametrize("name", ["g2", "h4"])
    @pytest.mark.parametrize("max_len", [0, 1, 5, 6, 7, 13])
    def test_sheared_leaf_within_bound(self, name, max_len):
        # the same depths on the nonnegative shears, whose fractions are
        # rounded to float64: q = 1 and 2
        ts = (2.0, -0.5)
        fact = unbalanceable_fact_for(name)
        stats = words.scan_corner_stats(fact, max_len, ts=ts, threads=1)
        assert_within_bound(stats, fact.d0.dim,
                            *reference_stats(fact, max_len, ts))

    @pytest.mark.parametrize("fact,max_len,splits", [
        (fact_for("g3"), 27, False),
        # chunks grow past ROW_CAP rows above the leaf and are split
        (fact_for("g5"), 24, True),
        # a pair with no integral diagonal conjugate, rounded to float64
        (unbalanceable_fact_for("h4"), 27, False),
    ], ids=["g3", "g5-row-cap", "h4-shear"])
    def test_thread_count_does_not_change_bits(self, fact, max_len, splits,
                                               two_cpus):
        assert (row_cap_splits(fact, max_len) > 0) == splits
        one = words.scan_corner_stats(fact, max_len, ts=(1.0,), threads=1)
        words._POOL.drop()
        two = words.scan_corner_stats(fact, max_len, ts=(1.0,), threads=2)
        assert words._POOL.workers == 2
        assert one == two

    def test_max_len_zero(self):
        fact = fact_for("g2")
        stats = words.scan_corner_stats(fact, 0, threads=1)
        assert stats.counts == (1,)
        assert stats.sum_ln == (0.0,)


def row_cap_splits(fact, max_len):
    """Chunks of a scan whose frontier is split at ROW_CAP above the leaf."""
    ctx = words._scan_context(fact, max_len, ())
    prefix_len = words._pick_prefix_len(ctx.q, max_len)
    _, jobs = words._split(ctx, prefix_len)
    tally = words._Tally(max_len, 2)
    return sum(
        len(words._walk(ctx, blocks, prefix_len, tally,
                        stop=max_len - words.LEAF)) > 1
        for _, _, blocks in jobs
    )


@pytest.fixture
def two_cpus(monkeypatch):
    """Let scans use two workers even on a one-CPU machine."""
    monkeypatch.setattr(words, "_usable_cpus", lambda: 2)


class _InProcessPool:
    """Stands in for the fork pool: records its size and the tasks of each
    call, and runs them in-process."""

    def __init__(self, made, processes):
        made.append(processes)
        self.tasks = []

    def imap_unordered(self, func, tasks):
        self.tasks.append(len(tasks))
        return map(func, tasks)

    def terminate(self):
        pass


class TestScanPool:
    def test_serial_below_pool_min_words(self, two_cpus):
        # 1.96e5 words, 3.9e5 terms: in-process, whatever the thread count
        assert sum(words.word_count(2, n) for n in range(25)) * 2 \
            < words.POOL_MIN_TERMS
        words._POOL.drop()
        words.scan_corner_stats(fact_for("g3"), 24, threads=2)
        assert words._POOL.pool is None

    def test_pool_threshold_counts_terms(self, monkeypatch):
        """A scan pools by words * (2 + len(ts)): not g5 at depth 20 (the
        crosscheck's dispersion scan, 266,079 words), but every scan of the
        benchmark's scan workload, the cheapest g3 at depth 28 without t
        samples (1,346,268 words)."""
        made = []
        monkeypatch.setattr(words, "_POOL", words._ScanPool())
        monkeypatch.setattr(
            multiprocessing.get_context("fork"), "Pool",
            lambda processes: _InProcessPool(made, processes),
        )
        monkeypatch.setattr(words, "_usable_cpus", lambda: 2)
        words.scan_corner_stats(fact_for("g5"), 20)
        assert made == []
        words.scan_corner_stats(fact_for("g5"), 20, ts=(1.0,) * 6)
        assert made == [2]
        assert sum(words.word_count(3, n) for n in range(26)) == 5_600_910
        words.scan_corner_stats(fact_for("g3"), 28)
        assert words._POOL.pool.tasks == [2, 2]

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        made = []
        monkeypatch.setattr(words, "_POOL", words._ScanPool())
        monkeypatch.setattr(
            multiprocessing.get_context("fork"), "Pool",
            lambda processes: _InProcessPool(made, processes),
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        fact = fact_for("g3")
        serial = words.scan_corner_stats(fact, 28, threads=1)
        assert words.scan_corner_stats(fact, 28, threads=4096) == serial
        assert made == [3]
        # without sched_getaffinity the cap is os.cpu_count(); the default
        # thread count is the cap
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert words.scan_corner_stats(fact, 28) == serial
        assert made == [3, 5]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_task_per_worker(self, threads, monkeypatch):
        made = []
        monkeypatch.setattr(words, "_POOL", words._ScanPool())
        monkeypatch.setattr(
            multiprocessing.get_context("fork"), "Pool",
            lambda processes: _InProcessPool(made, processes),
        )
        monkeypatch.setattr(words, "_usable_cpus", lambda: 3)
        fact = fact_for("h4")
        serial = words.scan_corner_stats(fact, 26, ts=(2.0, -0.5), threads=1)
        pooled = words.scan_corner_stats(fact, 26, ts=(2.0, -0.5),
                                         threads=threads)
        assert pooled == serial
        assert made == [threads]
        assert words._POOL.pool.tasks == [threads]

    def test_back_to_back_scans_share_the_pool(self, two_cpus):
        # scans of other families, ts and depths run on the same workers
        cases = [
            (fact_for("g3"), 27, (1.0,)),
            (fact_for("h4"), 27, (1.0,)),
            (fact_for("h4"), 26, (2.0, -0.5)),
            (fact_for("h4"), 27, (2.0, -0.5)),
            (unbalanceable_fact_for("h4"), 27, (1.0,)),
            (fact_for("g5"), 23, ()),
        ]
        serial = [words.scan_corner_stats(f, n, ts=ts, threads=1)
                  for f, n, ts in cases]
        pooled = [words.scan_corner_stats(f, n, ts=ts, threads=2)
                  for f, n, ts in cases]
        assert words._POOL.workers == 2
        for one, two in zip(serial, pooled):
            assert one == two

    def test_failed_scan_drops_the_pool(self, two_cpus, monkeypatch):
        fact = fact_for("g3")
        serial = words.scan_corner_stats(fact, 28, threads=1)

        walk = words._walk

        def fail(ctx, blocks, depth, tally, stop=None):
            # the caller's split walks with a stop; only the chunks fail
            if stop is None:
                raise RuntimeError("chunk failed")
            return walk(ctx, blocks, depth, tally, stop)

        # workers forked now carry the failing _walk
        words._POOL.drop()
        with monkeypatch.context() as patch:
            patch.setattr(words, "_walk", fail)
            with pytest.raises(RuntimeError, match="chunk failed"):
                words.scan_corner_stats(fact, 28, threads=2)
        assert words._POOL.pool is None
        assert words.scan_corner_stats(fact, 28, threads=2) == serial

        merge = words._Tally.merge
        merges = []

        def interrupt(self, totals):
            # the first merge takes the short words, before the pool runs
            merges.append(totals)
            if len(merges) == 2:
                raise KeyboardInterrupt
            merge(self, totals)

        with monkeypatch.context() as patch:
            patch.setattr(words._Tally, "merge", interrupt)
            with pytest.raises(KeyboardInterrupt):
                words.scan_corner_stats(fact, 28, threads=2)
        assert words._POOL.pool is None
        assert words.scan_corner_stats(fact, 28, threads=2) == serial

    def test_forked_child_makes_its_own_pool(self, two_cpus):
        fact = fact_for("g3")
        serial = words.scan_corner_stats(fact, 28, threads=1)
        words.scan_corner_stats(fact, 28, threads=2)
        assert words._POOL.pool is not None

        def child():
            stats = words.scan_corner_stats(fact, 28, threads=2)
            sys.exit(0 if stats == serial else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        assert proc.exitcode == 0

    def test_threads_take_turns_on_the_pool(self, monkeypatch):
        # scans from two threads asking for 2 and 3 workers: each switch
        # replaces the pool, which must not happen under the other's scan
        monkeypatch.setattr(words, "_usable_cpus", lambda: 3)
        fact = fact_for("g3")
        serial = words.scan_corner_stats(fact, 28, threads=1)
        results = []

        def scans(workers):
            for _ in range(3):
                results.append(words.scan_corner_stats(fact, 28, threads=workers))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=scans, args=(n,), daemon=True)
                       for n in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 6

    def test_pooled_scan_exits_cleanly(self):
        code = (
            "from lyapdisp import catalog, conjugate, words\n"
            "words._usable_cpus = lambda: 2\n"
            "fam = catalog.get_family('g3')\n"
            "fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, 'g3')\n"
            "words.scan_corner_stats(fact, 28, threads=2)\n"
            "assert words._POOL.pool is not None\n"
        )
        src = pathlib.Path(words.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestScanPath:
    def test_unbalanceable_pair_is_scanned_as_given(self):
        # a pair with no integral diagonal conjugate is rounded as it is; a
        # diagonal conjugate of an integer pair is scanned on an integer pair
        fact = unbalanceable_fact_for("h4")
        assert exactmat.diagonal_balance(fact.d0.rows, fact.d1.rows) is None
        ctx = words._scan_context(fact, 19, ())
        assert ctx.d0.tolist() == fact.d0.to_float().tolist()
        assert ctx.d1.tolist() == fact.d1.to_float().tolist()
        conj = words._scan_context(conjugated_fact_for("g3"), 19, ())
        for field in ("d0", "d1", "w1", "beta"):
            assert all(x.is_integer() for x in getattr(conj, field).flat)

    def test_deep_integer_family_within_bound(self):
        # g2's corner on 1^k is (2^(k+2) - (-1)^k) / 3, past 2^53 from k = 52
        fact = fact_for("g2")
        stats = words.scan_corner_stats(fact, 60, threads=1)
        for k in range(61):
            corner = (2 ** (k + 2) - (-1) ** k) // 3
            assert stats.sum_ln[k] == pytest.approx(math.log(corner), rel=1e-14)

    def test_corners_past_the_float_range_raise(self):
        # g1's corner on 1^k is 2^k: 2^1023 is the largest power of two a
        # float64 holds
        fact = fact_for("g1")
        stats = words.scan_corner_stats(fact, 1023, threads=1)
        assert stats.sum_ln[1023] == pytest.approx(1023 * math.log(2), rel=1e-15)
        with pytest.raises(OverflowError):
            words.scan_corner_stats(fact, 1024, threads=1)

    def test_corners_that_could_underflow_are_refused(self):
        # the corner of 1^k is 2^-60k: 2^-1020 at k = 17 is a normal float,
        # 2^-1080 at k = 18 is below even the subnormals
        tiny = conjugate.sentinel_factorization(
            RationalMatrix([[1]]), RationalMatrix([[Fraction(1, 2**60)]]), 1,
            "tiny")
        stats = words.scan_corner_stats(tiny, 17, threads=1)
        assert stats.sum_ln == pytest.approx(
            [-60 * k * math.log(2) for k in range(18)], rel=1e-15)
        with pytest.raises(FloatingPointError):
            words.scan_corner_stats(tiny, 18, threads=1)

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_entry_bound_covers_every_row(self, name):
        # every row and corner of a scan to 14 is an integer below 2^53, so
        # the float64 scan of a built-in is exact there
        max_len = 14
        fact = fact_for(name)
        d0 = [[int(x) for x in row] for row in fact.d0.rows]
        d1 = [[int(x) for x in row] for row in fact.d1.rows]
        alpha = [int(x) for x in fact.alpha]
        m = fact.d0.dim

        def times(row, mat):
            return [sum(row[i] * mat[i][j] for i in range(m)) for j in range(m)]

        def corner(row):
            return sum(r * a for r, a in zip(times(row, d1), alpha))

        # every live prefix of length < max_len, with its trailing zero run
        largest = 0
        stack = [([int(x) for x in fact.beta], 0, 0)]
        while stack:
            row, run, depth = stack.pop()
            largest = max(largest, *map(abs, row), abs(corner(row)))
            if depth + 1 < max_len:
                stack.append((times(row, d1), 0, depth + 1))
                if run + 1 < fact.q:
                    stack.append((times(row, d0), run + 1, depth + 1))
        ctx = words._scan_context(fact, max_len, ())
        # every suffix-table entry: D_u w1 for each u with |u| < LEAF that
        # may follow r zeros, i.e. 0^r u 1 has no factor 0^q
        cols = {"0": [[int(x) for x in row] for row in ctx.d0],
                "1": [[int(x) for x in row] for row in ctx.d1]}
        for r, tables in enumerate(ctx.suffixes):
            assert len(tables) == words.LEAF
            for k, table in enumerate(tables):
                want = []
                for u in map("".join, product("01", repeat=k)):
                    if "0" * fact.q in "0" * r + u + "1":
                        continue
                    vec = [int(x) for x in ctx.w1]
                    for symbol in reversed(u):
                        vec = list(exactmat.row_times(vec, cols[symbol]))
                    want.append(vec)
                got = [[int(x) for x in row] for row in table]
                assert sorted(got) == sorted(want)
                largest = max(largest, *(abs(x) for vec in want for x in vec))
        assert largest < 2**53

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_conjugated_sums_match_parent(self, name):
        # a diagonal conjugate balances back to an integer pair with the
        # same corners, so its scan is the parent's bit for bit
        ts = (2.0, -0.5)
        base = words.scan_corner_stats(fact_for(name), 19, ts=ts, threads=1)
        rng = random.Random(name)
        dim = catalog.get_family(name).dim
        facts = [conjugated_fact_for(name)]
        facts += [conjugated_fact_for(name, random_diagonal(dim, rng))
                  for _ in range(3)]
        for fact in facts:
            for threads in (1, 2):
                assert words.scan_corner_stats(
                    fact, 19, ts=ts, threads=threads) == base

    @pytest.mark.parametrize("name", ["g3", "h4", "g5"])
    def test_unbalanceable_sums_match_parent(self, name):
        # the shear has the parent's corners, rounded from fractions: the
        # sums agree within the scan's bound.  g3 and g5 turn signed under
        # it, and the bound needs nonnegative entries.
        ts = (2.0, -0.5)
        fact = unbalanceable_fact_for(name)
        if name != "h4":
            with pytest.raises(ValueError, match="negative entry"):
                words.scan_corner_stats(fact, 19, ts=ts, threads=1)
            return
        base = words.scan_corner_stats(fact_for(name), 19, ts=ts, threads=1)
        for threads in (1, 2):
            stats = words.scan_corner_stats(fact, 19, ts=ts, threads=threads)
            assert_within_bound(stats, fact.d0.dim, list(base.counts),
                                list(base.zero_words), base.sum_ln,
                                base.sum_ln2, base.pow_sums)

    @pytest.mark.parametrize("fact", [
        *map(fact_for, catalog.family_names()), unbalanceable_fact_for("h4"),
        fractional_fact(),
    ], ids=[*catalog.family_names(), "h4-shear", "fractional"])
    def test_pow_sums_match_exact_slabs(self, fact):
        # sum phi^t per length at t = 1, 2 against the exact sums of the
        # Kronecker-power recurrence: each term is within t (e + 2 M 2^-52)
        # relative (see assert_within_bound), M <= sqrt(sum ln^2)
        stats = words.scan_corner_stats(fact, 20, ts=(1.0, 2.0), threads=1)
        u = 2.0**-53
        for t, got in zip((1, 2), stats.pow_sums):
            for length, want in enumerate(oracles.slab_sums(fact, t, 20)):
                e = ((length + 1) * (fact.d0.dim + 1) + 1) * u
                top = math.sqrt(stats.sum_ln2[length])
                assert abs(got[length] - want) <= float(want) * (
                    t * (e + 4 * top * u) + 64 * u)
