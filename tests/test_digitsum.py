"""Digital sums, fluctuation functions, GF(2) counts, representations."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from lyapdisp import catalog, conjugate, exactmat, digitsum as ds
from lyapdisp.digitsum import LinearRepresentation, NoRepresentationFound
from lyapdisp.exactmat import RationalMatrix


def random_ns(lo_bits: int, count: int = 10**4) -> list[int]:
    rng = random.Random(lo_bits)
    return [rng.randrange(1 << lo_bits, 1 << (lo_bits + 1)) for _ in range(count)]


class TestSummatoryFunctions:
    def test_small_values(self):
        assert ds.summatory_digit_sum(1) == 0
        assert ds.summatory_digit_sum(4) == 4
        assert ds.summatory_f(1) == 1
        assert ds.summatory_f(4) == 9

    def test_brute_force_up_to_2_16(self):
        acc_s, acc_f = 0, 0
        for n in range(1, 1 << 16):
            acc_s += (n - 1).bit_count()
            acc_f += 1 << (n - 1).bit_count()
            assert ds.summatory_digit_sum(n) == acc_s
            assert ds.summatory_f(n) == acc_f

    def test_power_of_two_closed_forms(self):
        for j in range(1, 40):
            assert ds.summatory_digit_sum(2**j) == j * 2 ** (j - 1)
            assert ds.summatory_f(2**j) == 3**j


class TestFluctuationFunctions:
    def test_phi_zero_at_powers(self):
        for j in range(1, 30):
            assert ds.phi(2**j) == 0.0

    def test_psi_one_at_powers(self):
        for j in range(1, 30):
            assert ds.psi(2**j) == 1.0

    def test_bitwise_periodicity(self):
        for n in (3, 5, 7, 11, 100, 12345, 999999):
            assert ds.phi(n) == ds.phi(2 * n)
            assert ds.psi(n) == ds.psi(2 * n)
            x_n = oracles.phi_parts(n, ds.summatory_digit_sum(n))[0]
            assert x_n == oracles.phi_parts(2 * n, ds.summatory_digit_sum(2 * n))[0]

    def test_matches_definition(self):
        for n in (3, 6, 17, 1000, 54321):
            direct_phi = ds.summatory_digit_sum(n) / n - math.log2(n) / 2
            assert ds.phi(n) == pytest.approx(direct_phi, abs=1e-12)
            direct_psi = ds.summatory_f(n) / n ** math.log2(3.0)
            assert ds.psi(n) == pytest.approx(direct_psi, rel=1e-12)

    def test_ranges(self):
        for n in range(2, 4096):
            assert ds.phi(n) <= 0.0
            assert 0.0 < ds.psi(n) <= 1.0

    def test_range_violations_raise(self, monkeypatch):
        # explicit checks rather than asserts, so `python -O` keeps them
        monkeypatch.setattr(ds, "summatory_digit_sum", lambda n: n * n)
        with pytest.raises(ArithmeticError, match="phi"):
            ds.phi(6)
        monkeypatch.setattr(ds, "summatory_f", lambda n: 0)
        with pytest.raises(ArithmeticError, match="psi"):
            ds.psi(6)

    def test_sample_fields(self):
        # x is the fractional part of log2(n), the abscissa of the samples
        x, value = oracles.phi_parts(6, ds.summatory_digit_sum(6))
        assert x == pytest.approx(math.log2(1.5))
        assert value == ds.phi(6)
        x, value = oracles.psi_parts(6, ds.summatory_f(6))
        assert x == pytest.approx(math.log2(1.5))
        assert value == ds.psi(6)

    @pytest.mark.parametrize("bits", [54, 64, 65, 88, 89, 90])
    def test_scalar_values_equal_oracle_past_2_53(self, bits):
        """phi(n) and psi(n) stay exact where n, S(n) or Sf(n) leave the
        float64 and int64 ranges: past 2^53, past 2^63 and near 2^89."""
        rng = random.Random(bits)
        ns = [(1 << (bits - 1)) + 1, (1 << bits) - 1]
        ns += [rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(50)]
        for n in ns:
            assert ds.phi(n) == oracles.phi_parts(n, ds.summatory_digit_sum(n))[1]
            assert ds.psi(n) == oracles.psi_parts(n, ds.summatory_f(n))[1]


def full_range_extremes(kind: str, j_max: int) -> tuple[int, int]:
    """Reference for `ds._scan_extremes`: the first n in [2, 2^j_max] taking
    the minimum and the maximum, by evaluating every n in 1 M-element chunks
    with j and f read off each n by frexp."""
    lo, top, chunk = 2, (1 << j_max) + 1, 1 << 20
    running = ds.summatory_digit_sum(lo) if kind == "phi" else ds.summatory_f(lo)
    best_min, best_min_at = math.inf, lo
    best_max, best_max_at = -math.inf, lo
    while lo < top:
        ns = np.arange(lo, min(lo + chunk, top), dtype=np.int64)
        pops = np.bitwise_count(ns).astype(np.int64)
        increments = pops if kind == "phi" else np.int64(1) << pops
        cums = np.cumsum(increments)
        s_vals = running + cums - increments
        mant, exp = np.frexp(ns.astype(np.float64))
        j, f = exp - 1, 2.0 * mant
        if kind == "phi":
            values = (2 * s_vals - j * ns) / (2.0 * ns) - 0.5 * np.log2(f)
        else:
            values = s_vals / np.power(3.0, j) * np.power(f, -ds.LOG2_3)
        k = int(values.argmin())
        if values[k] < best_min:
            best_min, best_min_at = values[k], int(ns[k])
        k = int(values.argmax())
        if values[k] > best_max:
            best_max, best_max_at = values[k], int(ns[k])
        running += int(cums[-1])
        lo += chunk
    return best_min_at, best_max_at


class TestFluctuationScans:
    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("j", [12, 23])
    def test_chunk_values_are_bitwise_periodic(self, kind, j):
        """The premise of the one-octave extremes scan: value(2n) == value(n)
        bit for bit for every n of the octave [2^j, 2^(j+1))."""
        for ns, sums in oracles.octave_sums(kind, j):
            doubled = 2 * sums + ns if kind == "phi" else 3 * sums
            here = ds._chunk_values(kind, j, ns, sums)
            there = ds._chunk_values(kind, j + 1, 2 * ns, doubled)
            assert np.array_equal(here, there)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_extremes_match_full_range_scan(self, kind):
        for j_max in range(2, 21):
            samples = ds._log_uniform_samples(j_max - 1, 64)
            assert ds._scan_extremes(kind, j_max, samples)[:2] == \
                full_range_extremes(kind, j_max), j_max

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("j_max", [21, 22, 23, 24, 25, 26])
    def test_pruned_scan_matches_full_sweep(self, kind, j_max):
        """Skipping chunks changes nothing: the positions and the sums at
        the default samples equal those of a sweep over every chunk, for
        chunks of 2^10 to 2^12 points."""
        samples = ds._log_uniform_samples(j_max - 1, 1 << 16)
        inf_at, sup_at, sums = ds._scan_extremes(kind, j_max, samples)
        want_inf_at, want_sup_at, want_sums = oracles.sweep_extremes(
            kind, j_max, samples)
        assert (inf_at, sup_at) == (want_inf_at, want_sup_at)
        assert np.array_equal(sums, want_sums)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_pruned_scan_carries_sums_across_blocks(self, kind, monkeypatch):
        """With 8-point chunks in blocks of 8 chunks, the running sums cross
        up to 2047 block boundaries and still give the sweep's positions
        and sample sums, which touch every chunk."""
        monkeypatch.setattr(ds, "CHUNK_BITS", 3)
        for j_max in range(10, 19):
            samples = ds._log_uniform_samples(j_max - 1, 1 << 16)
            inf_at, sup_at, sums = ds._scan_extremes(kind, j_max, samples)
            want_inf_at, want_sup_at, want_sums = oracles.sweep_extremes(
                kind, j_max, samples)
            assert (inf_at, sup_at) == (want_inf_at, want_sup_at), j_max
            assert np.array_equal(sums, want_sums), j_max

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("j_max", [30, 34])
    def test_chunk_width_changes_nothing(self, kind, j_max, monkeypatch):
        """The positions and sample sums under `_chunk_bits` equal those
        under chunks of 2^CHUNK_BITS points, past the sweeps' reach."""
        samples = ds._log_uniform_samples(j_max - 1, 1 << 16)
        inf_at, sup_at, sums = ds._scan_extremes(kind, j_max, samples)
        monkeypatch.setattr(ds, "_chunk_bits",
                            lambda j: min(ds.CHUNK_BITS, j))
        want_inf_at, want_sup_at, want_sums = ds._scan_extremes(
            kind, j_max, samples)
        assert (inf_at, sup_at) == (want_inf_at, want_sup_at)
        assert np.array_equal(sums, want_sums)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_chunk_values_lie_in_their_bounds(self, kind):
        """Every chunk's values, from the full sweep, lie within
        SCAN_SLACK of the interval `_chunk_bounds` gives it, and the
        starts and digit sums it reports are the sweep's."""
        for j_max in range(12, 21):
            j = j_max - 1
            b = ds._chunk_bits(j)
            # at most 2^10 chunks here, so one block
            (hs, pops, starts, lower, upper), = ds._chunk_bounds(
                kind, j, b, ds._low_sums(kind, b))
            swept = list(oracles.octave_sums(kind, j, b))
            assert len(swept) == len(hs)
            assert pops.tolist() == [h.bit_count() for h in hs.tolist()]
            for k, (ns, sums) in enumerate(swept):
                assert ns[0] == hs[k] << b and sums[0] == starts[k]
                values = ds._chunk_values(kind, j, ns, sums)
                assert lower[k] - ds.SCAN_SLACK <= values.min(), (j_max, k)
                assert values.max() <= upper[k] + ds.SCAN_SLACK, (j_max, k)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_wrong_bounds_raise(self, kind, monkeypatch):
        """The runtime checks behind the pruning: an evaluated chunk below
        its lower bound, or no chunk reaching the levels, raises."""
        bounds = ds._chunk_bounds
        samples = ds._log_uniform_samples(19, 64)

        def shifted(lower_by, upper_by):
            def wrong(*args):
                for hs, pops, starts, lower, upper in bounds(*args):
                    yield hs, pops, starts, lower + lower_by, upper + upper_by
            return wrong

        monkeypatch.setattr(ds, "_chunk_bounds", shifted(1.0, 0.0))
        with pytest.raises(ArithmeticError, match="outside its bound"):
            ds._scan_extremes(kind, 20, samples)
        monkeypatch.setattr(ds, "_chunk_bounds", shifted(1.0, -1.0))
        with pytest.raises(ArithmeticError, match="miss the chunk-start"):
            ds._scan_extremes(kind, 20, samples)

    @pytest.mark.parametrize("j", [1, 3, 10, 23])
    def test_log_uniform_samples_are_the_sorted_distinct_grid(self, j):
        for count in (1, 7, 64, 1 << 16):
            grid = np.round(2.0 ** (j + np.arange(count + 1) / count))
            want = np.unique(np.clip(grid.astype(np.int64), 1 << j,
                                     (1 << (j + 1)) - 1))
            assert np.array_equal(ds._log_uniform_samples(j, count), want)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_sup_sits_at_two(self, kind):
        """Powers of two take the supremum; the smallest of them in the
        scanned range [2, 2^j_max] is 2, which pins the odd-part rule."""
        for j_max in range(2, 25):
            samples = np.array([1 << (j_max - 1)], dtype=np.int64)
            assert ds._scan_extremes(kind, j_max, samples)[1] == 2, j_max

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("j_max", [16, 20])
    def test_extremes_are_scalar_values(self, kind, j_max):
        stats, point = ((ds.phi_statistics, ds.phi) if kind == "phi"
                        else (ds.psi_statistics, ds.psi))
        scan = stats(j_max=j_max, samples_per_octave=64)
        assert scan.inf == point(scan.inf_at)
        assert scan.sup == point(scan.sup_at)

    def test_phi_quick_scan(self):
        scan = ds.phi_statistics(j_max=16, samples_per_octave=4096)
        assert scan.sup == 0.0
        assert scan.inf == pytest.approx(
            math.log(3) / (2 * math.log(2)) - 1, abs=1e-3
        )
        assert scan.mean == pytest.approx(-0.1455994557, abs=5e-3)
        top = dict(scan.percentiles)[100.0]
        assert abs(top) < 5e-3
        mass = sum(m for _, _, m in scan.histogram)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_psi_quick_scan(self):
        scan = ds.psi_statistics(j_max=16, samples_per_octave=4096)
        assert scan.sup == 1.0
        assert scan.inf == pytest.approx(0.8125565590, abs=1e-3)
        assert scan.mean == pytest.approx(0.8636049964, abs=5e-3)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_samples_equal_scalar_values(self, kind):
        stats = ds.phi_statistics if kind == "phi" else ds.psi_statistics
        point = ds.phi if kind == "phi" else ds.psi
        parts, summatory = ((oracles.phi_parts, ds.summatory_digit_sum)
                            if kind == "phi" else (oracles.psi_parts, ds.summatory_f))
        scan = stats(j_max=16)
        ns = scan.sample_n.tolist()
        expected = [parts(n, summatory(n)) for n in ns]
        assert scan.sample_value.tolist() == [point(n) for n in ns]
        assert scan.sample_value.tolist() == [v for _, v in expected]
        assert scan.sample_x.tolist() == [x for x, _ in expected]

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_samples_across_chunks(self, kind):
        """At j_max = 20 the scan cuts the top octave into 1024 chunks of
        512 points; the sums it reads off at samples on either side of every
        chunk edge, and the values formed from them, equal the oracle.  The
        5,000-odd samples span two 4096-sample blocks."""
        parts, summatory = ((oracles.phi_parts, ds.summatory_digit_sum)
                            if kind == "phi" else (oracles.psi_parts, ds.summatory_f))
        j = 19
        chunk = 1 << ds._chunk_bits(j)
        edges = [(1 << j) + k * chunk + d
                 for k in range((1 << j) // chunk + 1) for d in (-1, 0, 1)]
        samples = np.unique(np.concatenate([
            ds._log_uniform_samples(j, 2000),
            np.clip(edges, 1 << j, (1 << (j + 1)) - 1)])).astype(np.int64)
        _, _, sums = ds._scan_extremes(kind, j + 1, samples)
        assert sums.tolist() == [summatory(n) for n in samples.tolist()]
        xs, values = ds._sample_parts(kind, j, samples, sums)
        expected = [parts(n, summatory(n)) for n in samples.tolist()]
        assert xs.tolist() == [x for x, _ in expected]
        assert values.tolist() == [v for _, v in expected]

    @pytest.mark.parametrize("kind,j", [("phi", 39), ("psi", 35), ("psi", 37)])
    def test_sample_parts_past_2_53(self, kind, j):
        """Sf(n) passes 2^53 above j = 33; the sampled values still equal the
        scalar oracle bit for bit."""
        parts, summatory = ((oracles.phi_parts, ds.summatory_digit_sum)
                            if kind == "phi" else (oracles.psi_parts, ds.summatory_f))
        ns = np.array(sorted(random_ns(j, 2000)), dtype=np.int64)
        sums = np.array([summatory(n) for n in ns.tolist()], dtype=np.int64)
        xs, values = ds._sample_parts(kind, j, ns, sums)
        expected = [parts(n, summatory(n)) for n in ns.tolist()]
        assert xs.tolist() == [x for x, _ in expected]
        assert values.tolist() == [v for _, v in expected]

    def test_sample_range_violations_raise(self):
        ns = np.array([6, 7], dtype=np.int64)
        with pytest.raises(ArithmeticError, match="phi\\(6\\)"):
            ds._sample_parts("phi", 2, ns, ns * ns)
        with pytest.raises(ArithmeticError, match="psi\\(6\\)"):
            ds._sample_parts("psi", 2, ns, 0 * ns)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_memory_stays_at_a_few_sample_arrays(self, kind):
        """Besides the three 65,537-sample arrays returned (1.5 MB), no step
        holds more than a few arrays of that size, nor a 2^16-point chunk:
        the traced peak stays under 5 MB."""
        stats = ds.phi_statistics if kind == "phi" else ds.psi_statistics
        stats(24)
        tracemalloc.start()
        try:
            stats(24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_csv_rows(self):
        scan = ds.phi_statistics(j_max=10, samples_per_octave=256)
        rows = list(scan.samples_csv_rows())
        assert rows[0] == "n,x,value"
        assert len(rows) > 100
        hist = list(scan.histogram_csv_rows())
        assert hist[0] == "bin_lo,bin_hi,mass"

    def test_guards(self):
        with pytest.raises(ValueError):
            ds.phi_statistics(j_max=50)


class TestGf2RowCounts:
    def test_binary_poly_matches_digit_sums(self):
        counts = list(ds.gf2_row_counts(0b11, 1 << 12))
        for n in range(1 << 12):
            assert counts[n] == 1 << n.bit_count()

    def test_first_counts_of_three_term_poly(self):
        assert list(ds.gf2_row_counts(0b111, 5)) == [1, 3, 3, 5, 3]

    def test_count_zero_is_one(self):
        for mask in (0b11, 0b111, 0b1011, 0b1111111):
            assert next(ds.gf2_row_counts(mask, 1)) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            list(ds.gf2_row_counts(0, 4))
        with pytest.raises(ValueError):
            list(ds.gf2_row_counts(0b11, (1 << 18) + 1))

    def test_matches_direct_products_every_small_mask(self):
        for mask in range(1, 256):
            assert list(ds.gf2_row_counts(mask, 1024)) == \
                list(oracles.gf2_row_counts_direct(mask, 1024)), hex(mask)

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_matches_direct_products_builtin_masks(self, name):
        mask = catalog.get_family(name).poly_mask
        assert list(ds.gf2_row_counts(mask, 4096)) == \
            list(oracles.gf2_row_counts_direct(mask, 4096))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 8, 9])
    def test_yields_exactly_n_max_counts(self, n_max):
        assert list(ds.gf2_row_counts(0b1011, n_max)) == \
            list(oracles.gf2_row_counts_direct(0b1011, n_max))


def permuted_h4() -> catalog.MatrixFamily:
    """h4 with its states reordered: P^T D P for a permutation P."""
    fam = catalog.get_family("h4")
    perm = [3, 7, 0, 5, 1, 6, 2, 4]

    def permuted(matrix):
        return RationalMatrix([[matrix.rows[i][j] for j in perm] for i in perm])

    return catalog.MatrixFamily(
        name="h4-permuted", q=fam.q, d0=permuted(fam.d0),
        d1=permuted(fam.d1), poly_mask=fam.poly_mask,
    )


def folded_counts(fam: catalog.MatrixFamily, u, v, n_top: int) -> list:
    """u D_{z(n)} v for every n < n_top by exact products: U(0) = u is the
    empty word and U(n) = U(n >> 1) D_{n & 1} appends the last digit."""
    scaled = [exactmat.int_rows(mat.rows) for mat in (fam.d0, fam.d1)]
    assert all(den == 1 for _, den in scaled)
    cols = [tuple(zip(*rows)) for rows, _ in scaled]
    (u_int,), u_den = exactmat.int_rows([u])
    (v_int,), v_den = exactmat.int_rows([v])
    rows = [tuple(u_int)]
    for n in range(1, n_top):
        rows.append(exactmat.row_times(rows[n >> 1], cols[n & 1]))
    return [Fraction(exactmat.dot(row, v_int), u_den * v_den) for row in rows]


def shear_family() -> catalog.MatrixFamily:
    """A hand-made 2x2 pair; nothing about it is a count of GF(2) rows."""
    return catalog.MatrixFamily(
        name="shear", q=1, d0=RationalMatrix([[1, 1], [0, 1]]),
        d1=RationalMatrix([[2, 0], [1, 1]]), poly_mask=0b11,
    )


class TestLinearRepresentation:
    def test_binomial_trivial(self):
        rep = ds.fit_linear_representation("g1", 64)
        assert rep.u == (1,)
        assert rep.v == (1,)

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_fit_validates_against_oracle(self, name):
        fam = catalog.get_family(name)
        rep = ds.fit_linear_representation(fam, 2048)
        assert rep.validated_n == 2048
        fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q)
        assert rep.u == fact.beta
        assert rep.v == fact.alpha
        counts = ds.counts_via_representation(fam, rep, 2048)
        oracle = list(ds.gf2_row_counts(fam.poly_mask, 2048))
        assert counts.tolist() == oracle

    def test_fit_is_basis_free(self):
        """P^T D P for a permutation P moves the states; beta^T D_w alpha
        stays the count, so the fit still validates."""
        fam = catalog.get_family("h4")
        moved = permuted_h4()
        rep = ds.fit_linear_representation(moved, 4096)
        assert rep.v != ds.fit_linear_representation(fam, 4096).v
        counts = ds.counts_via_representation(moved, rep, 4096)
        assert counts.tolist() == list(ds.gf2_row_counts(fam.poly_mask, 4096))

    def test_wrong_pairing_rejected(self):
        from dataclasses import replace

        fake = replace(catalog.get_family("g2"), poly_mask=0b1111)
        with pytest.raises(NoRepresentationFound, match="no exact digit representation"):
            ds.fit_linear_representation(fake, 512)

    def test_n_check_floor(self):
        with pytest.raises(ValueError):
            ds.fit_linear_representation("g2", 4)

    def test_json_dict(self):
        rep = ds.fit_linear_representation("g2", 256)
        data = rep.to_json_dict()
        assert data["digit_order"] == "msb"
        assert data["validated_n"] == 256


def big_family() -> catalog.MatrixFamily:
    big = 1 << 40
    return catalog.MatrixFamily(
        name="big", q=1, d0=RationalMatrix([[1, 0], [big, big]]),
        d1=RationalMatrix([[big, 1], [0, 1]]), poly_mask=0b11,
    )


def wide_family(d1_entry: int) -> catalog.MatrixFamily:
    """1x1, rank 1 and trace 1, so `fit` gets as far as its int64 tables."""
    return catalog.MatrixFamily(
        name="wide", q=1, d0=RationalMatrix([[1]]),
        d1=RationalMatrix([[d1_entry]]), poly_mask=0b11,
    )


class TestWordProducts:
    """The int64 tables and the exact float64 product behind
    `counts_via_representation`."""

    @pytest.mark.parametrize("fam", [
        *(catalog.get_family(name) for name in catalog.family_names()),
        permuted_h4(),
    ], ids=lambda fam: fam.name)
    def test_counts_match_exact_fold(self, fam):
        rep = ds.fit_linear_representation(fam)
        counts = ds.counts_via_representation(fam, rep, 1 << 13)
        assert counts.tolist() == folded_counts(fam, rep.u, rep.v, 1 << 13)

    @pytest.mark.parametrize("n_top", [1, 2, 3, 1000, 1 << 13])
    def test_short_words_keep_their_seed(self, n_top):
        """u D0 != u here, so a count of n < 2^lo read through a leading-zero
        column would differ; halves in u exercise the common denominator."""
        fam = shear_family()
        u, v = (Fraction(1, 2), Fraction(1, 2)), (2, 2)
        assert exactmat.row_times(u, tuple(zip(*fam.d0.rows))) != u
        rep = LinearRepresentation(family="shear", u=u, v=v, validated_n=0)
        counts = ds.counts_via_representation(fam, rep, n_top)
        assert counts.tolist() == folded_counts(fam, u, v, n_top)

    @pytest.mark.parametrize("bits", [2, 4])
    def test_blocks_may_split_rows(self, monkeypatch, bits):
        """Blocks shorter than a row of the product (2^5 counts for
        n_top = 1000) start inside rows, the first row included, and give
        the same counts."""
        monkeypatch.setattr(ds, "BLOCK_BITS", bits)
        fam = catalog.get_family("h4")
        rep = ds.fit_linear_representation(fam)
        counts = ds.counts_via_representation(fam, rep, 1000)
        assert counts.tolist() == folded_counts(fam, rep.u, rep.v, 1000)

    def test_fractional_counts_raise(self):
        rep = LinearRepresentation(family="shear", u=(Fraction(1, 2), 0),
                                   v=(1, 0), validated_n=0)
        with pytest.raises(ArithmeticError, match="integer counts"):
            ds.counts_via_representation(shear_family(), rep, 64)

    def test_n_top_limit(self):
        """At most 2^23 counts, whatever the dimension: h4 (8) and g1 (1)."""
        for name in ("h4", "g1"):
            fam = catalog.get_family(name)
            rep = ds.fit_linear_representation(fam)
            with pytest.raises(
                ValueError, match="2\\^24 counts exceed the limit 2\\^23"
            ):
                ds.counts_via_representation(fam, rep, (1 << 23) + 1)

    def test_fractional_family_is_refused(self):
        fam = catalog.get_family("g2")
        half = RationalMatrix([[x / 2 for x in row] for row in fam.d1.rows])
        fractional = catalog.MatrixFamily(
            name="half", q=fam.q, d0=fam.d0, d1=half, poly_mask=0)
        with pytest.raises(ValueError, match="integer matrices"):
            ds._int_matrices(fractional)

    @pytest.mark.parametrize("name", catalog.family_names())
    @pytest.mark.parametrize("order", ["lsb", "msb"])
    def test_matches_exact_products(self, name, order):
        """Seeded with the identity, the table holds D_{z(n)} with the most
        significant digit first; on the transposed pair it holds the
        transposes of the products with the least significant digit first."""
        fam = catalog.get_family(name)
        d0, d1 = ds._int_matrices(fam)
        eye = np.eye(fam.dim, dtype=np.int64)
        if order == "lsb":
            stack = ds._doubling_table(eye, (d0.T, d1.T), 6).transpose(0, 2, 1)
        else:
            stack = ds._doubling_table(eye, (d0, d1), 6)
        assert stack.shape == (64, fam.dim, fam.dim)
        for n in range(64):
            digits = [(n >> i) & 1 for i in range(n.bit_length())]
            if order == "msb":
                digits.reverse()
            product = np.identity(fam.dim, dtype=object)
            for d in digits:
                product = product @ np.array((fam.d1 if d else fam.d0).rows,
                                             dtype=object)
            assert stack[n].tolist() == [[int(x) for x in row]
                                         for row in product.tolist()]

    def test_overflow_raises(self):
        wide = wide_family(1 << 40)
        rep = LinearRepresentation(family="wide", u=(1,), v=(1,), validated_n=0)
        with pytest.raises(OverflowError):
            ds.counts_via_representation(wide, rep, 64)
        with pytest.raises(OverflowError):
            ds.fit_linear_representation(wide, 64)

    def test_entry_past_int64_raises(self):
        with pytest.raises(OverflowError):
            ds.fit_linear_representation(wide_family(1 << 64), 4)

    def test_column_sum_past_int64_raises(self):
        """D1's first column sums to 3 * 2^62, which wraps around in int64;
        the bound must still see it, or count(1) wraps to -2^62."""
        big = 1 << 62
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        fam = catalog.MatrixFamily(
            name="tall", q=1, d0=RationalMatrix(eye),
            d1=RationalMatrix([[big, 0, 0]] * 3), poly_mask=0b11,
        )
        rep = LinearRepresentation(family="tall", u=(1, 1, 1), v=(1, 0, 0),
                                   validated_n=0)
        with pytest.raises(OverflowError):
            ds.counts_via_representation(fam, rep, 2)

    def test_abs_sum_max_equals_python_ints(self):
        """Exact where float64 sums are not: entries near 2^62 and at -2^63,
        lines whose sums tie in float64, and a line whose float sum is the
        largest although its exact sum is not, all summed in Python ints;
        and sums past 2^53 whose terms are small enough for int64."""
        rng = np.random.default_rng(62)
        # max|entry| * 7 terms is below 2^63, so this one is summed in int64
        int64_table = rng.integers(-(1 << 60), 1 << 60, size=(7, 7),
                                   dtype=np.int64)
        big = 1 << 62
        random_table = rng.integers(-big, big, size=(6, 500), dtype=np.int64)
        random_table[rng.random((6, 500)) < 0.1] = -big - 3
        random_table[0, 7] = np.iinfo(np.int64).min
        near_ties = np.array([[big - c % 7, -(big - c % 5), c % 3]
                              for c in range(300)], dtype=np.int64)
        # float64 sums: 2^62 + 1024 for the first line, 2^62 for the second
        misleading = np.array([[big + 513, 0, 0, 0], [big, 300, 300, 300]],
                              dtype=np.int64)
        for table in (random_table, near_ties, misleading, int64_table):
            for axis in range(table.ndim):
                assert ds._abs_sum_max(table, axis) == \
                    oracles.abs_sum_max_object(table, axis), axis
        assert ds._abs_sum_max(misleading, 1) == big + 900
        for line in (misleading[1], random_table[0], -random_table[:, 3]):
            assert ds._abs_sum_max(line, 0) == \
                oracles.abs_sum_max_object(line, 0)

    def test_count_table_overflow_raises(self):
        rep = LinearRepresentation(family="big", u=(1, 0), v=(1, 1),
                                   validated_n=0)
        with pytest.raises(OverflowError):
            ds.counts_via_representation(big_family(), rep, 64)

    def test_counts_past_2_53_raise(self):
        """count(n) = k^#(n) here, so count(63) = k^6: int64 holds 2^54 at
        k = 2^9, but float64 counts are exact only below 2^53."""
        rep = LinearRepresentation(family="wide", u=(1,), v=(1,), validated_n=0)
        with pytest.raises(OverflowError, match="2\\^53"):
            ds.counts_via_representation(wide_family(1 << 9), rep, 64)
        fam = wide_family(1 << 8)
        counts = ds.counts_via_representation(fam, rep, 64)
        assert counts.dtype == np.float64
        assert counts.tolist() == folded_counts(fam, (1,), (1,), 64)
        assert counts[63] == 2.0**48


class TestEmpiricalDispersion:
    def test_binomial_typical_slope_is_exact(self):
        """Var(ln f(N)) = ln(2)^2 Var(#N) = ln(2)^2 j/4 exactly at n = 2^j,
        so the typical ratio equals ln(2)/4 at every octave."""
        trend = ds.empirical_dispersion("g1", j_max=16, j_min=4)
        for j, var, var_ln, avg_ratio, typ_ratio in trend.rows:
            assert typ_ratio == pytest.approx(math.log(2) / 4, rel=1e-12)
        assert trend.typ_slope == pytest.approx(math.log(2) / 4, rel=1e-10)

    def test_g2_trend(self):
        trend = ds.empirical_dispersion("g2", j_max=18)
        assert trend.typ_slope == pytest.approx(0.1747633335, abs=0.02)
        assert trend.avg_slope == pytest.approx(1.4924205743, abs=0.06)

    @pytest.mark.parametrize("name", catalog.family_names())
    @pytest.mark.parametrize("j_min, j_max",
                             [(3, 16), (10, 19), (3, 17), (16, 18), (3, 12)])
    def test_equals_np_var_of_whole_prefixes(self, name, j_min, j_max):
        """Every row and slope equals the per-prefix np.var, bit for bit:
        within one 2^16 block up to j = 16, over a tree of blocks above,
        and within the one block of 2^j_max counts below 2^16."""
        assert ds.empirical_dispersion(name, j_max, j_min) == \
            oracles.empirical_dispersion_full(name, j_max, j_min)

    def test_memory_stays_at_a_few_blocks(self):
        """No array the size of the 2^20 counts (8 MB, and as much for
        their logs) is held: the traced peak stays under 4 MB."""
        ds.empirical_dispersion("h4", 20)
        tracemalloc.start()
        try:
            ds.empirical_dispersion("h4", 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("name", ["g2", "h4"])
    def test_prefix_octaves_past_2_23(self, name):
        """An octave's row depends only on the counts below 2^j, whatever
        the tables' split of j_max: the rows at j_max = 24 but the last are
        the rows at 23."""
        assert ds.empirical_dispersion(name, 24, 8).rows[:-1] == \
            ds.empirical_dispersion(name, 23, 8).rows

    @pytest.mark.parametrize("u, v, error", [
        ((Fraction(1, 2), Fraction(1, 2)), (2, 2), None),
        ((Fraction(1, 2), 0), (1, 0), "integer counts"),
        ((1, 0), (0, 1), "counts must be positive"),
    ], ids=["common-denominator", "fractional", "zero-count"])
    def test_representation_paths(self, monkeypatch, u, v, error):
        """A common denominator of u and v divides every block of counts,
        or raises where a count is not an integer; a count below 1 has no
        log and raises."""
        rep = LinearRepresentation(family="shear", u=u, v=v, validated_n=0)
        monkeypatch.setattr(ds, "fit_linear_representation",
                            lambda fam: rep)
        if error is None:
            assert ds.empirical_dispersion(shear_family(), 17, 3) == \
                oracles.empirical_dispersion_full(shear_family(), 17, 3)
        else:
            with pytest.raises(ArithmeticError, match=error):
                ds.empirical_dispersion(shear_family(), 17, 3)

    def test_numpy_sums_power_of_two_lengths_as_a_block_tree(self):
        """The numpy property `_octave_variances` rests on: x.sum() over 2^k
        elements is the balanced tree of its 2^16-element block sums."""
        x = np.random.default_rng(5).standard_normal(1 << 22)
        block = 1 << ds.BLOCK_BITS
        folds = []
        for k in range(8, 23):
            width = min(1 << k, block)
            sums = [float(x[i:i + width].sum()) for i in range(0, 1 << k, width)]
            assert ds._tree_sum(sums) == float(x[: 1 << k].sum()), k
            folded = 0.0
            for block_sum in sums:
                folded += block_sum
            folds.append(folded == float(x[: 1 << k].sum()))
        # the order matters on this data: adding the block sums left to
        # right misses numpy's sum at some k
        assert not all(folds)

    def test_csv(self):
        trend = ds.empirical_dispersion("g1", j_max=12, j_min=4)
        rows = list(trend.csv_rows())
        assert rows[0] == "j,var,var_ln,avg_ratio,typ_ratio"
        assert len(rows) == 12 - 4 + 2


class TestDigitDistributionCompare:
    def test_identity_comparison_is_exactly_zero(self):
        result = ds.digit_distribution_compare(1, 0, j=16, n_samples=20000)
        assert result.two_sample_distance == 0.0

    def test_reference_moments_standard(self):
        result = ds.digit_distribution_compare(3, 0, j=20, n_samples=10**5)
        mean, var, skew = result.moments_ref
        assert abs(mean) < 0.02
        assert abs(var - 1.0) < 0.03
        assert abs(skew) < 0.05
        assert result.normal_distance_ref < 0.01

    def test_known_finite_size_offset_of_multiples_of_three(self):
        # E #(3N) - E #(N) = 2/3 for N < 2^j, a real effect the comparison
        # must surface
        result = ds.digit_distribution_compare(3, 0, j=20, n_samples=10**5)
        gap = result.moments[0] - result.moments_ref[0]
        assert gap == pytest.approx((2 / 3) / (math.sqrt(20) / 2), abs=0.03)

    def test_guards(self):
        with pytest.raises(ValueError):
            ds.digit_distribution_compare(2, 2, j=8)
        with pytest.raises(ValueError):
            ds.digit_distribution_compare(1, 0, j=50)

    def test_products_past_int64_are_refused(self):
        # 100003 * N wraps around in int64 for most N < 2^48; the largest
        # allowed a * (2^j - 1) + b is 2^63 - 1
        with pytest.raises(ValueError, match="2\\^63"):
            ds.digit_distribution_compare(100003, 0, j=48, n_samples=1000, seed=1)
        with pytest.raises(ValueError, match="2\\^63"):
            ds.digit_distribution_compare(2**15 + 1, 0, j=48, n_samples=10)
        result = ds.digit_distribution_compare(2**15, 2**15 - 1, j=48,
                                               n_samples=1000)
        assert result.n_samples == 1000

    @pytest.mark.parametrize("a, b, j, n_samples, seed", [
        (3, 0, 24, 1000, 4),          # one short block
        (5, 2, 30, 1 << 17, 5),       # two whole blocks
        (7, 3, 47, 200001, 6),        # three blocks and a short one
        (1, 0, 12, 70000, 7),         # one whole block and a short one
    ])
    def test_equals_one_draw_of_all_samples(self, a, b, j, n_samples, seed):
        assert ds.digit_distribution_compare(a, b, j, n_samples, seed) == \
            oracles.digit_distribution_compare_full(a, b, j, n_samples, seed)

    def test_deterministic(self):
        a = ds.digit_distribution_compare(3, 1, j=12, n_samples=5000)
        b = ds.digit_distribution_compare(3, 1, j=12, n_samples=5000)
        assert a == b
