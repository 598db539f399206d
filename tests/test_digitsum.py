"""Digital sums, fluctuation functions, GF(2) counts, representations."""

import math
import random

import numpy as np
import pytest

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


class TestSummatoryArrays:
    def test_all_small_n(self):
        ns = np.arange(1, (1 << 14) + 1)
        assert ds._summatory_array("phi", ns).tolist() == \
            [ds.summatory_digit_sum(n) for n in ns.tolist()]
        assert ds._summatory_array("psi", ns).tolist() == \
            [ds.summatory_f(n) for n in ns.tolist()]

    @pytest.mark.parametrize("kind,lo_bits", [
        ("phi", 37), ("phi", 39), ("psi", 37),
    ])
    def test_top_octaves(self, kind, lo_bits):
        # the top sampled octaves that phi (j_max 40) and psi (38) allow
        scalar = ds.summatory_digit_sum if kind == "phi" else ds.summatory_f
        ns = random_ns(lo_bits)
        assert ds._summatory_array(kind, np.array(ns)).tolist() == \
            [scalar(n) for n in ns]

    def test_f_past_int64_raises(self):
        with pytest.raises(OverflowError):
            ds._summatory_array("psi", np.array([(1 << 39) + 1]))


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
            x_n = ds._phi_parts(n, ds.summatory_digit_sum(n))[0]
            assert x_n == ds._phi_parts(2 * n, ds.summatory_digit_sum(2 * n))[0]

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
        x, value = ds._phi_parts(6, ds.summatory_digit_sum(6))
        assert x == pytest.approx(math.log2(1.5))
        assert value == ds.phi(6)
        x, value = ds._psi_parts(6, ds.summatory_f(6))
        assert x == pytest.approx(math.log2(1.5))
        assert value == ds.psi(6)


class TestFluctuationScans:
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
        parts, summatory = ((ds._phi_parts, ds.summatory_digit_sum)
                            if kind == "phi" else (ds._psi_parts, ds.summatory_f))
        scan = stats(j_max=16)
        ns = scan.sample_n.tolist()
        assert scan.sample_value.tolist() == [point(n) for n in ns]
        assert scan.sample_x.tolist() == [parts(n, summatory(n))[0] for n in ns]

    def test_csv_rows(self):
        scan = ds.phi_statistics(j_max=10, samples_per_octave=256)
        rows = scan.samples_csv_rows()
        assert rows[0] == "n,x,value"
        assert len(rows) > 100
        hist = scan.histogram_csv_rows()
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
        perm = [3, 7, 0, 5, 1, 6, 2, 4]

        def permuted(matrix):
            return RationalMatrix(
                [[matrix.rows[i][j] for j in perm] for i in perm])

        moved = catalog.MatrixFamily(
            name="h4-permuted", q=fam.q, d0=permuted(fam.d0),
            d1=permuted(fam.d1), poly_mask=fam.poly_mask,
        )
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
    """The int64 doubling table behind `counts_via_representation`."""

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
            product = exactmat.identity(fam.dim)
            for d in digits:
                product = exactmat.mat_mul(product, fam.d1 if d else fam.d0)
            assert stack[n].tolist() == [[int(x) for x in row]
                                         for row in product.rows]

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

    def test_count_table_overflow_raises(self):
        rep = LinearRepresentation(family="big", u=(1, 0), v=(1, 1),
                                   validated_n=0)
        with pytest.raises(OverflowError):
            ds.counts_via_representation(big_family(), rep, 64)


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

    def test_csv(self):
        trend = ds.empirical_dispersion("g1", j_max=12, j_min=4)
        rows = trend.csv_rows()
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

    def test_deterministic(self):
        a = ds.digit_distribution_compare(3, 1, j=12, n_samples=5000)
        b = ds.digit_distribution_compare(3, 1, j=12, n_samples=5000)
        assert a == b
