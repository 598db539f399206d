"""Series engine, Wynn acceleration, F/L machinery, replica, regrouping."""

import json
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lyapdisp import catalog, conjugate, exactmat, gle, words
from lyapdisp.exactmat import RationalMatrix
from lyapdisp.gle import (
    DegenerateSequence,
    DimensionCap,
    NoBracket,
    Overflow,
    TruncationUnstable,
)
from oracles import f_closed_form_t0, family_to_dict

LN2 = math.log(2.0)
MAX = sys.float_info.max


def refuse_scan(*args, **kwargs):
    raise AssertionError("no word-tree scan expected")


class TestWynnEpsilon:
    def test_exact_geometric_terminates_at_depth_two(self):
        partials, acc = [], 0.0
        for k in range(12):
            acc += 2.0**-k
            partials.append(acc)
        result = gle.wynn_epsilon(partials)
        assert result.estimate == 2.0
        assert result.depth == 2

    def test_arithmetico_geometric(self):
        partials, acc = [], 0.0
        for k in range(20):
            acc += k * 2.0**-k
            partials.append(acc)
        result = gle.wynn_epsilon(partials)
        assert result.estimate == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_weight(self):
        # sum k^2 / 2^k = 6
        partials, acc = [], 0.0
        for k in range(24):
            acc += k * k * 2.0**-k
            partials.append(acc)
        assert gle.wynn_epsilon(partials).estimate == pytest.approx(6.0, abs=1e-10)

    def test_alternating_log_series(self):
        partials, acc = [], 0.0
        for k in range(1, 25):
            acc += (-1.0) ** (k + 1) / k
            partials.append(acc)
        result = gle.wynn_epsilon(partials)
        assert result.estimate == pytest.approx(math.log(2.0), abs=1e-12)
        assert abs(result.estimate - math.log(2.0)) <= 10 * result.error + 1e-13

    def test_too_short(self):
        with pytest.raises(DegenerateSequence):
            gle.wynn_epsilon([1.0, 2.0])

    @pytest.mark.parametrize("partials,want", [
        # repeated partials: their differences fall below WYNN_GUARD
        ([1.0, 1.5, 1.75, 1.75, 1.75, 1.75], (2.0, 0.25, 2)),
        # steps of 5e-306 would accelerate to 2e-305 without the guard
        ([0.0, 1e-305, 1.5e-305, 1.75e-305, 1.875e-305],
         (1.875e-305, 1.2500000000000017e-306, 0)),
        # the only even-column entry overflows to -inf
        ([-MAX, -MAX + 1e299, -MAX + 3e299],
         (-1.7976931318623156e308, 2.000000039907852e299, 0)),
        # an inf or nan partial spoils only the entries built on it
        ([1.0, 1.5, 1.75, math.inf, 1.9375, 1.96875, 1.984375],
         (2.0, 0.015625, 2)),
        ([1.0, 1.5, 1.75, math.nan, 1.9375, 1.96875, 1.984375],
         (2.0, 0.015625, 2)),
        ([1.0, 1.5, 1.75, 1.875, 1.9375, 1.96875, math.inf],
         (1.9375, math.inf, 2)),
    ], ids=["guard", "tiny-steps", "overflow", "inf", "nan", "inf-last"])
    def test_entries_that_cannot_be_formed(self, partials, want):
        result = gle.wynn_epsilon(partials)
        assert (result.estimate, result.error, result.depth) == want


class TestPrefactors:
    def test_series_prefactor(self):
        assert gle.series_prefactor(1) == Fraction(1, 4)
        assert gle.series_prefactor(2) == Fraction(1, 24)
        assert gle.series_prefactor(3) == Fraction(1, 112)

    def test_sigma2_prefactor_specializations(self):
        assert gle.sigma2_prefactor(1) == 3
        assert gle.sigma2_prefactor(2) == Fraction(29, 3)
        assert gle.sigma2_prefactor(3) == Fraction(169, 7)

    def test_binomial_moment_identity(self):
        lam, kappa, mu = LN2 / 2, 2 * LN2, 1.5 * LN2**2
        assert gle.sigma2_from_moments(lam, kappa, mu, 1) == pytest.approx(
            LN2**2 / 4, abs=1e-15
        )


def scan_for(name, max_len, ts=()):
    fam = catalog.get_family(name)
    fact = conjugate.sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name)
    return words.scan_corner_stats(fact, max_len, ts=ts, threads=1)


def series_for(name, max_len):
    return gle.moments_from_scan(name, scan_for(name, max_len))


class TestMomentSeries:
    def test_binomial_slabs(self):
        series = series_for("g1", 20)
        for k in range(21):
            expected = 2.0**-k * k * LN2
            assert series.s_lambda[k] == pytest.approx(expected, rel=1e-13)
            assert series.s_kappa[k] == pytest.approx(
                (1 + k) * expected, rel=1e-13
            )
            assert series.s_mu[k] == pytest.approx(
                2.0**-k * (k * LN2) ** 2, rel=1e-13
            )
        partials = series.partials("lambda")
        assert partials[-1] == pytest.approx(
            0.25 * LN2 * sum(k / 2**k for k in range(21)), rel=1e-13
        )

    def test_max_len_zero(self):
        series = series_for("g2", 0)
        assert series.counts == (1,)
        assert series.s_lambda == (0.0,)

    def test_quadrinomial_series_lambda(self):
        series = series_for("g3", 30)
        accel = gle.wynn_epsilon(series.partials("lambda"))
        assert accel.estimate == pytest.approx(LN2 / 2, abs=1e-6)

    def test_csv_rows(self):
        rows = series_for("g1", 4).csv_rows()
        assert rows[0] == "len,words,Slambda,Skappa,Smu"
        assert len(rows) == 6
        assert rows[1].startswith("0,1,")


class TestExponents:
    def test_binomial_exact_values(self):
        report = gle.exponents("g1")
        assert report.lam.accel == pytest.approx(LN2 / 2, abs=1e-12)
        assert report.kappa.accel == pytest.approx(2 * LN2, abs=1e-12)
        assert report.mu.accel == pytest.approx(1.5 * LN2**2, abs=1e-12)
        assert report.sigma2 == pytest.approx(LN2**2 / 4, abs=1e-12)
        assert report.skipped_words == 0
        assert dict(report.replica)[1] == pytest.approx(1.5, abs=1e-12)
        assert dict(report.replica)[2] == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_refused_before_the_scan(self, t, monkeypatch):
        monkeypatch.setattr(words, "scan_corner_stats", refuse_scan)
        with pytest.raises(ValueError, match="t must be finite"):
            gle.exponents("g1", max_len=8, lt_samples=(1.0, t))

    def test_scan_gets_the_family_name(self, tmp_path, monkeypatch):
        # the benchmark's per-family scan rates read fact.family
        fam = catalog.get_family("g3")
        diag = [Fraction(k + 2, 2 * k + 3) for k in range(fam.dim)]

        def conj(m):
            return RationalMatrix([[m[i, j] * diag[j] / diag[i]
                                    for j in range(fam.dim)]
                                   for i in range(fam.dim)])

        path = tmp_path / "g3-conj.json"
        path.write_text(json.dumps(family_to_dict(catalog.MatrixFamily(
            name="g3-conj", q=fam.q, d0=conj(fam.d0), d1=conj(fam.d1),
            poly_mask=0))))
        seen = []
        scan = words.scan_corner_stats

        def spy(fact, *args, **kwargs):
            seen.append(fact.family)
            return scan(fact, *args, **kwargs)

        monkeypatch.setattr(words, "scan_corner_stats", spy)
        gle.exponents("g3", max_len=10, threads=1)
        gle.exponents(f"@{path}", max_len=10, threads=1)
        assert seen == ["g3", "g3-conj"]

    def test_accel_off_returns_raw(self):
        report = gle.exponents("g1", accel=False)
        assert report.lam.accel == report.lam.raw
        assert report.lam.depth == 0
        # raw truncation at 36 is far better than 1e-8 but worse than Wynn
        assert abs(report.lam.raw - LN2 / 2) < 1e-9

    def test_json_dict_schema(self):
        report = gle.exponents("g1", lt_samples=(2.0,))
        data = report.to_json_dict()
        for key in ("family", "q", "max_len", "lambda",
                    "kappa", "mu", "sigma2", "L_samples", "replica",
                    "skipped_words"):
            assert key in data
        assert data["lambda"].keys() == {"raw", "accel", "err"}
        assert data["L_samples"][0]["t"] == 2.0

    def test_zero_corner_words_reported(self):
        d0 = RationalMatrix([[1, 0], [0, 0]])
        d1 = RationalMatrix([[0, 1], [1, 0]])
        fam = catalog.MatrixFamily(name="zeroy", q=1, d0=d0, d1=d1, poly_mask=0)
        report = gle.exponents(fam, max_len=10)
        assert report.skipped_words > 0


@pytest.fixture(scope="module")
def g3_scan():
    """One g3 scan to depth 30 with the power sums every F test needs."""
    return scan_for("g3", 30, ts=(0.0, -1e-4, 1e-4))


def f_value(stats, t_index, s, accel=True):
    return gle._f_from_sums(stats.q, stats.pow_sums[t_index], stats.zero_words,
                            s, stats.ts[t_index], accel)


class TestFEval:
    def test_t0_closed_form(self, g3_scan):
        g2_scan = scan_for("g2", 26, ts=(0.0,))
        for stats in (g2_scan, g3_scan):
            for s in (0.3, 0.5, 0.9):
                # raw truncation at s = 0.9 still carries ~1e-3 of tail, so
                # the comparison runs accelerated
                assert f_value(stats, 0, s) == pytest.approx(
                    f_closed_form_t0(stats.q, s), abs=1e-6
                )

    def test_f_one_zero_is_one_accelerated(self, g3_scan):
        assert f_value(g3_scan, 0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_fs_at_one_zero(self, g3_scan):
        """Centered difference of F(., 0) at s=1 equals 2(2^q - 1)."""
        h = 1e-4
        up = f_value(g3_scan, 0, 1 + h)
        down = f_value(g3_scan, 0, 1 - h)
        assert (up - down) / (2 * h) == pytest.approx(6.0, abs=1e-3)

    def test_overflow_raises(self):
        stats = scan_for("g1", 30, ts=(300.0,))
        with pytest.raises(Overflow):
            f_value(stats, 0, 1.0, accel=False)

    def test_series_lambda_equals_ft_over_fs(self, g3_scan):
        """lambda = F_t(1,0)/F_s(1,0), both by centered differences."""
        ht, hs = 1e-4, 1e-4
        f_t = (f_value(g3_scan, 2, 1.0) - f_value(g3_scan, 1, 1.0)) / (2 * ht)
        f_s = (f_value(g3_scan, 0, 1.0 + hs)
               - f_value(g3_scan, 0, 1.0 - hs)) / (2 * hs)
        series_lambda = gle.exponents("g3", max_len=30).lam.accel
        assert f_t / f_s == pytest.approx(series_lambda, abs=1e-4)


class TestLOfT:
    def test_l_zero_is_zero(self):
        assert gle.l_of_t("g1", 0.0, max_len=30) == pytest.approx(0.0, abs=1e-8)

    def test_binomial_l2(self):
        assert gle.l_of_t("g1", 2.0, tol=1e-11) == pytest.approx(
            math.log(2.5), abs=1e-9
        )

    def test_quadrinomial_l1(self):
        assert gle.l_of_t("g3", 1.0, max_len=30) == pytest.approx(
            math.log(1.5), abs=1e-7
        )

    def test_no_bracket_when_all_corners_vanish(self):
        d0 = RationalMatrix([[1, 0], [0, 0]])
        d1 = RationalMatrix([[0, 0], [0, 0]])
        fam = catalog.MatrixFamily(name="dead", q=1, d0=d0, d1=d1, poly_mask=0)
        with pytest.raises(NoBracket):
            gle.l_of_t(fam, 1.0, max_len=12)

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_non_finite_t_refused_before_the_scan(self, t, monkeypatch):
        # nan used to report F(1e-12, nan) overflowing after a full scan
        monkeypatch.setattr(words, "scan_corner_stats", refuse_scan)
        with pytest.raises(ValueError, match="t must be finite"):
            gle.l_of_t("g1", t, max_len=8)

    @pytest.mark.parametrize("t", [45.0, 60.0])
    def test_no_bracket_when_root_is_at_the_lower_end(self, t):
        # true L(45) = 30.50 and L(60) = 40.90 lie beyond -ln 1e-12 = 27.6;
        # at t = 60 F(1e-12) >= 1 already, at t = 45 the depth-8 root is
        # within tol/2 of 1e-12 and cannot be told from it
        with pytest.raises(NoBracket):
            gle.l_of_t("g1", t, max_len=8)

    def test_truncation_check_trips_on_shallow_raw_sums(self):
        # without acceleration the root moves visibly between depth 16 and
        # depth 12, far beyond 10x a 1e-7 tolerance
        stats = scan_for("g3", 16, ts=(2.0,))
        with pytest.raises(TruncationUnstable):
            gle.l_from_scan(stats, 0, tol=1e-7, accel=False)


# the t grid of the benchmark's L(t) curves
LT_GRID = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


class TestRootFinding:
    @pytest.mark.parametrize("name", ["g3", "h4"])
    def test_evaluation_budget(self, name, monkeypatch):
        """Brent keeps each L(t) sample to <= 35 raw and <= 20 Wynn F calls."""
        real = gle._f_from_sums
        calls = Counter()

        def counting(q, power_sums, zeros, s, t, accel):
            calls[accel] += 1
            return real(q, power_sums, zeros, s, t, accel)

        monkeypatch.setattr(gle, "_f_from_sums", counting)
        stats = scan_for(name, 24, ts=LT_GRID)
        for k in range(len(LT_GRID)):
            calls.clear()
            try:
                gle.l_from_scan(stats, k)
            except TruncationUnstable:
                pass  # h4 at t = 1.75, 2: depth 24 is too shallow there
            assert calls[False] <= 35, (LT_GRID[k], calls)
            assert calls[True] <= 20, (LT_GRID[k], calls)

    @pytest.mark.parametrize("name", ["g3", "g4", "h4"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-7])
    def test_raw_root_within_half_tol(self, name, tol):
        ts = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
        stats = scan_for(name, 24, ts=ts)
        for k, t in enumerate(ts):
            sums = stats.pow_sums[k]

            def f(s):
                return gle._f_from_sums(stats.q, sums, stats.zero_words, s, t,
                                        False)

            root = gle._brent_root(stats.q, sums, stats.zero_words, t, tol,
                                   accel=False)
            assert f(root - tol / 2) < 1.0 <= f(root + tol / 2), t


def brent(f, a, b, tol=1e-10):
    return gle._brent(f, a, b, f(a), f(b), tol)


class TestBrent:
    def test_smooth_root(self):
        for tol in (1e-6, 1e-10, 1e-14):
            root = brent(lambda x: math.exp(40.0 * x) - 2.0, 0.0, 1.0, tol)
            assert abs(root - math.log(2.0) / 40.0) <= tol / 2

    def test_root_at_either_endpoint(self):
        # a jump at the end of the bracket: no zero, only a sign change
        low = brent(lambda x: -1.0 if x <= 0.0 else 1.0, 0.0, 1.0)
        high = brent(lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 1.0)
        assert 0.0 <= low <= 0.5e-10
        assert 1.0 - 0.5e-10 <= high <= 1.0

    def test_exact_zero_at_an_end_is_returned(self):
        evaluations = []

        def f(x):
            evaluations.append(x)
            return x * x - 4.0

        assert gle._brent(f, 0.0, 2.0, -4.0, 0.0, 1e-10) == 2.0
        assert gle._brent(f, 2.0, 3.0, 0.0, 5.0, 1e-10) == 2.0
        assert evaluations == []

    def test_either_orientation(self):
        cube_root = 0.5 ** (1 / 3)
        assert abs(brent(lambda x: 0.5 - x**3, 0.0, 1.0) - cube_root) <= 0.5e-10
        assert abs(brent(lambda x: x**3 - 0.5, 1.0, 0.0) - cube_root) <= 0.5e-10

    def test_very_flat(self):
        # an 11-fold root, where interpolation stalls and the bisection
        # fallback has to carry the bracket, and values in the subnormal range
        for f in (lambda x: (x - 1.0 / 3.0) ** 11,
                  lambda x: 1e-300 * math.tanh(x - 0.3)):
            root = brent(f, 0.0, 1.0)
            assert f(root - 0.5e-10) <= 0.0 <= f(root + 0.5e-10)

    def test_tol_below_float_spacing(self):
        root = brent(lambda x: x - 1.0 / 3.0, 0.0, 1.0, tol=1e-30)
        assert abs(root - 1.0 / 3.0) <= 2 * math.ulp(1.0 / 3.0)

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -1.0 - x * x])
    def test_no_sign_change_raises(self, f):
        with pytest.raises(NoBracket):
            brent(f, -1.0, 1.0)


def exact_replica_average(fam, t):
    """(D0^(x)t + D1^(x)t) / 2 in exact Fractions: the oracle for the float route."""

    def kron(a, b):
        return [[x * y for x in arow for y in brow] for arow in a for brow in b]

    pow0, pow1 = fam.d0.rows, fam.d1.rows
    for _ in range(t - 1):
        pow0, pow1 = kron(pow0, fam.d0.rows), kron(pow1, fam.d1.rows)
    return RationalMatrix(
        [[(x + y) / 2 for x, y in zip(r0, r1)] for r0, r1 in zip(pow0, pow1)]
    )


# every built-in family at t = 1..3 with dim^t <= 216 (h4 up to t = 2)
REPLICA_CASES = [
    (name, t)
    for name in catalog.family_names()
    for t in (1, 2, 3)
    if catalog.get_family(name).dim ** t <= 216
]


class TestReplica:
    @pytest.mark.parametrize("name, t", REPLICA_CASES)
    def test_float_average_equals_exact(self, name, t, monkeypatch):
        real = exactmat.spectral_radius
        seen = []

        def capture(a, tol):
            seen.append(a)
            return real(a, tol=tol)

        monkeypatch.setattr(exactmat, "spectral_radius", capture)
        fam = catalog.get_family(name)
        value = gle.replica_exponent(fam, t)
        exact = exact_replica_average(fam, t).to_float()
        assert seen[0].dtype == np.float64
        assert np.array_equal(seen[0], exact)
        assert value == real(exact, tol=1e-13)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_conjugated_family_matches_parent(self, t):
        # a positive rational diagonal similarity leaves the spectrum alone;
        # its entries are not floats, so the rounding bound is what is checked
        fam = catalog.get_family("g5")
        diag = [Fraction(k + 2, 2 * k + 3) for k in range(fam.dim)]

        def conj(m):
            return RationalMatrix([[m[i, j] * diag[j] / diag[i]
                                    for j in range(fam.dim)]
                                   for i in range(fam.dim)])

        conjugated = catalog.MatrixFamily(
            name="g5-conj", q=fam.q, d0=conj(fam.d0), d1=conj(fam.d1),
            poly_mask=0)
        assert gle.replica_exponent(conjugated, t) == pytest.approx(
            gle.replica_exponent(fam, t), rel=1e-12)

    def test_binomial(self):
        assert gle.replica_exponent("g1", 2) == pytest.approx(2.5, abs=1e-12)

    def test_trinomial_cubic(self):
        xi = gle.replica_exponent("g2", 2)
        assert exactmat.poly_residual((1, -2, -3, 2), xi) < 1e-10
        assert xi == pytest.approx(2.813, abs=1e-3)

    def test_quintinomial_degree_ten(self):
        xi = gle.replica_exponent("g4", 2)
        coeffs = catalog.get_family("g4").constants.minpoly
        assert exactmat.poly_residual(coeffs, xi) < 1e-8
        assert xi == pytest.approx(3.145, abs=1e-3)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            gle.replica_exponent("g5", 5)  # 6^5 = 7776 > 4096

    def test_dispersion_params_binomial(self):
        """(average, typical) dispersion: L(2)/ln 2 and sigma^2/ln 2."""
        avg = math.log(gle.replica_exponent("g1", 2)) / LN2
        typ = gle.exponents("g1").sigma2 / LN2
        assert avg == pytest.approx(1.3219280948873623, abs=1e-12)
        assert typ == pytest.approx(LN2 / 4, abs=1e-12)


class TestQuadrinomialRegrouping:
    def test_regrouped_letters(self):
        e0, m, e2, a1, b1, a2, b2 = gle.regrouped_matrices()
        assert e0 == RationalMatrix([[0, 0], [1, 2]])
        assert m == RationalMatrix([[4, 0], [0, 1]])
        assert e2 == RationalMatrix([[4, 4], [0, 0]])

    def test_cross_moments_exact(self):
        _, m, _, a1, b1, a2, b2 = gle.regrouped_matrices()

        def cross(beta, alpha, k):
            vec = list(alpha)
            for _ in range(k):
                vec = [
                    sum(m.rows[i][j] * vec[j] for j in range(2))
                    for i in range(2)
                ]
            return sum(b * x for b, x in zip(beta, vec))

        for k in range(6):
            assert cross(b1, a1, k) == 2
            assert cross(b2, a1, k) == 4
            assert cross(b1, a2, k) == 2 ** (2 * k)
            assert cross(b2, a2, k) == 2 ** (2 * (k + 1))

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_closed_form(self, t):
        value = gle.quadrinomial_regroup_L(t)
        assert value == pytest.approx(math.log((2.0**t + 1) / 2), abs=1e-12)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    def test_matches_binomial_moment_exponent(self, t):
        regrouped = gle.quadrinomial_regroup_L(t)
        binomial = gle.l_of_t("g1", t, max_len=36, tol=1e-12)
        assert regrouped == pytest.approx(binomial, abs=1e-8)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            gle.quadrinomial_regroup_L(1.0, tol=-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t(self, t):
        # nan used to be reported as "no zero on (0, 2)"
        with pytest.raises(ValueError, match="t must be finite"):
            gle.quadrinomial_regroup_L(t)
