"""Acceptance suite: one PASS/FAIL line per checked quantity.

Each criterion carries the tolerance it is held to.  The expensive part is
one word-tree scan per family at the depths the checks are specified for
(length 36 for q <= 2, 32 for the 8x8 family, 30 for q = 3); everything in
criteria 1-7 reuses those scans through a session fixture.

Two sub-checks are tracked as strict xfails because the quantities they
compare carry finite-size offsets far larger than the stated bands (the
analysis lives next to the tests): the mean/k Monte Carlo estimator for the
trinomial family at k = 256, and the display-normalized digit-sum moments
of multiples of three at j = 24.
"""

import math

import numpy as np
import pytest

from lyapdisp import catalog, digitsum, exactmat, gle, mcsim

LN2 = math.log(2.0)
FD_H = 1e-3

ACCEPT_MAX_LEN = {
    "g1": 36, "g2": 36, "g3": 36, "h3": 36, "g4": 36, "h4": 32,
    "g5": 30, "g6": 30,
}


def check(label: str, value: float, reference: float, tol: float) -> None:
    ok = abs(value - reference) <= tol
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: computed={value!r} reference={reference!r} "
          f"tol={tol:g} |diff|={abs(value - reference):.3e}")
    assert ok, (
        f"{label}: |{value!r} - {reference!r}| = "
        f"{abs(value - reference):.3e} > {tol:g}"
    )


def check_exact(label: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"{status} {label} {detail}")
    assert condition, label


@pytest.fixture(scope="session")
def reports():
    """Exponent reports for all eight families at the acceptance depths."""
    out = {}
    for name in catalog.family_names():
        fam = catalog.get_family(name)
        ts = (-FD_H, 0.0, FD_H) if fam.q == 3 else (-FD_H, 0.0, FD_H, 1.0, 2.0)
        out[name] = gle.exponents(
            fam,
            max_len=ACCEPT_MAX_LEN[name],
            lt_samples=ts,
            lt_tol=1e-11,
        )
    return out


def l_sample(report, t: float):
    for sample_t, value, err in report.l_samples:
        if sample_t == t:
            return value, err
    raise KeyError(t)


class TestCriterion01BinomialExactness:
    def test_binomial_moments_to_1e10(self, reports):
        rep = reports["g1"]
        check("c1 g1 lambda", rep.lam.accel, LN2 / 2, 1e-10)
        check("c1 g1 kappa", rep.kappa.accel, 2 * LN2, 1e-10)
        check("c1 g1 mu", rep.mu.accel, 1.5 * LN2**2, 1e-10)
        check("c1 g1 sigma2", rep.sigma2, LN2**2 / 4, 1e-10)


class TestCriterion02TrinomialI:
    def test_trinomial_constants(self, reports):
        rep = reports["g2"]
        check("c2 g2 lambda", rep.lam.accel, 0.4299474333424527, 1e-8)
        check("c2 g2 sigma2", rep.sigma2, 0.1211367118847285, 1e-7)
        check("c2 g2 sigma2/ln2", rep.sigma2 / LN2, 0.1747633335056930, 1e-7)


class TestCriterion03QuadrinomialTheorem:
    def test_series_route(self, reports):
        rep = reports["g3"]
        check("c3 g3 lambda", rep.lam.accel, LN2 / 2, 1e-6)
        check("c3 g3 sigma2/ln2", rep.sigma2 / LN2, LN2 / 4, 1e-6)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0])
    def test_regrouped_route(self, t):
        value = gle.quadrinomial_regroup_L(t)
        check(
            f"c3 regrouped L({t})", value, math.log((2.0**t + 1) / 2), 1e-8
        )


class TestCriterion04QTwoFamilies:
    @pytest.mark.parametrize("name,lam_ref,sigma2_ref", [
        ("h3", 0.45454538229305, 0.12497319),
        ("g4", 0.504253705692, 0.11406217),
        ("h4", 0.45759385431410, 0.13055386),
    ])
    def test_lambda_and_sigma2(self, reports, name, lam_ref, sigma2_ref):
        rep = reports[name]
        check(f"c4 {name} lambda", rep.lam.accel, lam_ref, 1e-6)
        check(f"c4 {name} sigma2", rep.sigma2, sigma2_ref, 1e-5)


class TestCriterion05QThreeFamilies:
    @pytest.mark.parametrize("name,lam_ref,sigma2_ref", [
        ("g5", 0.5344481528, 0.0965),
        ("g6", 0.53765282, 0.1082),
    ])
    def test_lambda_and_sigma2(self, reports, name, lam_ref, sigma2_ref):
        rep = reports[name]
        check(f"c5 {name} lambda", rep.lam.accel, lam_ref, 1e-5)
        check(f"c5 {name} sigma2", rep.sigma2, sigma2_ref, 5e-4)


class TestCriterion06ReplicaAverages:
    @pytest.mark.parametrize("name", catalog.family_names())
    def test_replica_and_minimal_polynomial(self, reports, name):
        fam = catalog.get_family(name)
        xi = dict(reports[name].replica)[2]
        residual = exactmat.poly_residual(fam.constants.minpoly, xi)
        check_exact(
            f"c6 {name} minpoly residual",
            residual < 1e-8,
            f"residual={residual:.3e} (< 1e-08)",
        )
        check(
            f"c6 {name} L(2)/ln2",
            math.log(xi) / LN2,
            float(fam.constants.avg_ref),
            1e-8,
        )


class TestCriterion07DerivativeConsistency:
    @pytest.mark.parametrize("name", catalog.family_names())
    def test_finite_differences_reproduce_series(self, reports, name):
        rep = reports[name]
        l_minus, _ = l_sample(rep, -FD_H)
        l_zero, _ = l_sample(rep, 0.0)
        l_plus, _ = l_sample(rep, FD_H)
        fd_lambda = (l_plus - l_minus) / (2 * FD_H)
        fd_sigma2 = (l_plus - 2 * l_zero + l_minus) / FD_H**2
        check(
            f"c7 {name} L'(0) vs series lambda",
            fd_lambda, rep.lam.accel,
            max(1e-4, 20 * rep.lam.err),
        )
        check(
            f"c7 {name} L''(0) vs series sigma2",
            fd_sigma2, rep.sigma2,
            max(1e-4, 20 * rep.sigma2_err),
        )

    @pytest.mark.parametrize("name", ["g1", "g2", "g3", "h3", "g4", "h4"])
    def test_integer_t_matches_replica(self, reports, name):
        rep = reports[name]
        replica = dict(rep.replica)
        for t in (1, 2):
            value, _ = l_sample(rep, float(t))
            check(
                f"c7 {name} L({t}) vs replica",
                value, math.log(replica[t]), 1e-6,
            )


class TestCriterion08MonteCarlo:
    K = 256
    TRIALS = 10**5
    SEED = 20080318

    def test_concordance_within_four_stderr(self):
        sim1 = mcsim.simulate(
            mcsim.SimConfig("g1", k=self.K, trials=self.TRIALS, seed=self.SEED)
        )
        check("c8 g1 lyap_hat", sim1.lyap_hat, LN2 / 2, 4 * sim1.stderr_lyap)
        check("c8 g1 sigma2_hat", sim1.sigma2_hat, LN2**2 / 4,
              4 * sim1.stderr_sigma2)
        sim2 = mcsim.simulate(
            mcsim.SimConfig("g2", k=self.K, trials=self.TRIALS, seed=self.SEED)
        )
        check("c8 g2 sigma2_hat", sim2.sigma2_hat, 0.1211367118847285,
              4 * sim2.stderr_sigma2)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "mean/k carries the norm-prefactor bias c/k with c ~= 0.545 for "
            "this family (measured stable over k = 64..1024), i.e. 2.1e-3 at "
            "k = 256, which is ~30 standard errors at 1e5 trials; the stated "
            "4-sigma band would need k >= ~2000.  Kept as specified and "
            "tracked as an expected failure."
        ),
    )
    def test_trinomial_lyap_hat_within_four_stderr(self):
        sim2 = mcsim.simulate(
            mcsim.SimConfig("g2", k=self.K, trials=self.TRIALS, seed=self.SEED)
        )
        check("c8 g2 lyap_hat", sim2.lyap_hat, 0.4299474333424527,
              4 * sim2.stderr_lyap)


class TestCriterion09FluctuationConstants:
    def test_phi_scan(self):
        scan = digitsum.phi_statistics(j_max=24)
        check("c9 phi inf", scan.inf, math.log(3) / (2 * LN2) - 1, 1e-4)
        check_exact("c9 phi sup exactly 0", scan.sup == 0.0,
                    f"sup={scan.sup!r}")
        check_exact(
            "c9 phi value at 2^20 exactly 0",
            digitsum.phi(1 << 20) == 0.0,
        )
        check("c9 phi mean", scan.mean, -0.1455994557083223, 2e-3)

    def test_psi_scan(self):
        scan = digitsum.psi_statistics(j_max=24)
        check("c9 psi inf", scan.inf, 0.8125565590160063, 1e-4)
        check_exact("c9 psi sup exactly 1", scan.sup == 1.0,
                    f"sup={scan.sup!r}")
        check_exact(
            "c9 psi value at 2^20 exactly 1",
            digitsum.psi(1 << 20) == 1.0,
        )
        check("c9 psi mean", scan.mean, 0.8636049963990796, 2e-3)


class TestCriterion10OracleEquivalences:
    def test_summatory_functions_vs_brute_force(self):
        pops = np.bitwise_count(np.arange(0, 1 << 16, dtype=np.int64))
        s_oracle = np.concatenate([[0], np.cumsum(pops.astype(np.int64))])
        f_oracle = np.concatenate(
            [[0], np.cumsum((np.int64(1) << pops.astype(np.int64)))]
        )
        s_bad = sum(
            1 for n in range(1, (1 << 16) + 1)
            if digitsum.summatory_digit_sum(n) != int(s_oracle[n])
        )
        f_bad = sum(
            1 for n in range(1, (1 << 16) + 1)
            if digitsum.summatory_f(n) != int(f_oracle[n])
        )
        check_exact("c10 summatory digit sum vs brute force (n <= 2^16)",
                    s_bad == 0, f"mismatches={s_bad}")
        check_exact("c10 summatory 2^# vs brute force (n <= 2^16)",
                    f_bad == 0, f"mismatches={f_bad}")

    def test_gf2_rows_vs_digit_sums(self):
        counts = list(digitsum.gf2_row_counts(0b11, 1 << 14))
        bad = sum(
            1 for n in range(1 << 14) if counts[n] != 1 << n.bit_count()
        )
        check_exact("c10 gf2 rows of 1+x vs 2^#(n) (n < 2^14)", bad == 0,
                    f"mismatches={bad}")

    @pytest.mark.parametrize("name", ["g2", "g3"])
    def test_linear_representation_reproduces_counts(self, name):
        fam = catalog.get_family(name)
        rep = digitsum.fit_linear_representation(fam, 4096)
        computed = digitsum.counts_via_representation(fam, rep, 4096)
        oracle = np.fromiter(
            digitsum.gf2_row_counts(fam.poly_mask, 4096), dtype=np.int64
        )
        bad = int((computed != oracle).sum())
        check_exact(
            f"c10 {name} representation ({rep.digit_order}) vs gf2 counts",
            bad == 0, f"mismatches={bad} over n < {rep.validated_n}",
        )


class TestCriterion11DispersionTrends:
    def test_trinomial_trend_slopes(self):
        trend = digitsum.empirical_dispersion("g2", j_max=20)
        check("c11 g2 typ_slope", trend.typ_slope, 0.1747633335, 0.02)
        check("c11 g2 avg_slope", trend.avg_slope, 1.4924205743, 0.05)


@pytest.fixture(scope="module")
def comparison():
    return digitsum.digit_distribution_compare(3, 0, j=24, n_samples=10**6)


class TestCriterion12DigitDistribution:

    def test_shape_agreement(self, comparison):
        check("c12 skewness #(3N) vs #(N)",
              comparison.moments[2], comparison.moments_ref[2], 0.02)
        check("c12 #(N) vs standard normal CDF",
              comparison.normal_distance_ref, 0.0, 0.02)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "E#(3N) - E#(N) = 2/3 exactly for N < 2^j (computed exhaustively "
            "at j = 24), so the display-normalized mean gap is "
            "(2/3)/(sqrt(j)/2) ~= 0.272 and the CDFs sit ~0.10 apart; the "
            "0.02 band would need j >= ~4500.  Kept as specified and tracked "
            "as an expected failure."
        ),
    )
    def test_location_agreement_at_stated_band(self, comparison):
        check("c12 standardized mean #(3N) vs #(N)",
              comparison.moments[0], comparison.moments_ref[0], 0.02)
        check("c12 standardized var #(3N) vs #(N)",
              comparison.moments[1], comparison.moments_ref[1], 0.02)
        check("c12 #(3N) vs standard normal CDF",
              comparison.normal_distance, 0.0, 0.02)
