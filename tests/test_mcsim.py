"""Monte Carlo machinery: exactness of the bookkeeping and determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lyapdisp import catalog, exactmat, mcsim
from lyapdisp.exactmat import RationalMatrix
from lyapdisp.mcsim import DegenerateProduct, SimConfig

LN2 = math.log(2.0)


def conjugated_family(name: str) -> catalog.MatrixFamily:
    """The family under D -> Q^-1 D Q for a positive rational diagonal Q:
    still nonnegative, with entries that are not exact floats."""
    fam = catalog.get_family(name)
    diag = [Fraction(2 * i + 3, i + 2) for i in range(fam.dim)]

    def conj(matrix):
        return RationalMatrix([
            [matrix.rows[i][j] * diag[j] / diag[i] for j in range(fam.dim)]
            for i in range(fam.dim)
        ])

    return catalog.MatrixFamily(name=f"{name}-conj", q=fam.q,
                                d0=conj(fam.d0), d1=conj(fam.d1), poly_mask=0)


class TestDigitMatrix:
    @pytest.mark.parametrize("k", [100, 256])
    def test_matches_per_bit_extraction(self, k):
        trials = 37
        digits = mcsim._digit_matrix(5, trials, k)
        wpt = (k + 63) // 64
        raw = np.random.Philox(key=5).random_raw(trials * wpt).reshape(trials, wpt)
        expected = np.array([
            [(int(raw[i, j >> 6]) >> (j & 63)) & 1 for j in range(k)]
            for i in range(trials)
        ], dtype=np.uint8)
        assert digits.shape == (trials, k)
        assert np.array_equal(digits, expected)


class TestConfig:
    def test_guards(self):
        with pytest.raises(ValueError):
            SimConfig("g1", k=0, trials=10)
        with pytest.raises(ValueError):
            SimConfig("g1", k=4, trials=1)


class TestLogProductNorms:
    def test_binomial_log_norms_are_digit_counts(self):
        config = SimConfig("g1", k=12, trials=500, seed=5)
        log_norms, degenerate = mcsim.log_product_norms(config)
        assert degenerate == 0
        counts = log_norms / LN2
        assert np.allclose(counts, np.round(counts), atol=1e-12)
        assert counts.min() >= 0 and counts.max() <= 12

    @pytest.mark.parametrize("name,k", [
        ("g2", 16), ("g5", 12), ("h4", 12), ("g3-conj", 16),
    ])
    def test_matches_exact_products_small_k(self, name, k):
        """Float products of small integers are exact, so norms agree with
        the arbitrary-precision recomputation to roundoff; the conjugated
        family's rational entries are rounded once and stay close."""
        if name.endswith("-conj"):
            fam = conjugated_family(name.removesuffix("-conj"))
        else:
            fam = catalog.get_family(name)
        config = SimConfig(fam, k=k, trials=64, seed=99)
        log_norms, degenerate = mcsim.log_product_norms(config)
        digits = mcsim._digit_matrix(config.seed, config.trials, k)
        kept = 0
        for trial in range(config.trials):
            matrix = exactmat.identity(fam.dim)
            for d in digits[trial]:
                matrix = exactmat.mat_mul(matrix, fam.d1 if d else fam.d0)
            norm = max(sum(abs(x) for x in row) for row in matrix.rows)
            if norm == 0:
                continue
            assert math.log(norm) == pytest.approx(log_norms[kept], abs=1e-12)
            kept += 1
        assert kept == log_norms.size

    def test_renormalization_matches_exact_value(self):
        """k large enough that products pass 2^100 and get rescaled."""
        fam = catalog.get_family("g1")
        k = 160
        config = SimConfig("g1", k=k, trials=32, seed=3)
        log_norms, _ = mcsim.log_product_norms(config)
        digits = mcsim._digit_matrix(config.seed, config.trials, k)
        ones = digits.sum(axis=1)
        assert np.abs(log_norms - ones * LN2).max() < 1e-10

    def test_degenerate_products_flagged(self):
        d0 = RationalMatrix([[1, 0], [0, 0]])
        d1 = RationalMatrix([[0, 1], [0, 0]])  # d1 @ d1 = 0
        fam = catalog.MatrixFamily(name="nil", q=1, d0=d0, d1=d1, poly_mask=0)
        # only words of the shape 0^a or 0^a 1 survive, so k must stay small
        config = SimConfig(fam, k=4, trials=200, seed=1)
        log_norms, degenerate = mcsim.log_product_norms(config)
        assert degenerate > 0
        assert log_norms.size == 200 - degenerate
        assert np.isfinite(log_norms).all()

    def test_negative_entry_rejected(self):
        d0 = RationalMatrix([[1, 0], [0, 1]])
        d1 = RationalMatrix([[1, -1], [0, 1]])
        fam = catalog.MatrixFamily(name="neg", q=1, d0=d0, d1=d1, poly_mask=0)
        with pytest.raises(ValueError, match="negative"):
            mcsim.log_product_norms(SimConfig(fam, k=4, trials=8, seed=1))

    def test_all_degenerate_raises(self):
        zero = RationalMatrix([[0, 0], [0, 0]])
        fam = catalog.MatrixFamily(
            name="dead", q=1, d0=RationalMatrix([[1, 0], [0, 0]]), d1=zero,
            poly_mask=0,
        )
        with pytest.raises(DegenerateProduct):
            mcsim.log_product_norms(SimConfig(fam, k=3, trials=8, seed=1))


class TestSimulate:
    def test_result_carries_log_norms(self):
        config = SimConfig("g2", k=32, trials=300, seed=4)
        log_norms, _ = mcsim.log_product_norms(config)
        assert np.array_equal(mcsim.simulate(config).log_norms, log_norms)
        moment = mcsim.simulate_moment(config, 1.0)
        assert np.array_equal(moment.log_norms, log_norms)

    def test_deterministic(self):
        config = SimConfig("g2", k=64, trials=2000, seed=42)
        assert mcsim.simulate(config) == mcsim.simulate(config)

    def test_seed_changes_result(self):
        a = mcsim.simulate(SimConfig("g2", k=64, trials=2000, seed=1))
        b = mcsim.simulate(SimConfig("g2", k=64, trials=2000, seed=2))
        assert a.lyap_hat != b.lyap_hat

    def test_binomial_concordance(self):
        result = mcsim.simulate(SimConfig("g1", k=64, trials=10**5))
        assert abs(result.lyap_hat - LN2 / 2) < 4 * result.stderr_lyap
        assert abs(result.sigma2_hat - LN2**2 / 4) < 4 * result.stderr_sigma2

    def test_bias_shrinks_with_k(self):
        lam = LN2 / 2
        small = mcsim.simulate(SimConfig("g1", k=64, trials=20000, seed=11))
        large = mcsim.simulate(SimConfig("g1", k=128, trials=20000, seed=11))
        budget = 4 * (small.stderr_lyap + large.stderr_lyap)
        assert abs(large.lyap_hat - lam) <= abs(small.lyap_hat - lam) + budget


class TestSimulateMoment:
    def test_t_zero_is_exactly_zero(self):
        result = mcsim.simulate_moment(SimConfig("g1", k=32, trials=500), 0.0)
        assert result.moment_rate == 0.0

    def test_binomial_second_moment(self):
        result = mcsim.simulate_moment(
            SimConfig("g1", k=32, trials=10**5), 2.0
        )
        # finite-k bias for the moment rate is O(1/k); allow it on top of
        # the bootstrap band
        assert abs(result.moment_rate - math.log(2.5)) < \
            4 * result.moment_stderr + 2.5 / 32

    def test_quadrinomial_first_moment(self):
        result = mcsim.simulate_moment(
            SimConfig("g3", k=32, trials=4 * 10**4), 1.0
        )
        assert abs(result.moment_rate - math.log(1.5)) < \
            4 * result.moment_stderr + 2.5 / 32

    def test_t_capped(self):
        with pytest.raises(ValueError):
            mcsim.simulate_moment(SimConfig("g1", k=8, trials=10), 5.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused_before_the_trials(self, t, monkeypatch):
        # nan used to exit 0 with a null moment_rate
        def refuse(config):
            raise AssertionError("no trials expected")
        monkeypatch.setattr(mcsim, "log_product_norms", refuse)
        with pytest.raises(ValueError, match="t must be finite"):
            mcsim.simulate_moment(SimConfig("g1", k=8, trials=10), t)

    def test_json_dict(self):
        result = mcsim.simulate_moment(SimConfig("g1", k=8, trials=50), 1.0)
        data = result.to_json_dict()
        assert data["t"] == 1.0
        assert "moment_rate" in data
        assert data["family"] == "g1"
