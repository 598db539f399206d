"""Monte Carlo machinery: exactness of the bookkeeping and determinism."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from lyapdisp import catalog, mcsim
from lyapdisp.cli import dumps_fixed
from lyapdisp.exactmat import RationalMatrix
from lyapdisp.mcsim import DegenerateProduct, SimConfig

LN2 = math.log(2.0)


def conjugated_family(name: str, diag=None) -> catalog.MatrixFamily:
    """The family under D -> Q^-1 D Q for a positive rational diagonal Q,
    by default with entries (2i+3)/(i+2): still nonnegative, with entries
    that are not exact floats."""
    fam = catalog.get_family(name)
    if diag is None:
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
            matrix = np.identity(fam.dim, dtype=object)
            for d in digits[trial]:
                matrix = matrix @ np.array((fam.d1 if d else fam.d0).rows,
                                           dtype=object)
            norm = max(sum(abs(x) for x in row) for row in matrix.tolist())
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
        # only words of the shape 0^a or 0^a 1 survive, so k must stay small
        config = SimConfig(nil_family(), k=4, trials=200, seed=1)
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


def nil_family() -> catalog.MatrixFamily:
    """Only words of the shape 0^a or 0^a 1 have a nonzero product."""
    d0 = RationalMatrix([[1, 0], [0, 0]])
    d1 = RationalMatrix([[0, 1], [0, 0]])  # d1 @ d1 = 0
    return catalog.MatrixFamily(name="nil", q=1, d0=d0, d1=d1, poly_mask=0)


def scaled_family_file(tmp_path, name: str, power: int) -> str:
    """@path of a family file holding the family conjugated by
    Q = diag(1, 2^-power, 1, ...): a valid family whose entry D[1][0] is
    scaled by 2^power."""
    diag = [Fraction(1)] * catalog.get_family(name).dim
    diag[1] = Fraction(1, 2**power)
    path = tmp_path / f"{name}-scaled-{power}.json"
    path.write_text(json.dumps(
        oracles.family_to_dict(conjugated_family(name, diag))))
    return f"@{path}"


class TestMatchesWhereKernel:
    """The digit-weighted step gives the np.where kernel's arrays bit for
    bit: x * 1 = x, x * 0 = +0 and x + 0 = x on finite x >= 0."""

    @staticmethod
    def assert_same(config):
        log_norms, degenerate = mcsim.log_product_norms(config)
        want_norms, want_degenerate = oracles.log_product_norms_where(config)
        assert np.array_equal(log_norms, want_norms)
        assert degenerate == want_degenerate

    @pytest.mark.parametrize("seed", [5, 20080318])
    @pytest.mark.parametrize("name", catalog.family_names())
    def test_builtins_at_benchmark_size(self, name, seed):
        self.assert_same(SimConfig(name, k=256, trials=5000, seed=seed))

    @pytest.mark.parametrize("name,k", [
        ("g2", 1), ("h4", 1), ("g1", 1024), ("g3", 1024), ("h4", 1024),
    ])
    def test_one_digit_and_many_renormalizations(self, name, k):
        self.assert_same(SimConfig(name, k=k, trials=700, seed=8))

    def test_trials_not_a_multiple_of_64(self):
        self.assert_same(SimConfig("g5", k=200, trials=1001, seed=2))

    def test_conjugated_family_file(self, tmp_path):
        path = tmp_path / "h4-conj.json"
        path.write_text(json.dumps(oracles.family_to_dict(conjugated_family("h4"))))
        config = SimConfig(f"@{path}", k=256, trials=2000, seed=3)
        rows = catalog.resolve_family(config.family).d0.rows
        assert any(x.denominator > 1 for row in rows for x in row)
        self.assert_same(config)

    def test_degenerate_products(self):
        self.assert_same(SimConfig(nil_family(), k=4, trials=200, seed=1))

    def test_entries_just_inside_the_bound(self, tmp_path):
        # row sum 2^900: a step's products reach 2^1000, below the limit
        self.assert_same(SimConfig(
            scaled_family_file(tmp_path, "g2", 900), k=64, trials=300, seed=4))

    @pytest.mark.parametrize("t", [None, 2.0])
    def test_simulate_json_unchanged(self, monkeypatch, t):
        config = SimConfig("g3", k=256, trials=3000, seed=7)

        def report():
            result = (mcsim.simulate(config) if t is None
                      else mcsim.simulate_moment(config, t))
            return dumps_fixed(result.to_json_dict()), result.log_norms

        text, log_norms = report()
        monkeypatch.setattr(mcsim, "log_product_norms",
                            oracles.log_product_norms_where)
        want_text, want_norms = report()
        assert text == want_text
        assert np.array_equal(log_norms, want_norms)


class TestRowSumBound:
    def test_family_file_past_the_bound_refused(self, tmp_path):
        # row sum 2^960: 2^100 times it is past the float maximum
        config = SimConfig(scaled_family_file(tmp_path, "g2", 960), k=8,
                           trials=10, seed=1)
        with pytest.raises(ValueError, match="half the float maximum"):
            mcsim.log_product_norms(config)

    def test_limit_is_half_the_float_maximum_over_two_to_the_100(self):
        row_sum = mcsim.MAX_ROW_SUM
        assert row_sum * mcsim.RENORM_THRESHOLD * 2 == np.finfo(np.float64).max
        edge = catalog.MatrixFamily(
            name="edge", q=1, poly_mask=0,
            d0=RationalMatrix([[Fraction(float(row_sum))]]),
            d1=RationalMatrix([[1]]))
        with pytest.raises(ValueError, match="row sum"):
            mcsim.log_product_norms(SimConfig(edge, k=2, trials=4))
        below = float(np.nextafter(row_sum, 0.0))
        inside = catalog.MatrixFamily(
            name="inside", q=1, poly_mask=0,
            d0=RationalMatrix([[Fraction(below)]]), d1=RationalMatrix([[1]]))
        TestMatchesWhereKernel.assert_same(SimConfig(inside, k=40, trials=64))


class TestSimulate:
    def test_family_file_is_loaded_once(self, tmp_path, monkeypatch):
        path = scaled_family_file(tmp_path, "g2", 3)
        loads = []
        load = catalog.load_family_file

        def spy(name):
            loads.append(name)
            return load(name)

        monkeypatch.setattr(catalog, "load_family_file", spy)
        config = SimConfig(path, k=16, trials=50)
        mcsim.simulate(config)
        assert loads == [path[1:]]
        mcsim.simulate_moment(config, 1.0)
        assert loads == [path[1:]] * 2

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
