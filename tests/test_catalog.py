"""Catalog loading, validation, file round trips, and constant verification."""

import json

import pytest

from lyapdisp import catalog, exactmat, gle
from lyapdisp.catalog import (
    InvariantViolation,
    ParseError,
    ReferenceConstants,
    UnknownFamily,
    family_from_dict,
    family_to_dict,
    get_family,
    load_family_file,
    verify_constants,
)


class TestGetFamily:
    def test_names_and_order(self):
        assert catalog.family_names() == (
            "g1", "g2", "g3", "h3", "g4", "h4", "g5", "g6"
        )

    def test_binomial(self):
        fam = get_family("g1")
        assert fam.q == 1
        assert fam.d0[0, 0] == 1
        assert fam.d1[0, 0] == 2

    def test_septinomial_first_row(self):
        fam = get_family("g6")
        assert [int(x) for x in fam.d0.rows[0]] == [1, 0, 1, 2, 0, 0]
        assert fam.q == 3

    def test_aliases_case_insensitive(self):
        assert get_family("binomial") is get_family("g1")
        assert get_family("Trinomial-III") is get_family("h4")
        assert get_family("QUADRINOMIAL") is get_family("g3")

    def test_unknown(self):
        with pytest.raises(UnknownFamily):
            get_family("nosuch")

    @pytest.mark.parametrize("name", catalog.FAMILY_NAMES)
    def test_validation_invariants(self, name):
        fam = get_family(name)
        assert fam.d0.is_nonnegative() and fam.d1.is_nonnegative()
        power = exactmat.mat_pow(fam.d0, fam.q)
        exactmat.rank_one_factor(power)  # must not raise
        assert power.trace() == 1

    def test_polynomial_masks_match_counts(self):
        # mask bit length - 1 is the polynomial degree d for 1 + x + ... + x^d
        assert get_family("g1").poly_mask == 0b11
        assert get_family("h3").poly_mask == 0b1011
        assert get_family("h4").poly_mask == 0b10011
        assert get_family("g6").poly_mask == 0b1111111


class TestFamilyFiles:
    def test_round_trip_all(self):
        for name in catalog.family_names():
            fam = get_family(name)
            clone = family_from_dict(family_to_dict(fam))
            assert clone.d0 == fam.d0
            assert clone.d1 == fam.d1
            assert clone.q == fam.q
            assert clone.d0_prime == fam.d0_prime
            assert clone.constants.minpoly == fam.constants.minpoly

    def test_file_round_trip(self, tmp_path):
        fam = get_family("g2")
        path = tmp_path / "g2.json"
        path.write_text(json.dumps(family_to_dict(fam)))
        loaded = load_family_file(str(path))
        assert loaded.d0 == fam.d0
        assert loaded.d1 == fam.d1

    def test_fractional_entries_parse(self, tmp_path):
        data = {
            "name": "frac",
            "q": 1,
            "dim": 2,
            "d0": [["1/2", "1"], ["1/4", "1/2"]],
            "d1": [["1", "2"], ["1", "1"]],
        }
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(data))
        fam = load_family_file(str(path))
        assert fam.d0[0, 0] == exactmat.RationalMatrix([["1/2"]])[0, 0]

    def test_rank_violation(self, tmp_path):
        data = {
            "name": "bad", "q": 1, "dim": 2,
            "d0": [["1", "0"], ["0", "1"]],
            "d1": [["1", "0"], ["0", "1"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation, match="rank"):
            load_family_file(str(path))

    def test_trace_violation(self, tmp_path):
        data = {
            "name": "bad", "q": 1, "dim": 2,
            "d0": [["2", "0"], ["0", "0"]],
            "d1": [["1", "1"], ["1", "1"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation, match="trace"):
            load_family_file(str(path))

    def test_negative_entries_rejected(self, tmp_path):
        data = {
            "name": "bad", "q": 1, "dim": 1,
            "d0": [["1"]],
            "d1": [["-2"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation, match="nonneg"):
            load_family_file(str(path))

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_family_file(str(path))
        path.write_text(json.dumps({"name": "x", "q": 1, "dim": 1, "d0": [["1"]]}))
        with pytest.raises(ParseError, match="d1"):
            load_family_file(str(path))
        path.write_text(json.dumps({
            "name": "x", "q": 1, "dim": 1, "d0": [["1/0"]], "d1": [["1"]],
        }))
        with pytest.raises(ParseError, match="bad rational"):
            load_family_file(str(path))
        path.write_text(json.dumps({
            "name": "x", "q": 1, "dim": 1, "d0": [[0.5]], "d1": [["1"]],
        }))
        with pytest.raises(ParseError, match="p/q"):
            load_family_file(str(path))


class TestReferenceConstants:
    def test_decimal_places(self):
        assert ReferenceConstants.decimal_places("0.0965") == 4
        assert ReferenceConstants.decimal_places("1.5") == 1
        assert ReferenceConstants.decimal_places("3") == 0

    def test_every_family_has_constants(self):
        for name in catalog.family_names():
            c = get_family(name).constants
            assert c is not None
            assert float(c.lambda_ref) > 0
            assert c.minpoly[0] != 0


class TestVerifyConstants:
    def test_binomial_all_pass(self):
        fam = get_family("g1")
        report = gle.exponents(fam)
        rows = verify_constants(fam, report)
        quantities = {row["quantity"] for row in rows}
        assert {"lambda", "sigma2", "sigma2_over_ln2", "L2_over_ln2",
                "minpoly_residual", "zero_corner_words"} <= quantities
        assert all(row["pass"] for row in rows), rows

    def test_failures_are_data_not_errors(self):
        fam = get_family("g1")
        report = gle.exponents(fam)
        tampered = catalog.MatrixFamily(
            name=fam.name, q=fam.q, d0=fam.d0, d1=fam.d1,
            poly_mask=fam.poly_mask,
            constants=ReferenceConstants(
                lambda_ref="0.9999999999",
                sigma2_ref="0.9999999999",
                avg_ref="9.9",
                typ_ref="0.9999999999",
                minpoly=(1, -3),
            ),
        )
        rows = verify_constants(tampered, report)
        failing = [row for row in rows if not row["pass"]]
        assert failing
        assert any(row["quantity"] == "lambda" for row in failing)
