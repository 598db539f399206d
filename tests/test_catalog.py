"""Catalog loading, validation, file round trips, and constant verification."""

import json
from fractions import Fraction

import numpy as np
import pytest

from lyapdisp import catalog, exactmat, gle
from oracles import family_to_dict
from lyapdisp.catalog import (
    InvariantViolation,
    ParseError,
    ReferenceConstants,
    UnknownFamily,
    family_from_dict,
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

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_validation_invariants(self, name):
        fam = get_family(name)
        assert fam.d0.is_nonnegative() and fam.d1.is_nonnegative()
        power = np.linalg.matrix_power(np.array(fam.d0.rows, dtype=object),
                                       fam.q)
        exactmat.rank_one_factor(exactmat.RationalMatrix(power.tolist()))
        assert sum(power[i, i] for i in range(fam.dim)) == 1

    def test_polynomial_masks_match_counts(self):
        # mask bit length - 1 is the polynomial degree d for 1 + x + ... + x^d
        assert get_family("g1").poly_mask == 0b11
        assert get_family("h3").poly_mask == 0b1011
        assert get_family("h4").poly_mask == 0b10011
        assert get_family("g6").poly_mask == 0b1111111


# The D0, D1 literals the catalog carried before it derived them from
# poly_mask, one string of digits per row, with the derived state order.
FORMER_PAIRS = {
    "g1": ("1", "2", [0b1]),
    "g2": ("12 00", "12 10", [0b1, 0b11]),
    "g3": ("120 001 000", "000 200 012", [0b1, 0b11, 0b101]),
    "h3": ("1210 0011 0000 0000", "1110 1001 0100 0011",
           [0b1, 0b11, 0b111, 0b101]),
    "g4": ("1120 0000 0102 0000", "0120 1000 1002 0100",
           [0b1, 0b111, 0b11, 0b1111]),
    "h4": ("10201211 00000000 01021011 00000000 00000000 00000000 00000000 "
           "00000000",
           "10100100 10000000 01011001 01000000 00100001 00010010 00001000 "
           "00000110",
           [0b1, 0b101, 0b11, 0b1111, 0b111, 0b1001, 0b1101, 0b1011]),
    "g5": ("112200 000000 010011 000000 000000 000010",
           "000000 220000 000000 001122 000100 000000",
           [0b1, 0b111, 0b11, 0b1001, 0b11011, 0b101]),
    "g6": ("101200 000000 000012 021010 000000 000000",
           "000210 100000 100002 021000 001000 000010",
           [0b1, 0b1111, 0b111, 0b11, 0b11111, 0b111111]),
}


def compact(matrix) -> str:
    return " ".join("".join(str(x) for x in row) for row in matrix.rows)


class TestPolynomialPair:
    def test_covers_every_family(self):
        assert set(FORMER_PAIRS) == set(catalog.family_names())

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_matches_former_literals(self, name):
        d0, d1, states = FORMER_PAIRS[name]
        fam = get_family(name)
        assert (compact(fam.d0), compact(fam.d1)) == (d0, d1)
        assert catalog._polynomial_pair(fam.poly_mask) == (
            states, fam.d0, fam.d1)

    @pytest.mark.parametrize("name", catalog.family_names())
    def test_rows_are_state_counts(self, name):
        """c(0) D_{z(n)}, digits most significant first, is the row of
        c_r(n) = #odd coefficients of r * p^n over the states r."""
        fam = get_family(name)
        states, d0, d1 = catalog._polynomial_pair(fam.poly_mask)

        def gf2_times(a, b):
            out = 0
            for i in range(b.bit_length()):
                if b >> i & 1:
                    out ^= a << i
            return out

        power = 1
        for n in range(128):
            row = [bin(r).count("1") for r in states]
            for bit in bin(n)[2:] if n else "":
                row = [sum(x * y for x, y in zip(row, col))
                       for col in zip(*(d1 if bit == "1" else d0).rows)]
            assert row == [bin(gf2_times(r, power)).count("1") for r in states]
            power = gf2_times(power, fam.poly_mask)


def load_family_file_from(tmp_path, data: dict):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    return load_family_file(str(path))


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

    def test_constants_source_still_loads(self):
        # older files carry a free-text "source"; it is ignored on load
        fam = get_family("g2")
        data = family_to_dict(fam)
        data["constants"]["source"] = "published tabulation"
        assert family_from_dict(data).constants == fam.constants

    def test_resolve_family_reads_at_paths(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family_to_dict(get_family("g2"))))
        fam = catalog.resolve_family(f"@{path}")
        assert fam is not get_family("g2")
        assert (fam.d0, fam.d1) == (get_family("g2").d0, get_family("g2").d1)

    def test_conjugated_pair_must_reproduce_corner_values(self):
        data = family_to_dict(get_family("g2"))
        data["d1_prime"] = [[7, 7], [7, 7]]
        with pytest.raises(InvariantViolation, match="corner values"):
            family_from_dict(data)

    def test_conjugated_pair_comes_whole(self):
        data = family_to_dict(get_family("g2"))
        del data["d1_prime"]
        with pytest.raises(InvariantViolation, match="pair"):
            family_from_dict(data)

    def test_conjugated_sentinel_must_be_e00(self):
        data = family_to_dict(get_family("h4"))
        n = data["dim"]

        def diagonal(*entries):
            return [[entries[i] if i == j and i < len(entries) else 0
                     for j in range(n)] for i in range(n)]

        # D0 itself (rank 1, trace 1, other factors), E11 (rank 1, trace 1),
        # rank 2, zero, and 2 E00 (trace 4 at q = 2)
        for d0_prime in (data["d0"], diagonal(0, 1), diagonal(1, 1),
                         diagonal(), diagonal(2)):
            data["d0_prime"] = d0_prime
            with pytest.raises(InvariantViolation, match="E00"):
                family_from_dict(data)

    def test_conjugated_pair_in_another_basis_loads(self):
        # P^-1 D' P with P diagonal and P[0, 0] = 1 keeps E00 and every corner
        fam = get_family("h4")
        p = [Fraction(1)] + [Fraction(k + 2, 3) for k in range(fam.dim - 1)]
        data = family_to_dict(fam)
        for key, m in (("d0_prime", fam.d0_prime), ("d1_prime", fam.d1_prime)):
            data[key] = [[str(m[i, j] * p[j] / p[i]) for j in range(fam.dim)]
                         for i in range(fam.dim)]
        loaded = family_from_dict(data)
        assert loaded.d1_prime != fam.d1_prime

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

    @pytest.mark.parametrize("key, value", [
        ("poly_mask", 7.9),
        ("poly_mask", True),
        ("poly_mask", -3),
        ("dim", True),
        ("q", True),
        ("d0", [[True]]),
        ("d1", [[False]]),
        ("d0_prime", [[True]]),
        ("d1_prime", [[False]]),
    ])
    def test_malformed_numbers_rejected(self, tmp_path, key, value):
        data = {"name": "x", "q": 1, "dim": 1, "d0": [["1"]], "d1": [["2"]],
                "poly_mask": 3}
        load_family_file_from(tmp_path, data)  # the unaltered file loads
        data[key] = value
        with pytest.raises(ParseError, match=key):
            load_family_file_from(tmp_path, data)

    @pytest.mark.parametrize("key, value", [
        ("lambda", 0.43),
        ("sigma2", "0.1x"),
        ("minpoly", ["x", 2]),
        ("minpoly", [1, True]),
        ("minpoly", []),
    ])
    def test_malformed_constants_rejected(self, tmp_path, key, value):
        data = family_to_dict(get_family("g2"))
        load_family_file_from(tmp_path, data)  # the unaltered file loads
        data["constants"][key] = value
        with pytest.raises(ParseError, match=f"constants {key} must be"):
            load_family_file_from(tmp_path, data)

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
        data = family_to_dict(get_family("g2"))
        data["constants"] = 0.43
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="constants must be an object"):
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
