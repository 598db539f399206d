"""Sentinel factorization, corner values, and the E00 conjugation."""

import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from lyapdisp import catalog
from lyapdisp.conjugate import NotIdempotentSimilar, sentinel_factorization
from lyapdisp.exactmat import RankNotOne, RationalMatrix

ALL_FAMILIES = list(catalog.family_names())
IDENTITY_2 = RationalMatrix([[1, 0], [0, 1]])


def exact(m):
    """m as a numpy object array: its products and powers stay Fractions."""
    return np.array(m.rows, dtype=object)


def fact_for(name):
    fam = catalog.get_family(name)
    return sentinel_factorization(fam.d0, fam.d1, fam.q, fam.name), fam


class TestSentinelFactorization:
    def test_binomial(self):
        fact, _ = fact_for("g1")
        assert fact.alpha == (1,)
        assert fact.beta == (1,)

    def test_quadrinomial(self):
        fact, _ = fact_for("g3")
        assert fact.alpha == (1, 0, 0)
        assert fact.beta == (1, 2, 2)

    def test_identity_rejected(self):
        with pytest.raises(RankNotOne):
            sentinel_factorization(IDENTITY_2, IDENTITY_2, 1)

    def test_wrong_trace_rejected(self):
        d0 = RationalMatrix([[2, 0], [0, 0]])  # rank 1 but trace 2
        with pytest.raises(NotIdempotentSimilar):
            sentinel_factorization(d0, IDENTITY_2, 1)

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_normalization_and_reconstruction(self, name):
        fact, fam = fact_for(name)
        dot = sum((a * b for a, b in zip(fact.alpha, fact.beta)), Fraction(0))
        assert dot == 1
        power = np.linalg.matrix_power(exact(fam.d0), fam.q)
        rebuilt = RationalMatrix(
            [[a * b for b in fact.beta] for a in fact.alpha]
        )
        assert rebuilt == RationalMatrix(power.tolist())

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_integer_power_gives_the_fraction_power_factors(self, name):
        fam = catalog.get_family(name)
        diag = [Fraction(2 * i + 3, i + 2) for i in range(fam.dim)]
        pairs = [(fam.d0, fam.d1)]
        pairs.append(tuple(
            RationalMatrix([[m.rows[i][j] * diag[j] / diag[i]
                             for j in range(fam.dim)] for i in range(fam.dim)])
            for m in (fam.d0, fam.d1)))
        for d0, d1 in pairs:
            fact = sentinel_factorization(d0, d1, fam.q)
            alpha, beta = oracles.fraction_power_factor(d0, fam.q)
            assert (fact.alpha, fact.beta) == (alpha, beta)
            assert all(type(x) is Fraction for x in fact.alpha + fact.beta)


class TestCornerValue:
    def test_empty_word(self):
        fact, _ = fact_for("h4")
        assert oracles.corner_value(fact, "") == 1

    def test_quadrinomial_single_one(self):
        fact, _ = fact_for("g3")
        assert oracles.corner_value(fact, "1") == 4

    def test_trinomial_formula(self):
        fact, _ = fact_for("g2")
        assert oracles.corner_value(fact, "111") == 11
        for k in range(10):
            assert oracles.corner_value(fact, "1" * k) == Fraction(
                2 ** (k + 2) - (-1) ** k, 3
            )

    def test_invalid_symbol(self):
        fact, _ = fact_for("g1")
        with pytest.raises(ValueError):
            oracles.corner_value(fact, "102")

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_matches_tabulated_conjugated_pair(self, name):
        """corner(w) equals the (0,0) entry of the tabulated D'_w products.

        The tabulated sentinel D'0^q is E00, the single 1 at (0, 0).
        """
        fact, fam = fact_for(name)
        assert fam.d0_prime is not None
        e00 = RationalMatrix(
            [[int(i == j == 0) for j in range(fam.dim)] for i in range(fam.dim)]
        )
        assert RationalMatrix(
            np.linalg.matrix_power(exact(fam.d0_prime), fam.q).tolist()) == e00
        for length in range(0, 9):
            for word in oracles.words_of_length(fam.q, length):
                top_left = _top_left(fam.d0_prime, fam.d1_prime, word)
                assert oracles.corner_value(fact, word) == top_left, (name, word)

    @pytest.mark.parametrize("name", ["g2", "g3", "g5"])
    def test_sentinel_multiplicativity(self, name):
        """corner(u 0^q v) = corner(u) * corner(v) for chi words u, v."""
        fact, fam = fact_for(name)
        rng = random.Random(19)
        pool = [
            w for length in range(0, 6)
            for w in oracles.words_of_length(fam.q, length)
        ]
        for _ in range(25):
            u, v = rng.choice(pool), rng.choice(pool)
            joined = u + "0" * fam.q + v
            assert oracles.corner_value(fact, joined) == \
                oracles.corner_value(fact, u) * oracles.corner_value(fact, v)


def _exact_inverse(a):
    """Gauss-Jordan inverse over the rationals; a test-side oracle."""
    n = a.dim
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return RationalMatrix(row[n:] for row in m)


def _conjugate_by_q(fact, null_basis=None):
    """Q = [alpha | N], N a basis of the null space of beta^T.

    Returns (Q, Q^-1, Q^-1 D0 Q, Q^-1 D1 Q).  The default N pivots on the
    first nonzero coordinate p of beta: e_j - (beta_j / beta_p) e_p, j != p.
    """
    m = fact.d0.dim
    beta = fact.beta
    if null_basis is None:
        pivot = next(j for j in range(m) if beta[j] != 0)
        null_basis = tuple(
            tuple(
                Fraction(1) if i == j else
                (-beta[j] / beta[pivot] if i == pivot else Fraction(0))
                for i in range(m)
            )
            for j in range(m) if j != pivot
        )
    q = RationalMatrix(zip(fact.alpha, *null_basis))
    q_inv = _exact_inverse(q)
    return (
        q,
        q_inv,
        RationalMatrix((exact(q_inv) @ exact(fact.d0) @ exact(q)).tolist()),
        RationalMatrix((exact(q_inv) @ exact(fact.d1) @ exact(q)).tolist()),
    )


def _top_left(d0_prime, d1_prime, word):
    """(D'_w)[0, 0] = e0 . D'_w . e0, walked one symbol at a time."""
    e0 = [int(i == 0) for i in range(d0_prime.dim)]
    return oracles.corner(e0, e0, d0_prime, d1_prime, word)


class TestConjugationMatrix:
    """corner_value against an explicit conjugation Q^-1 D Q built here."""

    def test_binomial_trivial(self):
        fact, _ = fact_for("g1")
        _, _, d0_prime, d1_prime = _conjugate_by_q(fact)
        assert d0_prime == RationalMatrix([[1]])
        assert d1_prime == RationalMatrix([[2]])

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_conjugates_sentinel_to_e00(self, name):
        fact, fam = fact_for(name)
        q, q_inv, _, _ = _conjugate_by_q(fact)
        assert (exact(q) @ exact(q_inv)).tolist() == \
            np.identity(fam.dim, dtype=object).tolist()
        conj = (exact(q_inv) @ np.linalg.matrix_power(exact(fam.d0), fam.q)
                @ exact(q))
        e00 = RationalMatrix(
            [[int(i == j == 0) for j in range(fam.dim)] for i in range(fam.dim)]
        )
        assert RationalMatrix(conj.tolist()) == e00

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_corner_equals_conjugated_top_left(self, name):
        fact, fam = fact_for(name)
        _, _, d0_prime, d1_prime = _conjugate_by_q(fact)
        top = 8 if fam.dim <= 4 else 6
        for length in range(0, top + 1):
            for word in oracles.words_of_length(fam.q, length):
                assert _top_left(d0_prime, d1_prime, word) == \
                    oracles.corner_value(fact, word)

    def test_basis_independence(self):
        fact, fam = fact_for("g3")
        default = _conjugate_by_q(fact)
        # a different exact basis of the null space of beta^T: scale one
        # vector and mix in another
        pivot = next(j for j in range(fam.dim) if fact.beta[j] != 0)
        base = [
            tuple(
                Fraction(1) if i == j else
                (-fact.beta[j] / fact.beta[pivot] if i == pivot else Fraction(0))
                for i in range(fam.dim)
            )
            for j in range(fam.dim) if j != pivot
        ]
        twisted = (
            tuple(3 * x for x in base[0]),
            tuple(x + y for x, y in zip(base[0], base[1])),
        )
        alt = _conjugate_by_q(fact, null_basis=twisted)
        assert alt[0] != default[0]
        for length in range(0, 7):
            for word in oracles.words_of_length(fam.q, length):
                assert _top_left(alt[2], alt[3], word) == \
                    _top_left(default[2], default[3], word)
