"""Exact matrix algebra: hand-checked values plus randomized round trips."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
from lyapdisp import catalog, exactmat, gle
from lyapdisp.conjugate import sentinel_factorization
from lyapdisp.exactmat import (
    DimensionMismatch,
    NonConvergence,
    RationalMatrix,
    RankNotOne,
    ZeroMatrix,
    kronecker,
    poly_eval,
    poly_residual,
    rank_one_factor,
    spectral_radius,
)

D0_TRI = RationalMatrix([[1, 2], [0, 0]])
D0_QUAD = RationalMatrix([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def random_matrix(rng, n, lo=-4, hi=4):
    return RationalMatrix(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    )


class TestExactRows:
    def test_ints_stay_ints(self):
        product = exactmat.row_times((1, 2), ((3, 4), (5, 6)))
        assert product == (11, 17)
        assert all(type(x) is int for x in product)
        assert type(exactmat.dot((1, 2), (3, 4))) is int

    def test_fractions(self):
        assert exactmat.dot((Fraction(1, 2), 1), (3, Fraction(1, 3))) == \
            Fraction(11, 6)

    def test_int_rows_share_one_denominator(self):
        rows, den = exactmat.int_rows([[Fraction(1, 2), Fraction(-1, 3)], [2, 0]])
        assert (rows, den) == ([[3, -2], [12, 0]], 6)
        assert exactmat.int_rows([[1, 2]]) == ([[1, 2]], 1)


def diagonal_conjugate(matrix: RationalMatrix, diag) -> RationalMatrix:
    """Q^-1 D Q for Q = diag(diag)."""
    n = matrix.dim
    return RationalMatrix([[matrix.rows[i][j] * diag[j] / diag[i]
                            for j in range(n)] for i in range(n)])


def all_words(max_len: int):
    for length in range(max_len + 1):
        for bits in product("01", repeat=length):
            yield "".join(bits)


# two primes of about 60 bits: 2^61 - 1 and the largest prime below 2^59
P61 = 2**61 - 1
P59 = 2**59 - 55


class TestDiagonalBalance:
    def test_fractional_diagonal_entry_is_infeasible(self):
        d0 = RationalMatrix([["1/2", 1], [1, 0]])
        assert exactmat.diagonal_balance(d0.rows, D0_TRI.rows) is None

    def test_cycle_with_a_denominator_is_infeasible(self):
        # D[0,1] D[1,0] = 1/2 in every diagonal conjugate
        d1 = RationalMatrix([[0, "1/2"], [1, 0]])
        assert exactmat.diagonal_balance(D0_TRI.rows, d1.rows) is None

    def test_integer_pair_comes_back_unchanged(self):
        fam = catalog.get_family("h4")
        assert exactmat.diagonal_balance(fam.d0.rows, fam.d1.rows) == \
            (1,) * fam.dim
        alpha, beta = (1,) + (0,) * 7, (1,) * 8
        pair = exactmat.balanced_pair(fam.d0.rows, fam.d1.rows,
                                      [Fraction(x) for x in alpha],
                                      [Fraction(x) for x in beta])
        assert pair == ([list(row) for row in fam.d0.rows],
                        [list(row) for row in fam.d1.rows],
                        list(alpha), list(beta))

    def test_undoes_a_diagonal_conjugation(self):
        diag = [Fraction(1), Fraction(1, 6), Fraction(4, 15)]
        d0 = diagonal_conjugate(D0_QUAD, diag)
        diag = exactmat.diagonal_balance(d0.rows)
        assert diag is not None
        balanced = diagonal_conjugate(d0, [1 / p for p in diag])
        assert all(x.denominator == 1 for row in balanced.rows for x in row)

    @pytest.mark.parametrize("name", ["g3", "h4", "g5"])
    def test_corners_of_the_balanced_pair(self, name):
        fam = catalog.get_family(name)
        rng = random.Random(name)
        diag = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(fam.dim)]
        d0, d1 = (diagonal_conjugate(m, diag) for m in (fam.d0, fam.d1))
        fact = sentinel_factorization(d0, d1, fam.q)
        n0, n1, a, b = exactmat.balanced_pair(
            d0.rows, d1.rows, fact.alpha, fact.beta)
        assert all(x.denominator == 1 for xs in (*n0, *n1, a, b) for x in xs)
        int0, int1 = RationalMatrix(n0), RationalMatrix(n1)
        for word in all_words(10):
            assert oracles.corner(b, a, int0, int1, word) == \
                oracles.corner(fact.beta, fact.alpha, d0, d1, word)

    def test_two_large_primes_are_not_factored(self):
        # Q = diag(1, P61 P59, 1): the balancer only takes gcds, so the
        # 120-bit denominator never needs its factors
        fam = catalog.get_family("g3")
        diag = [Fraction(1), Fraction(P61 * P59), Fraction(1)]
        d0, d1 = (diagonal_conjugate(m, diag) for m in (fam.d0, fam.d1))
        start = time.perf_counter()
        balanced = exactmat.diagonal_balance(d0.rows, d1.rows)
        assert time.perf_counter() - start < 0.1
        assert balanced is not None
        for m in (d0, d1):
            back = diagonal_conjugate(m, [1 / p for p in balanced])
            assert all(x.denominator == 1 for row in back.rows for x in row)
        # the same denominator on the diagonal cannot be balanced
        d1 = RationalMatrix([[Fraction(1, P61 * P59), 1, 0], [1, 0, 1],
                             [0, 1, 1]])
        start = time.perf_counter()
        assert exactmat.diagonal_balance(d0.rows, d1.rows) is None
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("hi", [9, 1000])
    @pytest.mark.parametrize("name", catalog.family_names())
    def test_matches_the_coprime_base_oracle(self, name, hi):
        fam = catalog.get_family(name)
        rng = random.Random(f"{name}-{hi}")
        for _ in range(25):
            diag = [Fraction(rng.randint(1, hi), rng.randint(1, hi))
                    for _ in range(fam.dim)]
            rows = [diagonal_conjugate(m, diag).rows for m in (fam.d0, fam.d1)]
            balanced = exactmat.diagonal_balance(*rows)
            assert balanced is not None
            assert balanced == oracles.diagonal_balance_by_base(*rows)

    @pytest.mark.parametrize("rows, feasible", [
        # a P61 P59 factor around the cycle 0 -> 1 -> 2 -> 0, product 3
        ([[1, Fraction(P61 * P59, 7), 0], [0, 0, Fraction(21, P59)],
          [Fraction(1, P61), 0, 0]], True),
        # a fractional diagonal entry
        ([["1/3", 1, 0], [0, 0, 1], [1, 0, 0]], False),
        # the 2-cycle D[1, 2] D[2, 1] = 2/3
        ([[1, 0, 0], [0, 0, "2/9"], [0, 3, 0]], False),
    ])
    def test_edge_cases_match_the_oracle(self, rows, feasible):
        rows = RationalMatrix(rows).rows
        balanced = exactmat.diagonal_balance(rows)
        assert (balanced is not None) == feasible
        assert balanced == oracles.diagonal_balance_by_base(rows)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_chain_against_the_relaxation_order_balances(self, n):
        # D[k, k-1] = 1 / (k-th prime): the relaxation visits row 1 first,
        # so the denominators move one edge per round, n - 1 edges in all
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        rows = [[Fraction(1, primes[i - 1]) if j == i - 1 else Fraction(0)
                 for j in range(n)] for i in range(n)]
        balanced = exactmat.diagonal_balance(rows)
        assert balanced == oracles.diagonal_balance_by_base(rows)
        assert balanced[-1] == 1
        assert balanced[0] == Fraction(1, math.prod(primes[:n - 1]))
        back = diagonal_conjugate(RationalMatrix(rows),
                                  [1 / p for p in balanced])
        assert all(x.denominator == 1 for row in back.rows for x in row)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cycle_with_product_one_half_is_infeasible(self, n):
        rows = [[Fraction(1, 2) if (i, j) == (n - 1, 0) else
                 Fraction(int(j == i + 1)) for j in range(n)]
                for i in range(n)]
        assert exactmat.diagonal_balance(rows) is None
        assert oracles.diagonal_balance_by_base(rows) is None


def random_int_array(rng, n, lo=-4, hi=4):
    return np.array([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)],
                    dtype=float)


class TestKronecker:
    def test_scalars(self):
        assert kronecker([[1.0]], [[1.0]]).tolist() == [[1.0]]
        assert kronecker([[2.0]], [[2.0]]).tolist() == [[4.0]]

    def test_trinomial_d0_square(self):
        result = kronecker(D0_TRI.to_float(), D0_TRI.to_float())
        assert result.dtype == np.float64
        assert result.tolist() == [
            [1, 2, 2, 4],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]

    def test_mixed_product_property(self):
        # small integers keep every product exact, so equality is exact
        rng = random.Random(11)
        for _ in range(5):
            a, b = random_int_array(rng, 2), random_int_array(rng, 3)
            c, d = random_int_array(rng, 2), random_int_array(rng, 3)
            lhs = kronecker(a, b) @ kronecker(c, d)
            rhs = kronecker(a @ c, b @ d)
            assert np.array_equal(lhs, rhs)

    def test_dimension_cap(self, monkeypatch):
        # the one cap is gle's, checked before any power is built
        def refuse(a, b):
            raise AssertionError("kronecker called past the cap")

        monkeypatch.setattr(exactmat, "kronecker", refuse)
        assert 6**5 > gle.MAX_REPLICA_DIM
        with pytest.raises(gle.DimensionCap):
            gle.replica_exponent("g5", 5)


class TestRankOneFactor:
    def test_elementary(self):
        e00 = RationalMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        alpha, beta = rank_one_factor(e00)
        assert alpha == (1, 0, 0)
        assert beta == (1, 0, 0)

    def test_trinomial_d0(self):
        alpha, beta = rank_one_factor(D0_TRI)
        assert alpha == (1, 0)
        assert beta == (1, 2)

    def test_identity_not_rank_one(self):
        with pytest.raises(RankNotOne):
            rank_one_factor(RationalMatrix([[1, 0], [0, 1]]))

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            rank_one_factor(RationalMatrix([[0, 0], [0, 0]]))

    def test_round_trip_on_random_outer_products(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            u = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            if not any(u) or not any(v):
                continue
            a = RationalMatrix([[ui * vj for vj in v] for ui in u])
            alpha, beta = rank_one_factor(a)
            rebuilt = RationalMatrix(
                [[x * y for y in beta] for x in alpha]
            )
            assert rebuilt == a

    def test_random_rank_two_rejected(self):
        rng = random.Random(5)
        rejected = 0
        for _ in range(20):
            a = random_matrix(rng, 3)
            try:
                alpha, beta = rank_one_factor(a)
            except (RankNotOne, ZeroMatrix):
                rejected += 1
                continue
            rebuilt = RationalMatrix([[x * y for y in beta] for x in alpha])
            assert rebuilt == a
        assert rejected > 10  # random matrices are almost never rank 1


class TestSpectralRadius:
    def test_binomial_replica_values(self):
        assert spectral_radius([[1.5]]) == pytest.approx(1.5, abs=1e-12)
        assert spectral_radius(np.array([[2.5]])) == pytest.approx(2.5, abs=1e-12)

    def test_trinomial_replica_matches_minimal_polynomial(self):
        d0 = D0_TRI.to_float()
        d1 = np.array([[1.0, 2.0], [1.0, 0.0]])
        avg = (kronecker(d0, d0) + kronecker(d1, d1)) / 2
        xi = spectral_radius(avg, tol=1e-14)
        assert 2.8 < xi < 2.82
        assert poly_residual((1, -2, -3, 2), xi) < 1e-10

    def test_diagonal(self):
        assert spectral_radius([[3.0, 0.0], [0.0, 7.0]]) == pytest.approx(
            7.0, abs=1e-10
        )

    def test_periodic_matrix(self):
        # plain power iteration would oscillate on the swap matrix
        assert spectral_radius([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_row_sum_bracketing(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 5)
            arr = [[rng.random() * 3 for _ in range(n)] for _ in range(n)]
            rho = spectral_radius(arr)
            sums = [sum(row) for row in arr]
            assert min(sums) - 1e-9 <= rho <= max(sums) + 1e-9

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius([[1.0, -1.0], [0.0, 1.0]])

    def test_nonconvergence_budget(self):
        # all-ones start is not the eigenvector here, so 3 iterations
        # cannot reach a 1e-30 Rayleigh increment
        with pytest.raises(NonConvergence):
            spectral_radius([[2.0, 1.0], [0.0, 1.0]], tol=1e-30,
                            max_iterations=3)


class TestPolynomials:
    def test_trinomial_minpoly_at_one(self):
        assert poly_eval((1, -2, -3, 2), 1.0) == -2.0

    def test_horner_matches_naive(self):
        rng = random.Random(29)
        for _ in range(10):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
            x = rng.uniform(-2, 2)
            naive = sum(
                c * x ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)
            )
            assert poly_eval(coeffs, x) == pytest.approx(naive, rel=1e-12)

    def test_residual_small_at_root(self):
        # (x-2)(x+3) has a root at 2
        assert poly_residual((1, 1, -6), 2.0) < 1e-15
        assert poly_residual((1, 1, -6), 2.1) > 1e-3

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            poly_eval((), 1.0)


class TestRationalMatrix:
    def test_entries_reduced_and_exact(self):
        m = RationalMatrix([["2/4", 1], [0, "3/3"]])
        assert m[0, 0] == Fraction(1, 2)
        assert m[1, 1] == 1

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            RationalMatrix([[0.5]])

    def test_immutable(self):
        m = RationalMatrix([[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            m.dim = 3

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            RationalMatrix([[1, 2]])
