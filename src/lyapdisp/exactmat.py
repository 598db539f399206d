"""Exact rational matrix algebra plus the little float spectral machinery we need.

Matrices are small (catalog families are at most 8x8) and products of them
grow exponentially, so the factorizations and powers behind the corner
values are kept as exact `fractions.Fraction` values end to end.
`balanced_pair` hands the word scan a pair and its corner vectors with
the denominators balanced away by a diagonal similarity where one can.
`diagonal_balance` finds that similarity by one gcd relaxation over the
rationals: a difference constraint per prime and nonzero entry,
every prime solved at once within dim + 1 rounds, no number factored.
Floating point appears only on the replica route: `kronecker` multiplies
float64 arrays, and `spectral_radius` and `poly_eval` work on floats.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RationalMatrix",
    "dot",
    "row_times",
    "int_rows",
    "diagonal_balance",
    "balanced_pair",
    "kronecker",
    "rank_one_factor",
    "spectral_radius",
    "poly_eval",
    "poly_residual",
    "DimensionMismatch",
    "RankNotOne",
    "ZeroMatrix",
    "NonConvergence",
]

DEFAULT_MAX_POWER_ITERATIONS = 10**6


class DimensionMismatch(ValueError):
    pass


class RankNotOne(ValueError):
    pass


class ZeroMatrix(ValueError):
    pass


class NonConvergence(ArithmeticError):
    pass


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"entry {x!r} is not an exact rational")


class RationalMatrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_to_fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"RationalMatrix[{body}]"

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.rows for x in row)

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)


def dot(x, y):
    """Exact sum of x[i] * y[i]; ints stay ints, Fractions stay Fractions."""
    return sum(map(operator.mul, x, y))


def row_times(row, cols) -> tuple:
    """The exact row product row . M, where cols are the columns of M.

    Passing the rows of M as cols gives the column product M . row instead.
    """
    return tuple(dot(row, col) for col in cols)


def int_rows(rows) -> tuple[list[list[int]], int]:
    """(n, den) with rows == n / den exactly: integer rows, common denominator."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def diagonal_balance(*matrices) -> tuple[Fraction, ...] | None:
    """A positive diagonal P with P D P^-1 integer for every D given, or None.

    (P D P^-1)[i, j] = P_i D_ij / P_j is an integer exactly when
    v_p(P_j) <= v_p(P_i) + v_p(D_ij) at every prime p: one system of
    difference constraints per prime, an integer analogue of diagonal
    balancing (Parlett & Reinsch, Numer. Math. 13, 1969).  One Bellman-Ford
    relaxation over the positive rationals solves every system at once and
    factors nothing: from P = 1, each nonzero D_ij sets P_j to
    gcd(P_j, P_i D_ij), where gcd(a/b, c/d) = gcd(a, c) / lcm(b, d) takes
    the smaller exponent at every prime.  When P exists, this reaches the
    greatest one with no positive exponent and then stops changing, within
    dim rounds.  If P still changes in round dim + 1, some prime has a
    negative cycle and no P exists: the product of the entries around a
    cycle is the same in every diagonal conjugate, so it must be an
    integer, and a fractional diagonal entry is one such cycle.  Integer
    matrices give P = I.  Each matrix is given as rows of Fractions.
    """
    n = len(matrices[0])
    entries = [(i, j, x) for rows in matrices for i, row in enumerate(rows)
               for j, x in enumerate(row) if x]
    diag = [Fraction(1)] * n
    for _ in range(n + 1):
        changed = False
        for i, j, x in entries:
            y = diag[i] * x
            p = Fraction(math.gcd(diag[j].numerator, y.numerator),
                         math.lcm(diag[j].denominator, y.denominator))
            if p != diag[j]:
                diag[j] = p
                changed = True
        if not changed:
            return tuple(diag)
    return None


def balanced_pair(d0, d1, alpha, beta):
    """A pair and its corner vectors with the same corners, integer where possible.

    The corner beta^T D_w alpha is the same for (P D0 P^-1, P D1 P^-1,
    P alpha, P^-T beta) and any positive diagonal P, and for alpha and beta
    scaled by s and 1/s.  With the P of `diagonal_balance`, when there is
    one, both matrices become integer, and alpha is scaled to a primitive
    integer vector.  If alpha beta^T is an integer matrix, as D0^q is in a
    sentinel factorization, beta is then integer too: some integer
    combination of the entries of alpha is 1.  So a diagonal conjugate of
    an integer pair balances to an integer pair with the same corners; a
    pair with no such P comes back as given.  Takes and returns d0, d1 as
    rows of Fractions and alpha, beta as sequences of Fractions.
    """
    diag = diagonal_balance(d0, d1)
    if diag is not None:
        d0, d1 = ([[diag[i] * x / diag[j] for j, x in enumerate(row)]
                   for i, row in enumerate(rows)] for rows in (d0, d1))
        alpha = [p * x for p, x in zip(diag, alpha)]
        (a,), den_a = int_rows([alpha])
        s = Fraction(den_a, math.gcd(*a) or 1)
        alpha = [x * s for x in alpha]
        beta = [x / (p * s) for p, x in zip(diag, beta)]
    return d0, d1, alpha, beta


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of float64 arrays; block (i, j) is a[i, j] * b.

    Each entry is one product of an entry of a and an entry of b, so it is
    exact whenever that product is an integer below 2^53.  Callers bound the
    result dimension themselves.
    """
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def rank_one_factor(
    a: RationalMatrix,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Factor a = alpha * beta^T exactly, or fail.

    alpha is the pivot column rescaled so the factorization is exact and
    beta is the pivot row; raises RankNotOne unless the reconstruction
    matches every entry (equivalent to all 2x2 minors vanishing).
    """
    pivot = None
    for i in range(a.dim):
        for j in range(a.dim):
            if a.rows[i][j] != 0:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        raise ZeroMatrix("cannot factor the zero matrix")
    i0, j0 = pivot
    p = a.rows[i0][j0]
    alpha = tuple(a.rows[i][j0] / p for i in range(a.dim))
    beta = a.rows[i0]
    for i in range(a.dim):
        for j in range(a.dim):
            if alpha[i] * beta[j] != a.rows[i][j]:
                raise RankNotOne(f"2x2 minor at ({i0},{j0}),({i},{j}) is nonzero")
    return alpha, beta


def spectral_radius(
    a,
    tol: float = 1e-13,
    max_iterations: int = DEFAULT_MAX_POWER_ITERATIONS,
) -> float:
    """Dominant eigenvalue modulus of a nonnegative matrix by power iteration.

    Iterates on a + I (same eigenvectors, radius shifted by exactly 1) so the
    dominant eigenvalue is the unique peripheral one even when a is periodic,
    starting from the all-ones vector; stops when successive Rayleigh
    quotients differ by less than tol.  a is any square array-like of floats.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if (arr < 0).any():
        raise ValueError("spectral_radius expects a nonnegative matrix")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    n = arr.shape[0]
    shifted = arr + np.eye(n)
    x = np.full(n, 1.0 / np.sqrt(n))
    rayleigh = float(x @ shifted @ x)
    for _ in range(max_iterations):
        # x >= 0 with norm 1 and (a + I) x >= x, so norm(y) >= 1
        y = shifted @ x
        x = y / np.linalg.norm(y)
        new_rayleigh = float(x @ shifted @ x)
        if abs(new_rayleigh - rayleigh) < tol:
            return new_rayleigh - 1.0
        rayleigh = new_rayleigh
    raise NonConvergence(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def poly_eval(coeffs: Sequence[int], x: float) -> float:
    """Evaluate a polynomial given highest-degree-first coefficients (Horner)."""
    if not coeffs:
        raise ValueError("coefficient list must be non-empty")
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_residual(coeffs: Sequence[int], x: float) -> float:
    """|p(x)| scaled by the local derivative, for checking claimed roots.

    Returns |p(x)| / max(|p'(x)|, eps); small values mean x is within about
    that distance of an actual root.
    """
    value = abs(poly_eval(coeffs, x))
    deriv_coeffs = [c * k for k, c in zip(range(len(coeffs) - 1, 0, -1), coeffs)]
    deriv = abs(poly_eval(deriv_coeffs, x)) if deriv_coeffs else 0.0
    return value / max(deriv, 1e-300)

