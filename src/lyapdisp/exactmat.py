"""Exact rational matrix algebra plus the little float spectral machinery we need.

Matrices are small (catalog families are at most 8x8, Kronecker squares at
most 64x64) and products of them grow exponentially, so entries are kept as
exact `fractions.Fraction` values end to end.  Floating point appears only
in `spectral_radius` and `poly_eval`, which feed the replica computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RationalMatrix",
    "identity",
    "mat_mul",
    "mat_pow",
    "kronecker",
    "rank_one_factor",
    "null_space",
    "spectral_radius",
    "poly_eval",
    "poly_residual",
    "DimensionMismatch",
    "KroneckerCapExceeded",
    "RankNotOne",
    "ZeroMatrix",
    "NonConvergence",
]

DEFAULT_KRONECKER_CAP = 4096
DEFAULT_MAX_POWER_ITERATIONS = 10**6


class DimensionMismatch(ValueError):
    pass


class KroneckerCapExceeded(ValueError):
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

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return mat_mul(self, other)

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), Fraction(0))

    def scale(self, c) -> "RationalMatrix":
        c = _to_fraction(c)
        return RationalMatrix(tuple(x * c for x in row) for row in self.rows)

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        return RationalMatrix(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.rows for x in row)

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)


def identity(n: int) -> RationalMatrix:
    return RationalMatrix(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} != {b.dim}")
    bt = tuple(zip(*b.rows))
    return RationalMatrix(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a.rows
    )


def mat_pow(a: RationalMatrix, k: int) -> RationalMatrix:
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result = identity(a.dim)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def kronecker(
    a: RationalMatrix, b: RationalMatrix, cap: int = DEFAULT_KRONECKER_CAP
) -> RationalMatrix:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    n = a.dim * b.dim
    if n > cap:
        raise KroneckerCapExceeded(f"result dimension {n} exceeds cap {cap}")
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            rows.append(tuple(x * y for x in arow for y in brow))
    return RationalMatrix(rows)


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


def null_space(a: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact basis of the right null space, by reduced row echelon form.

    One basis vector per free column, with the free coordinate set to 1 and
    pivot coordinates solved exactly; deterministic for a given matrix.
    """
    n = a.dim
    m = [list(row) for row in a.rows]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, n) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        scale = Fraction(1) / m[r][col]
        m[r] = [x * scale for x in m[r]]
        for i in range(n):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append((r, col))
        r += 1
        if r == n:
            break
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in pivots:
            vec[col] = -m[row][free]
        basis.append(tuple(vec))
    return tuple(basis)


def _as_float_array(a) -> np.ndarray:
    if isinstance(a, RationalMatrix):
        return a.to_float()
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    return arr


def spectral_radius(
    a,
    tol: float = 1e-13,
    max_iterations: int = DEFAULT_MAX_POWER_ITERATIONS,
) -> float:
    """Dominant eigenvalue modulus of a nonnegative matrix by power iteration.

    Iterates on a + I (same eigenvectors, radius shifted by exactly 1) so the
    dominant eigenvalue is the unique peripheral one even when a is periodic,
    starting from the all-ones vector; stops when successive Rayleigh
    quotients differ by less than tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    arr = _as_float_array(a)
    if (arr < 0).any():
        raise ValueError("spectral_radius expects a nonnegative matrix")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    n = arr.shape[0]
    shifted = arr + np.eye(n)
    x = np.full(n, 1.0 / np.sqrt(n))
    rayleigh = float(x @ shifted @ x)
    for _ in range(max_iterations):
        y = shifted @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0  # a + I cannot vanish, defensive only
        x = y / norm
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

