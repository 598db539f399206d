"""Rank-1 sentinel factorization and the similarity that exposes corner values.

For a matrix pair (D0, D1) with rank(D0^q) = 1, write D0^q = alpha * beta^T.
Then for any invertible Q whose first column is alpha and whose remaining
columns span the null space of beta^T, the conjugated pair D'_i = Q^-1 D_i Q
satisfies Q^-1 D0^q Q = E00 and

    (Q^-1 D_w Q)[0, 0] = beta^T D_w alpha

for every binary word w.  The right side is cheap, exact and basis-free, so
corner values are always computed that way and no Q or D' matrix is formed;
the catalog's tabulated D' pairs are cross-check data, checked against the
right side when a family file is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactmat
from .exactmat import RationalMatrix

__all__ = [
    "SentinelFactorization",
    "sentinel_factorization",
    "NotIdempotentSimilar",
]


class NotIdempotentSimilar(ValueError):
    """trace(D0^q) != 1, so no Q with Q^-1 D0^q Q = E00 can exist."""


@dataclass(frozen=True)
class SentinelFactorization:
    """alpha, beta with D0^q = alpha*beta^T and beta^T*alpha = 1, plus the pair."""

    q: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    d0: RationalMatrix
    d1: RationalMatrix
    # perfbench's per-family scan rates read this.  test_api_surface matches
    # fields by name and SimResult.family shares it, so test_gle pins it.
    family: str = ""


def sentinel_factorization(
    d0: RationalMatrix, d1: RationalMatrix, q: int, family: str = ""
) -> SentinelFactorization:
    """Factor D0^q = alpha*beta^T exactly and check beta^T*alpha = 1.

    beta^T*alpha equals trace(D0^q) for any rank-1 factorization, so the
    normalization is a property of D0 itself: trace 1 makes D0^q idempotent,
    which is exactly when the E00 conjugation exists.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if d0.dim != d1.dim:
        raise exactmat.DimensionMismatch(f"{d0.dim} != {d1.dim}")
    # D0^q = N^q / den^q: multiply integer rows, divide once
    rows, den = exactmat.int_rows(d0.rows)
    cols = tuple(zip(*rows))
    power = rows
    for _ in range(q - 1):
        power = [exactmat.row_times(row, cols) for row in power]
    scale = den**q
    alpha, beta = exactmat.rank_one_factor(RationalMatrix(
        [Fraction(x, scale) for x in row] for row in power))
    trace = exactmat.dot(alpha, beta)
    if trace != 1:
        raise NotIdempotentSimilar(
            f"trace(D0^{q}) = {trace} != 1; D0^{q} is not idempotent"
        )
    return SentinelFactorization(
        q=q, alpha=alpha, beta=beta, d0=d0, d1=d1, family=family
    )

