"""Exact rational dense linear algebra (tiny systems only).

Used by the alpha-family vertex enumeration
(:mod:`repro.core.alpha_family`), where candidate vertices are
solutions of square systems formed from tight constraints, and by the
brute-force mpLP reference in the differential tests.  Everything is
``fractions.Fraction``; sizes never exceed a few dozen, so cubic
Gaussian elimination is ample.  The mpLP enumeration
(:mod:`repro.core.mplp`) solves its bases in batched integer
arithmetic instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["solve_square", "rank", "SingularMatrixError"]


class SingularMatrixError(ValueError):
    """Raised when a square solve meets a singular matrix."""


def solve_square(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    """Solve ``A x = b`` exactly for square ``A``; raises if singular."""
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise ValueError("shape mismatch in solve_square")
    # Augmented matrix, partial pivoting on exact nonzero entries.
    M = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"singular at column {col}")
        M[col], M[pivot_row] = M[pivot_row], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [rv - factor * cv for rv, cv in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def rank(A: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rectangular rational matrix."""
    if not A:
        return 0
    rows = [[Fraction(v) for v in row] for row in A]
    n_cols = len(rows[0])
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [iv - factor * rv for iv, rv in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r
