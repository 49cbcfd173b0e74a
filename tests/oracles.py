"""Slow, direct matrix routines that the tests use as independent oracles.

No command or production path calls these; each one restates a quantity
that `necklace_chern.exact_linalg` computes another way (word matrices
feed `matrix_parity`, cofactor expansion checks the Bareiss determinant,
column-subset minor sums are the entries of the Okada matrix).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from necklace_chern.errors import DimensionMismatchError, InvalidInputError
from necklace_chern.exact_linalg import ExactMatrix, _as_fraction, sum_maximal_minors
from necklace_chern.words_necklaces import Word


def word_matrix(w: Word) -> ExactMatrix:
    """The 0/1 matrix L(w) with entry (i, j) = 1 iff w(i) = j."""
    return ExactMatrix.from_rows(
        [[1 if letter == j else 0 for j in range(w.alphabet_size)] for letter in w.letters]
    )


def apply_as_operator(m: ExactMatrix, t: Sequence[object]) -> Tuple[Fraction, ...]:
    """Apply a column-stochastic matrix to a barycentric point, exactly.

    ``t`` must have one nonnegative entry per column, summing to one; the
    result has one entry per row.
    """
    point = tuple(_as_fraction(x) for x in t)
    if len(point) != m.cols:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, matrix has {m.cols} columns"
        )
    if any(x < 0 for x in point):
        raise InvalidInputError("barycentric coordinates must be nonnegative")
    if sum(point) != 1:
        raise InvalidInputError("barycentric coordinates must sum to one")
    return tuple(
        sum((row[j] * point[j] for j in range(m.cols)), Fraction(0))
        for row in m.entries
    )


def cofactor_determinant(m: ExactMatrix) -> Fraction:
    """Determinant by direct cofactor expansion along the first row."""
    if m.rows != m.cols:
        raise DimensionMismatchError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = Fraction(0)
    rest_rows = range(1, n)
    for j in range(n):
        a = m.entries[0][j]
        if a == 0:
            continue
        minor = m.submatrix(rest_rows, [c for c in range(n) if c != j])
        total += (-1) ** j * a * cofactor_determinant(minor)
    return total


def column_subset_minor_sum(m: ExactMatrix, columns: Sequence[int]) -> Fraction:
    """Sum of all |columns| x |columns| minors using exactly those columns.

    Computed over all row selections of matching size with both index sets
    increasing.  The empty column set gives 1 (the empty minor).
    """
    columns = tuple(columns)
    if len(set(columns)) != len(columns):
        raise InvalidInputError("column subset contains repeats")
    if not columns:
        return Fraction(1)
    sub = m.submatrix(range(m.rows), sorted(columns))
    return sum_maximal_minors(sub)
