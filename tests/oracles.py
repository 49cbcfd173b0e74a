"""Slow, direct matrix routines that the tests use as independent oracles.

No command or production path calls these; each one restates a quantity
that `necklace_chern` computes another way (word matrices feed
`matrix_parity`, cofactor expansion checks the Bareiss determinant, the
row-subset enumeration checks the Laplace expansion of
`sum_maximal_minors`, column-subset minor sums are the entries of the Okada
matrix, and sorting each subword checks the inversion count of
`rational_parity`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from necklace_chern.errors import DimensionMismatchError, InvalidInputError
from necklace_chern.exact_linalg import ExactMatrix, _as_fraction, determinant
from necklace_chern.words_necklaces import Word


def all_surjective_words(length: int, alphabet_size: int) -> Iterator[Word]:
    """All words of the given length and alphabet, in lexicographic order."""
    if length < alphabet_size:
        return
    for letters in itertools.product(range(alphabet_size), repeat=length):
        if len(set(letters)) == alphabet_size:
            yield Word(letters, alphabet_size)


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
    return enumerated_minor_sum(sub)


def enumerated_minor_sum(m: ExactMatrix) -> Fraction:
    """Sum of the maximal minors, one Bareiss determinant per row selection
    of size cols (rows increasing): C(rows, cols) determinants."""
    if m.rows < m.cols:
        raise DimensionMismatchError(
            f"need at least as many rows as columns, got {m.rows}x{m.cols}"
        )
    return sum(
        (determinant(m.submatrix(selection))
         for selection in itertools.combinations(range(m.rows), m.cols)),
        Fraction(0),
    )


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign via inversion count; fine at alphabet scale."""
    inversions = 0
    for i in range(len(perm)):
        pi = perm[i]
        for j in range(i + 1, len(perm)):
            if pi > perm[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def sorted_choice_parity(w: Word) -> Fraction:
    """Rational parity by enumerating the proper subwords and sorting each:
    the letters ordered by their chosen positions form the permutation whose
    sign the subword contributes."""
    positions: Dict[int, List[int]] = {j: [] for j in range(w.alphabet_size)}
    for p, letter in enumerate(w.letters):
        positions[letter].append(p)
    count = 0
    balance = 0
    for choice in itertools.product(*positions.values()):
        order = sorted(range(w.alphabet_size), key=choice.__getitem__)
        balance += permutation_sign(order)
        count += 1
    return Fraction(balance, count)
