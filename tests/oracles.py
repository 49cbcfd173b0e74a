"""Slow, direct matrix routines that the tests use as independent oracles.

No command or production path calls these; each one restates a quantity
that `necklace_chern` computes another way (word matrices feed
`matrix_parity`, cofactor expansion checks the Bareiss determinant, the
row-subset enumeration checks the Laplace expansion of
`sum_maximal_minors`, column-subset minor sums are the entries of the Okada
matrix, and sorting each subword checks the inversion count of
`rational_parity`). `integer_homology` reads a bundle's Chern number off the
homology of its total space, without reading a word.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from necklace_chern.complexes import LocallyOrderedComplex
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


def boundary_columns(c: LocallyOrderedComplex, k: int) -> List[Dict[int, int]]:
    """The integer boundary map C_k -> C_(k-1) of c, one sparse column
    {row: entry} per k-simplex; face j of a simplex has sign (-1)^j."""
    if k <= 0:
        return [{} for _ in c.simplices_of_dimension(k)]
    row = {f: r for r, f in enumerate(c.simplices_of_dimension(k - 1))}
    return [
        {row[s[:j] + s[j + 1 :]]: -1 if j & 1 else 1 for j in range(len(s))}
        for s in c.simplices_of_dimension(k)
    ]


def smith_invariants(m: List[List[int]]) -> List[int]:
    """The nonzero invariant factors of a dense integer matrix, by the
    textbook Smith normal form: move a least nonzero entry to the corner,
    reduce its row and column by division with remainder until it divides
    everything else, split it off."""
    m = [list(r) for r in m]
    factors: List[int] = []
    while m and m[0]:
        nonzero = [(abs(v), i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        m[0], m[i] = m[i], m[0]
        for r in m:
            r[0], r[j] = r[j], r[0]
        p = m[0][0]
        reduced = True
        for r in m[1:]:
            q = r[0] // p
            for col in range(len(r)):
                r[col] -= q * m[0][col]
            reduced = reduced and r[0] == 0
        for col in range(1, len(m[0])):
            q = m[0][col] // p
            for r in m:
                r[col] -= q * r[0]
            reduced = reduced and m[0][col] == 0
        if not reduced:
            continue
        stray = next((r for r in m[1:] if any(v % p for v in r[1:])), None)
        if stray is not None:
            # p must divide the rest: fold the offending row into the first
            m[0] = [a + b for a, b in zip(m[0], stray)]
            continue
        factors.append(abs(p))
        m = [r[1:] for r in m[1:]]
    return factors


def integer_invariants(columns: List[Dict[int, int]]) -> List[int]:
    """The nonzero invariant factors of a sparse integer matrix.  Each
    unit pivot is eliminated in place (it contributes a factor 1); the
    dense Smith form takes what is left."""
    cols = {c: dict(col) for c, col in enumerate(columns) if col}
    rows: Dict[int, Dict[int, int]] = {}
    for c, col in cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    units = 0
    queue = list(cols)
    while queue:
        c = queue.pop()
        col = cols.get(c)
        if col is None:
            continue
        # the unit in the sparsest row keeps fill-in low
        pivots = [r for r, v in col.items() if v in (1, -1)]
        if not pivots:
            continue
        r = min(pivots, key=lambda r: len(rows[r]))
        v = col[r]
        for c2, a in list(rows[r].items()):
            if c2 == c:
                continue
            # column c2 -= a * v * column c clears row r of column c2
            target = cols[c2]
            for r2, b in col.items():
                entry = target.get(r2, 0) - a * v * b
                if entry:
                    target[r2] = rows[r2][c2] = entry
                else:
                    target.pop(r2, None)
                    rows[r2].pop(c2, None)
            if not target:
                del cols[c2]
            queue.append(c2)
        # row r is now zero but at c: drop row r and column c
        for r2 in col:
            rows[r2].pop(c, None)
        del cols[c], rows[r]
        units += 1
    live_rows = sorted(r for r, entries in rows.items() if entries)
    dense = [[cols[c].get(r, 0) for c in sorted(cols)] for r in live_rows]
    return [1] * units + smith_invariants(dense)


def integer_homology(c: LocallyOrderedComplex, k: int) -> Tuple[int, Tuple[int, ...]]:
    """H_k(c; Z) as (rank, torsion coefficients): the free rank
    dim C_k - rank d_k - rank d_(k+1), and the invariant factors of d_(k+1)
    larger than one."""
    rank_in = len(integer_invariants(boundary_columns(c, k)))
    factors = integer_invariants(boundary_columns(c, k + 1))
    rank = len(c.simplices_of_dimension(k)) - rank_in - len(factors)
    return rank, tuple(sorted(f for f in factors if f > 1))
