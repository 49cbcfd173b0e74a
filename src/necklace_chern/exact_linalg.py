"""Exact rational matrices: minors, maximal-minor sums, Pfaffians, parity.

All arithmetic is over `fractions.Fraction` and `int`, never floating
point.  Determinants (`_det_int`, Bareiss) and Pfaffians (`_pfaffian_int`,
skew elimination with exact division) run on integer matrices.
`_pfaffian_int` is the one Pfaffian kernel: `pfaffian` scales a rational
skew matrix to integers for it, and `words_necklaces.necklace_parity`, the
production parity engine, feeds it a word's integer Okada matrix.  Minor
sums come from one row-by-row Laplace expansion (`_minor_sums`), never from
enumerating row subsets.  The rational routes, maximal-minor sums of the
word matrix and the Pfaffian of its Okada matrix, are oracles for that
engine and for each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ._frozen import Frozen
from .errors import (
    SUBWORD_BUDGET,
    DimensionMismatchError,
    InvalidInputError,
    OddSizeError,
    ResourceBudgetError,
    ZeroColumnSumError,
)

if TYPE_CHECKING:
    from .words_necklaces import Word

__all__ = [
    "ExactMatrix",
    "SkewMatrix",
    "normalized_word_matrix",
    "determinant",
    "sum_maximal_minors",
    "pfaffian",
    "okada_matrix",
    "matrix_parity",
]

_EntryLike = object  # ints, Fractions and "p/q" strings are accepted


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise InvalidInputError(f"cannot interpret {value!r} as an exact rational")


class ExactMatrix(Frozen):
    """A rectangular matrix of arbitrary-precision rationals."""

    __slots__ = _fields = ("entries",)
    entries: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, entries: Tuple[Tuple[Fraction, ...], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        if not self.entries:
            raise InvalidInputError("matrix needs at least one row")
        width = len(self.entries[0])
        if width == 0:
            raise InvalidInputError("matrix needs at least one column")
        for row in self.entries:
            if len(row) != width:
                raise InvalidInputError("matrix rows have unequal lengths")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[_EntryLike]]) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(_as_fraction(x) for x in row) for row in rows))

    @staticmethod
    def identity(size: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def column_sum(self, j: int) -> Fraction:
        return sum((row[j] for row in self.entries), Fraction(0))

    def submatrix(
        self, row_indices: Sequence[int], col_indices: Optional[Sequence[int]] = None
    ) -> "ExactMatrix":
        cols = range(self.cols) if col_indices is None else col_indices
        return ExactMatrix(
            tuple(tuple(self.entries[i][j] for j in cols) for i in row_indices)
        )

    def delete_column(self, j: int) -> "ExactMatrix":
        keep = [c for c in range(self.cols) if c != j]
        return self.submatrix(range(self.rows), keep)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries)))


class SkewMatrix(Frozen):
    """A square matrix with exact antisymmetry and zero diagonal.

    Pfaffians exist for even sizes only; odd sizes may be constructed (the
    Pfaffian then reports the failure) but antisymmetry is always enforced.
    """

    __slots__ = _fields = ("entries",)
    entries: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, entries: Tuple[Tuple[Fraction, ...], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise InvalidInputError("skew matrix must be square")
        for i in range(n):
            if self.entries[i][i] != 0:
                raise InvalidInputError(f"diagonal entry ({i},{i}) is nonzero")
            for j in range(i + 1, n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise InvalidInputError(
                        f"entries ({i},{j}) and ({j},{i}) are not opposite"
                    )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[_EntryLike]]) -> "SkewMatrix":
        return SkewMatrix(tuple(tuple(_as_fraction(x) for x in row) for row in rows))

    @staticmethod
    def from_upper_triangle(
        size: int, upper: Dict[Tuple[int, int], _EntryLike]
    ) -> "SkewMatrix":
        table = [[Fraction(0)] * size for _ in range(size)]
        for (i, j), value in upper.items():
            if not 0 <= i < j < size:
                raise InvalidInputError(f"({i},{j}) is not an upper-triangle index")
            v = _as_fraction(value)
            table[i][j] = v
            table[j][i] = -v
        return SkewMatrix(tuple(tuple(row) for row in table))

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def to_exact_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.entries)


# =========================================================================
# Word matrices
# =========================================================================


def normalized_word_matrix(w: Word) -> ExactMatrix:
    """The column-normalized word matrix: entry (i, j) = 1/m_j iff w(i) = j."""
    mult = w.multiplicities()
    return ExactMatrix(
        tuple(
            tuple(
                Fraction(1, mult[j]) if letter == j else Fraction(0)
                for j in range(w.alphabet_size)
            )
            for letter in w.letters
        )
    )


# =========================================================================
# Determinants and minor sums
# =========================================================================


def _det_int(rows: List[List[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, n):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _pfaffian_int(rows: List[List[int]]) -> int:
    """Pfaffian of an even-size integer skew matrix; ``rows`` is overwritten.

    Skew elimination in the pivot pairs (0, 1), (2, 3), ... (Parlett-Reid)
    with Bareiss-style exact division: after eliminating the pairs of an
    index set S, entry (i, j) holds Pf of the principal submatrix on S, i,
    j, and the Pfaffian analogue of Sylvester's identity gives the next
    step with an exact division by the previous pivot.  A zero pivot is
    replaced by swapping a later index into its place, which negates the
    Pfaffian; a zero pivot row means the Pfaffian vanishes.
    """
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        a = rows[k]
        if a[k + 1] == 0:
            swap = next((j for j in range(k + 2, n) if a[j] != 0), None)
            if swap is None:
                return 0
            rows[k + 1], rows[swap] = rows[swap], rows[k + 1]
            for r in rows:
                r[k + 1], r[swap] = r[swap], r[k + 1]
            sign = -sign
        b = rows[k + 1]
        pivot = a[k + 1]
        for i in range(k + 2, n):
            r = rows[i]
            a_i, b_i = a[i], b[i]
            for j in range(i + 1, n):
                v = (pivot * r[j] - a_i * b[j] + a[j] * b_i) // prev
                r[j] = v
                rows[j][i] = -v
        prev = pivot
    return sign * prev


def _integer_scaled(m: ExactMatrix) -> Tuple[List[List[int]], List[int]]:
    """Scale columns to integers; returns (int matrix, column factors).

    A minor of the original on the columns T equals the integer minor
    divided by the product of the factors of the columns in T.
    """
    scales = [lcm(*(row[j].denominator for row in m.entries)) for j in range(m.cols)]
    table = [
        [x.numerator * (d // x.denominator) for x, d in zip(row, scales)]
        for row in m.entries
    ]
    return table, scales


def _require_tall(m: ExactMatrix) -> None:
    if m.rows < m.cols:
        raise DimensionMismatchError(
            f"need at least as many rows as columns, got {m.rows}x{m.cols}"
        )


def _row_windows(rows: int, smallest: int, largest: int) -> List[Tuple[int, int]]:
    """For each row r of the expansion, the least and greatest size of the
    column sets it updates: a set of more than r + 1 columns has no minor in
    rows 0..r yet, and one of fewer than ``smallest`` - (rows after r)
    columns can no longer grow to ``smallest``."""
    return [
        (max(smallest - (rows - 1 - r), 0), min(r + 1, largest)) for r in range(rows)
    ]


def _minor_sums(
    table: List[List[int]], cols: int, largest: int, smallest: int = 0
) -> Dict[int, int]:
    """Sums of det over all row sets of size |T| on the columns T, for each
    set T (a bitmask) of ``smallest`` to ``largest`` columns;
    O(rows * cols * 2^cols).  Entries for smaller sets are left partial.

    Each row is read once, as the last row of the minors it ends: Laplace
    expansion along it adds (-1)^(columns of T after c) * x[r][c] *
    sums[T - {c}] to sums[T], largest T first, so T - {c} is not yet
    updated.  Row r updates only the set sizes of its `_row_windows`.
    """
    layers = [[0]]  # column sets by size; each grows by the columns after its last
    for _ in range(largest):
        layers.append(
            [t | 1 << c for t in layers[-1] for c in range(t.bit_length(), cols)]
        )
    sums = {t: 0 for layer in layers for t in layer}
    sums[0] = 1
    for row, (low, high) in zip(table, _row_windows(len(table), smallest, largest)):
        entries = [(c, 1 << c, x) for c, x in enumerate(row) if x]
        for k in range(high, low - 1, -1):
            for t in layers[k]:
                for c, bit, x in entries:
                    if t & bit:
                        term = x * sums[t ^ bit]
                        if (t >> (c + 1)).bit_count() & 1:
                            term = -term
                        sums[t] += term
    return sums


def determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant of a square matrix (fraction-free elimination)."""
    if m.rows != m.cols:
        raise DimensionMismatchError(f"determinant of a {m.rows}x{m.cols} matrix")
    table, scales = _integer_scaled(m)
    return Fraction(_det_int(table), prod(scales))


def sum_maximal_minors(m: ExactMatrix) -> Fraction:
    """Sum of the determinants of all maximal (cols x cols) row selections.

    Rows are kept in increasing order inside each selection.  One Laplace
    expansion pass (`_minor_sums`) replaces the C(rows, cols) determinants.

    Raises
    ------
    ResourceBudgetError
        If the (row, column set) updates of the expansion exceed
        SUBWORD_BUDGET.  Only sets that can still grow into the full column
        set are updated, so a square matrix costs 2^cols - 1 of them.
    """
    _require_tall(m)
    sizes = [1]  # C(cols, k) for k = 0..cols
    for k in range(m.cols):
        sizes.append(sizes[-1] * (m.cols - k) // (k + 1))
    windows = _row_windows(m.rows, m.cols, m.cols)
    updates = sum(sum(sizes[low : high + 1]) for low, high in windows)
    if updates > SUBWORD_BUDGET:
        raise ResourceBudgetError(
            f"{m.rows}x{m.cols} matrix: {updates} minor-expansion updates "
            f"exceed the budget {SUBWORD_BUDGET}"
        )
    table, scales = _integer_scaled(m)
    sums = _minor_sums(table, m.cols, m.cols, m.cols)
    return Fraction(sums[(1 << m.cols) - 1], prod(scales))


# =========================================================================
# Pfaffians and the Okada matrix
# =========================================================================


def pfaffian(s: SkewMatrix) -> Fraction:
    """Pfaffian by fraction-free skew elimination.

    Row and column i are scaled by the least common denominator d_i of row
    i, and Pf(DSD) = det(D) Pf(S) undoes the scaling; O(n^3) integer
    operations.  Pf of the empty matrix is 1; Pf(M)^2 equals det(M).

    Raises
    ------
    OddSizeError
        For matrices of odd size, whose Pfaffian does not exist.
    """
    n = s.size
    if n % 2 == 1:
        raise OddSizeError(f"Pfaffian of an odd size {n}")
    scales = [lcm(*(x.denominator for x in row)) for row in s.entries]
    table = [
        [x.numerator * (d_i // x.denominator) * d_j for x, d_j in zip(row, scales)]
        for row, d_i in zip(s.entries, scales)
    ]
    return Fraction(_pfaffian_int(table), prod(scales))


def okada_matrix(x: ExactMatrix) -> SkewMatrix:
    """The skew matrix of column-subset minor sums whose Pfaffian is the
    full maximal-minor sum.

    For an input with an odd number of columns k+1 the result has size k+2:
    row and column 0 hold the single-column sums and the remaining block
    holds the column-pair sums.  For an even number of columns the result
    is the k+1 sized block of column-pair sums alone (all from `_minor_sums`).
    """
    _require_tall(x)
    k1 = x.cols
    table, scales = _integer_scaled(x)
    sums = _minor_sums(table, k1, 2)
    border = k1 % 2
    upper: Dict[Tuple[int, int], Fraction] = {}
    for a in range(k1):
        if border:
            upper[(0, a + 1)] = Fraction(sums[1 << a], scales[a])
        for b in range(a + 1, k1):
            pair = Fraction(sums[1 << a | 1 << b], scales[a] * scales[b])
            upper[(a + border, b + border)] = pair
    return SkewMatrix.from_upper_triangle(k1 + border, upper)


def matrix_parity(x: ExactMatrix) -> Fraction:
    """Maximal-minor sum divided by the product of the column sums.

    Scale invariant per column; on word matrices (normalized or not) it
    equals the rational parity of the word.

    Raises
    ------
    ZeroColumnSumError
        When some column sums to zero and the quotient is undefined.
    """
    _require_tall(x)
    denominator = Fraction(1)
    for j in range(x.cols):
        s_j = x.column_sum(j)
        if s_j == 0:
            raise ZeroColumnSumError(f"column {j} sums to zero")
        denominator *= s_j
    return sum_maximal_minors(x) / denominator
