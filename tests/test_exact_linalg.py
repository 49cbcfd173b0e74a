"""Tests for exact matrices, minor sums, Pfaffians and matrix parity."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import necklace_chern.exact_linalg as exact_linalg
from necklace_chern.errors import (
    SUBWORD_BUDGET,
    DimensionMismatchError,
    InvalidInputError,
    OddSizeError,
    ResourceBudgetError,
    ZeroColumnSumError,
)
from necklace_chern.exact_linalg import (
    ExactMatrix,
    SkewMatrix,
    determinant,
    matrix_parity,
    normalized_word_matrix,
    okada_matrix,
    pfaffian,
    sum_maximal_minors,
)
from necklace_chern.words_necklaces import rational_parity, word

from conftest import surjective_words
from oracles import (
    all_surjective_words,
    apply_as_operator,
    cofactor_determinant,
    column_subset_minor_sum,
    enumerated_minor_sum,
    word_matrix,
)

F = Fraction


def random_int_matrix(rng, rows, cols, lo=-3, hi=3):
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_skew(rng, size, lo=-5, hi=5):
    upper = {
        (i, j): rng.randint(lo, hi)
        for i in range(size)
        for j in range(i + 1, size)
    }
    return SkewMatrix.from_upper_triangle(size, upper)


# ----------------------------------------------------------------- matrices


class TestExactMatrix:
    def test_from_rows_accepts_mixed_entry_kinds(self):
        m = ExactMatrix.from_rows([[1, "1/2"], [F(3, 4), 0]])
        assert m.entry(0, 1) == F(1, 2)
        assert m.entry(1, 0) == F(3, 4)

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            ExactMatrix.from_rows([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ExactMatrix(())

    def test_bool_entry_rejected(self):
        with pytest.raises(InvalidInputError):
            ExactMatrix.from_rows([[True]])

    def test_column_and_sum(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert m.column(1) == (2, 4, 6)
        assert m.column_sum(0) == 9

    def test_transpose(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))

    def test_delete_column(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.delete_column(1).entries == ((1, 3), (4, 6))


class TestSkewMatrix:
    def test_antisymmetry_enforced(self):
        with pytest.raises(InvalidInputError):
            SkewMatrix.from_rows([[0, 1], [1, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidInputError):
            SkewMatrix.from_rows([[1]])

    def test_from_upper_triangle(self):
        s = SkewMatrix.from_upper_triangle(3, {(0, 1): 2, (1, 2): "1/3"})
        assert s.entry(1, 0) == -2
        assert s.entry(2, 1) == F(-1, 3)
        assert s.entry(0, 2) == 0

    def test_odd_size_constructible(self):
        s = SkewMatrix.from_upper_triangle(3, {(0, 1): 1})
        assert s.size == 3


# ------------------------------------------------------------ word matrices


def test_word_matrix_identity():
    assert word_matrix(word((0, 1, 2))) == ExactMatrix.identity(3)


def test_word_matrix_example():
    m = word_matrix(word((0, 1, 2, 0)))
    assert m.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_word_matrix_column_vector():
    assert word_matrix(word((0, 0))).entries == ((1,), (1,))


def test_normalized_word_matrix_identity():
    assert normalized_word_matrix(word((0, 1, 2))) == ExactMatrix.identity(3)


def test_normalized_word_matrix_example():
    m = normalized_word_matrix(word((0, 1, 2, 0)))
    assert m.entries == (
        (F(1, 2), 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (F(1, 2), 0, 0),
    )


def test_normalized_word_matrix_constant_word():
    m = normalized_word_matrix(word((0, 0, 0)))
    assert m.entries == ((F(1, 3),), (F(1, 3),), (F(1, 3),))


@given(surjective_words())
def test_normalized_columns_sum_to_one(w):
    m = normalized_word_matrix(w)
    for j in range(m.cols):
        assert m.column_sum(j) == 1


def test_apply_identity_fixes_barycenter():
    third = (F(1, 3),) * 3
    assert apply_as_operator(ExactMatrix.identity(3), third) == third


def test_apply_normalized_word_matrix_example():
    m = normalized_word_matrix(word((0, 1, 2, 0)))
    out = apply_as_operator(m, (F(1, 3),) * 3)
    assert out == (F(1, 6), F(1, 3), F(1, 3), F(1, 6))


def test_apply_vertex_fiber_lengths():
    m = normalized_word_matrix(word((0, 0, 0)))
    assert apply_as_operator(m, (1,)) == (F(1, 3),) * 3


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_as_operator(ExactMatrix.identity(3), (F(1, 2), F(1, 2)))


def test_apply_rejects_non_barycentric():
    with pytest.raises(InvalidInputError):
        apply_as_operator(ExactMatrix.identity(2), (F(3, 4), F(1, 2)))
    with pytest.raises(InvalidInputError):
        apply_as_operator(ExactMatrix.identity(2), (F(3, 2), F(-1, 2)))


@given(surjective_words())
@settings(max_examples=60)
def test_apply_normalized_preserves_total_mass(w):
    m = normalized_word_matrix(w)
    point = tuple(F(1, m.cols) for _ in range(m.cols))
    out = apply_as_operator(m, point)
    assert len(out) == m.rows
    assert sum(out) == 1
    assert all(x >= 0 for x in out)


# ------------------------------------------------------------- determinants


def test_determinant_identity():
    assert determinant(ExactMatrix.identity(3)) == 1


def test_determinant_swap():
    assert determinant(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1


def test_determinant_word_submatrix():
    m = normalized_word_matrix(word((0, 1, 2, 0))).submatrix([1, 2, 3])
    assert determinant(m) == F(1, 2)


def test_determinant_requires_square():
    with pytest.raises(DimensionMismatchError):
        determinant(ExactMatrix.from_rows([[1, 2]]))


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = ExactMatrix.from_rows(
            [
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert determinant(m) == cofactor_determinant(m)


def test_determinant_multiplicative():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n)
        b = random_int_matrix(rng, n, n)
        product = ExactMatrix.from_rows(
            [
                [
                    sum(a.entry(i, t) * b.entry(t, j) for t in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        assert determinant(product) == determinant(a) * determinant(b)


# --------------------------------------------------------------- minor sums


def test_minor_sum_identity():
    assert sum_maximal_minors(ExactMatrix.identity(3)) == 1


def test_minor_sum_normalized_three_letter_word():
    # minors over row subsets: 1/2 + 0 + 0 + 1/2
    assert sum_maximal_minors(normalized_word_matrix(word((0, 1, 2, 0)))) == 1


def test_minor_sum_even_alphabet_word():
    assert sum_maximal_minors(normalized_word_matrix(word((0, 1, 0, 1)))) == F(1, 2)


def test_minor_sum_requires_enough_rows():
    with pytest.raises(DimensionMismatchError):
        sum_maximal_minors(ExactMatrix.from_rows([[1, 2]]))


def test_minor_sum_oracle_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(2, 8)
        cols = rng.randint(1, min(rows, 6))
        m = random_int_matrix(rng, rows, cols)
        expected = sum(
            cofactor_determinant(m.submatrix(sel))
            for sel in itertools.combinations(range(rows), cols)
        )
        assert sum_maximal_minors(m) == expected


def random_rational_matrix(rng, rows, cols):
    """Small signed fractions, with some rows and columns zeroed and some
    rows repeated: the cases a row-by-row expansion could mishandle."""
    table = [
        [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]
    for _ in range(rng.randint(0, 2)):
        shape = rng.randrange(3)
        if shape == 0:
            table[rng.randrange(rows)] = [F(0)] * cols
        elif shape == 1:
            c = rng.randrange(cols)
            for row in table:
                row[c] = F(0)
        else:
            table[rng.randrange(rows)] = list(table[rng.randrange(rows)])
    return ExactMatrix.from_rows(table)


def test_minor_sum_expansion_matches_the_enumeration():
    # square and near-square matrices too, where the expansion skips most
    # column sets because they can no longer complete
    rng = random.Random(71)
    for cols in range(1, 12):
        for rows in range(cols, max(cols + 3, 11)):
            for _ in range(3):
                m = random_rational_matrix(rng, rows, cols)
                assert sum_maximal_minors(m) == enumerated_minor_sum(m), m.entries


def test_identity_minor_sum_within_the_expansion_budget():
    # 2^17 - 1 updates: only the sets of r + 1 columns grow at row r
    assert sum_maximal_minors(ExactMatrix.identity(17)) == 1


def _expansion_updates(rows, cols):
    """(row, column set) updates of the pruned expansion: a nonempty set is
    updated on rows - cols + 1 rows, the empty set on rows - cols."""
    return (rows - cols + 1) * (2**cols - 1) + rows - cols


def test_minor_sum_budget_counts_expansion_updates():
    cols = 10
    rows = SUBWORD_BUDGET // 2**cols + cols
    updates = _expansion_updates(rows, cols)
    assert _expansion_updates(rows - 1, cols) <= SUBWORD_BUDGET < updates
    with pytest.raises(ResourceBudgetError, match=f": {updates} minor-expansion"):
        sum_maximal_minors(ExactMatrix.identity(cols).submatrix([0] * rows))


def test_exact_linalg_enumerates_no_subsets():
    assert not hasattr(exact_linalg, "itertools")
    assert not hasattr(exact_linalg, "comb")


def test_column_subset_minor_sum():
    m = word_matrix(word((0, 1, 2, 0)))
    assert column_subset_minor_sum(m, ()) == 1
    assert column_subset_minor_sum(m, (1,)) == 1
    assert column_subset_minor_sum(m, (0,)) == 2
    assert column_subset_minor_sum(m, (0, 1, 2)) == sum_maximal_minors(m)
    with pytest.raises(InvalidInputError):
        column_subset_minor_sum(m, (1, 1))


# ---------------------------------------------------------------- Pfaffians


def test_pfaffian_two_by_two():
    # the 2x2 case exercises the Pf(empty) = 1 base of the recursion
    s = SkewMatrix.from_upper_triangle(2, {(0, 1): F(5, 7)})
    assert pfaffian(s) == F(5, 7)


def test_pfaffian_four_by_four_generic():
    rng = random.Random(23)
    for _ in range(25):
        s = random_skew(rng, 4)
        expected = (
            s.entry(0, 1) * s.entry(2, 3)
            - s.entry(0, 2) * s.entry(1, 3)
            + s.entry(0, 3) * s.entry(1, 2)
        )
        assert pfaffian(s) == expected


def test_pfaffian_odd_size_error():
    s = SkewMatrix.from_upper_triangle(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    with pytest.raises(OddSizeError):
        pfaffian(s)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(31)
    for size in (2, 4, 6, 8):
        for _ in range(15):
            s = random_skew(rng, size)
            assert pfaffian(s) ** 2 == determinant(s.to_exact_matrix())


def expanded_pfaffian(s):
    """Pfaffian by the plain expansion along the first row."""

    def rec(indices):
        if not indices:
            return F(1)
        first, total = indices[0], F(0)
        for pos in range(1, len(indices)):
            rest = indices[1:pos] + indices[pos + 1 :]
            total += (-1) ** (pos + 1) * s.entry(first, indices[pos]) * rec(rest)
        return total

    return rec(tuple(range(s.size)))


def test_pfaffian_zero_leading_pivot():
    # entry (0, 1) is zero, so elimination must swap a later index in
    s = SkewMatrix.from_upper_triangle(
        4, {(0, 2): 3, (0, 3): F(-2, 5), (1, 2): 7, (1, 3): F(1, 2), (2, 3): -4}
    )
    assert pfaffian(s) == expanded_pfaffian(s) == F(-3, 2) - F(14, 5)
    assert pfaffian(s) ** 2 == determinant(s.to_exact_matrix())


def test_pfaffian_zero_first_row():
    rng = random.Random(53)
    s = random_skew(rng, 6)
    upper = {(i, j): s.entry(i, j) for i in range(6) for j in range(i + 1, 6)}
    s = SkewMatrix.from_upper_triangle(
        6, {k: v for k, v in upper.items() if k[0] > 0}
    )
    assert pfaffian(s) == expanded_pfaffian(s) == 0
    assert determinant(s.to_exact_matrix()) == 0


def test_pfaffian_zero_pivot_after_the_first_step():
    # the scaled (2, 3) entry a01 a23 - a02 a13 + a03 a12 vanishes
    s = SkewMatrix.from_upper_triangle(
        6,
        {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1, (2, 4): 2, (3, 5): -3,
         (4, 5): 5, (1, 4): 1, (0, 5): -1},
    )
    assert pfaffian(s) == expanded_pfaffian(s)
    assert pfaffian(s) ** 2 == determinant(s.to_exact_matrix())


def sparse_entry(rng):
    """Zero three times in five, else an integer or a fraction."""
    return rng.choice((0, 0, 0, rng.randint(-4, 4), F(rng.randint(-5, 5), 3)))


def test_pfaffian_matches_expansion_on_sparse_matrices():
    rng = random.Random(59)
    for size in (2, 4, 6, 8):
        for _ in range(40):
            upper = {
                (i, j): sparse_entry(rng)
                for i in range(size)
                for j in range(i + 1, size)
            }
            s = SkewMatrix.from_upper_triangle(size, upper)
            assert pfaffian(s) == expanded_pfaffian(s)


def test_pfaffian_of_the_empty_matrix():
    assert pfaffian(SkewMatrix(())) == 1


def test_determinant_of_odd_skew_vanishes():
    rng = random.Random(37)
    for size in (3, 5):
        for _ in range(10):
            s = random_skew(rng, size)
            assert determinant(s.to_exact_matrix()) == 0


# ------------------------------------------------------------ Okada matrix


def test_okada_identity_matrix():
    s = okada_matrix(ExactMatrix.identity(3))
    assert s.size == 4
    assert s.entries[0] == (0, 1, 1, 1)
    assert pfaffian(s) == 1


def test_okada_normalized_word_matrix():
    m = normalized_word_matrix(word((0, 1, 2, 0)))
    s = okada_matrix(m)
    assert s.size == 4
    assert pfaffian(s) == sum_maximal_minors(m) == 1


def test_okada_entries_are_column_subset_minor_sums():
    rng = random.Random(41)
    m = random_int_matrix(rng, 5, 3)
    s = okada_matrix(m)
    for j in range(3):
        assert s.entry(0, j + 1) == column_subset_minor_sum(m, (j,))
    for a in range(3):
        for b in range(a + 1, 3):
            assert s.entry(a + 1, b + 1) == column_subset_minor_sum(m, (a, b))


def test_okada_even_layout_size():
    rng = random.Random(43)
    m = random_int_matrix(rng, 5, 4)
    s = okada_matrix(m)
    assert s.size == 4
    for a in range(4):
        for b in range(a + 1, 4):
            assert s.entry(a, b) == column_subset_minor_sum(m, (a, b))


def test_okada_identity_random_matrices_both_layouts():
    rng = random.Random(47)
    for _ in range(150):
        cols = rng.randint(1, 5)
        rows = rng.randint(cols, 7)
        m = random_int_matrix(rng, rows, cols)
        assert pfaffian(okada_matrix(m)) == sum_maximal_minors(m)


def test_okada_requires_enough_rows():
    with pytest.raises(DimensionMismatchError):
        okada_matrix(ExactMatrix.from_rows([[1, 2, 3]]))


# ------------------------------------------------------------ matrix parity


def test_matrix_parity_unnormalized_word():
    assert matrix_parity(word_matrix(word((0, 1, 0, 1)))) == F(1, 2)


def test_matrix_parity_identity():
    assert matrix_parity(ExactMatrix.identity(4)) == 1


def test_matrix_parity_zero_column():
    with pytest.raises(ZeroColumnSumError):
        matrix_parity(ExactMatrix.from_rows([[1, 0], [1, 0]]))


def test_matrix_parity_column_scale_invariant():
    rng = random.Random(53)
    for _ in range(25):
        cols = rng.randint(1, 4)
        rows = rng.randint(cols, 6)
        while True:
            m = random_int_matrix(rng, rows, cols)
            if all(m.column_sum(j) != 0 for j in range(cols)):
                break
        scales = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(cols)]
        scaled = ExactMatrix.from_rows(
            [[m.entry(i, j) * scales[j] for j in range(cols)] for i in range(rows)]
        )
        assert matrix_parity(scaled) == matrix_parity(m)


def test_matrix_parity_cyclic_row_invariance_odd_cols():
    rng = random.Random(59)
    for _ in range(25):
        cols = rng.choice((1, 3, 5))
        rows = rng.randint(cols, 7)
        while True:
            m = random_int_matrix(rng, rows, cols)
            if all(m.column_sum(j) != 0 for j in range(cols)):
                break
        base = matrix_parity(m)
        for shift in range(1, rows):
            rotated = ExactMatrix(m.entries[shift:] + m.entries[:shift])
            assert matrix_parity(rotated) == base


def _delete_column_parity_sum(m):
    total = F(0)
    for j in range(m.cols):
        total += (-1) ** j * matrix_parity(m.delete_column(j))
    return total


def test_delete_column_alternating_sum_random():
    rng = random.Random(61)
    for _ in range(30):
        cols = rng.randint(2, 5)
        rows = rng.randint(cols, 7)
        while True:
            m = random_int_matrix(rng, rows, cols)
            if all(m.column_sum(j) != 0 for j in range(cols)):
                break
        got = _delete_column_parity_sum(m)
        if cols % 2 == 1:
            assert got == matrix_parity(m)
        else:
            assert got == 0


def test_delete_column_alternating_sum_word_matrices():
    for length in range(2, 7):
        for alphabet in range(2, min(length, 5) + 1):
            for w in all_surjective_words(length, alphabet):
                m = word_matrix(w)
                got = _delete_column_parity_sum(m)
                if alphabet % 2 == 1:
                    assert got == matrix_parity(m)
                else:
                    assert got == 0


def test_minor_sum_expansion_odd_cols():
    # s = sum_j (-1)^j s_j s(delete column j) for an odd number of columns
    rng = random.Random(67)
    for _ in range(40):
        cols = rng.choice((1, 3, 5))
        rows = rng.randint(cols, 7)
        m = random_int_matrix(rng, rows, cols)
        if cols == 1:
            expansion = m.column_sum(0)
        else:
            expansion = sum(
                (-1) ** j * m.column_sum(j) * sum_maximal_minors(m.delete_column(j))
                for j in range(cols)
            )
        assert sum_maximal_minors(m) == expansion


# -------------------------------------------------- parity route agreement


@given(surjective_words())
@settings(max_examples=150, deadline=None)
def test_parity_routes_agree(w):
    oracle = rational_parity(w)
    assert sum_maximal_minors(normalized_word_matrix(w)) == oracle
    assert matrix_parity(word_matrix(w)) == oracle
    assert matrix_parity(normalized_word_matrix(w)) == oracle
    assert pfaffian(okada_matrix(normalized_word_matrix(w))) == oracle
