"""Words, shifts, boundaries, necklaces and the brute-force parity oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import necklace_chern.words_necklaces as words_necklaces
from necklace_chern.errors import (
    EvenAlphabetError,
    InvalidInputError,
    ResourceBudgetError,
)
from necklace_chern.exact_linalg import okada_matrix, pfaffian
from necklace_chern.words_necklaces import (
    SUBWORD_BUDGET,
    FaceOperator,
    Necklace,
    Word,
    boundary_word,
    canonical_necklace,
    compose_faces,
    cyclic_shift,
    identity_face,
    necklace_parity,
    rational_parity,
    subword_count,
    word,
    words_of_content,
)

from conftest import odd_alphabet_words, surjective_words
from oracles import (
    all_surjective_words,
    sorted_choice_parity,
    word_matrix,
)


# ---------------------------------------------------------------- words


def test_word_requires_surjectivity():
    with pytest.raises(InvalidInputError):
        Word((0, 2), 3)
    with pytest.raises(InvalidInputError):
        Word((0, 1), 3)
    with pytest.raises(InvalidInputError):
        word([])


def test_word_rejects_out_of_range_letters():
    with pytest.raises(InvalidInputError):
        Word((0, 1, 3), 3)
    with pytest.raises(InvalidInputError):
        Word((-1, 0), 1)


def test_word_accessors():
    w = word([0, 1, 2, 0])
    assert w.length == 4
    assert w.top_index == 3
    assert w.alphabet_size == 3
    assert w.multiplicities() == (2, 1, 1)
    assert list(w) == [0, 1, 2, 0]
    assert w[2] == 2


# ---------------------------------------------------------- cyclic shift


def test_cyclic_shift_examples():
    assert cyclic_shift(word([0, 1, 2]), 1).letters == (2, 0, 1)
    assert cyclic_shift(word([0, 1, 2]), 0).letters == (0, 1, 2)
    assert cyclic_shift(word([0, 1, 0, 1]), 3).letters == (1, 0, 1, 0)


def test_cyclic_shift_compose_three_single_shifts():
    w = word([0, 1, 0, 1])
    once = cyclic_shift(cyclic_shift(cyclic_shift(w, 1), 1), 1)
    assert once == cyclic_shift(w, 3)


@given(surjective_words(), st.integers(min_value=-20, max_value=20))
def test_cyclic_shift_rotation_properties(w, i):
    shifted = cyclic_shift(w, i)
    assert sorted(shifted.letters) == sorted(w.letters)
    assert shifted.alphabet_size == w.alphabet_size
    assert cyclic_shift(w, w.length) == w
    assert cyclic_shift(shifted, -i) == w


# ---------------------------------------------------------- boundary word


def test_boundary_word_examples():
    w, pos = boundary_word(word([0, 1, 2, 0]), FaceOperator((0, 1), 3))
    assert w.letters == (0, 1, 0)
    assert pos.image == (0, 1, 3)

    w, pos = boundary_word(word([0, 1, 2]), identity_face(3))
    assert w.letters == (0, 1, 2)
    assert pos.image == (0, 1, 2)

    w, pos = boundary_word(word([0, 1, 0, 1]), FaceOperator((1,), 2))
    assert w.letters == (0, 0)
    assert pos.image == (1, 3)


def test_boundary_word_rejects_wrong_alphabet():
    with pytest.raises(InvalidInputError):
        boundary_word(word([0, 1]), FaceOperator((0,), 3))


@given(surjective_words(max_alphabet=4, max_length=8), st.data())
def test_boundary_of_boundary_is_boundary_of_composite(w, data):
    if w.alphabet_size < 2:
        return
    k1 = w.alphabet_size
    inner_size = data.draw(st.integers(min_value=1, max_value=k1 - 1))
    outer_image = tuple(
        sorted(data.draw(st.sets(st.integers(0, k1 - 1), min_size=inner_size, max_size=inner_size)))
    )
    outer = FaceOperator(outer_image, k1)
    mid, mid_pos = boundary_word(w, outer)
    if mid.alphabet_size < 1:
        return
    inner_count = data.draw(st.integers(min_value=1, max_value=mid.alphabet_size))
    inner_image = tuple(
        sorted(
            data.draw(
                st.sets(
                    st.integers(0, mid.alphabet_size - 1),
                    min_size=inner_count,
                    max_size=inner_count,
                )
            )
        )
    )
    inner = FaceOperator(inner_image, mid.alphabet_size)
    two_step, two_pos = boundary_word(mid, inner)
    composite, comp_pos = boundary_word(w, compose_faces(outer, inner))
    assert two_step == composite
    assert tuple(mid_pos(p) for p in two_pos.image) == comp_pos.image


# ------------------------------------------------------------- necklaces


def test_canonical_necklace_examples():
    assert canonical_necklace(word([2, 0, 1])).canonical_word.letters == (0, 1, 2)
    assert canonical_necklace(word([0, 1, 2])).canonical_word.letters == (0, 1, 2)
    assert canonical_necklace(word([1, 0, 1, 0])).canonical_word.letters == (0, 1, 0, 1)


@given(surjective_words(), st.integers(min_value=0, max_value=12))
def test_canonical_necklace_rotation_invariant_and_idempotent(w, i):
    n = canonical_necklace(w)
    assert canonical_necklace(cyclic_shift(w, i)) == n
    assert canonical_necklace(n.canonical_word) == n


def test_necklace_constructor_rejects_non_minimal_representative():
    with pytest.raises(InvalidInputError):
        from necklace_chern.words_necklaces import Necklace

        Necklace(word([1, 0, 1, 0]))


def least_rotation_oracle(letters):
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


def test_least_rotation_matches_the_minimum_over_rotations():
    from necklace_chern.words_necklaces import Necklace

    words = [w for n in range(3, 9) for w in all_surjective_words(n, 3)]
    for k in (1, 2, 3, 7, 40):
        words += [
            word((0, 1, 2) * k),
            word((2, 1, 0) * k),
            word((1, 0, 1, 2, 0, 1) * k),
            word((0,) * k),
        ]
    rng = random.Random(5)
    words += [word([rng.randrange(3) for _ in range(200)] + [0, 1, 2])]
    for w in words:
        least = least_rotation_oracle(w.letters)
        assert canonical_necklace(w).canonical_word.letters == least
        if w.letters != least:
            with pytest.raises(InvalidInputError):
                Necklace(w)


def test_canonical_necklace_scans_the_word_once(monkeypatch):
    scans = []

    def counted(letters):
        scans.append(letters)
        return least_rotation(letters)

    least_rotation = words_necklaces._least_rotation
    monkeypatch.setattr(words_necklaces, "_least_rotation", counted)
    n = canonical_necklace(word([2, 1, 0, 1, 2, 0]))
    assert n.canonical_word.letters == (0, 1, 2, 0, 2, 1)
    assert scans == [(2, 1, 0, 1, 2, 0)]
    # the constructor alone still scans, and rejects a non-least rotation
    with pytest.raises(InvalidInputError):
        Necklace(word([2, 1, 0, 1, 2, 0]))
    assert len(scans) == 2


def test_canonical_necklace_checks_the_letters_once(monkeypatch):
    checked = []
    check = Word.__init__

    def counted(self, letters, alphabet_size):
        checked.append(letters)
        check(self, letters, alphabet_size)

    w = word([2, 1, 0, 1, 2, 0])
    monkeypatch.setattr(Word, "__init__", counted)
    n = canonical_necklace(w)
    # the rotation of a checked word is not checked again
    assert checked == []
    assert n == Necklace(Word((0, 1, 2, 0, 2, 1), 3))
    assert checked == [(0, 1, 2, 0, 2, 1)]
    # a word built by a caller is still checked in full
    with pytest.raises(InvalidInputError):
        Word((0, 1, 3), 3)
    with pytest.raises(InvalidInputError):
        Word((0, 2, 2), 3)


# ------------------------------------------------------------- parity


@given(surjective_words(max_alphabet=6, max_length=12))
@settings(max_examples=200)
def test_rational_parity_matches_sorting_each_subword(w):
    assert rational_parity(w) == sorted_choice_parity(w)


def test_rational_parity_examples():
    assert rational_parity(word([0, 1, 2])) == 1
    assert rational_parity(word([0, 2, 1])) == -1
    assert rational_parity(word([0, 1, 0, 1])) == Fraction(1, 2)
    assert rational_parity(word([0, 1, 2, 0])) == 1


def test_rational_parity_single_letter():
    assert rational_parity(word([0, 0])) == 1
    assert subword_count(word([0, 0])) == 2


def test_rational_parity_budget():
    # 20 letters, each twice: 2^20 proper subwords exceed the default cap.
    letters = tuple(itertools.chain.from_iterable((j, j) for j in range(20)))
    w = word(letters)
    assert subword_count(w) == 2**20
    with pytest.raises(ResourceBudgetError):
        rational_parity(w)


@given(odd_alphabet_words(), st.integers(min_value=0, max_value=12))
@settings(max_examples=150)
def test_parity_rotation_invariant_on_odd_alphabets(w, i):
    assert rational_parity(cyclic_shift(w, i)) == rational_parity(w)


@given(surjective_words(max_alphabet=4, max_length=8))
def test_parity_bounded_by_one(w):
    assert abs(rational_parity(w)) <= 1


def test_parity_not_rotation_invariant_even_alphabet_witness():
    w = word([0, 1, 0, 1, 1, 0])
    values = {rational_parity(cyclic_shift(w, i)) for i in range(w.length)}
    assert len(values) > 1


def test_necklace_parity_examples():
    assert necklace_parity(canonical_necklace(word([2, 0, 1]))) == 1
    assert necklace_parity(canonical_necklace(word([0, 1, 2, 0]))) == 1
    with pytest.raises(EvenAlphabetError):
        necklace_parity(canonical_necklace(word([0, 1, 0, 1])))


@given(odd_alphabet_words())
@settings(max_examples=100)
def test_necklace_parity_matches_any_representative(w):
    assert necklace_parity(canonical_necklace(w)) == rational_parity(w)


def test_necklace_parity_matches_every_small_word():
    for alphabet, longest in ((3, 7), (5, 6)):
        for length in range(alphabet, longest + 1):
            for w in all_surjective_words(length, alphabet):
                assert necklace_parity(canonical_necklace(w)) == rational_parity(w)


# letter contents whose subword counts exceed the enumeration budget
@pytest.mark.parametrize("content", [(105, 105, 105), (4,) * 11])
def test_necklace_parity_beyond_the_subword_budget(content):
    letters = [j for j, m in enumerate(content) for _ in range(m)]
    random.Random(61).shuffle(letters)
    w = word(letters)
    assert subword_count(w) > SUBWORD_BUDGET
    parity = necklace_parity(canonical_necklace(w))
    assert abs(parity) <= 1
    # the Fraction Okada route sums column pairs over position pairs, on
    # the word and on a rotation of it
    for i in (0, 7):
        rotated = word_matrix(cyclic_shift(w, i))
        assert pfaffian(okada_matrix(rotated)) / subword_count(w) == parity


# ------------------------------------------------------------ enumeration


def test_all_surjective_words_counts():
    assert len(list(all_surjective_words(3, 3))) == 6
    assert len(list(all_surjective_words(4, 3))) == 36
    assert len(list(all_surjective_words(2, 3))) == 0
    assert len(list(all_surjective_words(3, 1))) == 1


@pytest.mark.parametrize(
    "content", [(1,), (3,), (1, 1), (2, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2), (1, 1, 1, 2)]
)
def test_words_of_content_in_lexicographic_order(content):
    letters = [x for x, c in enumerate(content) for _ in range(c)]
    expected = sorted(set(itertools.permutations(letters)))
    got = [w.letters for w in words_of_content(content)]
    assert got == expected
    assert all(w.alphabet_size == len(content) for w in words_of_content(content))


def test_words_of_content_of_1200_letters():
    # one generator frame, whatever the length
    words = words_of_content((400, 400, 400))
    assert next(words).letters == (0,) * 400 + (1,) * 400 + (2,) * 400
    assert next(words).letters == (0,) * 400 + (1,) * 399 + (2, 1) + (2,) * 399


def test_words_of_content_needs_every_letter():
    with pytest.raises(InvalidInputError):
        next(words_of_content((2, 0, 1)))
