"""Words over ordered alphabets, cyclic shifts, boundaries and rational parity.

A word of length n+1 over the alphabet {0, ..., k} is a surjective map
[n] -> [k], written as the letter sequence (w(0), ..., w(n)).  The cyclic
group acts on positions; the orbit of a word under that action is a
necklace.  A proper subword is a choice of one position per letter; read in
position order it is a permutation of the alphabet, and the rational parity
of a word is the expectation of the sign of that permutation over all
proper subwords.

Everything here is exact: parities are `fractions.Fraction` values.
`necklace_parity`, the parity every Chern computation uses, evaluates the
Okada Pfaffian of the word's integer pair counts through the Pfaffian
kernel of `exact_linalg`, in time polynomial in the word length.  The
subword enumeration `rational_parity` is kept, under `SUBWORD_BUDGET`, as
the independent combinatorial oracle it is checked against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import gt
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ._frozen import Frozen
from .errors import (
    SUBWORD_BUDGET,
    EvenAlphabetError,
    InvalidInputError,
    MorphismMismatchError,
    ResourceBudgetError,
)
from .exact_linalg import _pfaffian_int

__all__ = [
    "Word",
    "Necklace",
    "FaceOperator",
    "WordMorphism",
    "SUBWORD_BUDGET",
    "word",
    "identity_face",
    "delete_index_face",
    "compose_faces",
    "cyclic_shift",
    "boundary_word",
    "canonical_necklace",
    "rational_parity",
    "necklace_parity",
    "subword_count",
    "words_of_content",
]

# =========================================================================
# Domain types
# =========================================================================


class Word(Frozen):
    """A surjective letter sequence [n] -> [k].

    Attributes
    ----------
    letters:
        The values (w(0), ..., w(n)); every letter 0..k occurs at least once.
    alphabet_size:
        k+1.  Surjectivity forces ``alphabet_size == max(letters) + 1``.
    """

    __slots__ = _fields = ("letters", "alphabet_size")
    letters: Tuple[int, ...]
    alphabet_size: int

    def __init__(self, letters: Tuple[int, ...], alphabet_size: int) -> None:
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "alphabet_size", alphabet_size)
        if not self.letters:
            raise InvalidInputError("a word must have at least one letter")
        if self.alphabet_size < 1:
            raise InvalidInputError("alphabet size must be positive")
        seen = set()
        for x in self.letters:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InvalidInputError(f"letter {x!r} is not an integer")
            if not 0 <= x < self.alphabet_size:
                raise InvalidInputError(
                    f"letter {x} outside alphabet 0..{self.alphabet_size - 1}"
                )
            seen.add(x)
        if len(seen) != self.alphabet_size:
            missing = sorted(set(range(self.alphabet_size)) - seen)
            raise InvalidInputError(f"word is not surjective, letters {missing} missing")

    # written out, not the generic `Frozen` ones: the range search hashes
    # and compares words, necklaces and faces in its inner loops, and the
    # generic versions made it about a fifth slower
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.letters == other.letters
            and self.alphabet_size == other.alphabet_size
        )

    def __hash__(self) -> int:
        return hash((self.letters, self.alphabet_size))

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def top_index(self) -> int:
        """n, the largest position index."""
        return len(self.letters) - 1

    def multiplicities(self) -> Tuple[int, ...]:
        """Occurrence count m_j of each letter j."""
        counts = [0] * self.alphabet_size
        for x in self.letters:
            counts[x] += 1
        return tuple(counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i: int) -> int:
        return self.letters[i]


def word(letters: Sequence[int]) -> Word:
    """Build a word, inferring the alphabet from the largest letter."""
    letters = tuple(letters)
    if not letters:
        raise InvalidInputError("a word must have at least one letter")
    return Word(letters, max(letters) + 1)


class Necklace(Frozen):
    """The cyclic orbit of a word, stored by its canonical representative.

    The canonical representative is the lexicographically least rotation.
    Use :func:`canonical_necklace` to construct one; the constructor
    validates minimality, scanning only if not given the ``least`` rotation,
    which is not stored.
    """

    __slots__ = _fields = ("canonical_word",)
    canonical_word: Word

    def __init__(
        self, canonical_word: Word, least: Optional[Tuple[int, ...]] = None
    ) -> None:
        object.__setattr__(self, "canonical_word", canonical_word)
        w = self.canonical_word
        if least is None:
            least = _least_rotation(w.letters)
        if w.letters != least:
            raise InvalidInputError(
                f"{w.letters} is not the least rotation {least} of its orbit"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.canonical_word == other.canonical_word

    def __hash__(self) -> int:
        return hash((self.canonical_word,))

    @property
    def alphabet_size(self) -> int:
        return self.canonical_word.alphabet_size


class FaceOperator(Frozen):
    """A strictly increasing injection [m] -> [k], given by its image.

    Face operators act on alphabets (deleting letters) and on position sets
    (recording which positions survive a boundary).
    """

    __slots__ = _fields = ("image", "codomain_size")
    image: Tuple[int, ...]
    codomain_size: int

    def __init__(self, image: Tuple[int, ...], codomain_size: int) -> None:
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "codomain_size", codomain_size)
        if not self.image:
            raise InvalidInputError("face operator needs a nonempty image")
        prev = -1
        for v in self.image:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInputError(f"face image value {v!r} is not an integer")
            if v <= prev:
                raise InvalidInputError(f"face image {self.image} is not strictly increasing")
            prev = v
        if prev >= self.codomain_size:
            raise InvalidInputError(
                f"face image {self.image} exceeds codomain 0..{self.codomain_size - 1}"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.image == other.image and self.codomain_size == other.codomain_size

    def __hash__(self) -> int:
        return hash((self.image, self.codomain_size))

    @property
    def domain_size(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        return self.image[x]

    def image_set(self) -> frozenset:
        return frozenset(self.image)


def identity_face(size: int) -> FaceOperator:
    return FaceOperator(tuple(range(size)), size)


def delete_index_face(j: int, codomain_size: int) -> FaceOperator:
    """The elementary face [k-1] -> [k] omitting j."""
    if not 0 <= j < codomain_size:
        raise InvalidInputError(f"cannot omit {j} from 0..{codomain_size - 1}")
    return FaceOperator(tuple(x for x in range(codomain_size) if x != j), codomain_size)


def compose_faces(outer: FaceOperator, inner: FaceOperator) -> FaceOperator:
    """outer after inner, as strictly increasing injections."""
    if inner.codomain_size != outer.domain_size:
        raise MorphismMismatchError(
            f"cannot compose faces: inner codomain {inner.codomain_size} "
            f"!= outer domain {outer.domain_size}"
        )
    return FaceOperator(tuple(outer.image[v] for v in inner.image), outer.codomain_size)


class WordMorphism(Frozen):
    """A cyclic morphism of words: rotate the domain, then include monotonely.

    The underlying position map is ``f(x) = induced_domain_face((x - shift)
    mod (n0+1))`` where n0+1 is the domain word length.  Letters are carried
    by ``alphabet_face``; validity means ``codomain_word[f(x)] ==
    alphabet_face(domain_word[x])`` for every position x, and the image of
    the position injection is exactly the set of positions of the codomain
    word whose letters lie in the image of the alphabet face.
    """

    __slots__ = _fields = (
        "shift",
        "alphabet_face",
        "induced_domain_face",
        "domain_word",
        "codomain_word",
    )
    shift: int
    alphabet_face: FaceOperator
    induced_domain_face: FaceOperator
    domain_word: Word
    codomain_word: Word

    def __init__(
        self,
        shift: int,
        alphabet_face: FaceOperator,
        induced_domain_face: FaceOperator,
        domain_word: Word,
        codomain_word: Word,
    ) -> None:
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "alphabet_face", alphabet_face)
        object.__setattr__(self, "induced_domain_face", induced_domain_face)
        object.__setattr__(self, "domain_word", domain_word)
        object.__setattr__(self, "codomain_word", codomain_word)
        a, b = self.domain_word, self.codomain_word
        if self.alphabet_face.domain_size != a.alphabet_size:
            raise InvalidInputError("alphabet face domain does not match the domain word")
        if self.alphabet_face.codomain_size != b.alphabet_size:
            raise InvalidInputError("alphabet face codomain does not match the codomain word")
        if self.induced_domain_face.domain_size != a.length:
            raise InvalidInputError("position face domain does not match the domain word")
        if self.induced_domain_face.codomain_size != b.length:
            raise InvalidInputError("position face codomain does not match the codomain word")
        if not 0 <= self.shift < a.length:
            raise InvalidInputError(f"shift {self.shift} not reduced mod {a.length}")
        letters_in_image = frozenset(
            p for p in range(b.length) if b.letters[p] in self.alphabet_face.image_set()
        )
        if self.induced_domain_face.image_set() != letters_in_image:
            raise InvalidInputError(
                "position face image must be the set of codomain positions "
                "carrying letters of the alphabet face image"
            )
        f = self.position_map()
        for x in range(a.length):
            if b.letters[f[x]] != self.alphabet_face(a.letters[x]):
                raise InvalidInputError(
                    f"morphism does not intertwine letters at position {x}"
                )

    def position_map(self) -> Tuple[int, ...]:
        """The underlying injection of positions, as a value table."""
        n = self.domain_word.length
        return tuple(
            self.induced_domain_face((x - self.shift) % n) for x in range(n)
        )


# =========================================================================
# Operations
# =========================================================================


def _least_rotation(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """The lexicographically least rotation, by Booth's algorithm: one
    failure-function scan of the doubled sequence, linear in its length."""
    n = len(letters)
    doubled = letters + letters
    fail = [-1] * (2 * n)
    k = 0  # start of the least rotation seen so far
    for j in range(1, 2 * n):
        c = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != doubled[k]:
            if c < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return doubled[k:k + n]


def cyclic_shift(w: Word, i: int) -> Word:
    """Rotate a word: (shifted)(j) = w((j - i) mod (n+1)).

    Shifting by the length is the identity; i may be any integer and is
    reduced mod the length.
    """
    n1 = w.length
    i %= n1
    if i == 0:
        return w
    return Word(w.letters[-i:] + w.letters[:-i], w.alphabet_size)


def boundary_word(w: Word, delta: FaceOperator) -> Tuple[Word, FaceOperator]:
    """Delete the letters outside the image of ``delta`` and renumber.

    Returns the boundary word together with the monotone injection of the
    surviving positions into the positions of ``w``.
    """
    if delta.codomain_size != w.alphabet_size:
        raise InvalidInputError(
            f"face codomain {delta.codomain_size} does not match alphabet "
            f"{w.alphabet_size}"
        )
    keep = delta.image_set()
    positions = tuple(p for p in range(w.length) if w.letters[p] in keep)
    # A surjective word meets every letter, so a nonempty face keeps at
    # least one position.
    assert positions, "boundary of a surjective word cannot be empty"
    renumber = {v: x for x, v in enumerate(delta.image)}
    letters = tuple(renumber[w.letters[p]] for p in positions)
    return (
        Word(letters, delta.domain_size),
        FaceOperator(positions, w.length),
    )


def canonical_necklace(w: Word) -> Necklace:
    """The orbit of ``w`` under rotation, by its lexicographically least member."""
    least = _least_rotation(w.letters)
    # a rotation of a valid word is valid: store it without Word's checks,
    # so only minimality is left to check
    rotated = object.__new__(Word)
    object.__setattr__(rotated, "letters", least)
    object.__setattr__(rotated, "alphabet_size", w.alphabet_size)
    return Necklace(rotated, least)


def subword_count(w: Word) -> int:
    """Number of proper subwords: the product of the letter multiplicities."""
    total = 1
    for m in w.multiplicities():
        total *= m
    return total


def rational_parity(w: Word) -> Fraction:
    """Expected sign over all proper subwords of ``w``.

    A proper subword picks one position for each letter; reading the chosen
    letters in position order gives a permutation of the alphabet whose sign
    is +-1.  The value is (#even - #odd) / #subwords, always in [-1, 1].

    Raises
    ------
    ResourceBudgetError
        If the subword count (product of multiplicities) exceeds
        ``SUBWORD_BUDGET``.
    """
    positions: Dict[int, List[int]] = {j: [] for j in range(w.alphabet_size)}
    for p, letter in enumerate(w.letters):
        positions[letter].append(p)
    count = subword_count(w)
    if count > SUBWORD_BUDGET:
        raise ResourceBudgetError(
            f"{count} proper subwords exceed the enumeration budget {SUBWORD_BUDGET}"
        )
    odd = 0
    for choice in itertools.product(*positions.values()):
        # choice[j] = position chosen for letter j; the letters read in
        # position order are the inverse permutation, so the subword's sign
        # is the parity of the inversions of the choice tuple itself
        odd += sum(itertools.starmap(gt, itertools.combinations(choice, 2))) & 1
    return Fraction(count - 2 * odd, count)


def necklace_parity(n: Necklace) -> Fraction:
    """Rational parity of any representative of the necklace.

    By the Okada minor-summation identity the signed subword count is the
    Pfaffian of the skew matrix bordered by the multiplicities m_j, with
    entry (a, b) = #(a before b) - #(b before a) over position pairs; one
    pass over the word builds it, and the parity is that Pfaffian divided
    by the subword count, the product of the m_j.

    Raises
    ------
    EvenAlphabetError
        If the alphabet size is even; parity is only a rotation invariant
        over odd alphabets.
    """
    if n.alphabet_size % 2 == 0:
        raise EvenAlphabetError(
            f"alphabet size {n.alphabet_size} is even; parity is not a "
            "necklace invariant"
        )
    w = n.canonical_word
    size = w.alphabet_size + 1
    # index 0 is the border; letter j sits at index j + 1
    rows = [[0] * size for _ in range(size)]
    seen = rows[0]
    for x in w.letters:
        row = rows[x + 1]
        for c in range(1, size):
            before = seen[c]
            row[c] -= before
            rows[c][x + 1] += before
        seen[x + 1] += 1
    for c in range(1, size):
        rows[c][0] = -seen[c]
    return Fraction(_pfaffian_int(rows), subword_count(w))


# =========================================================================
# Enumeration helpers
# =========================================================================


def words_of_content(content: Sequence[int]) -> Iterator[Word]:
    """All words where letter j occurs exactly content[j] times, in
    lexicographic order: each is the next permutation of the one before
    (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L)."""
    content = list(content)
    if any(c < 1 for c in content):
        raise InvalidInputError("every letter needs at least one occurrence")
    alphabet_size = len(content)
    letters = [x for x, c in enumerate(content) for _ in range(c)]
    last = len(letters) - 1
    while True:
        yield Word(tuple(letters), alphabet_size)
        # the longest non-increasing suffix starts after position j
        j = last - 1
        while j >= 0 and letters[j] >= letters[j + 1]:
            j -= 1
        if j < 0:
            return
        k = last
        while letters[k] <= letters[j]:
            k -= 1
        letters[j], letters[k] = letters[k], letters[j]
        letters[j + 1 :] = letters[:j:-1]
