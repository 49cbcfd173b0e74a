"""Cyclic word decorations: the semi-simplicial encoding of circle bundles.

A decoration colors every simplex of a locally ordered base complex with a
word over its local vertices and records, for every codimension-1 face, the
cyclic shift that aligns the word of the simplex with the word of the face.
Deeper face morphisms are derived by composition; validity means every
stored shift reproduces the face word through `boundary_word` and every
two-step face chain satisfies the simplicial composition identity.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

from ._frozen import Frozen
from .complexes import (
    LocallyOrderedComplex,
    ValidationIssue,
    ValidationReport,
    simplex_face,
)
from .cyclic_category import compose_word_morphisms, decompose_cyclic_injection
from .errors import InvalidInputError, ResourceBudgetError
from .words_necklaces import (
    FaceOperator,
    Word,
    WordMorphism,
    boundary_word,
    cyclic_shift,
    delete_index_face,
    words_of_content,
)

__all__ = [
    "Decoration",
    "DEFAULT_CANDIDATE_BUDGET",
    "CANDIDATE_BUDGET_ENV",
    "candidate_budget",
    "face_morphism",
    "morphism_from_shift",
    "validate_decoration",
    "enumerate_decorations",
    "elementary_decoration",
]

DEFAULT_CANDIDATE_BUDGET = 10**8
CANDIDATE_BUDGET_ENV = "NECKLACE_MAX_CANDIDATES"


def candidate_budget(override: Optional[int] = None) -> int:
    """The enumeration budget: explicit override, else environment, else
    the default."""
    if override is not None:
        return override
    raw = os.environ.get(CANDIDATE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_CANDIDATE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInputError(
            f"{CANDIDATE_BUDGET_ENV} must be an integer, got {raw!r}"
        )
    if value < 0:
        raise InvalidInputError(f"{CANDIDATE_BUDGET_ENV} must be nonnegative")
    return value


class Decoration(Frozen):
    """Words and face shifts over a locally ordered base complex.

    ``words[i]`` is the word of the simplex with id i; ``shifts[i]`` has one
    entry per face of that simplex (empty for vertices).
    """

    __slots__ = _fields = ("base", "words", "shifts")
    base: LocallyOrderedComplex
    words: Tuple[Word, ...]
    shifts: Tuple[Tuple[int, ...], ...]

    def __init__(
        self,
        base: LocallyOrderedComplex,
        words: Tuple[Word, ...],
        shifts: Tuple[Tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "shifts", shifts)
        count = len(self.base.simplices)
        if len(self.words) != count:
            raise InvalidInputError(
                f"expected {count} words, got {len(self.words)}"
            )
        if len(self.shifts) != count:
            raise InvalidInputError(
                f"expected {count} shift tuples, got {len(self.shifts)}"
            )
        for per_face in self.shifts:
            if any(not isinstance(t, int) or isinstance(t, bool) for t in per_face):
                raise InvalidInputError("shifts must be integers")

    @staticmethod
    def from_maps(
        base: LocallyOrderedComplex,
        words: Mapping[int, Word],
        shifts: Mapping[Tuple[int, int], int],
    ) -> "Decoration":
        count = len(base.simplices)
        word_list = []
        shift_list = []
        for i in range(count):
            if i not in words:
                raise InvalidInputError(f"missing word for simplex id {i}")
            word_list.append(words[i])
            size = len(base.simplices[i])
            if size == 1:
                shift_list.append(())
                continue
            per_face = []
            for j in range(size):
                if (i, j) not in shifts:
                    raise InvalidInputError(
                        f"missing shift for simplex id {i}, face {j}"
                    )
                per_face.append(shifts[(i, j)])
            shift_list.append(tuple(per_face))
        return Decoration(base, tuple(word_list), tuple(shift_list))

    def word_for(self, simplex: Sequence[int]) -> Word:
        return self.words[self.base.simplex_id(simplex)]

    def shift_for(self, simplex: Sequence[int], j: int) -> int:
        per_face = self.shifts[self.base.simplex_id(simplex)]
        if not 0 <= j < len(per_face):
            raise InvalidInputError(f"face index {j} out of range")
        return per_face[j]


def morphism_from_shift(parent: Word, child: Word, j: int, t: int) -> WordMorphism:
    """The word morphism of a j-th face inclusion realized by shift t:
    positions of surviving letters are read off the t-rotated parent word
    and decomposed into shift-then-face normal form."""
    delta = delete_index_face(j, parent.alphabet_size)
    derived, positions = boundary_word(cyclic_shift(parent, t), delta)
    if derived != child:
        raise InvalidInputError(
            f"shift {t} does not turn the boundary of {parent.letters} "
            f"at face {j} into {child.letters}"
        )
    values = tuple(
        (positions(x) - t) % parent.length for x in range(child.length)
    )
    face, shift = decompose_cyclic_injection(values, parent.length)
    return WordMorphism(
        shift=shift,
        alphabet_face=delta,
        induced_domain_face=face,
        domain_word=child,
        codomain_word=parent,
    )


def face_morphism(d: Decoration, simplex: Sequence[int], j: int) -> WordMorphism:
    """The word morphism of the j-th face inclusion, built from the stored
    shift."""
    simplex = tuple(simplex)
    parent = d.word_for(simplex)
    child = d.word_for(simplex_face(simplex, j))
    return morphism_from_shift(parent, child, j, d.shift_for(simplex, j))


def _shift_morphisms(
    base: LocallyOrderedComplex,
    words: Union[Sequence[Word], Mapping[int, Word]],
    shifts: Mapping[Tuple[int, int], int],
) -> Callable[[int, int], WordMorphism]:
    """morphism(i, j) for face j of simplex id i at the current entry of
    ``shifts``, memoized on (i, j, shift); ``words`` is indexed by simplex
    id and must stay fixed while the returned function is in use."""
    faces = base.face_ids
    memo: Dict[Tuple[int, int, int], WordMorphism] = {}

    def morphism(i: int, j: int) -> WordMorphism:
        key = (i, j, shifts[(i, j)])
        m = memo.get(key)
        if m is None:
            child = words[faces[i][j]]
            m = memo[key] = morphism_from_shift(words[i], child, j, key[2])
        return m

    return morphism


def _face_pairs(faces: Sequence[Tuple[int, ...]]) -> Iterator[tuple]:
    """(i, j1, j2, slots) for each face pair j1 < j2 of each simplex id i of
    dimension >= 2, in canonical order.  The slots are the four (simplex id,
    face) inclusions of the simplicial identity: the path through face j2
    then face j1, and the path through face j1 then face j2 - 1."""
    for i, f in enumerate(faces):
        if len(f) < 3:
            continue
        for j2 in range(len(f)):
            for j1 in range(j2):
                yield i, j1, j2, ((i, j2), (f[j2], j1), (i, j1), (f[j1], j2 - 1))


def _face_pair_commutes(
    morphism: Callable[[int, int], WordMorphism], pair: Tuple[Tuple[int, int], ...]
) -> bool:
    """Whether both paths of a face pair (`_face_pairs`) compose to the
    same word morphism, with morphism(i, j) giving each face inclusion."""
    outer_b, inner_b, outer_a, inner_a = pair
    through_b = compose_word_morphisms(morphism(*outer_b), morphism(*inner_b))
    through_a = compose_word_morphisms(morphism(*outer_a), morphism(*inner_a))
    return through_a == through_b


def validate_decoration(d: Decoration) -> ValidationReport:
    """Check boundary compatibility and face-chain functoriality everywhere."""
    issues: List[ValidationIssue] = []
    base = d.base
    faces = base.face_ids
    for i, simplex in enumerate(base.simplices):
        size = len(simplex)
        w = d.words[i]
        if w.alphabet_size != size:
            issues.append(
                ValidationIssue(
                    "wrong-alphabet",
                    f"word alphabet {w.alphabet_size}, simplex has {size} vertices",
                    simplex,
                )
            )
            continue
        per_face = d.shifts[i]
        if len(per_face) != (0 if size == 1 else size):
            issues.append(
                ValidationIssue(
                    "bad-shift-shape",
                    f"expected {0 if size == 1 else size} face shifts, "
                    f"got {len(per_face)}",
                    simplex,
                )
            )
            continue
        for j, t in enumerate(per_face):
            if not 0 <= t < w.length:
                issues.append(
                    ValidationIssue(
                        "shift-out-of-range",
                        f"face {j} shift {t} not in [0, {w.length})",
                        simplex,
                    )
                )
                continue
            child = d.words[faces[i][j]]
            derived, _ = boundary_word(
                cyclic_shift(w, t), delete_index_face(j, size)
            )
            if derived != child:
                issues.append(
                    ValidationIssue(
                        "boundary-mismatch",
                        f"face {j}: shifted boundary word {derived.letters} "
                        f"differs from stored {child.letters}",
                        simplex,
                    )
                )
    if issues:
        return ValidationReport(tuple(issues))
    shifts = {
        (i, j): t
        for i, per_face in enumerate(d.shifts)
        for j, t in enumerate(per_face)
    }
    morphism = _shift_morphisms(base, d.words, shifts)
    # every shift passed the boundary check, so no morphism fails to build
    for i, j1, j2, pair in _face_pairs(faces):
        if not _face_pair_commutes(morphism, pair):
            issues.append(
                ValidationIssue(
                    "functoriality-mismatch",
                    f"faces {j1} and {j2} compose differently",
                    base.simplices[i],
                )
            )
    return ValidationReport(tuple(issues))


# =========================================================================
# Construction helpers
# =========================================================================


def elementary_decoration(w: Word) -> Decoration:
    """The decoration of the full simplex on the word's alphabet.

    The top simplex carries the word itself, every face carries the
    corresponding boundary word, and all shifts are zero; validity follows
    from boundary composition.
    """
    n1 = w.alphabet_size
    base = LocallyOrderedComplex.from_maximal(n1, [tuple(range(n1))])
    words: Dict[int, Word] = {}
    shifts: Dict[Tuple[int, int], int] = {}
    for i, simplex in enumerate(base.simplices):
        if len(simplex) == n1:
            words[i] = w
        else:
            delta = FaceOperator(simplex, n1)
            words[i], _ = boundary_word(w, delta)
        for j in range(len(simplex) if len(simplex) > 1 else 0):
            shifts[(i, j)] = 0
    return Decoration.from_maps(base, words, shifts)


@lru_cache(maxsize=200000)
def _valid_shifts(parent: Word, j: int, child: Word) -> Tuple[int, ...]:
    """Shifts t for which the j-th boundary of the t-rotated parent word
    equals the child word."""
    delta = delete_index_face(j, parent.alphabet_size)
    found = []
    for t in range(parent.length):
        derived, _ = boundary_word(cyclic_shift(parent, t), delta)
        if derived == child:
            found.append(t)
    return tuple(found)


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceBudgetError(
                f"decoration search exceeded {self.limit} candidates"
            )


def _depth_first(
    size: int,
    candidates: Callable[[int], Iterable],
    accept: Callable[[int, object], bool],
) -> Iterator[None]:
    """Yield once per complete assignment of positions 0..size-1, depth
    first on an explicit stack, so deep searches need no recursion.

    ``candidates(pos)`` gives the choices for a position, tried in order;
    ``accept(pos, c)`` records choice c for the position and tells whether
    the search descends with it.  Each yield sees the assignment that
    ``accept`` has recorded.
    """
    if size == 0:
        yield
        return
    stack = [iter(candidates(0))]
    while stack:
        pos = len(stack) - 1
        # any() stops at the first accepted choice, so the iterator resumes
        # after it when the search comes back to this position
        if not any(accept(pos, c) for c in stack[-1]):
            stack.pop()
        elif pos + 1 == size:
            yield
        else:
            stack.append(iter(candidates(pos + 1)))


def _face_slots(base: LocallyOrderedComplex) -> List[Tuple[int, int]]:
    """Every (simplex id, face) slot that carries a shift, in canonical
    order."""
    return [(i, j) for i, f in enumerate(base.face_ids) for j in range(len(f))]


def _shift_decorations(
    base: LocallyOrderedComplex,
    words: Union[Sequence[Word], Mapping[int, Word]],
    slots: Sequence[Tuple[int, int]],
    tally: _Budget,
) -> Iterator[Decoration]:
    """Every valid decoration with the fixed ``words`` (indexed by simplex
    id), depth first over the shifts of ``slots`` in the given order.

    ``slots`` lists every face slot of the base once. Each face-pair
    identity is checked as soon as the last of its four slots is assigned,
    memoized on its four slots and their shifts; every shift tried
    charges the budget once.
    """
    faces = base.face_ids
    position = {slot: pos for pos, slot in enumerate(slots)}
    checks_at: List[List[tuple]] = [[] for _ in slots]
    for *_, pair in _face_pairs(faces):
        checks_at[max(position[slot] for slot in pair)].append(pair)
    domains = [_valid_shifts(words[i], j, words[faces[i][j]]) for i, j in slots]
    if not all(domains):
        return
    shifts: Dict[Tuple[int, int], int] = {}
    morphism = _shift_morphisms(base, words, shifts)
    holds: Dict[tuple, bool] = {}

    def commutes(pair: tuple) -> bool:
        key = pair + tuple(map(shifts.__getitem__, pair))
        ok = holds.get(key)
        if ok is None:
            ok = holds[key] = _face_pair_commutes(morphism, pair)
        return ok

    def accept(pos: int, t: int) -> bool:
        tally.spend()
        shifts[slots[pos]] = t
        return all(map(commutes, checks_at[pos]))

    for _ in _depth_first(len(slots), domains.__getitem__, accept):
        per_face = tuple(
            tuple(shifts[(i, j)] for j in range(len(f))) for i, f in enumerate(faces)
        )
        by_id = tuple(words[i] for i in range(len(per_face)))
        yield Decoration(base, by_id, per_face)


def _multiplicity_vectors(
    base: LocallyOrderedComplex, max_len: int
) -> Iterator[Tuple[int, ...]]:
    """Per-vertex fiber lengths, constrained so every maximal simplex's word
    fits in max_len; ascending lexicographic order."""
    maximal = base.maximal_simplices()
    counts = [1] * base.vertex_count

    def fits() -> bool:
        return all(sum(counts[v] for v in s) <= max_len for s in maximal)

    if not fits():
        return
    # an odometer: grow the last vertex that still fits, resetting the ones
    # after it to 1
    while True:
        yield tuple(counts)
        v = base.vertex_count - 1
        while v >= 0:
            counts[v] += 1
            if fits():
                break
            counts[v] = 1
            v -= 1
        if v < 0:
            return


def enumerate_decorations(
    base: LocallyOrderedComplex,
    max_len: int,
    budget: Optional[int] = None,
) -> Iterator[Decoration]:
    """Every valid decoration whose maximal-simplex words have length at
    most max_len, in a fixed deterministic order.

    The stream enumerates per-vertex fiber lengths, then words per simplex
    in canonical id order (pruning words whose boundaries cannot match any
    shift of an assigned face word), then shift assignments, checking
    functoriality as soon as it is decidable.

    Raises
    ------
    ResourceBudgetError
        When more candidates than the budget (default 10**8, overridable
        via NECKLACE_MAX_CANDIDATES or the argument) are examined.
    """
    if base.dimension > 2:
        raise InvalidInputError("enumeration is limited to bases of dimension <= 2")
    if max_len < base.dimension + 1:
        raise InvalidInputError("max_len is smaller than the top word length")
    tally = _Budget(candidate_budget(budget))
    count = len(base.simplices)
    words: List[Optional[Word]] = [None] * count
    slots = _face_slots(base)
    faces = base.face_ids

    def accept(i: int, w: Word) -> bool:
        tally.spend()
        for j, f in enumerate(faces[i]):
            if not _valid_shifts(w, j, words[f]):
                return False
        words[i] = w
        return True

    for fiber_lengths in _multiplicity_vectors(base, max_len):
        contents = [tuple(fiber_lengths[v] for v in s) for s in base.simplices]
        # words per simplex in id order, then the shifts; canonical order
        # checks each face pair (j1, j2) of s as soon as (s, j2) is set
        for _ in _depth_first(count, lambda i: words_of_content(contents[i]), accept):
            yield from _shift_decorations(base, words, slots, tally)
