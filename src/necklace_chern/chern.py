"""The rational local formula for powers of the first Chern class.

The value on a 2h-simplex is (-1)^h h!/(2h)! times the necklace parity of
the simplex's word. Summing the degree-2 cochain against a fundamental
cycle of a closed oriented surface gives the Chern number, always an exact
integer on valid data. The range search certifies which Chern numbers are
realizable over a given surface within a word-length bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ._frozen import Frozen
from .complexes import LocallyOrderedComplex, Simplex
from .decorations import (
    Decoration,
    _Budget,
    _depth_first,
    _face_slots,
    _multiplicity_vectors,
    _shift_decorations,
    candidate_budget,
    validate_decoration,
)
from .errors import (
    InvalidInputError,
    NonIntegralError,
    NonOrientableError,
    NotClosedError,
    WrongAlphabetError,
)
from .words_necklaces import (
    Necklace,
    Word,
    boundary_word,
    canonical_necklace,
    delete_index_face,
    necklace_parity,
    words_of_content,
)

__all__ = [
    "RationalCochain",
    "FundamentalCycle",
    "local_chern",
    "chern_cochain",
    "coboundary",
    "fundamental_cycle",
    "chern_number",
    "achievable_chern_numbers",
]


class RationalCochain(Frozen):
    """Exact rational values on every base simplex of one dimension."""

    __slots__ = _fields = ("base", "degree", "values")
    base: LocallyOrderedComplex
    degree: int
    values: Tuple[Fraction, ...]

    def __init__(
        self, base: LocallyOrderedComplex, degree: int, values: Tuple[Fraction, ...]
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", values)
        expected = len(self.base.simplices_of_dimension(self.degree))
        if len(self.values) != expected:
            raise InvalidInputError(
                f"expected {expected} values in degree {self.degree}, "
                f"got {len(self.values)}"
            )

    @property
    def simplices(self) -> Tuple[Simplex, ...]:
        return self.base.simplices_of_dimension(self.degree)

    def value_for(self, simplex: Sequence[int]) -> Fraction:
        return self.values[self.base.position_in_dimension(simplex, self.degree)]

    def items(self) -> Iterator[Tuple[Simplex, Fraction]]:
        return zip(self.simplices, self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


class FundamentalCycle(Frozen):
    """A coherent choice of signs, one per triangle of a closed surface."""

    __slots__ = _fields = ("base", "coefficients")
    base: LocallyOrderedComplex
    coefficients: Tuple[int, ...]

    def __init__(
        self, base: LocallyOrderedComplex, coefficients: Tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coefficients", coefficients)
        triangles = self.base.simplices_of_dimension(2)
        if len(self.coefficients) != len(triangles):
            raise InvalidInputError("one coefficient per triangle required")
        if any(c not in (-1, 1) for c in self.coefficients):
            raise InvalidInputError("coefficients must be +1 or -1")

    @property
    def triangles(self) -> Tuple[Simplex, ...]:
        return self.base.simplices_of_dimension(2)

    def coefficient_for(self, simplex: Sequence[int]) -> int:
        return self.coefficients[self.base.position_in_dimension(simplex, 2)]


def local_chern(w: Word, h: int) -> Fraction:
    """(-1)^h h!/(2h)! times the necklace parity; needs a 2h+1 alphabet."""
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    if w.alphabet_size != 2 * h + 1:
        raise WrongAlphabetError(
            f"alphabet size {w.alphabet_size} does not match 2h+1 = {2 * h + 1}"
        )
    parity = necklace_parity(canonical_necklace(w))
    scale = Fraction((-1) ** h * math.factorial(h), math.factorial(2 * h))
    return scale * parity


def chern_cochain(d: Decoration, h: int, validate: bool = True) -> RationalCochain:
    """The degree-2h cochain of local values over the decoration's base."""
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    if validate:
        report = validate_decoration(d)
        if not report.ok:
            raise InvalidInputError(report.summary())
    values = []
    for simplex in d.base.simplices_of_dimension(2 * h):
        values.append(local_chern(d.word_for(simplex), h))
    return RationalCochain(d.base, 2 * h, tuple(values))


def coboundary(c: RationalCochain) -> RationalCochain:
    """(delta c)(V) = sum over faces of V of (-1)^j c(face_j V)."""
    base = c.base
    upper = base.simplices_of_dimension(c.degree + 1)
    out = []
    if upper:
        first = base.simplex_id(upper[0])
        # the ids of one dimension run on into those of the next
        offset = first - len(c.values)
        for faces in base.face_ids[first : first + len(upper)]:
            total = Fraction(0)
            for j, f in enumerate(faces):
                total += (-1) ** j * c.values[f - offset]
            out.append(total)
    return RationalCochain(base, c.degree + 1, tuple(out))


def fundamental_cycle(base: LocallyOrderedComplex) -> FundamentalCycle:
    """Signs making the signed sum of triangles a cycle.

    Signs are propagated across shared edges so contributions cancel, then
    normalized so the lexicographically greatest triangle of each connected
    component gets +1.

    Raises
    ------
    NotClosedError
        If some edge does not lie in exactly two triangles.
    NonOrientableError
        If no coherent signing exists.
    """
    if base.dimension != 2:
        raise InvalidInputError("a fundamental cycle needs a 2-dimensional base")
    triangles = base.simplices_of_dimension(2)
    # the triangles are the last simplices
    tri_faces = base.face_ids[-len(triangles) :]
    by_edge: Dict[int, List[Tuple[int, int]]] = {}
    for i, faces in enumerate(tri_faces):
        for j, e in enumerate(faces):
            by_edge.setdefault(e, []).append((i, j))
    for e, edge in enumerate(base.simplices_of_dimension(1), base.vertex_count):
        hits = by_edge.get(e, [])
        if len(hits) != 2:
            raise NotClosedError(
                f"edge {edge} lies in {len(hits)} triangles, expected 2"
            )
    signs: Dict[int, int] = {}
    for seed in range(len(triangles)):
        if seed in signs:
            continue
        component = [seed]
        signs[seed] = 1
        queue = [seed]
        while queue:
            i = queue.pop()
            for j, e in enumerate(tri_faces[i]):
                for i2, j2 in by_edge[e]:
                    if i2 == i:
                        continue
                    # cancellation: s_i (-1)^j + s_i2 (-1)^j2 == 0
                    forced = -signs[i] * (-1) ** j * (-1) ** j2
                    if i2 in signs:
                        if signs[i2] != forced:
                            raise NonOrientableError(
                                "no coherent orientation across edge "
                                f"{base.simplices[e]}"
                            )
                    else:
                        signs[i2] = forced
                        component.append(i2)
                        queue.append(i2)
        top = max(component, key=lambda i: triangles[i])
        if signs[top] == -1:
            for i in component:
                signs[i] = -signs[i]
    return FundamentalCycle(
        base, tuple(signs[i] for i in range(len(triangles)))
    )


def chern_number(
    d: Decoration,
    fc: Optional[FundamentalCycle] = None,
    validate: bool = True,
) -> int:
    """The degree-2 cochain integrated against the fundamental cycle."""
    if fc is None:
        fc = fundamental_cycle(d.base)
    cochain = chern_cochain(d, 1, validate=validate)
    total = Fraction(0)
    for coeff, value in zip(fc.coefficients, cochain.values):
        total += coeff * value
    if total.denominator != 1:
        raise NonIntegralError(
            f"Chern pairing {total} is not an integer; the input cannot "
            "come from a valid bundle"
        )
    return int(total)


# =========================================================================
# Realizable-range search
# =========================================================================


# a triangle's word, its parity and the rotation classes of its faces' words
_Candidate = Tuple[Word, Fraction, Tuple[Necklace, Necklace, Necklace]]


@lru_cache(maxsize=4096)
def _triangle_candidates(content: Tuple[int, int, int]) -> Tuple[_Candidate, ...]:
    """One lexicographically least word per rotation class with the given
    letter content, together with its parity and the rotation classes of
    its three boundary words."""
    entries = []
    for w in words_of_content(content):
        if canonical_necklace(w).canonical_word != w:
            continue
        parity = necklace_parity(canonical_necklace(w))
        bnd = tuple(
            canonical_necklace(boundary_word(w, delete_index_face(j, 3))[0])
            for j in range(3)
        )
        entries.append((w, parity, bnd))
    return tuple(entries)


def _solve_shifts(
    base: LocallyOrderedComplex,
    words: Sequence[Word],
    tally: _Budget,
) -> Optional[Decoration]:
    """Find one shift assignment making the given words (indexed by simplex
    id) a valid decoration, or None.

    Slots are ordered triangle by triangle, each followed by the slots of
    its edges, so every functoriality identity of a triangle becomes
    checkable within a few assignments of entering it.
    """
    order: List[Tuple[int, int]] = []
    for i, faces in enumerate(base.face_ids):
        if len(faces) == 3:
            order.extend((i, j) for j in range(3))
            order.extend((e, jj) for e in faces for jj in range(2))
    slots = list(dict.fromkeys(order + _face_slots(base)))
    return next(_shift_decorations(base, words, slots, tally), None)


def achievable_chern_numbers(
    base: LocallyOrderedComplex,
    max_len: int,
    budget: Optional[int] = None,
) -> Set[int]:
    """Every Chern number realized by a valid decoration whose triangle
    words have length at most max_len.

    Words are searched up to rotation (rotating all words of a decoration
    independently preserves validity and the Chern number), candidate
    necklace tuples are pruned by boundary-necklace matching on shared
    edges, and a value is recorded only after an explicit decoration is
    constructed and checked. The result can only grow with max_len. Stops
    early once the whole integer interval [-F/2, F/2] is achieved; since
    |P| <= 1 bounds every value by that window, the result does not depend
    on the order in which fiber-length vectors are visited.

    Raises
    ------
    ResourceBudgetError
        When the candidate budget (default 10**8, overridable via
        NECKLACE_MAX_CANDIDATES or the argument) is exhausted.
    """
    fc = fundamental_cycle(base)
    tally = _Budget(candidate_budget(budget))
    triangles = base.simplices_of_dimension(2)
    tri_count = len(triangles)
    full_range = set(range(-(tri_count // 2), tri_count // 2 + 1))
    achieved: Set[int] = set()

    # ids run vertices, edges, triangles; fundamental_cycle has checked
    # that every edge lies in exactly two triangles
    first = len(base.simplices) - tri_count
    # per edge its first (triangle, face), and per triangle the
    # (face, earlier triangle, its face) of each edge shared with one before
    source: Dict[int, Tuple[int, int]] = {}
    shared: List[List[Tuple[int, int, int]]] = []
    for ti, faces in enumerate(base.face_ids[first:]):
        shared.append([(j, *source[e]) for j, e in enumerate(faces) if e in source])
        for j, e in enumerate(faces):
            source.setdefault(e, (ti, j))
    edge_sources = [source[e] for e in range(base.vertex_count, first)]

    scale = Fraction(-1, 2)
    chosen: List[Optional[_Candidate]] = [None] * tri_count
    signed = [Fraction(0)] * (tri_count + 1)  # signed[ti]: sum before triangle ti

    def accept(ti: int, entry: _Candidate) -> bool:
        """Record a candidate for triangle ti; descend if it matches the
        boundary necklaces of the triangles before it."""
        tally.spend()
        chosen[ti] = entry
        if not all(entry[2][j] == chosen[t][2][jt] for j, t, jt in shared[ti]):
            return False
        signed[ti + 1] = signed[ti] + fc.coefficients[ti] * entry[1]
        return True

    for mult in _multiplicity_vectors(base, max_len):
        # candidate necklace representatives per triangle, with their
        # parities and boundary necklaces
        candidates = []
        for t in triangles:
            entries = _triangle_candidates(tuple(mult[v] for v in t))
            tally.spend(len(entries))
            candidates.append(entries)

        for _ in _depth_first(tri_count, candidates.__getitem__, accept):
            predicted = scale * signed[-1]
            if predicted.denominator != 1 or int(predicted) in achieved:
                continue
            words = [Word((0,) * m, 1) for m in mult]
            words += (chosen[ti][2][j].canonical_word for ti, j in edge_sources)
            words += (entry[0] for entry in chosen)
            d = _solve_shifts(base, words, tally)
            if d is None:
                continue
            report = validate_decoration(d)
            if not report.ok:
                raise InvalidInputError(
                    "range search produced an invalid decoration: "
                    + report.summary()
                )
            realized = chern_number(d, fc, validate=False)
            if realized != int(predicted):
                raise InvalidInputError(
                    f"range search predicted {predicted} but the witness "
                    f"decoration pairs to {realized}"
                )
            achieved.add(realized)
            if achieved == full_range:
                return achieved
    return achieved
