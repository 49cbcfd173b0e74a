"""Explicit simplicial circle bundles: validation, sections, word extraction.

A bundle is a simplicial map from a total complex to a locally ordered base,
with a chosen directed cycle on the fiber over every base vertex. Over a
base k-simplex the total space decomposes into 0-sections (k-simplices
mapping bijectively) and 1-sections (k+1-simplices collapsing one fiber
arc); when these alternate around a single consistently directed cycle the
bundle is combinatorially trivial over that simplex and defines a cyclic
word. Extraction turns the whole bundle into a decoration.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ._frozen import Frozen
from .complexes import (
    LocallyOrderedComplex,
    Simplex,
    ValidationIssue,
    ValidationReport,
)
from .decorations import Decoration
from .errors import (
    InconsistentOrientationError,
    InvalidInputError,
    SectionNotFoundError,
)
from .words_necklaces import Word

__all__ = [
    "BundleMap",
    "ElementaryBundleView",
    "SectionChoice",
    "LocallyOrderedComplex",
    "validate_bundle",
    "elementary_view",
    "extract_word",
    "section_shift",
    "extract_decoration",
    "default_section_choice",
    "cycle_bundle",
    "product_bundle",
]


class BundleMap(Frozen):
    """A simplicial map total -> base with directed fiber cycles.

    ``vertex_map[t]`` is the base vertex under total vertex t;
    ``fiber_orientation[v]`` lists the fiber vertices over base vertex v in
    cyclic order, each consecutive pair a directed arc.
    """

    # no __slots__: cached_property needs an instance __dict__
    _fields = ("total", "base", "vertex_map", "fiber_orientation")
    total: LocallyOrderedComplex
    base: LocallyOrderedComplex
    vertex_map: Tuple[int, ...]
    fiber_orientation: Tuple[Tuple[int, ...], ...]

    def __init__(
        self,
        total: LocallyOrderedComplex,
        base: LocallyOrderedComplex,
        vertex_map: Tuple[int, ...],
        fiber_orientation: Tuple[Tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vertex_map", vertex_map)
        object.__setattr__(self, "fiber_orientation", fiber_orientation)
        if len(self.vertex_map) != self.total.vertex_count:
            raise InvalidInputError(
                "vertex_map length must equal the total vertex count"
            )
        for v in self.vertex_map:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInputError("vertex_map entries must be integers")
            if not 0 <= v < self.base.vertex_count:
                raise InvalidInputError(f"vertex_map value {v} out of range")
        if len(self.fiber_orientation) != self.base.vertex_count:
            raise InvalidInputError(
                "fiber_orientation needs one cycle per base vertex"
            )
        for cycle in self.fiber_orientation:
            for t in cycle:
                if not isinstance(t, int) or isinstance(t, bool):
                    raise InvalidInputError(
                        "fiber_orientation entries must be integers"
                    )
                if not 0 <= t < self.total.vertex_count:
                    raise InvalidInputError(
                        f"fiber vertex {t} out of range"
                    )

    def fiber_length(self, base_vertex: int) -> int:
        return len(self.fiber_orientation[base_vertex])

    @cached_property
    def _over(self) -> Dict[Simplex, List[Simplex]]:
        """The total simplices grouped by their image, each group in
        canonical order: a total simplex lies over the one simplex it maps
        onto."""
        image_of = self.vertex_map.__getitem__
        groups: Dict[FrozenSet[int], List[Simplex]] = defaultdict(list)
        for A in self.total.simplices:
            groups[frozenset(map(image_of, A))].append(A)
        # one sorted tuple per image, not per simplex
        return {tuple(sorted(image)): group for image, group in groups.items()}

    @cached_property
    def _arcs(self) -> Dict[Tuple[int, int, int], Tuple[int, int]]:
        """Every fiber arc as (tail, head) along its fiber cycle, keyed by
        its base vertex and its two ends in increasing order."""
        arcs: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        for v, cycle in enumerate(self.fiber_orientation):
            m = len(cycle)
            for i in range(m):
                tail, head = cycle[i], cycle[(i + 1) % m]
                arcs.setdefault((v, min(tail, head), max(tail, head)), (tail, head))
        return arcs

    @cached_property
    def _views(self) -> Dict[Simplex, _ViewOrIssues]:
        """The view over every base simplex, or the issues that bar it."""
        return {U: _view_over(self, U) for U in self.base.simplices}


class ElementaryBundleView(Frozen):
    """The section cycle of a bundle over one base simplex.

    ``zero_sections[q]`` and ``one_sections[q]`` alternate around the
    directed cycle; the arc ``one_sections[q]`` leaves ``zero_sections[q]``
    and enters ``zero_sections[q+1]``. ``letters[q]`` is the local index
    (within the base simplex) of the base vertex carrying the q-th arc's
    collapsed edge. The cycle is anchored at the least zero-section.
    """

    __slots__ = _fields = ("base_simplex", "zero_sections", "one_sections", "letters")
    base_simplex: Simplex
    zero_sections: Tuple[Simplex, ...]
    one_sections: Tuple[Simplex, ...]
    letters: Tuple[int, ...]

    def __init__(
        self,
        base_simplex: Simplex,
        zero_sections: Tuple[Simplex, ...],
        one_sections: Tuple[Simplex, ...],
        letters: Tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "base_simplex", base_simplex)
        object.__setattr__(self, "zero_sections", zero_sections)
        object.__setattr__(self, "one_sections", one_sections)
        object.__setattr__(self, "letters", letters)

    @property
    def cycle_order(self) -> Tuple[Simplex, ...]:
        out: List[Simplex] = []
        for z, a in zip(self.zero_sections, self.one_sections):
            out.append(z)
            out.append(a)
        return tuple(out)


class SectionChoice(Frozen):
    """One designated zero-section per base simplex, indexed by simplex id."""

    __slots__ = _fields = ("sections",)
    sections: Tuple[Simplex, ...]

    def __init__(self, sections: Tuple[Simplex, ...]) -> None:
        object.__setattr__(self, "sections", sections)


def _fiber_issues(b: BundleMap) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    for v, cycle in enumerate(b.fiber_orientation):
        over = b._over.get((v,), [])
        fiber = tuple(A[0] for A in over if len(A) == 1)
        m = len(cycle)
        problems: List[str] = []
        if tuple(sorted(cycle)) != fiber:
            problems.append(
                f"orientation cycle {cycle} does not list the fiber "
                f"vertices {fiber} exactly once"
            )
        elif m < 3:
            problems.append(
                f"fiber over vertex {v} has {m} vertices; a simplicial "
                "circle needs at least 3"
            )
        else:
            edges = [A for A in over if len(A) == 2]
            arcs = {tuple(sorted((cycle[i], cycle[(i + 1) % m]))) for i in range(m)}
            missing = sorted(arcs.difference(edges))
            chords = [e for e in edges if e not in arcs]
            if missing:
                problems.append(
                    f"arc {missing[0]} of the fiber over vertex {v} is not "
                    "an edge of the total complex"
                )
            if chords:
                problems.append(
                    f"edge {chords[0]} is a chord of the fiber over vertex {v}"
                )
        issues.extend(ValidationIssue("fiber-not-cycle", p, (v,)) for p in problems)
    return issues


_ViewOrIssues = Tuple[Optional[ElementaryBundleView], Tuple[ValidationIssue, ...]]


def _barred(code: str, detail: str, where: Simplex) -> _ViewOrIssues:
    return None, (ValidationIssue(code, detail, where),)


def _view_over(b: BundleMap, U: Simplex) -> _ViewOrIssues:
    issues: List[ValidationIssue] = []
    k1 = len(U)
    vertex_map = b.vertex_map
    local = {v: j for j, v in enumerate(U)}
    zero: List[Simplex] = []
    # arcs as (simplex, local letter, tail element, head element)
    arcs: List[Tuple[Simplex, int, int, int]] = []
    for A in b._over.get(U, ()):
        if len(A) == k1:
            zero.append(A)
        elif len(A) == k1 + 1:
            # the collapsed pair: the one base vertex met twice
            seen: Dict[int, int] = {}
            for y in A:
                w = vertex_map[y]
                if w in seen:
                    break
                seen[w] = y
            x = seen[w]
            oriented = b._arcs.get((w, x, y))
            if oriented is None:
                issues.append(
                    ValidationIssue(
                        "bad-one-section",
                        f"collapsed pair {(x, y)} is not an "
                        f"arc of the fiber over vertex {w}",
                        A,
                    )
                )
                continue
            arcs.append((A, local[w], oriented[0], oriented[1]))
        else:
            issues.append(
                ValidationIssue(
                    "bad-dimension",
                    f"simplex of dimension {len(A) - 1} maps onto a base "
                    f"simplex of dimension {k1 - 1}",
                    A,
                )
            )
    if issues:
        return None, tuple(issues)
    n = len(zero)
    if n != len(arcs):
        return _barred(
            "count-mismatch",
            f"{n} zero-sections but {len(arcs)} one-sections",
            U,
        )
    if not zero:
        return _barred("count-mismatch", "no sections at all", U)

    # zero-sections by number, in canonical order: number 0 is the least
    number = {Z: q for q, Z in enumerate(zero)}
    tails: List[int] = []
    heads: List[int] = []
    for A, _, tail_el, head_el in arcs:
        # the tail facet drops the head element, the head facet the tail;
        # the complex is closed under faces and both facets map bijectively
        # onto U, so both are numbered zero-sections
        h = A.index(head_el)
        t = A.index(tail_el)
        tails.append(number[A[:h] + A[h + 1 :]])
        heads.append(number[A[:t] + A[t + 1 :]])
    degree = [0] * n
    for q in tails + heads:
        degree[q] += 1
    if any(d != 2 for d in degree):
        return _barred(
            "not-single-cycle",
            "some zero-section does not meet exactly two one-sections",
            U,
        )
    # n arcs out of n zero-sections: one each unless two share a tail
    if len(set(tails)) != n:
        return _barred(
            "inconsistent-orientation",
            "arc directions clash: some zero-section is the tail of two arcs",
            U,
        )

    succ = [0] * n
    for i, tail in enumerate(tails):
        succ[tail] = i
    order: List[int] = []
    q = 0
    for _ in range(n):
        i = succ[q]
        order.append(i)
        q = heads[i]
        if q == 0:
            break
    if len(order) != n or q != 0:
        return _barred(
            "not-single-cycle", "the sections split into more than one cycle", U
        )

    # each arc is entered from its tail facet, so the walk advances every
    # fiber along its own direction; what is left to check is that it goes
    # once around every fiber
    letters = [arcs[i][1] for i in order]
    for j, v in enumerate(U):
        if letters.count(j) != b.fiber_length(v):
            return _barred(
                "bad-coverage",
                f"fiber over local vertex {j} is traversed "
                f"{letters.count(j)} times, expected once around "
                f"{b.fiber_length(v)} arcs",
                U,
            )

    view = ElementaryBundleView(
        base_simplex=U,
        zero_sections=tuple(zero[tails[i]] for i in order),
        one_sections=tuple(arcs[i][0] for i in order),
        letters=tuple(letters),
    )
    return view, ()


def validate_bundle(b: BundleMap) -> ValidationReport:
    """Check every bundle invariant; an empty report means every elementary
    view is a single consistently directed section cycle."""
    issues = [
        ValidationIssue(
            "not-onto-simplex",
            f"image {image} is not a simplex of the base",
            A,
        )
        for image, group in b._over.items()
        if not b.base.has_simplex(image)
        for A in group
    ]
    # in the canonical order of the total simplices
    issues.sort(key=lambda issue: (len(issue.simplex), issue.simplex))
    issues.extend(_fiber_issues(b))
    if issues:
        return ValidationReport(tuple(issues))
    for _, view_issues in b._views.values():
        issues.extend(view_issues)
    return ValidationReport(tuple(issues))


def elementary_view(b: BundleMap, U: Sequence[int]) -> ElementaryBundleView:
    """The section cycle over one base simplex.

    Raises
    ------
    InconsistentOrientationError
        When the sections form a cycle whose arc directions clash.
    InvalidInputError
        For any other violated invariant over this simplex.
    """
    U = tuple(U)
    if not b.base.has_simplex(U):
        raise InvalidInputError(f"{U} is not a simplex of the base")
    view, issues = b._views[U]
    if view is not None:
        return view
    if any(i.code == "inconsistent-orientation" for i in issues):
        raise InconsistentOrientationError(
            "; ".join(str(i) for i in issues)
        )
    raise InvalidInputError("; ".join(str(i) for i in issues))


def _section_position(view: ElementaryBundleView, s0: Sequence[int]) -> int:
    try:
        return view.zero_sections.index(tuple(s0))
    except ValueError:
        raise SectionNotFoundError(
            f"{tuple(s0)} is not a zero-section over {view.base_simplex}"
        )


def extract_word(b: BundleMap, U: Sequence[int], s0: Sequence[int]) -> Word:
    """The cyclic word over U read from the designated zero-section: the
    q-th letter is the local base vertex whose fiber the q-th arc collapses,
    arcs numbered from s0 by their tails."""
    view = elementary_view(b, U)
    p = _section_position(view, s0)
    m = len(view.letters)
    letters = tuple(view.letters[(p + i) % m] for i in range(m))
    return Word(letters, len(tuple(U)))


def section_shift(
    b: BundleMap, U: Sequence[int], s0: Sequence[int], s0_new: Sequence[int]
) -> int:
    """The cyclic shift aligning the word read from s0 with the word read
    from s0_new: extract_word(b, U, s0_new) equals
    cyclic_shift(extract_word(b, U, s0), section_shift(b, U, s0, s0_new))."""
    view = elementary_view(b, U)
    p = _section_position(view, s0)
    p_new = _section_position(view, s0_new)
    return (p - p_new) % len(view.zero_sections)


def default_section_choice(b: BundleMap) -> SectionChoice:
    """Designate the cycle anchor (the least zero-section) everywhere."""
    return SectionChoice(
        tuple(elementary_view(b, U).zero_sections[0] for U in b.base.simplices)
    )


def extract_decoration(
    b: BundleMap, choice: Optional[SectionChoice] = None
) -> Decoration:
    """Read off the full decoration: per-simplex words from the designated
    sections, per-face shifts aligning a simplex's word with its face's.

    The stored shift for face j of V is found by walking forward around the
    cycle over V from the designated section until the restriction (drop
    the vertex over the j-th base vertex) hits the face's designated
    section; a valid bundle always reaches it.
    """
    report = validate_bundle(b)
    if not report.ok:
        raise InvalidInputError(report.summary())
    if choice is None:
        choice = default_section_choice(b)
    if len(choice.sections) != len(b.base.simplices):
        raise InvalidInputError(
            "section choice must designate one section per base simplex"
        )
    words: Dict[int, Word] = {}
    shifts: Dict[Tuple[int, int], int] = {}
    faces = b.base.face_ids
    views = b._views
    for i, V in enumerate(b.base.simplices):
        # a valid bundle has a view over every simplex; a designated section
        # that is not a zero-section over V is rejected here, and faces
        # precede V in canonical order, so theirs are checked before V's
        # shifts need them
        view = views[V][0]
        p = _section_position(view, choice.sections[i])
        words[i] = Word(view.letters[p:] + view.letters[:p], len(V))
        walk = view.zero_sections[p:] + view.zero_sections[:p]
        m = len(walk)
        for j, f in enumerate(faces[i]):
            dropped = V[j]
            target = tuple(choice.sections[f])
            # the restrictions go once around the face's section cycle, so
            # the walk meets every zero-section of the face
            for walked, Z in enumerate(walk):
                if tuple(z for z in Z if b.vertex_map[z] != dropped) == target:
                    shifts[(i, j)] = (-walked) % m
                    break
    return Decoration.from_maps(b.base, words, shifts)


# =========================================================================
# Builders
# =========================================================================


def cycle_bundle(m: int) -> BundleMap:
    """The circle of length m over a single point."""
    if m < 3:
        raise InvalidInputError("a simplicial circle needs at least 3 vertices")
    edges = [tuple(sorted((i, (i + 1) % m))) for i in range(m)]
    total = LocallyOrderedComplex.from_maximal(m, edges)
    base = LocallyOrderedComplex.from_maximal(1, [(0,)])
    return BundleMap(
        total=total,
        base=base,
        vertex_map=(0,) * m,
        fiber_orientation=(tuple(range(m)),),
    )


def product_bundle(base: LocallyOrderedComplex, m: int) -> BundleMap:
    """The trivial bundle: base times a circle of length m, triangulated by
    staircase prisms.

    Total vertex (v, t) is encoded as v*m + t. Over a maximal base simplex
    (v_0 < ... < v_k) the prisms are, for each fiber level t and each pivot
    r: the top copies of v_0..v_r at level t+1 together with the bottom
    copies of v_r..v_k at level t.
    """
    if m < 3:
        raise InvalidInputError("a simplicial circle needs at least 3 vertices")
    prisms = (
        tuple(
            sorted(
                [U[a] * m + (t + 1) % m for a in range(r + 1)]
                + [U[a] * m + t for a in range(r, len(U))]
            )
        )
        for U in base.maximal_simplices()
        for t in range(m)
        for r in range(len(U))
    )
    total = LocallyOrderedComplex.from_maximal(base.vertex_count * m, prisms)
    fiber_orientation = tuple(
        tuple(v * m + t for t in range(m)) for v in range(base.vertex_count)
    )
    vertex_map = tuple(v for v in range(base.vertex_count) for _ in range(m))
    return BundleMap(
        total=total,
        base=base,
        vertex_map=vertex_map,
        fiber_orientation=fiber_orientation,
    )
