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

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class BundleMap:
    """A simplicial map total -> base with directed fiber cycles.

    ``vertex_map[t]`` is the base vertex under total vertex t;
    ``fiber_orientation[v]`` lists the fiber vertices over base vertex v in
    cyclic order, each consecutive pair a directed arc.
    """

    total: LocallyOrderedComplex
    base: LocallyOrderedComplex
    vertex_map: Tuple[int, ...]
    fiber_orientation: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
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
        groups: Dict[Simplex, List[Simplex]] = {}
        for A in self.total.simplices:
            image = tuple(sorted({self.vertex_map[a] for a in A}))
            groups.setdefault(image, []).append(A)
        return groups

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


@dataclass(frozen=True)
class ElementaryBundleView:
    """The section cycle of a bundle over one base simplex.

    ``zero_sections[q]`` and ``one_sections[q]`` alternate around the
    directed cycle; the arc ``one_sections[q]`` leaves ``zero_sections[q]``
    and enters ``zero_sections[q+1]``. ``letters[q]`` is the local index
    (within the base simplex) of the base vertex carrying the q-th arc's
    collapsed edge. The cycle is anchored at the least zero-section.
    """

    base_simplex: Simplex
    zero_sections: Tuple[Simplex, ...]
    one_sections: Tuple[Simplex, ...]
    letters: Tuple[int, ...]

    @property
    def cycle_order(self) -> Tuple[Simplex, ...]:
        out: List[Simplex] = []
        for z, a in zip(self.zero_sections, self.one_sections):
            out.append(z)
            out.append(a)
        return tuple(out)


@dataclass(frozen=True)
class SectionChoice:
    """One designated zero-section per base simplex, indexed by simplex id."""

    sections: Tuple[Simplex, ...]


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
    local = {v: j for j, v in enumerate(U)}
    zero: List[Simplex] = []
    # arcs as (simplex, local letter, tail element, head element)
    arcs: List[Tuple[Simplex, int, int, int]] = []
    for A in b._over.get(U, ()):
        if len(A) == k1:
            zero.append(A)
        elif len(A) == k1 + 1:
            per_vertex: Dict[int, List[int]] = {v: [] for v in U}
            for a in A:
                per_vertex[b.vertex_map[a]].append(a)
            doubled = [v for v in U if len(per_vertex[v]) == 2]
            w = doubled[0]
            oriented = b._arcs.get((w, min(per_vertex[w]), max(per_vertex[w])))
            if oriented is None:
                issues.append(
                    ValidationIssue(
                        "bad-one-section",
                        f"collapsed pair {tuple(per_vertex[w])} is not an "
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
    if len(zero) != len(arcs):
        return _barred(
            "count-mismatch",
            f"{len(zero)} zero-sections but {len(arcs)} one-sections",
            U,
        )
    if not zero:
        return _barred("count-mismatch", "no sections at all", U)

    zero_set = set(zero)
    arc_info: Dict[Simplex, Tuple[int, int, int]] = {}
    facets: Dict[Simplex, Tuple[Simplex, Simplex]] = {}
    for A, letter, tail_el, head_el in arcs:
        tail_facet = tuple(a for a in A if a != head_el)
        head_facet = tuple(a for a in A if a != tail_el)
        if tail_facet not in zero_set or head_facet not in zero_set:
            issues.append(
                ValidationIssue(
                    "missing-facet",
                    "a facet of this one-section is not a zero-section",
                    A,
                )
            )
            continue
        arc_info[A] = (letter, tail_el, head_el)
        facets[A] = (tail_facet, head_facet)
    if issues:
        return None, tuple(issues)
    degree = {z: 0 for z in zero}
    out_deg = {z: 0 for z in zero}
    for A, (tail_facet, head_facet) in facets.items():
        degree[tail_facet] += 1
        degree[head_facet] += 1
        out_deg[tail_facet] += 1
    if any(d != 2 for d in degree.values()):
        return _barred(
            "not-single-cycle",
            "some zero-section does not meet exactly two one-sections",
            U,
        )
    if any(d != 1 for d in out_deg.values()):
        return _barred(
            "inconsistent-orientation",
            "arc directions clash: some zero-section is the tail of two arcs",
            U,
        )
    succ = {facets[A][0]: (A, facets[A][1]) for A in facets}

    anchor = min(zero)
    order_zero: List[Simplex] = [anchor]
    order_one: List[Simplex] = []
    letters: List[int] = []
    current = anchor
    for _ in range(len(arcs)):
        A, nxt = succ[current]
        order_one.append(A)
        letters.append(arc_info[A][0])
        current = nxt
        if current == anchor:
            break
        order_zero.append(current)
    if len(order_one) != len(arcs) or current != anchor:
        return _barred(
            "not-single-cycle", "the sections split into more than one cycle", U
        )

    # weakly monotone coverage: walking once around the section cycle must
    # walk once around every fiber, advancing at exactly the collapsing arcs
    restriction = {}
    for j, v in enumerate(U):
        for a in anchor:
            if b.vertex_map[a] == v:
                restriction[j] = a
    for A in order_one:
        letter, tail_el, head_el = arc_info[A]
        if restriction[letter] != tail_el:
            return _barred(
                "bad-coverage",
                "the section cycle does not traverse the fiber "
                f"over local vertex {letter} monotonically",
                U,
            )
        restriction[letter] = head_el
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
        zero_sections=tuple(order_zero),
        one_sections=tuple(order_one),
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
    for i, V in enumerate(b.base.simplices):
        # extract_word rejects a designated section that is not a zero-section
        # over V; faces precede V in canonical order, so theirs are checked
        # before V's shifts need them
        words[i] = extract_word(b, V, choice.sections[i])
        if len(V) == 1:
            continue
        view = elementary_view(b, V)
        p = _section_position(view, choice.sections[i])
        m = len(view.zero_sections)
        for j in range(len(V)):
            dropped = V[j]
            target = choice.sections[b.base.simplex_id(V[:j] + V[j + 1:])]
            for walked in range(m):
                Z = view.zero_sections[(p + walked) % m]
                restricted = tuple(
                    z for z in Z if b.vertex_map[z] != dropped
                )
                if restricted == target:
                    shifts[(i, j)] = (-walked) % m
                    break
            else:
                raise SectionNotFoundError(
                    f"no restriction of the sections over {V} matches the "
                    f"designated section of face {j}"
                )
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
