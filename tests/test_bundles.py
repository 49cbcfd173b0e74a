"""Tests for bundle validation, elementary views, and word extraction."""

import gc
import itertools
import re
import weakref

import pytest

from corrupted_bundles import RECORD, corpus_lines
from necklace_chern.bundles import (
    BundleMap,
    SectionChoice,
    cycle_bundle,
    default_section_choice,
    elementary_view,
    extract_decoration,
    extract_word,
    product_bundle,
    section_shift,
    validate_bundle,
)
from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.decorations import validate_decoration
from necklace_chern.errors import (
    InconsistentOrientationError,
    InvalidInputError,
    SectionNotFoundError,
)
from necklace_chern.words_necklaces import (
    boundary_word,
    canonical_necklace,
    cyclic_shift,
    delete_index_face,
    necklace_parity,
)


def edge_base():
    return LocallyOrderedComplex.from_maximal(2, [(0, 1)])


def triangle_base():
    return LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])


def tetra_boundary():
    return LocallyOrderedComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


class TestBundleConstruction:
    def test_vertex_map_length_checked(self):
        b = cycle_bundle(3)
        with pytest.raises(InvalidInputError):
            BundleMap(b.total, b.base, (0, 0), b.fiber_orientation)

    def test_vertex_map_range_checked(self):
        b = cycle_bundle(3)
        with pytest.raises(InvalidInputError):
            BundleMap(b.total, b.base, (0, 0, 7), b.fiber_orientation)

    def test_orientation_count_checked(self):
        b = cycle_bundle(3)
        with pytest.raises(InvalidInputError):
            BundleMap(b.total, b.base, b.vertex_map, ())

    def test_short_cycle_rejected(self):
        with pytest.raises(InvalidInputError):
            cycle_bundle(2)


class TestCycleBundle:
    def test_triangle_over_point(self):
        b = cycle_bundle(3)
        assert validate_bundle(b).ok
        view = elementary_view(b, (0,))
        assert len(view.zero_sections) == 3
        assert len(view.one_sections) == 3
        assert extract_word(b, (0,), (0,)).letters == (0, 0, 0)

    def test_longer_cycles(self):
        for m in (4, 5, 7):
            b = cycle_bundle(m)
            assert validate_bundle(b).ok
            w = extract_word(b, (0,), (0,))
            assert w.letters == (0,) * m

    def test_view_alternates(self):
        b = cycle_bundle(4)
        view = elementary_view(b, (0,))
        order = view.cycle_order
        assert len(order) == 8
        for pos, s in enumerate(order):
            assert len(s) == 1 + pos % 2


class TestPrismOverEdge:
    def test_valid_with_six_sections(self):
        b = product_bundle(edge_base(), 3)
        assert validate_bundle(b).ok
        view = elementary_view(b, (0, 1))
        assert len(view.zero_sections) == 6
        assert len(view.one_sections) == 6

    def test_word_from_bottom_section(self):
        b = product_bundle(edge_base(), 3)
        # vertex (v, t) is v*3 + t, so the section over level 0 is (0, 3)
        assert extract_word(b, (0, 1), (0, 3)).letters == (0, 1, 0, 1, 0, 1)

    def test_word_from_next_section(self):
        b = product_bundle(edge_base(), 3)
        view = elementary_view(b, (0, 1))
        assert view.zero_sections[0] == (0, 3)
        succ = view.zero_sections[1]
        assert extract_word(b, (0, 1), succ).letters == (1, 0, 1, 0, 1, 0)

    def test_section_shift_identity(self):
        b = product_bundle(edge_base(), 3)
        view = elementary_view(b, (0, 1))
        for s in view.zero_sections:
            assert section_shift(b, (0, 1), s, s) == 0

    def test_section_shift_postcondition(self):
        b = product_bundle(edge_base(), 3)
        view = elementary_view(b, (0, 1))
        for s, s_new in itertools.product(view.zero_sections, repeat=2):
            shift = section_shift(b, (0, 1), s, s_new)
            assert extract_word(b, (0, 1), s_new) == cyclic_shift(
                extract_word(b, (0, 1), s), shift
            )

    def test_section_shift_additive(self):
        b = product_bundle(edge_base(), 3)
        view = elementary_view(b, (0, 1))
        m = len(view.zero_sections)
        for s1, s2, s3 in itertools.product(view.zero_sections, repeat=3):
            direct = section_shift(b, (0, 1), s1, s3)
            via = (
                section_shift(b, (0, 1), s1, s2)
                + section_shift(b, (0, 1), s2, s3)
            ) % m
            assert direct == via

    def test_section_not_found(self):
        b = product_bundle(edge_base(), 3)
        with pytest.raises(SectionNotFoundError):
            extract_word(b, (0, 1), (0, 4, 5))
        with pytest.raises(SectionNotFoundError):
            section_shift(b, (0, 1), (0, 3), (0, 99))


class TestProductBundles:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_prism_extraction_round_trip(self, m):
        b = product_bundle(edge_base(), m)
        assert validate_bundle(b).ok
        d = extract_decoration(b)
        assert validate_decoration(d).ok
        edge_word = d.word_for((0, 1))
        assert edge_word.letters == (0, 1) * m

    def test_triangle_base_word(self):
        b = product_bundle(triangle_base(), 3)
        assert validate_bundle(b).ok
        view = elementary_view(b, (0, 1, 2))
        assert len(view.zero_sections) == 9
        w = extract_word(b, (0, 1, 2), view.zero_sections[0])
        assert w.letters == (0, 1, 2) * 3

    def test_tetra_boundary_round_trip(self):
        b = product_bundle(tetra_boundary(), 3)
        assert validate_bundle(b).ok
        d = extract_decoration(b)
        assert validate_decoration(d).ok
        for s in b.base.simplices:
            if len(s) == 3:
                assert d.word_for(s).letters == (0, 1, 2) * 3


class TestInvalidBundles:
    def test_missing_face_closure_rejected_at_complex_level(self):
        # an undivided square cell cannot even be encoded: the complex
        # constructor demands face closure
        with pytest.raises(InvalidInputError):
            LocallyOrderedComplex(4, ((0, 1, 2, 3),))

    def test_corrupt_vertex_map(self):
        b = product_bundle(edge_base(), 3)
        bad_map = list(b.vertex_map)
        bad_map[0] = 1
        bad = BundleMap(b.total, b.base, tuple(bad_map), b.fiber_orientation)
        report = validate_bundle(bad)
        assert not report.ok

    def test_reversed_fiber_gives_inconsistent_orientation(self):
        b = product_bundle(edge_base(), 3)
        flipped = (b.fiber_orientation[0], tuple(reversed(b.fiber_orientation[1])))
        bad = BundleMap(b.total, b.base, b.vertex_map, flipped)
        report = validate_bundle(bad)
        assert any(i.code == "inconsistent-orientation" for i in report.issues)
        with pytest.raises(InconsistentOrientationError):
            elementary_view(bad, (0, 1))

    def test_fiber_chord_detected(self):
        total = LocallyOrderedComplex.from_maximal(
            4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        )
        base = LocallyOrderedComplex.from_maximal(1, [(0,)])
        bad = BundleMap(total, base, (0, 0, 0, 0), ((0, 1, 2, 3),))
        report = validate_bundle(bad)
        assert any(i.code == "fiber-not-cycle" for i in report.issues)

    def test_chord_is_not_an_arc_of_the_view(self):
        # the view over the point still sees the chord as a one-section
        total = LocallyOrderedComplex.from_maximal(
            4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        )
        base = LocallyOrderedComplex.from_maximal(1, [(0,)])
        bad = BundleMap(total, base, (0, 0, 0, 0), ((0, 1, 2, 3),))
        with pytest.raises(
            InvalidInputError,
            match=r"\[bad-one-section\] at \(0, 2\): collapsed pair \(0, 2\) "
            "is not an arc of the fiber over vertex 0",
        ):
            elementary_view(bad, (0,))

    def test_fiber_too_short(self):
        total = LocallyOrderedComplex.from_maximal(2, [(0, 1)])
        base = LocallyOrderedComplex.from_maximal(1, [(0,)])
        bad = BundleMap(total, base, (0, 0), ((0, 1),))
        report = validate_bundle(bad)
        assert any(i.code == "fiber-not-cycle" for i in report.issues)

    def test_orientation_not_a_permutation(self):
        b = cycle_bundle(3)
        bad = BundleMap(b.total, b.base, b.vertex_map, ((0, 1, 1),))
        report = validate_bundle(bad)
        assert any(i.code == "fiber-not-cycle" for i in report.issues)

    def test_not_onto_issues_in_total_order(self):
        # fibers over a path 0-1-2-3 plus three edges whose images (0, 2),
        # (0, 3) and (0, 2) again are not base simplices
        fibers = [(3 * v, 3 * v + 1, 3 * v + 2) for v in range(4)]
        arcs = [
            tuple(sorted((f[i], f[(i + 1) % 3]))) for f in fibers for i in range(3)
        ]
        total = LocallyOrderedComplex.from_maximal(
            12, arcs + [(0, 6), (0, 9), (1, 6)]
        )
        base = LocallyOrderedComplex.from_maximal(4, [(0, 1), (1, 2), (2, 3)])
        vertex_map = tuple(t // 3 for t in range(12))
        bad = BundleMap(total, base, vertex_map, tuple(fibers))
        report = validate_bundle(bad)
        assert [(i.code, i.simplex) for i in report.issues] == [
            ("not-onto-simplex", (0, 6)),
            ("not-onto-simplex", (0, 9)),
            ("not-onto-simplex", (1, 6)),
        ]


def over_edge(simplices, total=None):
    """A bundle over the edge (0, 1) with fibers (0, 1, 2) over 0 and
    (3, 4, 5) over 1: every fiber arc plus the given simplices, or the
    given total."""
    arcs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    total = total or LocallyOrderedComplex.from_maximal(6, arcs + list(simplices))
    return BundleMap(total, edge_base(), (0, 0, 0, 1, 1, 1), ((0, 1, 2), (3, 4, 5)))


def strip(steps):
    """The triangles over the edge (0, 1) of a section cycle starting at the
    zero-section (0, 3): letter 0 steps the fiber (0, 1, 2), letter 1 the
    fiber (3, 4, 5)."""
    z, triangles = [0, 3], []
    for letter in steps:
        before = tuple(z)
        z[letter] = 3 * letter + (z[letter] + 1) % 3
        triangles.append(tuple(sorted(set(before) | set(z))))
    return triangles


class TestIssueCodes:
    """One hand-built bundle per issue code and detail of the section
    cycles that no other test reaches: the report names it at the
    offending simplex, and elementary_view raises it."""

    def check(self, b, U, code, detail, where):
        report = validate_bundle(b)
        assert [(i.code, i.detail, i.simplex) for i in report.issues] == [
            (code, detail, where)
        ]
        with pytest.raises(InvalidInputError, match=re.escape(str(report.issues[0]))):
            elementary_view(b, U)

    def test_bad_dimension(self):
        # a whole triangle over a point whose fiber is its boundary
        total = LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])
        base = LocallyOrderedComplex.from_maximal(1, [(0,)])
        b = BundleMap(total, base, (0, 0, 0), ((0, 1, 2),))
        self.check(
            b,
            (0,),
            "bad-dimension",
            "simplex of dimension 2 maps onto a base simplex of dimension 0",
            (0, 1, 2),
        )

    def test_count_mismatch(self):
        # the product strip over the edge, one triangle dropped
        prisms = product_bundle(edge_base(), 3).total.simplices_of_dimension(2)
        b = over_edge(prisms[1:])
        self.check(
            b, (0, 1), "count-mismatch", "6 zero-sections but 5 one-sections", (0, 1)
        )

    def test_no_sections_at_all(self):
        self.check(over_edge([]), (0, 1), "count-mismatch", "no sections at all", (0, 1))

    def test_not_single_cycle_degree(self):
        # three one-sections meet the zero-section (0, 3), one meets (0, 4)
        b = over_edge(strip([0, 0, 0]) + [(0, 3, 4)])
        self.check(
            b,
            (0, 1),
            "not-single-cycle",
            "some zero-section does not meet exactly two one-sections",
            (0, 1),
        )

    def test_not_single_cycle_split(self):
        # once around the fiber over 0, at 3 and again at 4
        b = over_edge(strip([0, 0, 0]) + [(0, 1, 4), (1, 2, 4), (0, 2, 4)])
        self.check(
            b,
            (0, 1),
            "not-single-cycle",
            "the sections split into more than one cycle",
            (0, 1),
        )

    @pytest.mark.parametrize(
        "steps, detail",
        [
            ([0, 0, 0], "fiber over local vertex 1 is traversed 0 times, "
             "expected once around 3 arcs"),
            ([0, 0, 1] * 3, "fiber over local vertex 0 is traversed 6 times, "
             "expected once around 3 arcs"),
        ],
    )
    def test_bad_coverage(self, steps, detail):
        # a single directed section cycle that winds around the fibers
        # (3, 0) or (6, 3) times
        self.check(over_edge(strip(steps)), (0, 1), "bad-coverage", detail, (0, 1))


def test_corrupted_bundle_corpus():
    # reports and extractions of seeded corruptions, line for line as the
    # golden record has them
    expected = RECORD.read_text(encoding="utf-8").splitlines()
    assert list(corpus_lines()) == expected


class TestNoWholeBundleCache:
    def test_bundle_is_collected_after_use(self):
        # a fiber length no other test uses: a cache keyed on whole bundles
        # would keep an equal bundle built earlier instead of this one
        b = product_bundle(tetra_boundary(), 7)
        assert validate_bundle(b).ok
        d = extract_decoration(b)
        ref = weakref.ref(b)
        del b
        gc.collect()
        assert ref() is None
        assert validate_decoration(d).ok


class TestExtractionInvariants:
    def test_boundary_commutation(self):
        # restricting a section then extracting equals extracting then
        # taking the boundary word, with no extra shift
        for build in (
            lambda: product_bundle(edge_base(), 3),
            lambda: product_bundle(triangle_base(), 3),
            lambda: product_bundle(tetra_boundary(), 3),
        ):
            b = build()
            for V in b.base.simplices:
                if len(V) == 1:
                    continue
                view = elementary_view(b, V)
                for j in range(len(V)):
                    U = V[:j] + V[j + 1:]
                    delta = delete_index_face(j, len(V))
                    for S in view.zero_sections:
                        restricted = tuple(
                            z for z in S if b.vertex_map[z] != V[j]
                        )
                        left, _ = boundary_word(extract_word(b, V, S), delta)
                        right = extract_word(b, U, restricted)
                        assert left == right

    def test_parity_section_independent_on_triangles(self):
        b = product_bundle(tetra_boundary(), 4)
        for V in b.base.simplices:
            if len(V) != 3:
                continue
            view = elementary_view(b, V)
            values = {
                necklace_parity(canonical_necklace(extract_word(b, V, s)))
                for s in view.zero_sections
            }
            assert len(values) == 1

    def test_default_choice_is_anchor(self):
        b = product_bundle(edge_base(), 3)
        choice = default_section_choice(b)
        for i, U in enumerate(b.base.simplices):
            view = elementary_view(b, U)
            assert choice.sections[i] == view.zero_sections[0]
            assert choice.sections[i] == min(view.zero_sections)

    def test_any_section_choice_round_trips(self):
        b = product_bundle(edge_base(), 3)
        views = [elementary_view(b, U) for U in b.base.simplices]
        pools = [v.zero_sections for v in views]
        for combo in itertools.islice(itertools.product(*pools), 0, None, 7):
            d = extract_decoration(b, SectionChoice(tuple(combo)))
            assert validate_decoration(d).ok

    def test_sections_given_as_lists(self):
        # a section is matched by its vertices, whatever the sequence type
        b = product_bundle(tetra_boundary(), 4)
        choice = default_section_choice(b)
        as_lists = SectionChoice(tuple(list(s) for s in choice.sections))
        assert extract_decoration(b, as_lists) == extract_decoration(b, choice)

    def test_cycle_bundle_matches_product_over_point(self):
        point = LocallyOrderedComplex.from_maximal(1, [(0,)])
        a = cycle_bundle(4)
        c = product_bundle(point, 4)
        assert a.total.simplices == c.total.simplices
        assert extract_word(a, (0,), (0,)) == extract_word(c, (0,), (0,))
