"""Tests for locally ordered complexes: every check of the constructor with
its exact message and precedence, the face closure built by `from_maximal`
against a plain set closure, and the complex loader under fuzzing."""

import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace_chern.bundles import cycle_bundle, extract_decoration, product_bundle
from necklace_chern.chern import chern_number
from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.decorations import elementary_decoration
from necklace_chern.errors import InvalidInputError
from necklace_chern.serialize import (
    bundle_to_data,
    complex_from_data,
    complex_to_data,
    save_json,
    trivial_bundle,
)
from necklace_chern.words_necklaces import Word

from conftest import grid_torus, json_scalars, json_values


def closure_oracle(generators):
    """Every nonempty face of every generator, sorted by (len(s), s)."""
    faces = set()
    for g in generators:
        g = tuple(sorted(g))
        for k in range(1, len(g) + 1):
            faces.update(combinations(g, k))
    return tuple(sorted(faces, key=lambda s: (len(s), s)))


# =========================================================================
# Constructor checks; every message below was produced by the implementation
# before the linear rewrite, except where a case is marked "new"
# =========================================================================

NOT_CANONICAL = "simplices are not in canonical (dimension, tuple) order"

ONE_PER_BRANCH = [
    ("count-zero", 0, ((0,),), "complex needs at least one vertex"),
    ("count-negative", -2, ((0,),), "complex needs at least one vertex"),
    ("count-false", False, ((0,),), "complex needs at least one vertex"),
    # new: True was accepted as a count of 1
    ("count-true", True, ((0,),), "vertex count True is not an integer"),
    # new: these three raised TypeError
    ("count-str", "3", ((0,), (1,), (2,)), "vertex count '3' is not an integer"),
    ("count-float", 3.0, ((0,), (1,), (2,)), "vertex count 3.0 is not an integer"),
    ("count-none", None, ((0,),), "vertex count None is not an integer"),
    ("no-simplices", 1, (), "complex needs at least one simplex"),
    # new: these two raised TypeError
    ("simplex-not-iterable", 2, ((0,), (1,), 5), "simplices must be vertex sequences"),
    ("simplices-not-iterable", 2, 5, "simplices must be vertex sequences"),
    ("empty-simplex", 2, ((0,), ()), "empty simplex"),
    ("float-vertex", 2, ((0,), (1.0,)), "non-integer vertex in (1.0,)"),
    ("bool-vertex", 2, ((0,), (True,)), "non-integer vertex in (True,)"),
    ("str-vertex", 2, ((0,), ("1",)), "non-integer vertex in ('1',)"),
    (
        "decreasing",
        2,
        ((0,), (1,), (1, 0)),
        "simplex (1, 0) is not strictly increasing",
    ),
    ("repeated", 2, ((0,), (1,), (0, 0)), "simplex (0, 0) is not strictly increasing"),
    ("negative", 2, ((0,), (-1,)), "simplex (-1,) has out-of-range vertices"),
    ("too-large", 2, ((0,), (1,), (0, 2)), "simplex (0, 2) has out-of-range vertices"),
    ("duplicate", 2, ((0,), (1,), (1,)), "duplicate simplex (1,)"),
    ("duplicate-later", 2, ((0,), (1,), (0, 1), (0,)), "duplicate simplex (0,)"),
    ("order-in-dimension", 2, ((1,), (0,)), NOT_CANONICAL),
    ("order-across-dimensions", 3, ((0, 1), (0,), (1,), (2,)), NOT_CANONICAL),
    ("unused-vertex", 3, ((0,), (1,)), "vertices [2] appear in no simplex"),
    ("unused-vertices", 5, ((0,), (3,)), "vertices [1, 2, 4] appear in no simplex"),
    (
        "lacks-first-face",
        4,
        ((0, 1, 2, 3),),
        "complex is not closed under faces: (0, 1, 2, 3) lacks face 0",
    ),
    (
        "lacks-middle-face",
        3,
        ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)),
        "complex is not closed under faces: (0, 1, 2) lacks face 1",
    ),
    # new: at most ten unused vertices are named
    (
        "ten-unused",
        12,
        ((0,), (1,), (0, 1)),
        "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] appear in no simplex",
    ),
    (
        "eleven-unused",
        13,
        ((0,), (1,), (0, 1)),
        "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 1 more appear in no simplex",
    ),
    (
        "huge-count",
        10**12,
        ((0,), (1,), (0, 1)),
        "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 999999999988 more "
        "appear in no simplex",
    ),
]

# each input breaks two rules; the message names the one that comes first
TWO_RULES = [
    ("duplicate-before-decreasing", 3, ((0,), (0,), (2, 1)), "duplicate simplex (0,)"),
    (
        "decreasing-before-duplicate",
        3,
        ((0,), (2, 1), (0,)),
        "simplex (2, 1) is not strictly increasing",
    ),
    (
        "non-integer-first",
        3,
        ((0,), (1, "a"), (1, 1)),
        "non-integer vertex in (1, 'a')",
    ),
    (
        "decreasing-before-non-integer",
        3,
        ((1, 1), ("a",)),
        "simplex (1, 1) is not strictly increasing",
    ),
    (
        "range-before-decreasing",
        3,
        ((0,), (5,), (1, 1)),
        "simplex (5,) has out-of-range vertices",
    ),
    (
        "decreasing-before-range",
        3,
        ((0,), (1, 1), (5,)),
        "simplex (1, 1) is not strictly increasing",
    ),
    ("empty-before-range", 3, ((), (7,)), "empty simplex"),
    (
        "duplicate-before-order",
        3,
        ((0, 1), (0,), (1,), (2,), (0, 1)),
        "duplicate simplex (0, 1)",
    ),
    ("order-before-unused", 3, ((1,), (0,)), NOT_CANONICAL),
    (
        "unused-before-closure",
        4,
        ((0,), (1,), (0, 1, 2)),
        "vertices [3] appear in no simplex",
    ),
    # as many edges as vertices, and no 0-simplex at all
    (
        "unused-before-closure-without-vertices",
        5,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
        "vertices [4] appear in no simplex",
    ),
    (
        "lower-dimension-closure-first",
        3,
        ((0,), (1,), (0, 2), (0, 1, 2)),
        "complex is not closed under faces: (0, 2) lacks face 0",
    ),
    (
        "first-missing-face",
        3,
        ((0,), (1,), (2,), (0, 2), (0, 1, 2)),
        "complex is not closed under faces: (0, 1, 2) lacks face 0",
    ),
    (
        "earlier-simplex-before-lower-face",
        4,
        ((0,), (1,), (2,), (3,), (0, 2), (1, 2), (1, 3), (0, 1, 2), (1, 2, 3)),
        "complex is not closed under faces: (0, 1, 2) lacks face 2",
    ),
    ("count-before-simplices", 0, ((0, 0),), "complex needs at least one vertex"),
    # new: the count was accepted, so the simplex was named
    (
        "true-count-before-simplices",
        True,
        ((1, 0),),
        "vertex count True is not an integer",
    ),
    # new: the entry 5 raised TypeError before (1, 0) was reached
    (
        "not-iterable-before-decreasing",
        2,
        ((0,), (1,), 5, (1, 0)),
        "simplices must be vertex sequences",
    ),
]


@pytest.mark.parametrize(
    "count, simplices, message",
    [case[1:] for case in ONE_PER_BRANCH + TWO_RULES],
    ids=[case[0] for case in ONE_PER_BRANCH + TWO_RULES],
)
def test_rejection_message(count, simplices, message):
    with pytest.raises(InvalidInputError) as err:
        LocallyOrderedComplex(count, simplices)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda top: LocallyOrderedComplex(len(top), [top]),
        lambda top: LocallyOrderedComplex(len(top), [(v,) for v in top] + [top]),
        lambda top: complex_from_data(
            {"v": 1, "vertices": len(top), "simplices": [[0], list(top)]}
        ),
    ],
    ids=["alone", "with-vertices", "loaded"],
)
def test_a_long_simplex_without_faces_is_rejected_at_face_0(build):
    # its first facet is missing: the check must stop there, in time linear
    # in the input, not first build a picker for each of its 20,000 facets
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="lacks face 0$"):
        build(tuple(range(20000)))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "generators, message",
    [
        ([(0, 1, 2), (1, 0)], "simplex (1, 0) is not strictly increasing"),
        ([(0, 0)], "simplex (0, 0) is not strictly increasing"),
        ([], "complex needs at least one simplex"),
        ([()], "complex needs at least one simplex"),
        ([(0, 1, 2), (1, 2, 3, 4)], "simplex (4,) has out-of-range vertices"),
        ([(0, 1), (0, 1, 2), (2,)], "vertices [3] appear in no simplex"),
    ],
)
def test_from_maximal_rejects_like_the_constructor(generators, message):
    with pytest.raises(InvalidInputError) as err:
        LocallyOrderedComplex.from_maximal(4, generators)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "generators",
    [
        [(0, "a")],  # vertices that do not compare
        [5],  # a generator that is not a sequence
        [(0, [1])],  # an unhashable vertex
        5,  # no list of generators at all
    ],
)
def test_from_maximal_rejects_generators_it_cannot_close(generators):
    with pytest.raises(InvalidInputError) as err:
        LocallyOrderedComplex.from_maximal(3, generators)
    assert str(err.value) == "generating simplices must be sequences of integer vertices"


def test_accepts_int_subclasses_and_any_sequences():
    class Label(int):
        pass

    c = LocallyOrderedComplex(2, [[Label(0)], (Label(1),), range(2)])
    assert c.simplices == ((0,), (1,), (0, 1))
    assert c.simplices_of_dimension(1) == ((0, 1),)


# =========================================================================
# from_maximal against a plain set closure
# =========================================================================


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("fiber", [3, 4, 5])
def test_product_bundle_total_is_the_set_closure(n, fiber):
    base = grid_torus(n)
    assert base.simplices == closure_oracle(base.simplices_of_dimension(2))
    total = product_bundle(base, fiber).total
    tets = total.simplices_of_dimension(3)
    # three staircase prisms per triangle and fiber level, none lost
    assert len(tets) == 3 * fiber * 2 * n * n
    assert total.simplices == closure_oracle(tets)


@pytest.mark.parametrize("m", range(3, 11))
def test_cycle_bundle_is_the_set_closure(m):
    b = cycle_bundle(m)
    edges = [(i, (i + 1) % m) for i in range(m)]
    assert b.total.simplices == closure_oracle(edges)
    assert b.base.simplices == ((0,),)


@pytest.mark.parametrize("k", range(1, 8))
def test_elementary_base_is_the_full_simplex(k):
    base = elementary_decoration(Word(tuple(range(k)) * 2, k)).base
    assert base.simplices == closure_oracle([range(k)])
    assert len(base.simplices) == 2**k - 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=12,
    )
)
def test_from_maximal_matches_set_closure(generators):
    # mixed dimensions, repeats, faces of other generators, unsorted order
    used = {v for g in generators for v in g}
    n = max(used) + 1
    generators = [sorted(g) for g in generators]
    generators += [[v] for v in range(n) if v not in used]
    c = LocallyOrderedComplex.from_maximal(n, iter(generators))
    expected = closure_oracle(generators)
    assert c.simplices == expected
    for d in range(c.dimension + 1):
        assert c.simplices_of_dimension(d) == tuple(
            s for s in expected if len(s) == d + 1
        )
    assert LocallyOrderedComplex(n, [list(s) for s in expected]) == c
    index = {s: i for i, s in enumerate(expected)}
    facets = [[s[:j] + s[j + 1 :] for j in range(len(s))] for s in expected]
    assert c.face_ids == tuple(
        tuple(map(index.__getitem__, f)) if len(f) > 1 else () for f in facets
    )
    every_facet = {f for fs in facets if len(fs) > 1 for f in fs}
    assert c.maximal_simplices() == tuple(s for s in expected if s not in every_facet)


def test_bundle_passes_leave_the_total_without_a_face_table():
    # the face table is built on first use, and only base passes use it
    b = product_bundle(grid_torus(3), 3)
    chern_number(extract_decoration(b))
    assert "face_ids" in vars(b.base)
    assert "face_ids" not in vars(b.total)


# =========================================================================
# The loader under fuzzing: load, or raise InvalidInputError, nothing else
# =========================================================================

vertex_like = (
    st.integers(-2, 8) | st.integers() | st.booleans() | st.floats(-2, 8) | st.none()
)


@st.composite
def near_valid_complexes(draw):
    """The data of a small valid complex, then broken in a few places:
    simplices dropped (missing faces), repeated, swapped, reversed, or given
    a bool, float, negative or huge vertex; sometimes a wrong count."""
    generators = draw(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=5,
        )
    )
    simplices = [list(s) for s in closure_oracle(generators)]
    count = max(v for g in generators for v in g) + 1
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(simplices) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "reverse", "vertex"]))
        if edit == "drop" and len(simplices) > 1:
            simplices.pop(i)
        elif edit == "repeat":
            simplices.insert(draw(st.integers(0, len(simplices))), list(simplices[i]))
        elif edit == "swap":
            j = draw(st.integers(0, len(simplices) - 1))
            simplices[i], simplices[j] = simplices[j], simplices[i]
        elif edit == "reverse":
            simplices[i] = simplices[i][::-1]
        elif edit == "vertex":
            position = draw(st.integers(0, len(simplices[i]) - 1))
            simplices[i][position] = draw(vertex_like)
    if draw(st.booleans()):
        count = draw(st.integers(-1, 8) | st.integers() | json_scalars)
    return {"v": 1, "vertices": count, "simplices": simplices}


@st.composite
def complex_shaped(draw):
    """An object with the complex keys and arbitrary values under them."""
    data = {
        "vertices": draw(st.integers(-2, 8) | json_values),
        "simplices": draw(
            st.lists(st.lists(vertex_like, max_size=4) | json_values, max_size=6)
        ),
    }
    if draw(st.booleans()):
        data["v"] = draw(st.just(1) | json_scalars)
    return data


@settings(max_examples=400, deadline=None)
@given(json_values | complex_shaped() | near_valid_complexes())
def test_complex_loader_loads_or_raises_input_error(data):
    try:
        c = complex_from_data(data)
    except InvalidInputError:
        return
    assert complex_from_data(complex_to_data(c)) == c


def _extract(tmp_path, total):
    data = bundle_to_data(trivial_bundle())
    data["total"] = total
    bundle_path = tmp_path / "bundle.json"
    save_json(data, bundle_path)
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "necklace_chern.cli", "extract",
         "--bundle", str(bundle_path), "--out", str(out), "--no-timing"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc, out


def _total():
    return bundle_to_data(trivial_bundle())["total"]


def _with_bool_vertex():
    total = _total()
    total["simplices"][0] = [True]
    return total


def _with_bool_count():
    total = _total()
    total["vertices"] = True
    return total


def _with_missing_edge():
    total = _total()
    total["simplices"] = [s for s in total["simplices"] if s != [0, 1]]
    return total


def _with_huge_count():
    total = _total()
    total["vertices"] = 10**12
    return total


@pytest.mark.parametrize(
    "make_total, message",
    [
        (_with_bool_vertex, "each simplex must be a list of integers"),
        (_with_bool_count, "\"vertices\" must be an integer"),
        (
            _with_missing_edge,
            "complex is not closed under faces: (0, 1, 3) lacks face 2",
        ),
        (_with_huge_count, "and 999999999978 more appear in no simplex"),
    ],
    ids=["bool-vertex", "bool-count", "missing-edge", "huge-count"],
)
def test_extract_rejects_a_malformed_total(tmp_path, make_total, message):
    proc, out = _extract(tmp_path, make_total())
    assert proc.returncode == 2
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("input error: ") and message in last
    assert "Traceback" not in proc.stderr
    assert not out.exists()
