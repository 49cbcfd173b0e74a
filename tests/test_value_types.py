"""Value semantics of the library's immutable types.

Each type keeps the behaviour of a frozen dataclass with the same fields:
construction by position or keyword, equality only within one class over
the field tuple, the field tuple's hash, ``Name(field=value, ...)`` as its
repr, no assignment or deletion of attributes, and copies and pickles that
compare equal.  A dataclass built here with the same name and fields is the
reference for the repr.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from necklace_chern import bundles, chern, cyclic_category, cyclic_forms
from necklace_chern import complexes, decorations, exact_linalg
from necklace_chern import words_necklaces as wn
from necklace_chern._frozen import Frozen

TRIANGLE = complexes.LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])
TETRA_BOUNDARY = complexes.LocallyOrderedComplex.from_maximal(
    4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
)
EDGE = complexes.LocallyOrderedComplex.from_maximal(2, [(0, 1)])
PRISM = bundles.product_bundle(EDGE, 3)
DECORATION = decorations.elementary_decoration(wn.word((0, 1, 2, 1)))
# (1/2 l_0 - 3 l_1^2) dx
FORM_TERMS = {
    ((cyclic_forms.DX,), (1, 0)): Fraction(1, 2),
    ((cyclic_forms.DX,), (0, 2)): -3,
}

# class, its fields in order, and a factory of one valid instance
CASES = [
    (wn.Word, ("letters", "alphabet_size"), lambda: wn.word((0, 1, 2, 0))),
    (
        wn.Necklace,
        ("canonical_word",),
        lambda: wn.canonical_necklace(wn.word((2, 0, 1))),
    ),
    (wn.FaceOperator, ("image", "codomain_size"), lambda: wn.FaceOperator((0, 2), 3)),
    (
        wn.WordMorphism,
        (
            "shift",
            "alphabet_face",
            "induced_domain_face",
            "domain_word",
            "codomain_word",
        ),
        lambda: decorations.face_morphism(DECORATION, (0, 1, 2), 1),
    ),
    (
        exact_linalg.ExactMatrix,
        ("entries",),
        lambda: exact_linalg.ExactMatrix.from_rows([[1, "1/2"]]),
    ),
    (
        exact_linalg.SkewMatrix,
        ("entries",),
        lambda: exact_linalg.SkewMatrix.from_rows([[0, 1], [-1, 0]]),
    ),
    (complexes.LocallyOrderedComplex, ("vertex_count", "simplices"), lambda: TRIANGLE),
    (
        complexes.ValidationIssue,
        ("code", "detail", "simplex"),
        lambda: complexes.ValidationIssue("fiber-not-cycle", "a detail", (0,)),
    ),
    (
        complexes.ValidationReport,
        ("issues",),
        lambda: complexes.ValidationReport((complexes.ValidationIssue("c", "d"),)),
    ),
    (
        bundles.BundleMap,
        ("total", "base", "vertex_map", "fiber_orientation"),
        lambda: PRISM,
    ),
    (
        bundles.ElementaryBundleView,
        ("base_simplex", "zero_sections", "one_sections", "letters"),
        lambda: bundles.elementary_view(PRISM, (0, 1)),
    ),
    (
        bundles.SectionChoice,
        ("sections",),
        lambda: bundles.default_section_choice(PRISM),
    ),
    (
        chern.RationalCochain,
        ("base", "degree", "values"),
        lambda: chern.chern_cochain(DECORATION, 1),
    ),
    (
        chern.FundamentalCycle,
        ("base", "coefficients"),
        lambda: chern.fundamental_cycle(TETRA_BOUNDARY),
    ),
    (decorations.Decoration, ("base", "words", "shifts"), lambda: DECORATION),
    (
        cyclic_category.DegeneracyMap,
        ("values", "codomain_size"),
        lambda: cyclic_category.DegeneracyMap((1, 0, 0), 2),
    ),
    (
        cyclic_category.CyclicMorphismDecomposition,
        ("face", "shift"),
        lambda: cyclic_category.decompose_cyclic_injection((2, 0), 3),
    ),
    (
        cyclic_forms.ExteriorForm,
        ("arity", "degree", "terms"),
        lambda: cyclic_forms.ExteriorForm(2, 1, FORM_TERMS),
    ),
    (
        cyclic_forms.AffineSimplexMap,
        ("matrix",),
        lambda: cyclic_forms.AffineSimplexMap.identity(2),
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _fields(x, names):
    return tuple(getattr(x, name) for name in names)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_value_type_is_covered():
    assert len(CASES) == 19
    assert set(Frozen.__subclasses__()) == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, names, make", CASES, ids=IDS)
def test_construction_equality_and_hash(cls, names, make):
    x = make()
    assert type(x) is cls
    values = _fields(x, names)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == x and by_keyword == x and not by_position != x
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
    # equality never crosses classes, not even to a tuple of the same fields
    assert x.__eq__(values) is NotImplemented
    assert x != values
    if _hashable(values):
        assert hash(x) == hash(values) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("cls, names, make", CASES, ids=IDS)
def test_repr_matches_a_frozen_dataclass(cls, names, make):
    x = make()
    reference = make_dataclass(cls.__name__, names, frozen=True)
    assert repr(x) == repr(reference(*_fields(x, names)))


@pytest.mark.parametrize("cls, names, make", CASES, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(cls, names, make):
    x = make()
    for name in names:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.not_a_field = 1


def test_necklace_least_is_an_init_only_argument():
    w = wn.Word((0, 1, 2, 1), 3)
    given = wn.Necklace(w, least=w.letters)
    assert given == wn.Necklace(w)
    assert hash(given) == hash((w,))
    assert repr(given) == f"Necklace(canonical_word={w!r})"
    assert not hasattr(given, "least")


def test_validation_issue_simplex_defaults_to_none():
    issue = complexes.ValidationIssue("code", "detail")
    assert issue.simplex is None
    assert issue == complexes.ValidationIssue("code", "detail", None)


def test_form_terms_default_to_a_fresh_dict():
    f, g = cyclic_forms.ExteriorForm(1, 1), cyclic_forms.ExteriorForm(1, 1)
    assert f.terms == {} and f.terms is not g.terms
