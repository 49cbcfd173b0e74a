"""Tests for the local Chern formula, cochain calculus, fundamental
cycles, Chern numbers, and the realizable-range search."""

import itertools
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from necklace_chern import chern as chern_module
from necklace_chern.bundles import extract_decoration, product_bundle
from necklace_chern.chern import (
    FundamentalCycle,
    RationalCochain,
    achievable_chern_numbers,
    chern_cochain,
    chern_number,
    coboundary,
    fundamental_cycle,
    local_chern,
)
from necklace_chern.complexes import LocallyOrderedComplex, simplex_face
from necklace_chern.decorations import (
    Decoration,
    elementary_decoration,
    enumerate_decorations,
    validate_decoration,
)
from necklace_chern.errors import (
    InvalidInputError,
    NonIntegralError,
    NonOrientableError,
    NotClosedError,
    ResourceBudgetError,
    WrongAlphabetError,
)
from necklace_chern.serialize import boundary_tetrahedron, hopf_bundle, trivial_bundle
from necklace_chern.words_necklaces import SUBWORD_BUDGET, Word, word, words_of_content

from conftest import grid_torus
from oracles import boundary_columns, integer_homology, integer_invariants, smith_invariants

GOLDEN = Path(__file__).parent / "golden"


def tetra_boundary() -> LocallyOrderedComplex:
    return LocallyOrderedComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def seven_vertex_torus() -> LocallyOrderedComplex:
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    return LocallyOrderedComplex.from_maximal(7, tris)


def nine_vertex_klein_bottle() -> LocallyOrderedComplex:
    # a 3x3 grid closed up with one flipped wrap
    def v(i, j):
        if i == 3:
            return (-j) % 3
        return 3 * (i % 3) + (j % 3)

    tris = set()
    for i in range(3):
        for j in range(3):
            a, b = v(i, j), v(i + 1, j)
            c, d = v(i, j + 1), v(i + 1, j + 1)
            tris.add(tuple(sorted((a, b, d))))
            tris.add(tuple(sorted((a, c, d))))
    return LocallyOrderedComplex.from_maximal(9, sorted(tris))


class TestLocalChern:
    def test_increasing_triangle_word(self):
        assert local_chern(word((0, 1, 2)), 1) == Fraction(-1, 2)

    def test_transposed_triangle_word(self):
        assert local_chern(word((0, 2, 1)), 1) == Fraction(1, 2)

    def test_length_four_word(self):
        assert local_chern(word((0, 1, 2, 0)), 1) == Fraction(-1, 2)

    def test_rotation_invariance(self):
        for letters in [(0, 1, 2), (0, 1, 0, 1, 2), (0, 2, 1, 1, 0)]:
            w = word(letters)
            values = set()
            for s in range(len(letters)):
                rotated = letters[-s:] + letters[:-s] if s else letters
                values.add(local_chern(word(rotated), 1))
            assert len(values) == 1

    def test_h_zero_is_parity(self):
        assert local_chern(Word((0,), 1), 0) == 1
        assert local_chern(Word((0, 0, 0), 1), 0) == 1

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(WrongAlphabetError):
            local_chern(word((0, 1)), 1)
        with pytest.raises(WrongAlphabetError):
            local_chern(word((0, 1, 2)), 0)

    def test_negative_h_rejected(self):
        with pytest.raises(InvalidInputError):
            local_chern(word((0, 1, 2)), -1)


class TestRationalCochain:
    def test_value_lookup(self):
        base = tetra_boundary()
        triangles = base.simplices_of_dimension(2)
        values = tuple(Fraction(i) for i in range(len(triangles)))
        c = RationalCochain(base, 2, values)
        for i, t in enumerate(triangles):
            assert c.value_for(t) == i

    def test_wrong_length_rejected(self):
        base = tetra_boundary()
        with pytest.raises(InvalidInputError):
            RationalCochain(base, 2, (Fraction(0),))

    def test_missing_simplex_rejected(self):
        base = tetra_boundary()
        c = RationalCochain(base, 1, tuple([Fraction(0)] * 6))
        with pytest.raises(InvalidInputError):
            c.value_for((0, 1, 2))

    def test_is_zero(self):
        base = tetra_boundary()
        zero = RationalCochain(base, 2, tuple([Fraction(0)] * 4))
        assert zero.is_zero
        one = RationalCochain(base, 2, tuple([Fraction(1)] * 4))
        assert not one.is_zero


class TestCoboundary:
    def test_degree_zero_telescopes(self):
        base = LocallyOrderedComplex.from_maximal(3, [(0, 1), (1, 2)])
        c = RationalCochain(
            base, 0, (Fraction(5), Fraction(7), Fraction(11))
        )
        d = coboundary(c)
        assert d.value_for((0, 1)) == 7 - 5
        assert d.value_for((1, 2)) == 11 - 7

    def test_cocycle_on_elementary_solid_tetrahedra(self):
        checked = 0
        for w in words_of_content((1, 1, 1, 1)):
            d = elementary_decoration(w)
            assert coboundary(chern_cochain(d, 1)).is_zero
            checked += 1
        assert checked == 24

    def test_cocycle_on_elementary_length_five_words(self):
        checked = 0
        for content in ((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)):
            for w in words_of_content(content):
                d = elementary_decoration(w)
                assert coboundary(chern_cochain(d, 1)).is_zero
                checked += 1
        assert checked == 240

    def test_cocycle_on_extracted_solid_tetrahedron_bundle(self):
        solid = LocallyOrderedComplex.from_maximal(4, [(0, 1, 2, 3)])
        for m in (3, 4):
            d = extract_decoration(product_bundle(solid, m))
            assert coboundary(chern_cochain(d, 1)).is_zero


class TestFundamentalCycle:
    def test_tetra_boundary_signs(self):
        fc = fundamental_cycle(tetra_boundary())
        assert fc.coefficient_for((1, 2, 3)) == 1
        assert fc.coefficient_for((0, 2, 3)) == -1
        assert fc.coefficient_for((0, 1, 3)) == 1
        assert fc.coefficient_for((0, 1, 2)) == -1

    def test_signed_sum_is_a_cycle(self):
        for base in (tetra_boundary(), seven_vertex_torus()):
            fc = fundamental_cycle(base)
            for e in base.simplices_of_dimension(1):
                total = 0
                for t in base.simplices_of_dimension(2):
                    for j in range(3):
                        if simplex_face(t, j) == e:
                            total += fc.coefficient_for(t) * (-1) ** j
                assert total == 0

    def test_torus_is_orientable(self):
        fc = fundamental_cycle(seven_vertex_torus())
        assert set(fc.coefficients) == {-1, 1}

    def test_klein_bottle_rejected(self):
        with pytest.raises(NonOrientableError):
            fundamental_cycle(nine_vertex_klein_bottle())

    def test_disk_rejected(self):
        disk = LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])
        with pytest.raises(NotClosedError):
            fundamental_cycle(disk)

    def test_wrong_dimension_rejected(self):
        path = LocallyOrderedComplex.from_maximal(2, [(0, 1)])
        with pytest.raises(InvalidInputError):
            fundamental_cycle(path)

    def test_top_triangle_of_each_component_is_positive(self):
        two_spheres = []
        for offset in (0, 4):
            for t in itertools.combinations(range(offset, offset + 4), 3):
                two_spheres.append(t)
        base = LocallyOrderedComplex.from_maximal(8, two_spheres)
        fc = fundamental_cycle(base)
        assert fc.coefficient_for((1, 2, 3)) == 1
        assert fc.coefficient_for((5, 6, 7)) == 1

    def test_bad_coefficients_rejected(self):
        base = tetra_boundary()
        with pytest.raises(InvalidInputError):
            FundamentalCycle(base, (1, 1, 1))
        with pytest.raises(InvalidInputError):
            FundamentalCycle(base, (1, 1, 1, 2))


class TestChernNumber:
    def test_trivial_product_is_zero(self):
        base = tetra_boundary()
        for m in (3, 4):
            d = extract_decoration(product_bundle(base, m))
            assert chern_number(d) == 0

    def test_long_fibers(self):
        # each triangle word has 120**3 proper subwords, beyond the budget
        assert 120**3 > SUBWORD_BUDGET
        d = extract_decoration(product_bundle(tetra_boundary(), 120))
        assert chern_number(d) == 0

    def test_valid_decorations_always_integral(self):
        base = tetra_boundary()
        fc = fundamental_cycle(base)
        for d in itertools.islice(enumerate_decorations(base, 3), 500):
            chern_number(d, fc, validate=False)

    def test_fractional_pairing_rejected(self):
        base = tetra_boundary()
        words = {}
        shifts = {}
        for i, s in enumerate(base.simplices):
            if len(s) == 1:
                words[i] = Word((0,), 1)
            elif len(s) == 2:
                words[i] = word((0, 1))
                shifts[(i, 0)] = 0
                shifts[(i, 1)] = 0
            else:
                words[i] = word((0, 1, 2))
                for j in range(3):
                    shifts[(i, j)] = 0
        # overwrite one triangle with a half-parity word
        doctored = base.simplex_id((1, 2, 3))
        words[doctored] = word((0, 1, 0, 1, 2))
        d = Decoration.from_maps(base, words, shifts)
        assert not validate_decoration(d).ok
        with pytest.raises(NonIntegralError):
            chern_number(d, validate=False)

    def test_validation_on_by_default(self):
        base = tetra_boundary()
        words = {}
        shifts = {}
        for i, s in enumerate(base.simplices):
            words[i] = Word(tuple(range(len(s))), len(s))
            for j in range(len(s) if len(s) > 1 else 0):
                shifts[(i, j)] = 0
        d = Decoration.from_maps(base, words, shifts)
        if not validate_decoration(d).ok:
            with pytest.raises(InvalidInputError):
                chern_number(d)


def projective_plane() -> LocallyOrderedComplex:
    """The 6-vertex RP^2, the antipodal quotient of the icosahedron."""
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    return LocallyOrderedComplex.from_maximal(6, triangles)


class TestHomologyOfTheTotalSpace:
    """A check of |c| that reads no word. An oriented circle bundle with
    Euler number c over a closed oriented surface of genus g has
    H1 = Z^(2g) + Z/|c| when c != 0 and Z^(2g+1) when c = 0 (Gysin)."""

    def test_smith_form_of_a_dense_matrix(self):
        assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]

    def test_projective_plane(self):
        rp2 = projective_plane()
        # the dense Smith form on the whole boundary matrix d_2, and after
        # the sparse unit elimination
        columns = boundary_columns(rp2, 2)
        dense = [
            [col.get(r, 0) for col in columns]
            for r in range(len(rp2.simplices_of_dimension(1)))
        ]
        assert smith_invariants(dense) == [1] * 9 + [2]
        assert integer_invariants(columns) == [1] * 9 + [2]
        assert [integer_homology(rp2, k) for k in range(3)] == [
            (1, ()), (0, (2,)), (0, ()),
        ]

    @pytest.mark.parametrize(
        "make, genus",
        [
            (hopf_bundle, 0),
            (trivial_bundle, 0),
            (lambda: product_bundle(tetra_boundary(), 5), 0),
            (lambda: product_bundle(grid_torus(3), 3), 1),
            (lambda: product_bundle(grid_torus(8), 3), 1),
        ],
        ids=["hopf", "trivial", "tetrahedron-x5", "grid3-x3", "grid8-x3"],
    )
    def test_first_homology_gives_the_chern_number(self, make, genus):
        b = make()
        base = b.base
        euler = sum((-1) ** k * len(base.simplices_of_dimension(k)) for k in range(3))
        assert euler == 2 - 2 * genus
        c = chern_number(extract_decoration(b))
        rank, torsion = integer_homology(b.total, 1)
        assert rank == 2 * genus + (c == 0)
        assert math.prod(torsion) == (abs(c) if c else 1)


class TestAchievableRange:
    def test_tetra_boundary_full_range_at_length_three(self):
        assert achievable_chern_numbers(tetra_boundary(), 3) == {
            -2,
            -1,
            0,
            1,
            2,
        }

    def test_tetra_boundary_at_length_eight(self):
        assert achievable_chern_numbers(tetra_boundary(), 8) == {
            -2,
            -1,
            0,
            1,
            2,
        }

    def test_too_short_words_give_empty_range(self):
        assert achievable_chern_numbers(tetra_boundary(), 2) == set()

    def test_brute_force_values_are_covered(self):
        base = tetra_boundary()
        fc = fundamental_cycle(base)
        achieved = achievable_chern_numbers(base, 3)
        seen = set()
        for d in itertools.islice(enumerate_decorations(base, 3), 2000):
            seen.add(chern_number(d, fc, validate=False))
        assert seen
        assert seen <= achieved

    def test_budget_exhaustion(self):
        with pytest.raises(ResourceBudgetError):
            achievable_chern_numbers(tetra_boundary(), 3, budget=0)

    def test_open_surface_rejected(self):
        disk = LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])
        with pytest.raises(NotClosedError):
            achievable_chern_numbers(disk, 3)

    def test_torus_small_range(self):
        got = achievable_chern_numbers(seven_vertex_torus(), 3)
        assert 0 in got
        assert all(abs(c) <= 7 for c in got)

    def test_deep_base_runs_into_the_budget(self):
        # more triangles than the recursion limit: the search runs on an
        # explicit stack until the budget stops it
        base = grid_torus(math.isqrt(sys.getrecursionlimit()) + 1)
        with pytest.raises(ResourceBudgetError):
            achievable_chern_numbers(base, 3, budget=10**4)

    @pytest.mark.parametrize("max_len", [3, 4, 5])
    @pytest.mark.parametrize(
        "make_base, least", [(tetra_boundary, 150), (seven_vertex_torus, 21059)]
    )
    def test_least_budget_that_completes(self, make_base, least, max_len):
        # every candidate, candidate list and shift tried charges the budget
        base = make_base()
        half = len(base.simplices_of_dimension(2)) // 2
        got = achievable_chern_numbers(base, max_len, budget=least)
        assert got == set(range(-half, half + 1))
        with pytest.raises(ResourceBudgetError):
            achievable_chern_numbers(base, max_len, budget=least - 1)

    def test_budget_charged_from_the_first_fiber_lengths(self):
        # fiber-length vectors are generated lazily, so a tiny budget runs
        # out on the first vector instead of after listing all of them
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError):
            achievable_chern_numbers(seven_vertex_torus(), 12, budget=10)
        assert time.perf_counter() - start < 1.0


class TestProductionParityRoute:
    """Chern computations take parity from the Pfaffian engine alone; the
    subword enumeration and the minor sums are oracles."""

    @pytest.fixture(autouse=True)
    def oracles_refuse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a parity oracle ran on the production path")

        for name, module in list(sys.modules.items()):
            if name.startswith("necklace_chern"):
                for attr in ("rational_parity", "sum_maximal_minors"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        # candidates computed by earlier tests would hide an oracle call
        chern_module._triangle_candidates.cache_clear()

    def test_chern_number_of_the_hopf_bundle(self):
        assert chern_number(extract_decoration(hopf_bundle())) == 1

    def test_range_of_the_tetrahedron(self):
        text = (GOLDEN / "tetrahedron_range_4.txt").read_text().strip()
        expected = {int(c) for c in text.strip("{}").split(",")}
        assert achievable_chern_numbers(boundary_tetrahedron(), 4) == expected
