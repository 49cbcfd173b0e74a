"""Tests for the exact exterior algebra and the connection-form lemmas.

Polynomials are forms of degree 0; the tests of their ring structure
reach it through the constructors, `*` and the pullbacks."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from necklace_chern.cyclic_forms import (
    DX,
    AffineSimplexMap,
    ExteriorForm,
    connection_form,
    curvature,
    exterior_derivative,
    fiber_differential,
    pullback_affine,
    pullback_cyclic_gauge,
    pullback_face,
    reduced_dl,
    reduced_l,
    wedge_power,
)
from necklace_chern.errors import DimensionMismatchError, InvalidInputError
from necklace_chern.exact_linalg import (
    ExactMatrix,
    normalized_word_matrix,
    sum_maximal_minors,
)
from necklace_chern.words_necklaces import delete_index_face, word

from forms_terms import RECORD, corpus_lines, random_stochastic_map

F = Fraction
const = ExteriorForm.const
var = ExteriorForm.variable


def random_poly(rng, arity, max_degree=2):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(arity))
        terms[(), mono] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return ExteriorForm(arity, 0, terms)


def random_form(rng, arity, degree, with_dx=False):
    indices_pool = list(range(arity)) + ([DX] if with_dx else [])
    polys = {}
    for _ in range(rng.randint(0, 4)):
        if len(indices_pool) < degree:
            break
        key = tuple(sorted(rng.sample(indices_pool, degree)))
        polys[key] = random_poly(rng, arity)
    total = ExteriorForm.zero(arity, degree)
    for key, poly in polys.items():
        total = total + ExteriorForm.term(arity, key, poly)
    return total


def top_form(k, coefficient):
    """coefficient * dt_0 ^ ... ^ dt_{k-1} over the k-simplex."""
    return ExteriorForm.term(k, tuple(range(k)), coefficient)


# ----------------------------------------------------------- polynomials


class TestPolyCoefficient:
    """Polynomials as forms of degree 0.  The class keeps the name of the
    polynomial type these tests were written for, so their ids stay
    stable."""

    def test_zero_has_empty_support(self):
        assert ExteriorForm(2, 0, {((), (1, 0)): F(0)}).is_zero()
        assert const(2, 0) == ExteriorForm.zero(2, 0)

    def test_arithmetic(self):
        p = var(2, 0) + const(2, 3)
        q = var(2, 1)
        assert (p * q).terms == {((), (1, 1)): F(1), ((), (0, 1)): F(3)}
        assert (p - p).is_zero()
        assert (2 * q).terms == {((), (0, 1)): F(2)}
        assert (q * F(1, 2)).terms == {((), (0, 1)): F(1, 2)}

    def test_power(self):
        p = var(1, 0) + const(1, 1)
        expected = {((), (2,)): F(1), ((), (1,)): F(2), ((), (0,)): F(1)}
        assert (p * p).terms == expected
        assert wedge_power(p, 2).terms == expected

    def test_partial_derivative(self):
        # the derivative of a polynomial collects its partial derivatives
        p = var(2, 0) * var(2, 0) * var(2, 1) * 3
        assert exterior_derivative(p).terms == {
            ((0,), (1, 1)): F(6),
            ((1,), (2, 0)): F(3),
        }
        assert exterior_derivative(const(2, 5)).is_zero()

    def test_substitute(self):
        # l0 -> t0 and l1 -> 1 - t0: the face of the triangle at vertices 0, 1
        a = AffineSimplexMap(ExactMatrix.from_rows([[1, 0], [0, 1], [0, 0]]))
        q = pullback_affine(var(2, 0) * var(2, 1), a)
        assert q.terms == {((), (1,)): F(1), ((), (2,)): F(-1)}
        # a monomial with all exponents zero pulls back to the constant
        assert pullback_affine(const(2, F(2, 5)), a) == const(1, F(2, 5))

    def test_constant_value(self):
        # a constant's value is its one term, at the zero monomial
        assert const(3, F(2, 5)).terms == {((), (0, 0, 0)): F(2, 5)}
        assert const(3, 0).terms == {}
        assert ((), (0, 0, 0)) not in var(3, 0).terms

    def test_coefficient_is_a_polynomial(self):
        f = ExteriorForm.term(2, (0,), var(2, 1) * 3) + reduced_dl(2, 1)
        assert f.coefficient((0,)) == var(2, 1) * 3
        assert f.coefficient((1,)) == const(2, 1)
        assert f.coefficient((DX,)).is_zero()

    def test_polynomial_wedge_scales_a_form(self):
        f = reduced_dl(2, 0) * var(2, 1)
        assert f == var(2, 1) * reduced_dl(2, 0)
        assert f.terms == {((0,), (0, 1)): F(1)}

    def test_mismatched_arity_rejected(self):
        with pytest.raises(DimensionMismatchError):
            var(2, 0) + var(3, 0)
        with pytest.raises(DimensionMismatchError):
            var(2, 0) * var(3, 0)

    def test_bad_monomial_rejected(self):
        with pytest.raises(InvalidInputError):
            ExteriorForm(2, 0, {((), (1,)): F(1)})
        with pytest.raises(InvalidInputError):
            ExteriorForm(2, 0, {((), (1, -1)): F(1)})
        with pytest.raises(InvalidInputError):
            var(2, 2)
        with pytest.raises(InvalidInputError):
            const(-1, 1)

    def test_bad_coefficient_rejected(self):
        with pytest.raises(InvalidInputError):
            ExteriorForm.term(2, (0,), var(3, 0))
        with pytest.raises(InvalidInputError):
            ExteriorForm.term(2, (0,), reduced_dl(2, 1))
        with pytest.raises(InvalidInputError):
            const(2, 0.5)


# ------------------------------------------------------------------ forms


class TestExteriorForm:
    def test_canonical_drops_zero_coefficients(self):
        f = ExteriorForm(2, 1, {((0,), (0, 0)): F(0)})
        assert f.is_zero()

    def test_unsorted_indices_rejected(self):
        with pytest.raises(InvalidInputError):
            ExteriorForm(3, 2, {((1, 0), (0, 0, 0)): F(1)})

    def test_wedge_antisymmetry(self):
        dl0 = reduced_dl(3, 0)
        dl1 = reduced_dl(3, 1)
        assert dl0.wedge(dl1) == -(dl1.wedge(dl0))
        assert dl0.wedge(dl0).is_zero()

    def test_dx_sorts_first(self):
        f = reduced_dl(2, 0).wedge(fiber_differential(2))
        assert f.terms == {((DX, 0), (0, 0)): F(-1)}

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            reduced_dl(2, 0) + curvature(2)

    def test_wedge_bilinear_over_coefficients(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_form(rng, 3, 1, with_dx=True)
            g = random_form(rng, 3, 1, with_dx=True)
            h = random_form(rng, 3, 2)
            assert (f + g).wedge(h) == f.wedge(h) + g.wedge(h)

    def test_wedge_graded_commutativity(self):
        rng = random.Random(6)
        for (p, q) in [(1, 1), (1, 2), (2, 2)]:
            for _ in range(10):
                f = random_form(rng, 4, p)
                g = random_form(rng, 4, q)
                assert f.wedge(g) == g.wedge(f) * F((-1) ** (p * q))


# ------------------------------------------------- reduced coordinates


def test_reduced_l_top_coordinate():
    assert reduced_l(2, 2) == const(2, 1) - var(2, 0) - var(2, 1)
    assert reduced_l(2, 0) == var(2, 0)


def test_reduced_coordinates_sum():
    n = 4
    total = ExteriorForm.zero(n, 0)
    for i in range(n + 1):
        total = total + reduced_l(n, i)
    assert total == const(n, 1)
    d_total = ExteriorForm.zero(n, 1)
    for i in range(n + 1):
        d_total = d_total + reduced_dl(n, i)
    assert d_total.is_zero()


def test_reduced_dl_is_derivative_of_reduced_l():
    for n in range(5):
        for i in range(n + 1):
            assert exterior_derivative(reduced_l(n, i)) == reduced_dl(n, i)


# ---------------------------------------------------- connection form


def test_connection_form_point():
    assert connection_form(0) == -fiber_differential(0)


def test_connection_form_interval():
    expected = -fiber_differential(1) + reduced_dl(1, 0) * var(1, 0)
    assert connection_form(1) == expected


def test_connection_form_triangle():
    l0, l1 = var(2, 0), var(2, 1)
    dl0, dl1 = reduced_dl(2, 0), reduced_dl(2, 1)
    expected = -fiber_differential(2) - dl1 * l0 + (dl0 + dl1) * (l0 + l1)
    assert connection_form(2) == expected


def test_connection_dx_coefficient_is_minus_one():
    for n in range(5):
        assert connection_form(n).coefficient((DX,)) == const(n, -1)


def test_negative_dimension_rejected():
    with pytest.raises(InvalidInputError):
        connection_form(-1)
    with pytest.raises(InvalidInputError):
        curvature(-1)


# ------------------------------------------------ exterior derivative


def test_derivative_simple_term():
    f = ExteriorForm.term(2, (1,), var(2, 0))  # l0 dl1
    assert exterior_derivative(f) == reduced_dl(2, 0).wedge(reduced_dl(2, 1))


def test_derivative_of_constant_vanishes():
    f = const(3, 7)
    assert exterior_derivative(f).is_zero()


def test_derivative_of_connection_is_curvature():
    for n in range(7):
        assert exterior_derivative(connection_form(n)) == curvature(n)


def test_curvature_closed():
    for n in range(7):
        assert exterior_derivative(curvature(n)).is_zero()


def test_derivative_squares_to_zero():
    rng = random.Random(9)
    for _ in range(25):
        f = random_form(rng, 3, rng.randint(0, 2), with_dx=True)
        assert exterior_derivative(exterior_derivative(f)).is_zero()


def test_derivative_leibniz_rule():
    rng = random.Random(10)
    for _ in range(20):
        p = rng.randint(0, 2)
        f = random_form(rng, 3, p)
        g = random_form(rng, 3, rng.randint(0, 2))
        lhs = exterior_derivative(f.wedge(g))
        rhs = exterior_derivative(f).wedge(g) + f.wedge(
            exterior_derivative(g)
        ) * F((-1) ** p)
        assert lhs == rhs


# ------------------------------------------------------------ curvature


def test_curvature_examples():
    assert curvature(0).is_zero()
    assert curvature(1).is_zero()
    assert curvature(2) == -reduced_dl(2, 0).wedge(reduced_dl(2, 1))


def hpow_reference(n, h):
    total = ExteriorForm.zero(n, 2 * h)
    for combo in itertools.combinations(range(n + 1), 2 * h):
        piece = const(n, 1)
        for i in combo:
            piece = piece.wedge(reduced_dl(n, i))
        total = total + piece
    return total * (F((-1) ** h) * math.factorial(h))


def test_wedge_power_examples():
    w2 = curvature(2)
    assert wedge_power(w2, 1) == w2
    assert wedge_power(w2, 2).is_zero()
    assert wedge_power(curvature(4), 2) == hpow_reference(4, 2)


def test_wedge_power_requires_positive_exponent():
    with pytest.raises(InvalidInputError):
        wedge_power(curvature(2), 0)


def test_curvature_power_formula():
    for n in range(7):
        for h in range(1, 4):
            assert wedge_power(curvature(n), h) == hpow_reference(n, h)


# ---------------------------------------------------- affine pullbacks


def test_affine_map_validation():
    with pytest.raises(InvalidInputError):
        AffineSimplexMap(ExactMatrix.from_rows([[2, 0], [-1, 1]]))
    with pytest.raises(InvalidInputError):
        AffineSimplexMap(ExactMatrix.from_rows([[F(1, 2), 0], [F(1, 3), 1]]))


def test_pullback_identity_map():
    f = curvature(2)
    assert pullback_affine(f, AffineSimplexMap.identity(2)) == f
    assert pullback_affine(f, AffineSimplexMap.identity(2)) == top_form(2, -1)


def test_pullback_word_matrix_examples():
    w3 = curvature(3)
    a = AffineSimplexMap(normalized_word_matrix(word((0, 1, 2, 0))))
    assert pullback_affine(w3, a) == top_form(2, -1)
    b = AffineSimplexMap(normalized_word_matrix(word((0, 2, 1, 0))))
    assert pullback_affine(w3, b) == top_form(2, 1)


def test_pullback_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pullback_affine(curvature(3), AffineSimplexMap.identity(2))


def test_pullback_curvature_power_is_minor_sum():
    rng = random.Random(17)
    for _ in range(40):
        h = rng.choice((1, 2))
        cols = 2 * h + 1
        rows = rng.randint(cols, 7)
        a = random_stochastic_map(rng, rows, cols)
        n, k = rows - 1, cols - 1
        got = pullback_affine(wedge_power(curvature(n), h), a)
        scale = F((-1) ** h) * math.factorial(h) * sum_maximal_minors(a.matrix)
        assert got == top_form(k, scale)


def test_pullback_is_ring_map():
    rng = random.Random(19)
    for _ in range(15):
        rows, cols = 4, 3
        a = random_stochastic_map(rng, rows, cols)
        f = random_form(rng, rows - 1, 1, with_dx=True)
        g = random_form(rng, rows - 1, 1)
        assert pullback_affine(f.wedge(g), a) == pullback_affine(f, a).wedge(
            pullback_affine(g, a)
        )


def test_pullback_commutes_with_derivative():
    rng = random.Random(21)
    for _ in range(15):
        rows, cols = 4, 3
        a = random_stochastic_map(rng, rows, cols)
        f = random_form(rng, rows - 1, rng.randint(0, 2), with_dx=True)
        assert pullback_affine(exterior_derivative(f), a) == exterior_derivative(
            pullback_affine(f, a)
        )


# ----------------------------------------------------- gauge pullbacks


def test_gauge_invariance_of_connection():
    for n in range(7):
        alpha = connection_form(n)
        for i in range(n + 1):
            assert pullback_cyclic_gauge(alpha, n, i) == alpha


def test_gauge_invariance_of_curvature():
    for n in range(7):
        omega = curvature(n)
        for i in range(n + 1):
            assert pullback_cyclic_gauge(omega, n, i) == omega


def test_gauge_identity_on_fiber_differential():
    for n in range(4):
        f = -fiber_differential(n)
        assert pullback_cyclic_gauge(f, n, 0) == f


def test_gauge_composition_law():
    # applying the generator i times equals the i-th rotation
    rng = random.Random(25)
    for n in range(1, 5):
        f = random_form(rng, n, 1, with_dx=True)
        for i in range(n + 2):
            stepwise = f
            for _ in range(i):
                stepwise = pullback_cyclic_gauge(stepwise, n, 1)
            assert stepwise == pullback_cyclic_gauge(f, n, i)


def test_gauge_arity_mismatch():
    with pytest.raises(DimensionMismatchError):
        pullback_cyclic_gauge(connection_form(2), 3, 1)


# ------------------------------------------------------ face pullbacks


def test_face_pullback_of_connection():
    for n in range(1, 7):
        alpha = connection_form(n)
        for i in range(n + 1):
            face = delete_index_face(i, n + 1)
            assert pullback_face(alpha, n, face) == connection_form(n - 1)


def test_face_pullback_kills_missing_coordinate():
    for n in range(1, 5):
        for i in range(n + 1):
            face = delete_index_face(i, n + 1)
            assert pullback_face(reduced_dl(n, i), n, face).is_zero()


def test_face_pullback_of_triangle_curvature():
    face = delete_index_face(0, 3)
    assert pullback_face(curvature(2), 2, face) == curvature(1)
    assert pullback_face(curvature(2), 2, face).is_zero()


def test_face_pullback_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        pullback_face(curvature(2), 2, delete_index_face(0, 2))


# ---------------------------------------------------------- golden corpus


def test_forms_terms_corpus():
    # every term of every form in the record, exactly as the record has it
    expected = RECORD.read_text(encoding="utf-8").splitlines()
    assert list(corpus_lines()) == expected
