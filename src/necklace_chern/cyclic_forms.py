"""Exact polynomial exterior algebra on simplices with one fiber coordinate.

Forms live on the trivial circle bundle over the standard simplex.  The base
coordinates are barycentric; the highest-index coordinate is eliminated, so
a form over the n-simplex is written in the reduced variables l_0 .. l_{n-1}
together with the fiber differential dx.  Everything is exact: coefficients
are multivariate polynomials over `fractions.Fraction`, and a polynomial is
a form of degree 0.

The module provides the cyclic-invariant connection form, its curvature and
curvature powers, and the three pullbacks that matter for the local Chern
formulas: along affine simplex maps (column-stochastic matrices), along face
inclusions, and along the cyclic gauge rotations of the fiber.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ._frozen import Frozen
from .errors import DimensionMismatchError, InvalidInputError
from .exact_linalg import ExactMatrix, _as_fraction
from .words_necklaces import FaceOperator

__all__ = [
    "DX",
    "ExteriorForm",
    "AffineSimplexMap",
    "reduced_l",
    "reduced_dl",
    "fiber_differential",
    "connection_form",
    "exterior_derivative",
    "curvature",
    "wedge_power",
    "pullback_affine",
    "pullback_cyclic_gauge",
    "pullback_face",
]

# index used for the fiber differential dx inside sorted differential tuples;
# it sorts before every base index
DX = -1

# a term's key: its differential indices and the exponents of its monomial
Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _merge_sign(left: Tuple[int, ...], right: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """Sort the concatenation of two disjoint sorted tuples, tracking the sign."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            sign *= (-1) ** (len(left) - i)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class ExteriorForm(Frozen):
    """Homogeneous exterior form with polynomial coefficients.

    ``terms`` maps a pair (differentials, monomial) to a nonzero rational.
    The differentials are a strictly increasing tuple of length ``degree``
    drawn from {DX} for the fiber differential dx and {0 .. arity-1} for the
    reduced base differentials dl_i; the monomial holds the ``arity``
    exponents of l_0 .. l_{arity-1}.  A polynomial is a form of degree 0.
    """

    __slots__ = _fields = ("arity", "degree", "terms")
    arity: int
    degree: int
    terms: Dict[Key, Fraction]

    def __init__(
        self, arity: int, degree: int, terms: Optional[Dict[Key, Fraction]] = None
    ) -> None:
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", {} if terms is None else terms)
        if self.arity < 0 or self.degree < 0:
            raise InvalidInputError("arity and degree must be nonnegative")
        cleaned = {}
        for (indices, mono), coeff in self.terms.items():
            indices, mono = tuple(indices), tuple(mono)
            if len(indices) != self.degree:
                raise InvalidInputError(
                    f"index tuple {indices} has wrong length for degree {self.degree}"
                )
            if any(indices[p] >= indices[p + 1] for p in range(len(indices) - 1)):
                raise InvalidInputError(f"index tuple {indices} is not increasing")
            for idx in indices:
                if idx != DX and not 0 <= idx < self.arity:
                    raise InvalidInputError(f"differential index {idx} out of range")
            if len(mono) != self.arity:
                raise InvalidInputError(
                    f"monomial {mono} has wrong length for arity {self.arity}"
                )
            if any(e < 0 for e in mono):
                raise InvalidInputError(f"negative exponent in monomial {mono}")
            c = _as_fraction(coeff)
            if c != 0:
                cleaned[indices, mono] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(arity: int, degree: int) -> "ExteriorForm":
        return ExteriorForm(arity, degree, {})

    @staticmethod
    def const(arity: int, value) -> "ExteriorForm":
        """The constant polynomial ``value``."""
        return ExteriorForm(arity, 0, {((), (0,) * arity): value})

    @staticmethod
    def variable(arity: int, index: int) -> "ExteriorForm":
        """The polynomial l_index."""
        if not 0 <= index < arity:
            raise InvalidInputError(
                f"variable l_{index} out of range for arity {arity}"
            )
        mono = tuple(1 if v == index else 0 for v in range(arity))
        return ExteriorForm(arity, 0, {((), mono): 1})

    @staticmethod
    def term(arity: int, indices: Sequence[int], coefficient) -> "ExteriorForm":
        """The wedge of the differentials ``indices`` times ``coefficient``,
        a rational or a polynomial."""
        indices = tuple(indices)
        if not isinstance(coefficient, ExteriorForm):
            coefficient = ExteriorForm.const(arity, coefficient)
        elif coefficient.arity != arity or coefficient.degree != 0:
            raise InvalidInputError(
                "coefficient must be a polynomial of the form's arity"
            )
        return ExteriorForm(
            arity,
            len(indices),
            {(indices, mono): c for (_, mono), c in coefficient.terms.items()},
        )

    # -- algebra ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> "ExteriorForm":
        """The polynomial coefficient of the differentials ``indices``."""
        indices = tuple(indices)
        return ExteriorForm(
            self.arity,
            0,
            {((), mono): c for (key, mono), c in self.terms.items() if key == indices},
        )

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.arity != other.arity:
            raise DimensionMismatchError("adding forms of different arity")
        if self.degree != other.degree:
            raise DimensionMismatchError("adding forms of different degree")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return ExteriorForm(self.arity, self.degree, terms)

    def __neg__(self) -> "ExteriorForm":
        return self * -1

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def __mul__(self, other) -> "ExteriorForm":
        """The wedge product with a form; a rational scales."""
        if isinstance(other, ExteriorForm):
            return self.wedge(other)
        s = _as_fraction(other)
        return ExteriorForm(
            self.arity, self.degree, {key: c * s for key, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.arity != other.arity:
            raise DimensionMismatchError("wedging forms of different arity")
        terms: Dict[Key, Fraction] = {}
        for (left, m1), c1 in self.terms.items():
            for (right, m2), c2 in other.terms.items():
                if set(left) & set(right):
                    continue
                merged, sign = _merge_sign(left, right)
                key = (merged, tuple(a + b for a, b in zip(m1, m2)))
                terms[key] = terms.get(key, 0) + c1 * c2 * sign
        return ExteriorForm(self.arity, self.degree + other.degree, terms)


class AffineSimplexMap(Frozen):
    """Affine simplex map in barycentric coordinates.

    The matrix is column-stochastic: entries nonnegative, each column summing
    to one.  A matrix with n+1 rows and k+1 columns maps the k-simplex into
    the n-simplex; normalized word matrices qualify.
    """

    __slots__ = _fields = ("matrix",)
    matrix: ExactMatrix

    def __init__(self, matrix: ExactMatrix) -> None:
        object.__setattr__(self, "matrix", matrix)
        for i in range(self.matrix.rows):
            for j in range(self.matrix.cols):
                if self.matrix.entry(i, j) < 0:
                    raise InvalidInputError(f"negative entry at ({i},{j})")
        for j in range(self.matrix.cols):
            if self.matrix.column_sum(j) != 1:
                raise InvalidInputError(f"column {j} does not sum to one")

    @staticmethod
    def identity(n: int) -> "AffineSimplexMap":
        return AffineSimplexMap(ExactMatrix.identity(n + 1))

    @staticmethod
    def from_face(face: FaceOperator) -> "AffineSimplexMap":
        rows = face.codomain_size
        cols = face.domain_size
        table = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            table[face(j)][j] = 1
        return AffineSimplexMap(ExactMatrix.from_rows(table))

    @property
    def source_dimension(self) -> int:
        return self.matrix.cols - 1

    @property
    def target_dimension(self) -> int:
        return self.matrix.rows - 1


# =========================================================================
# Reduced coordinate helpers
# =========================================================================


def reduced_l(n: int, i: int) -> ExteriorForm:
    """Barycentric coordinate l_i on the n-simplex in reduced variables.

    For i < n this is the variable itself; l_n is 1 minus the others.
    """
    if not 0 <= i <= n:
        raise InvalidInputError(f"coordinate l_{i} out of range on the {n}-simplex")
    if i < n:
        return ExteriorForm.variable(n, i)
    result = ExteriorForm.const(n, 1)
    for a in range(n):
        result = result - ExteriorForm.variable(n, a)
    return result


def reduced_dl(n: int, i: int) -> ExteriorForm:
    """The differential dl_i on the n-simplex in reduced variables."""
    if not 0 <= i <= n:
        raise InvalidInputError(f"differential dl_{i} out of range on the {n}-simplex")
    if i < n:
        return ExteriorForm.term(n, (i,), 1)
    result = ExteriorForm.zero(n, 1)
    for a in range(n):
        result = result - ExteriorForm.term(n, (a,), 1)
    return result


def fiber_differential(arity: int) -> ExteriorForm:
    """The fiber differential dx as a 1-form over the given base arity."""
    return ExteriorForm.term(arity, (DX,), 1)


# =========================================================================
# Connection, curvature, powers
# =========================================================================


def connection_form(n: int) -> ExteriorForm:
    """The cyclic-invariant connection 1-form over the n-simplex.

    In unreduced coordinates it reads -dx - sum over i < j of l_i dl_j; the
    result here is written in the reduced variables l_0 .. l_{n-1}.
    """
    if n < 0:
        raise InvalidInputError("simplex dimension must be nonnegative")
    result = -fiber_differential(n)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            result = result - reduced_dl(n, j) * reduced_l(n, i)
    return result


def exterior_derivative(f: ExteriorForm) -> ExteriorForm:
    """The exterior derivative; coefficients never involve the fiber
    coordinate itself, so only the base variables differentiate.  The
    partial derivative in l_v lowers the exponent e of l_v and multiplies
    by e; moving dl_v to its sorted place past p smaller indices gives the
    sign (-1)^p."""
    terms: Dict[Key, Fraction] = {}
    for (indices, mono), coeff in f.terms.items():
        for v, e in enumerate(mono):
            if e == 0 or v in indices:
                continue
            position = sum(1 for idx in indices if idx < v)
            key = (
                tuple(sorted(indices + (v,))),
                mono[:v] + (e - 1,) + mono[v + 1 :],
            )
            terms[key] = terms.get(key, 0) + coeff * e * (-1) ** position
    return ExteriorForm(f.arity, f.degree + 1, terms)


def curvature(n: int) -> ExteriorForm:
    """The curvature 2-form: minus the sum of dl_i wedge dl_j over i < j,
    in reduced variables.  Equals the exterior derivative of the
    connection form."""
    if n < 0:
        raise InvalidInputError("simplex dimension must be nonnegative")
    result = ExteriorForm.zero(n, 2)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            result = result - reduced_dl(n, i).wedge(reduced_dl(n, j))
    return result


def wedge_power(f: ExteriorForm, h: int) -> ExteriorForm:
    """The h-fold wedge power, h >= 1."""
    if h < 1:
        raise InvalidInputError("wedge power expects a positive exponent")
    result = f
    for _ in range(h - 1):
        result = result.wedge(f)
    return result


# =========================================================================
# Pullbacks
# =========================================================================


def _substitute_form(
    f: ExteriorForm,
    new_arity: int,
    images: Sequence[ExteriorForm],
    dx_form: ExteriorForm,
) -> ExteriorForm:
    """Pull back along the substitution l_v -> images[v], so that
    dl_v -> d images[v], and dx -> dx_form.  Each term expands as its
    coefficient times the images of its monomial's variables, one factor
    per unit of exponent, wedged with the images of its differentials."""
    differentials = [exterior_derivative(image) for image in images]
    result = ExteriorForm.zero(new_arity, f.degree)
    for (indices, mono), coeff in f.terms.items():
        piece = ExteriorForm.const(new_arity, coeff)
        for v, e in enumerate(mono):
            for _ in range(e):
                piece = piece * images[v]
        for idx in indices:
            piece = piece * (dx_form if idx == DX else differentials[idx])
        result = result + piece
    return result


def pullback_affine(f: ExteriorForm, a: AffineSimplexMap) -> ExteriorForm:
    """Pull back along an affine simplex map, exactly.

    Substitutes l_i by row i of the matrix applied to the target barycentric
    coordinates, then eliminates the highest target coordinate.  The fiber
    differential passes through unchanged.
    """
    n = a.target_dimension
    k = a.source_dimension
    if f.arity != n:
        raise DimensionMismatchError(
            f"form lives on the {f.arity}-simplex, map lands in the {n}-simplex"
        )
    if k > n:
        raise DimensionMismatchError("affine map must not raise dimension")
    m = a.matrix
    images = []
    for i in range(n):
        # l_i -> a_{ik} + sum over j < k of (a_{ij} - a_{ik}) t_j
        image = ExteriorForm.const(k, m.entry(i, k))
        for j in range(k):
            slope = m.entry(i, j) - m.entry(i, k)
            image = image + ExteriorForm.variable(k, j) * slope
        images.append(image)
    return _substitute_form(f, k, images, fiber_differential(k))


def pullback_cyclic_gauge(f: ExteriorForm, n: int, i: int) -> ExteriorForm:
    """Pull back along the i-th cyclic gauge rotation over the n-simplex.

    The rotation permutes the barycentric coordinates, l_a becoming
    l_{(a+i) mod (n+1)}, and twists the fiber by the partial-sum polynomial
    l_0 + ... + l_{i-1}, so dx becomes dx - dl_0 - ... - dl_{i-1}.  The
    connection form is invariant under all of these.
    """
    if f.arity != n:
        raise DimensionMismatchError(
            f"form lives on the {f.arity}-simplex, gauge acts on the {n}-simplex"
        )
    i %= n + 1
    images = [reduced_l(n, (a + i) % (n + 1)) for a in range(n)]
    dx_form = fiber_differential(n)
    for a in range(i):
        dx_form = dx_form - reduced_dl(n, a)
    return _substitute_form(f, n, images, dx_form)


def pullback_face(f: ExteriorForm, n: int, face: FaceOperator) -> ExteriorForm:
    """Pull back along a face inclusion of the n-simplex.

    The missing barycentric coordinates are set to zero; the fiber
    differential passes through.  The connection form over the n-simplex
    restricts to the connection form of the face.
    """
    if face.codomain_size != n + 1:
        raise DimensionMismatchError(
            f"face lands in a {face.codomain_size - 1}-simplex, expected {n}"
        )
    return pullback_affine(f, AffineSimplexMap.from_face(face))
