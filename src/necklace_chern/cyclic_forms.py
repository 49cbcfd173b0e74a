"""Exact polynomial exterior algebra on simplices with one fiber coordinate.

Forms live on the trivial circle bundle over the standard simplex.  The base
coordinates are barycentric; the highest-index coordinate is eliminated, so
a form over the n-simplex is written in the reduced variables l_0 .. l_{n-1}
together with the fiber differential dx.  Everything is exact: coefficients
are multivariate polynomials over `fractions.Fraction`.

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
    "PolyCoefficient",
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

Monomial = Tuple[int, ...]


class PolyCoefficient(Frozen):
    """Sparse polynomial in the reduced barycentric variables l_0 .. l_{arity-1}.

    ``terms`` maps exponent tuples of length ``arity`` to nonzero rational
    coefficients; the zero polynomial has empty support.
    """

    __slots__ = _fields = ("arity", "terms")
    arity: int
    terms: Dict[Monomial, Fraction]

    def __init__(
        self, arity: int, terms: Optional[Dict[Monomial, Fraction]] = None
    ) -> None:
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", {} if terms is None else terms)
        if self.arity < 0:
            raise InvalidInputError("polynomial arity must be nonnegative")
        cleaned = {}
        for mono, coeff in self.terms.items():
            if len(mono) != self.arity:
                raise InvalidInputError(
                    f"monomial {mono} has wrong length for arity {self.arity}"
                )
            if any(e < 0 for e in mono):
                raise InvalidInputError(f"negative exponent in monomial {mono}")
            c = _as_fraction(coeff)
            if c != 0:
                cleaned[tuple(mono)] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "PolyCoefficient":
        return PolyCoefficient(arity, {})

    @staticmethod
    def const(arity: int, value) -> "PolyCoefficient":
        return PolyCoefficient(arity, {(0,) * arity: _as_fraction(value)})

    @staticmethod
    def variable(arity: int, index: int) -> "PolyCoefficient":
        if not 0 <= index < arity:
            raise InvalidInputError(f"variable l_{index} out of range for arity {arity}")
        mono = tuple(1 if v == index else 0 for v in range(arity))
        return PolyCoefficient(arity, {mono: Fraction(1)})

    # -- ring structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises otherwise)."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {(0,) * self.arity}:
            raise InvalidInputError("polynomial is not constant")
        return self.terms[(0,) * self.arity]

    def __add__(self, other: "PolyCoefficient") -> "PolyCoefficient":
        if self.arity != other.arity:
            raise DimensionMismatchError("adding polynomials of different arity")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return PolyCoefficient(self.arity, terms)

    def __neg__(self) -> "PolyCoefficient":
        return PolyCoefficient(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "PolyCoefficient") -> "PolyCoefficient":
        return self + (-other)

    def __mul__(self, other) -> "PolyCoefficient":
        if isinstance(other, PolyCoefficient):
            if self.arity != other.arity:
                raise DimensionMismatchError(
                    "multiplying polynomials of different arity"
                )
            terms: Dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
            return PolyCoefficient(self.arity, terms)
        scalar = _as_fraction(other)
        return PolyCoefficient(
            self.arity, {m: c * scalar for m, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def power(self, exponent: int) -> "PolyCoefficient":
        if exponent < 0:
            raise InvalidInputError("negative polynomial power")
        result = PolyCoefficient.const(self.arity, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus and substitution ---------------------------------------

    def partial(self, index: int) -> "PolyCoefficient":
        """Partial derivative with respect to l_index."""
        if not 0 <= index < self.arity:
            raise InvalidInputError(f"variable l_{index} out of range")
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = tuple(
                v - 1 if pos == index else v for pos, v in enumerate(mono)
            )
            terms[lowered] = terms.get(lowered, Fraction(0)) + coeff * e
        return PolyCoefficient(self.arity, terms)

    def substitute(
        self, new_arity: int, images: Sequence["PolyCoefficient"]
    ) -> "PolyCoefficient":
        """Ring homomorphism sending l_v to images[v]."""
        if len(images) != self.arity:
            raise DimensionMismatchError(
                f"expected {self.arity} substitution images, got {len(images)}"
            )
        for img in images:
            if img.arity != new_arity:
                raise DimensionMismatchError("substitution image has wrong arity")
        result = PolyCoefficient.zero(new_arity)
        for mono, coeff in self.terms.items():
            term = PolyCoefficient.const(new_arity, coeff)
            for v, e in enumerate(mono):
                if e:
                    term = term * images[v].power(e)
            result = result + term
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            factors = [
                f"l{v}" if e == 1 else f"l{v}^{e}"
                for v, e in enumerate(mono)
                if e
            ]
            if not factors:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append("*".join(factors))
            elif coeff == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(pieces).replace("+ -", "- ")


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

    Keys of ``terms`` are strictly increasing tuples of differential indices,
    drawn from {DX} for the fiber differential dx and {0 .. arity-1} for the
    reduced base differentials dl_i.  All keys have length ``degree``.
    """

    __slots__ = _fields = ("arity", "degree", "terms")
    arity: int
    degree: int
    terms: Dict[Tuple[int, ...], PolyCoefficient]

    def __init__(
        self,
        arity: int,
        degree: int,
        terms: Optional[Dict[Tuple[int, ...], PolyCoefficient]] = None,
    ) -> None:
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", {} if terms is None else terms)
        if self.arity < 0 or self.degree < 0:
            raise InvalidInputError("arity and degree must be nonnegative")
        cleaned = {}
        for indices, poly in self.terms.items():
            indices = tuple(indices)
            if len(indices) != self.degree:
                raise InvalidInputError(
                    f"index tuple {indices} has wrong length for degree {self.degree}"
                )
            if any(indices[p] >= indices[p + 1] for p in range(len(indices) - 1)):
                raise InvalidInputError(f"index tuple {indices} is not increasing")
            for idx in indices:
                if idx != DX and not 0 <= idx < self.arity:
                    raise InvalidInputError(f"differential index {idx} out of range")
            if poly.arity != self.arity:
                raise InvalidInputError("coefficient arity does not match the form")
            if not poly.is_zero():
                cleaned[indices] = poly
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(arity: int, degree: int) -> "ExteriorForm":
        return ExteriorForm(arity, degree, {})

    @staticmethod
    def from_poly(poly: PolyCoefficient) -> "ExteriorForm":
        return ExteriorForm(poly.arity, 0, {(): poly})

    @staticmethod
    def term(arity: int, indices: Sequence[int], coefficient) -> "ExteriorForm":
        if isinstance(coefficient, PolyCoefficient):
            poly = coefficient
        else:
            poly = PolyCoefficient.const(arity, coefficient)
        return ExteriorForm(arity, len(tuple(indices)), {tuple(indices): poly})

    # -- linear structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> PolyCoefficient:
        return self.terms.get(tuple(indices), PolyCoefficient.zero(self.arity))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.arity != other.arity:
            raise DimensionMismatchError("adding forms of different arity")
        if self.degree != other.degree:
            raise DimensionMismatchError("adding forms of different degree")
        terms = dict(self.terms)
        for indices, poly in other.terms.items():
            if indices in terms:
                terms[indices] = terms[indices] + poly
            else:
                terms[indices] = poly
        return ExteriorForm(self.arity, self.degree, terms)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm(
            self.arity, self.degree, {i: -p for i, p in self.terms.items()}
        )

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def __mul__(self, scalar) -> "ExteriorForm":
        if isinstance(scalar, PolyCoefficient):
            return ExteriorForm(
                self.arity, self.degree, {i: p * scalar for i, p in self.terms.items()}
            )
        s = _as_fraction(scalar)
        return ExteriorForm(
            self.arity, self.degree, {i: p * s for i, p in self.terms.items()}
        )

    __rmul__ = __mul__

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.arity != other.arity:
            raise DimensionMismatchError("wedging forms of different arity")
        terms: Dict[Tuple[int, ...], PolyCoefficient] = {}
        for left, p in self.terms.items():
            for right, q in other.terms.items():
                if set(left) & set(right):
                    continue
                merged, sign = _merge_sign(left, right)
                contribution = p * q * sign
                if merged in terms:
                    terms[merged] = terms[merged] + contribution
                else:
                    terms[merged] = contribution
        return ExteriorForm(self.arity, self.degree + other.degree, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for indices in sorted(self.terms):
            wedge_part = "^".join("dx" if i == DX else f"dl{i}" for i in indices)
            coeff = str(self.terms[indices])
            if coeff == "1":
                pieces.append(wedge_part if wedge_part else "1")
            elif coeff == "-1":
                pieces.append("-" + wedge_part)
            elif "+" in coeff or "- " in coeff:
                pieces.append(f"({coeff})*{wedge_part}")
            else:
                pieces.append(f"{coeff}*{wedge_part}" if wedge_part else coeff)
        return " + ".join(pieces).replace("+ -", "- ")


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


def reduced_l(n: int, i: int) -> PolyCoefficient:
    """Barycentric coordinate l_i on the n-simplex in reduced variables.

    For i < n this is the variable itself; l_n is 1 minus the others.
    """
    if not 0 <= i <= n:
        raise InvalidInputError(f"coordinate l_{i} out of range on the {n}-simplex")
    if i < n:
        return PolyCoefficient.variable(n, i)
    result = PolyCoefficient.const(n, 1)
    for a in range(n):
        result = result - PolyCoefficient.variable(n, a)
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
    coordinate itself, so only the base variables differentiate."""
    terms: Dict[Tuple[int, ...], PolyCoefficient] = {}
    for indices, poly in f.terms.items():
        for v in range(f.arity):
            if v in indices:
                continue
            derivative = poly.partial(v)
            if derivative.is_zero():
                continue
            position = sum(1 for e in indices if e < v)
            sign = (-1) ** position
            key = tuple(sorted(indices + (v,)))
            contribution = derivative * sign
            if key in terms:
                terms[key] = terms[key] + contribution
            else:
                terms[key] = contribution
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
    var_polys: Sequence[PolyCoefficient],
    var_forms: Sequence[ExteriorForm],
    dx_form: Optional[ExteriorForm],
) -> ExteriorForm:
    """Pull back along the substitution l_v -> var_polys[v],
    dl_v -> var_forms[v], dx -> dx_form."""
    result = ExteriorForm.zero(new_arity, f.degree)
    for indices, poly in f.terms.items():
        piece = ExteriorForm.from_poly(poly.substitute(new_arity, var_polys))
        for idx in indices:
            if idx == DX:
                if dx_form is None:
                    raise InvalidInputError("form contains dx, no fiber image given")
                piece = piece.wedge(dx_form)
            else:
                piece = piece.wedge(var_forms[idx])
        if piece.is_zero():
            continue
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
    var_polys = []
    var_forms = []
    for i in range(n):
        # l_i -> a_{ik} + sum over j < k of (a_{ij} - a_{ik}) t_j
        poly = PolyCoefficient.const(k, m.entry(i, k))
        form = ExteriorForm.zero(k, 1)
        for j in range(k):
            slope = m.entry(i, j) - m.entry(i, k)
            if slope != 0:
                poly = poly + PolyCoefficient.variable(k, j) * slope
                form = form + ExteriorForm.term(k, (j,), slope)
        var_polys.append(poly)
        var_forms.append(form)
    return _substitute_form(f, k, var_polys, var_forms, fiber_differential(k))


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
    var_polys = [reduced_l(n, (a + i) % (n + 1)) for a in range(n)]
    var_forms = [reduced_dl(n, (a + i) % (n + 1)) for a in range(n)]
    dx_form = fiber_differential(n)
    for a in range(i):
        dx_form = dx_form - reduced_dl(n, a)
    return _substitute_form(f, n, var_polys, var_forms, dx_form)


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
