"""Duality and factorization in the cyclic extension of the simplex category.

The boundary half of the cyclic category is generated by monotone
injections (face operators) and cyclic rotations tau_n with tau_n(i) =
(i-1) mod (n+1).  Every composite of a rotation with a face operator
factors uniquely the other way around: rotating after a face equals a face
after a rotation, with the rotation amount given by the dual degeneracy.
This module implements that duality formula, the factorization, and the
induced composition of cyclic word morphisms.
"""

from __future__ import annotations

from typing import Tuple

from ._frozen import Frozen
from .errors import InvalidInputError, MorphismMismatchError
from .words_necklaces import (
    FaceOperator,
    WordMorphism,
    compose_faces,
)

__all__ = [
    "DegeneracyMap",
    "CyclicMorphismDecomposition",
    "dual_degeneracy",
    "elementary_degeneracy",
    "factorize_shift",
    "decompose_cyclic_injection",
    "compose_word_morphisms",
]


class DegeneracyMap(Frozen):
    """A surjection [m] -> [k] that is monotone up to a cyclic rotation.

    Stored as an explicit value table.  The constructor checks surjectivity
    and that some rotation of the table is non-decreasing, which is exactly
    the condition for the map to lie in the degeneracy half of the cyclic
    category.
    """

    __slots__ = _fields = ("values", "codomain_size")
    values: Tuple[int, ...]
    codomain_size: int

    def __init__(self, values: Tuple[int, ...], codomain_size: int) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "codomain_size", codomain_size)
        if not self.values:
            raise InvalidInputError("degeneracy map needs a nonempty value table")
        if set(self.values) != set(range(self.codomain_size)):
            raise InvalidInputError(
                f"values {self.values} are not onto 0..{self.codomain_size - 1}"
            )
        m1 = len(self.values)
        for start in range(m1):
            rotated = self.values[start:] + self.values[:start]
            if all(rotated[i] <= rotated[i + 1] for i in range(m1 - 1)):
                break
        else:
            raise InvalidInputError(
                f"no rotation of {self.values} is monotone; not a cyclic degeneracy"
            )

    @property
    def domain_size(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i]


class CyclicMorphismDecomposition(Frozen):
    """A set map presented as a cyclic rotation followed by a monotone face.

    The composite ``face(tau^shift(x)) = face((x - shift) mod domain)``
    reproduces the original map; the pair is the unique such factorization.
    Iterating yields ``(face, shift)`` so results unpack like a tuple.
    """

    __slots__ = _fields = ("face", "shift")
    face: FaceOperator
    shift: int

    def __init__(self, face: FaceOperator, shift: int) -> None:
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "shift", shift)

    def __iter__(self):
        yield self.face
        yield self.shift

    def apply(self, x: int) -> int:
        m1 = self.face.domain_size
        return self.face((x - self.shift) % m1)


def dual_degeneracy(d: FaceOperator) -> DegeneracyMap:
    """The dual surjection of a monotone injection.

    For d: [k] -> [m] the dual [m] -> [k] sends i to 0 when every d(j) is
    below i, and otherwise to the least j with d(j) >= i.  Elementary faces
    dualize to elementary degeneracies.
    """
    m = d.codomain_size - 1
    values = []
    for i in range(m + 1):
        for j, v in enumerate(d.image):
            if v >= i:
                values.append(j)
                break
        else:
            values.append(0)
    return DegeneracyMap(tuple(values), d.domain_size)


def elementary_degeneracy(i: int, k: int) -> DegeneracyMap:
    """s_i: [k+1] -> [k], repeating the value i."""
    if not 0 <= i <= k:
        raise InvalidInputError(f"no degeneracy s_{i} on [{k}]")
    values = tuple(x if x <= i else x - 1 for x in range(k + 2))
    return DegeneracyMap(values, k + 1)


def factorize_shift(d: FaceOperator, i: int) -> CyclicMorphismDecomposition:
    """Commute a codomain rotation past a monotone injection.

    For d: [k] -> [m] and a rotation amount 0 <= i <= m, returns the unique
    pair (face, shift) with ``tau_m^i(d(x)) == face((x - shift) mod (k+1))``
    for every x; the shift is the dual degeneracy evaluated at i.
    """
    k1 = d.domain_size
    m1 = d.codomain_size
    if not 0 <= i < m1 + 1:
        raise InvalidInputError(f"rotation amount {i} out of range 0..{m1}")
    i %= m1
    shift = dual_degeneracy(d)(i) if i else 0
    image = tuple((d.image[(x + shift) % k1] - i) % m1 for x in range(k1))
    face = FaceOperator(image, m1)
    # The factorization is unique; the closed formula above is asserted
    # against the defining relation.
    assert all(
        (d.image[x] - i) % m1 == face((x - shift) % k1) for x in range(k1)
    ), "factorization does not reproduce the rotated face"
    return CyclicMorphismDecomposition(face, shift)


def decompose_cyclic_injection(
    values: Tuple[int, ...], codomain_size: int
) -> CyclicMorphismDecomposition:
    """Factor an injection [n] -> [N] as a rotation followed by a face.

    The injection must be cyclically monotone (one full monotone sweep of
    its image, starting anywhere); the factorization is then unique.
    """
    n1 = len(values)
    if len(set(values)) != n1:
        raise InvalidInputError(f"{values} is not injective")
    image = tuple(sorted(values))
    face = FaceOperator(image, codomain_size)
    rank = {v: idx for idx, v in enumerate(image)}
    shift = -rank[values[0]] % n1
    candidate = CyclicMorphismDecomposition(face, shift)
    for x in range(n1):
        if candidate.apply(x) != values[x]:
            raise InvalidInputError(
                f"{values} is not a rotation followed by a monotone injection"
            )
    return candidate


def compose_word_morphisms(outer: WordMorphism, inner: WordMorphism) -> WordMorphism:
    """Compose cyclic word morphisms (inner first, then outer).

    The result is presented in the canonical rotate-then-include form,
    obtained by pushing the outer rotation through the inner face with
    :func:`factorize_shift`; shifts add after that commutation.
    """
    if inner.codomain_word != outer.domain_word:
        raise MorphismMismatchError(
            "inner morphism ends at a different word than the outer one starts from"
        )
    n_a = inner.domain_word.length
    commuted = factorize_shift(inner.induced_domain_face, outer.shift)
    shift = (inner.shift + commuted.shift) % n_a
    position_face = compose_faces(outer.induced_domain_face, commuted.face)
    alphabet_face = compose_faces(outer.alphabet_face, inner.alphabet_face)
    return WordMorphism(
        shift=shift,
        alphabet_face=alphabet_face,
        induced_domain_face=position_face,
        domain_word=inner.domain_word,
        codomain_word=outer.codomain_word,
    )
