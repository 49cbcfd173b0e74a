"""Locally ordered simplicial complexes and validation reports.

The local order on every simplex is the increasing order of global vertex
labels, so simplices are stored as strictly increasing vertex tuples and
face operators become canonical monotone injections.  The simplex list is
kept in a canonical order, sorted by (dimension, vertex tuple); simplex ids
used in file formats are indices into that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidInputError

__all__ = [
    "LocallyOrderedComplex",
    "ValidationIssue",
    "ValidationReport",
    "simplex_face",
    "canonical_simplex_order",
]

Simplex = Tuple[int, ...]


def simplex_face(simplex: Sequence[int], j: int) -> Simplex:
    """The j-th facet: the simplex with its j-th vertex deleted."""
    if not 0 <= j < len(simplex):
        raise InvalidInputError(f"face index {j} out of range for {tuple(simplex)}")
    return tuple(simplex[:j]) + tuple(simplex[j + 1 :])


def canonical_simplex_order(simplices: Iterable[Sequence[int]]) -> Tuple[Simplex, ...]:
    """Sort simplices by (dimension, vertex tuple)."""
    return tuple(sorted((tuple(s) for s in simplices), key=lambda s: (len(s), s)))


@dataclass(frozen=True)
class LocallyOrderedComplex:
    """A finite simplicial complex with the increasing-label local order.

    ``simplices`` must be closed under faces, duplicate-free, and listed in
    canonical order; use `from_maximal` to build the closure from generating
    simplices.
    """

    vertex_count: int
    simplices: Tuple[Simplex, ...]

    def __post_init__(self) -> None:
        if self.vertex_count <= 0:
            raise InvalidInputError("complex needs at least one vertex")
        object.__setattr__(
            self, "simplices", tuple(tuple(s) for s in self.simplices)
        )
        if not self.simplices:
            raise InvalidInputError("complex needs at least one simplex")
        seen = set()
        touched = set()
        for s in self.simplices:
            if not s:
                raise InvalidInputError("empty simplex")
            if any(not isinstance(v, int) or isinstance(v, bool) for v in s):
                raise InvalidInputError(f"non-integer vertex in {s}")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise InvalidInputError(f"simplex {s} is not strictly increasing")
            if s[0] < 0 or s[-1] >= self.vertex_count:
                raise InvalidInputError(f"simplex {s} has out-of-range vertices")
            if s in seen:
                raise InvalidInputError(f"duplicate simplex {s}")
            seen.add(s)
            touched.update(s)
        if self.simplices != canonical_simplex_order(self.simplices):
            raise InvalidInputError(
                "simplices are not in canonical (dimension, tuple) order"
            )
        if touched != set(range(self.vertex_count)):
            missing = sorted(set(range(self.vertex_count)) - touched)
            raise InvalidInputError(f"vertices {missing} appear in no simplex")
        for s in self.simplices:
            if len(s) == 1:
                continue
            for j in range(len(s)):
                if simplex_face(s, j) not in seen:
                    raise InvalidInputError(
                        f"complex is not closed under faces: {s} lacks face {j}"
                    )

    @staticmethod
    def from_maximal(
        vertex_count: int, maximal: Iterable[Sequence[int]]
    ) -> "LocallyOrderedComplex":
        """Build the face closure of the given generating simplices."""
        closure = set()
        stack: List[Simplex] = [tuple(s) for s in maximal]
        while stack:
            s = stack.pop()
            if s in closure or not s:
                continue
            closure.add(s)
            if len(s) > 1:
                stack.extend(simplex_face(s, j) for j in range(len(s)))
        return LocallyOrderedComplex(vertex_count, canonical_simplex_order(closure))

    @cached_property
    def _index(self) -> Dict[Simplex, int]:
        return {s: i for i, s in enumerate(self.simplices)}

    @cached_property
    def _by_dimension(self) -> Tuple[Tuple[Simplex, ...], ...]:
        """The canonical order cut once into its runs of equal dimension;
        closure under faces leaves no dimension empty below the top."""
        runs: List[List[Simplex]] = [[] for _ in range(self.dimension + 1)]
        for s in self.simplices:
            runs[len(s) - 1].append(s)
        return tuple(tuple(run) for run in runs)

    @property
    def dimension(self) -> int:
        return len(self.simplices[-1]) - 1

    def simplices_of_dimension(self, d: int) -> Tuple[Simplex, ...]:
        return self._by_dimension[d] if 0 <= d <= self.dimension else ()

    def position_in_dimension(self, s: Sequence[int], d: int) -> int:
        """The index of s in simplices_of_dimension(d)."""
        s = tuple(s)
        if len(s) != d + 1 or s not in self._index:
            raise InvalidInputError(f"{s} is not a {d}-simplex of the complex")
        return self._index[s] - self._index[self._by_dimension[d][0]]

    def maximal_simplices(self) -> Tuple[Simplex, ...]:
        """The simplices that are a facet of no other simplex, in canonical
        order; closure under faces makes them the maximal ones."""
        facets = {
            simplex_face(s, j)
            for s in self.simplices
            if len(s) > 1
            for j in range(len(s))
        }
        return tuple(s for s in self.simplices if s not in facets)

    def has_simplex(self, s: Sequence[int]) -> bool:
        return tuple(s) in self._index

    def simplex_id(self, s: Sequence[int]) -> int:
        try:
            return self._index[tuple(s)]
        except KeyError:
            raise InvalidInputError(f"{tuple(s)} is not a simplex of the complex")


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant, with the offending simplex when there is one."""

    code: str
    detail: str
    simplex: Optional[Simplex] = None

    def __str__(self) -> str:
        where = f" at {self.simplex}" if self.simplex is not None else ""
        return f"[{self.code}]{where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    issues: Tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(issue) for issue in self.issues)
