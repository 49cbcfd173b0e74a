"""Locally ordered simplicial complexes and validation reports.

The local order on every simplex is the increasing order of global vertex
labels, so simplices are stored as strictly increasing vertex tuples and
face operators become canonical monotone injections.  The simplex list is
kept in a canonical order, sorted by (dimension, vertex tuple); simplex ids
used in file formats are indices into that list.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse, groupby, islice
from operator import itemgetter, lt
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InvalidInputError

__all__ = [
    "LocallyOrderedComplex",
    "ValidationIssue",
    "ValidationReport",
    "simplex_face",
]

Simplex = Tuple[int, ...]


def simplex_face(simplex: Sequence[int], j: int) -> Simplex:
    """The j-th facet: the simplex with its j-th vertex deleted."""
    if not 0 <= j < len(simplex):
        raise InvalidInputError(f"face index {j} out of range for {tuple(simplex)}")
    return tuple(simplex[:j]) + tuple(simplex[j + 1 :])


def _facet_getters(d: int) -> Iterator[Callable[[Simplex], Simplex]]:
    """Pickers of facets 0..d of a d-simplex (d >= 1), made one at a time:
    the outer two slice, each inner one picks its d >= 2 other positions."""
    yield itemgetter(slice(1, None))
    for j in range(1, d):
        yield itemgetter(*range(j), *range(j + 1, d + 1))
    yield itemgetter(slice(d))


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
        n = self.vertex_count
        # False falls through to the message for counts below 1
        if not isinstance(n, int) or n is True:
            raise InvalidInputError(f"vertex count {n!r} is not an integer")
        if n <= 0:
            raise InvalidInputError("complex needs at least one vertex")
        try:
            simplices = tuple(map(tuple, self.simplices))
        except TypeError:
            raise InvalidInputError("simplices must be vertex sequences") from None
        object.__setattr__(self, "simplices", simplices)
        if not simplices:
            raise InvalidInputError("complex needs at least one simplex")
        seen = set()
        for s in simplices:
            if not s:
                raise InvalidInputError("empty simplex")
            for v in s:
                # the exact test runs only where the fast one fails
                if type(v) is not int and (
                    not isinstance(v, int) or isinstance(v, bool)
                ):
                    raise InvalidInputError(f"non-integer vertex in {s}")
            for i in range(len(s) - 1):
                if s[i] >= s[i + 1]:
                    raise InvalidInputError(f"simplex {s} is not strictly increasing")
            if s[0] < 0 or s[-1] >= n:
                raise InvalidInputError(f"simplex {s} has out-of-range vertices")
            if s in seen:
                raise InvalidInputError(f"duplicate simplex {s}")
            seen.add(s)
        runs = tuple(tuple(run) for _, run in groupby(simplices, len))
        # (len(s), s) rises: from run to run of one length, and within each run
        lengths = [len(run[0]) for run in runs]
        if not all(map(lt, lengths, lengths[1:])) or not all(
            all(map(lt, run, run[1:])) for run in runs
        ):
            raise InvalidInputError(
                "simplices are not in canonical (dimension, tuple) order"
            )
        # n distinct 0-simplices in range use every vertex
        if len(simplices[0]) != 1 or len(runs[0]) != n:
            used = set(chain.from_iterable(simplices))
            if len(used) != n:
                # name ten at most: a huge count must cost no more than its input
                missing = list(islice(filterfalse(used.__contains__, range(n)), 10))
                more = f" and {n - len(used) - 10} more" if len(used) < n - 10 else ""
                raise InvalidInputError(f"vertices {missing}{more} appear in no simplex")
        for run in runs:
            d = len(run[0]) - 1
            # stops at the first facet index some simplex of the run lacks
            if d and not all(seen.issuperset(map(f, run)) for f in _facet_getters(d)):
                s, j = next(
                    (s, j)
                    for s in run
                    for j in range(d + 1)
                    if s[:j] + s[j + 1 :] not in seen
                )
                raise InvalidInputError(
                    f"complex is not closed under faces: {s} lacks face {j}"
                )
        # read by simplices_of_dimension; closure leaves no dimension unlisted
        object.__setattr__(self, "_by_dimension", runs)

    @staticmethod
    def from_maximal(
        vertex_count: int, maximal: Iterable[Sequence[int]]
    ) -> "LocallyOrderedComplex":
        """Build the face closure of the given generating simplices, adding
        each dimension's facets to the layer below, from the top down."""
        layers = defaultdict(set)  # by vertex count; the empty simplex is dropped
        for s in map(tuple, maximal):
            layers[len(s)].add(s)
        top = max(layers, default=0)
        for k in range(top, 1, -1):
            for facet in _facet_getters(k - 1):
                layers[k - 1].update(map(facet, layers[k]))
        ordered = chain.from_iterable(sorted(layers[k]) for k in range(1, top + 1))
        return LocallyOrderedComplex(vertex_count, tuple(ordered))

    @cached_property
    def _index(self) -> Dict[Simplex, int]:
        return {s: i for i, s in enumerate(self.simplices)}

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
