"""Exception types and the enumeration bound shared across the library.

Every failure mode promised by the public API has a dedicated class so that
callers can catch precisely what they care about and the command line layer
can map exceptions onto stable exit codes (invalid input vs. failed check
vs. exhausted resource budget).
"""

from __future__ import annotations

__all__ = [
    "NecklaceChernError",
    "InvalidInputError",
    "ResourceBudgetError",
    "EvenAlphabetError",
    "OddSizeError",
    "ZeroColumnSumError",
    "DimensionMismatchError",
    "WrongAlphabetError",
    "MorphismMismatchError",
    "SectionNotFoundError",
    "InconsistentOrientationError",
    "NonOrientableError",
    "NotClosedError",
    "NonIntegralError",
]

# Cap on the work of a single enumeration: the proper subwords of one word,
# or the (row, column set) updates of one minor expansion.  Above the cap a
# ResourceBudgetError is raised instead of silently grinding.
SUBWORD_BUDGET = 10**6


class NecklaceChernError(Exception):
    """Base class for all library specific errors."""


class InvalidInputError(NecklaceChernError):
    """Structurally malformed input: bad letters, bad simplex data, bad file."""


class ResourceBudgetError(NecklaceChernError):
    """A configured enumeration or size bound was exceeded."""


class EvenAlphabetError(NecklaceChernError):
    """Necklace parity was requested over an even alphabet.

    Rational parity is invariant under cyclic rotation only when the
    alphabet size is odd, so there is no well defined parity of a necklace
    over an even alphabet.
    """


class OddSizeError(NecklaceChernError):
    """Pfaffian of an odd sized matrix does not exist."""


class ZeroColumnSumError(NecklaceChernError):
    """Matrix parity is undefined when a single-column minor sum vanishes."""


class DimensionMismatchError(NecklaceChernError):
    """Incompatible shapes (non-square determinant, wrong vector length...)."""


class WrongAlphabetError(NecklaceChernError):
    """Local Chern value of degree h needs a word over exactly 2h+1 letters."""


class MorphismMismatchError(NecklaceChernError):
    """Word morphisms were composed along incompatible words."""


class SectionNotFoundError(NecklaceChernError):
    """The named simplex is not a zero-section of the elementary bundle."""


class InconsistentOrientationError(NecklaceChernError):
    """No traversal direction of a section cycle matches the fiber orientation."""


class NonOrientableError(NecklaceChernError):
    """The surface admits no coherent signing of its triangles."""


class NotClosedError(NecklaceChernError):
    """Some edge of the surface does not lie in exactly two triangles."""


class NonIntegralError(NecklaceChernError):
    """A Chern number came out non-integral; the input data is inconsistent."""
