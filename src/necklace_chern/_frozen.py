"""Immutable value classes built without code generation.

The standard library's generated frozen classes ``exec`` every method when
their module is imported, and the generator pulls in `inspect` and `ast`;
in a fresh CLI process that costs more than the computation.  A subclass
of `Frozen` lists its fields in ``_fields`` and writes its own
``__init__``, which stores them with ``object.__setattr__`` and then checks
them.  Equality, hashing and ``repr`` read the fields in that order: two
values are equal when they are of one class and their field tuples are
equal, the hash is the field tuple's, and the repr is
``Name(field=value, ...)``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple

__all__ = ["Frozen"]


class Frozen:
    """Value semantics over the fields named in ``_fields``."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the field tuple, also for a single field
        cls._astuple = staticmethod(
            get if len(cls._fields) > 1 else lambda obj: (get(obj),)
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._astuple(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
