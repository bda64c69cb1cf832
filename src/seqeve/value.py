"""Immutable value objects: one base for the package's records.

A value class lists its fields in ``__slots__`` and sets each of them in
its own ``__init__`` with ``object.__setattr__``, then calls its
``__post_init__``, if it has one, to check or normalize them.  The base
gives what ``dataclass(frozen=True)`` gives: no attribute can be set or
deleted, and ``==``, ``hash``, ``repr`` and pickling go by the tuple of
fields.  Nothing is generated when a value class is defined, so importing
the package compiles no code beyond its own modules.
"""

from __future__ import annotations


class Value:
    """Base of the immutable records; a subclass's ``__slots__`` are its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()
