"""Immutable value objects: one base for the package's records.

A value class lists its fields in ``__slots__``, in constructor order, and
may name defaults for trailing fields in ``_defaults``, a dict from field
name to value.  The one constructor, ``Value.__init__``, binds its
arguments to the fields and then calls ``__post_init__``, which checks or
normalizes them and does nothing unless a class overrides it; a
normalization writes its field with ``object.__setattr__``.  A call with
every field given positionally binds them in one loop; keywords and
omitted trailing fields go through ``_bind``, which raises TypeError, as a
generated ``__init__`` would, on too many fields, an unknown or repeated
field, or a missing one.  The base gives what ``dataclass(frozen=True)``
gives: no attribute can be set or deleted, and ``==``, ``hash``, ``repr``
and pickling go by the tuple of fields.  Nothing is generated when a value
class is defined, so importing the package compiles no code beyond its own
modules.
"""

from __future__ import annotations

_set_field = object.__setattr__


class Value:
    """Base of the immutable records; a subclass's ``__slots__`` are its fields."""

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The value of each field from positional, keyword and default values.

        ``kwargs`` is the call's own dict, so its bound fields are popped.
        """
        names, cls = self.__slots__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(
                f"{cls}() takes {len(names)} fields but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{cls}() missing field {name!r}")
        for name in kwargs:
            reason = "multiple values for" if name in names else "an unexpected"
            raise TypeError(f"{cls}() got {reason} field {name!r}")
        return values

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
