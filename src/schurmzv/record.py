"""Immutable value records: the package's frozen value and report types.

A subclass lists its fields as annotations in the class body, in order; a
class-level value is that field's default.  Instances behave like frozen
dataclasses: positional or keyword construction followed by
``__post_init__``, equality only between instances of the same class,
``hash`` of the field tuple, ``Name(field=value, ...)`` reprs, and
assignment or deletion raising ``AttributeError``.  Fields live in the
instance ``__dict__``, so ``functools.cached_property`` works (only
``OutsideDecomposition.pieces`` uses it; values derived from a shape or a
ribbon go in bounded per-value memos instead) and ``object.__setattr__``
may still set a field while an instance is built.

This module exists because ``dataclasses`` imports ``inspect`` and
generates every method with ``exec``, which a command-line call pays on
each start.  It imports nothing from the package.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        get = attrgetter(*fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call with keywords or defaults."""
        fields = cls._fields
        given = {**dict(zip(fields, args)), **kwargs}
        values = {**cls._defaults, **given}
        if (
            len(args) > len(fields)
            or len(given) < len(args) + len(kwargs)
            or values.keys() != set(fields)
        ):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
