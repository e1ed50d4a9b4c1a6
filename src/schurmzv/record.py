"""Immutable value records: the package's frozen value and report types.

A subclass lists its fields as annotations in the class body, in order; a
class-level value is that field's default.  Instances behave like frozen
dataclasses: positional or keyword construction followed by
``__post_init__``, equality only between instances of the same class,
``hash`` of the field tuple, ``Name(field=value, ...)`` reprs, and
assignment or deletion raising ``AttributeError``.  The fields and each
``cached_property`` are the class's ``__slots__``; a cached property's
slot is filled on its first read.

Each value is checked once, where it enters: the class call checks and
normalises fields that come from outside, and :meth:`Record._make` builds,
without a check, a value derived from values already checked.  A class
made by :class:`Interned` keeps one instance per value: both return the
instance for the normalised fields from the class's LRU memo of
``MEMO_SIZE`` entries.  ``clear_caches`` finds the memo through the
class's ``cache_clear``, which its instances lack.

``dataclasses`` imports ``inspect`` and generates every method with
``exec``, which a command-line call would pay on each start.  This module
imports nothing from the package.
"""

from functools import cached_property, lru_cache
from operator import attrgetter

#: instances kept by the memo of each interned record class
MEMO_SIZE = 512

_set = object.__setattr__


class RecordType(type):
    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        derive = {k: v.func for k, v in ns.items() if isinstance(v, cached_property)}
        defaults = {f: ns[f] for f in fields if f in ns}
        ns = {k: v for k, v in ns.items() if k not in derive and k not in defaults}
        ns["__slots__"] = fields + tuple(derive)
        cls = super().__new__(mcs, name, bases, ns)
        cls._fields, cls._defaults, cls._derive = fields, defaults, derive
        if fields:
            get = attrgetter(*fields)
            # attrgetter of one name returns the bare value, not a 1-tuple
            cls._key = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        self = cls._build(*args)
        self.__post_init__()
        return self


class Interned(RecordType):
    """``_make`` is the class's memo; ``_kept(self)``, if defined, picks what it stores."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        kept = ns.get("_kept", lambda value: value)
        cls._make = lru_cache(maxsize=MEMO_SIZE)(lambda *fields: kept(cls._build(*fields)))

    def __call__(cls, *args, **kwargs):
        return cls._make(*cls._key(super().__call__(*args, **kwargs)))

    def __getattr__(cls, name: str):
        if name in ("cache_info", "cache_clear"):
            return getattr(cls._make, name)
        raise AttributeError(f"type object {cls.__name__!r} has no attribute {name!r}")


class Record(metaclass=RecordType):
    @classmethod
    def _make(cls, *fields) -> "Record":
        """The instance of valid, normalised fields, without ``__post_init__``."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            _set(self, name, value)
        return self

    _build = _make  # the new instance, also where _make is a memo

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

    def __getattr__(self, name: str):
        # reached only when the slot is empty
        if name not in self._derive:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self._derive[name](self)
        _set(self, name, value)
        return value

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._key(self)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
