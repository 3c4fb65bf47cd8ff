"""Plain records: the equality, hashing, printing, immutability and pickling
that hoplog's value classes share.

A record's fields are the names in its class's own ``__slots__`` that do
not begin with ``_``, in the order its ``__init__`` takes them; a slot whose
name begins with ``_`` holds a value derived from the fields, or a cache.
A class whose field is a property, built the first time it is read
(``built_when_read``), or whose public slots hold more than its fields,
names its fields in ``_fields`` itself.
``Record.__init__`` stores one positional argument per own slot, in
``__slots__`` order, so each field's place is stated once.  Only a class
that checks or defaults its arguments writes its own ``__init__``.  Defining
a record runs no generated code at import time.
"""

from __future__ import annotations

_set = object.__setattr__


def built_when_read(slot: str) -> property:
    """A field kept in ``slot`` either as its value or as a function that
    builds the value, called the first time the field is read."""

    def read(self):
        value = getattr(self, slot)
        if callable(value):
            value = value()
            _set(self, slot, value)
        return value

    return property(read)


class Record:
    """A mutable record: equal to a record of the same class with equal
    fields, and unhashable.

    Equality needs the same class, so records of two classes never compare
    equal, whatever their fields.  ``repr`` prints ``Name(field=value, ...)``.
    A record pickles as a call of its class on its fields, so loading one
    runs ``__init__`` again: its checks hold and its derived slots are filled.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(
                name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_")
            )

    def __init__(self, *values, **keywords) -> None:
        """Store one positional argument per own slot, in ``__slots__`` order."""
        slots = self.__slots__
        if keywords or len(values) != len(slots):
            raise TypeError(
                f"{type(self).__name__}() takes {len(slots)} positional arguments "
                f"({', '.join(self._fields)}): got {len(values)}, and {len(keywords)} by keyword"
            )
        for name, value in zip(slots, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable record, hashed by its fields.  An ``__init__`` sets
    each slot with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
