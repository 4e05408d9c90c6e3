"""Frozen records: the immutable value types of the engine.

A record class names its fields in `__slots__` and may override
`_validate`.  Construction takes the fields by position or keyword and
runs `_validate` every time; assignment raises; `==` and `hash` follow
the tuple of fields and require the same type; `repr` is
`Name(field=value, ...)`.  This is the part of a frozen dataclass the
engine uses, without importing `dataclasses` at start-up.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        try:
            values = args + tuple([kwargs.pop(name)
                                   for name in names[len(args):]])
        except KeyError as missing:
            raise TypeError("%s() missing field %s"
                            % (type(self).__name__, missing)) from None
        if kwargs or len(values) != len(names):
            raise TypeError("%s() takes exactly the fields %s"
                            % (type(self).__name__, ", ".join(names)))
        for name, value in zip(names, values):
            _set(self, name, value)
        self._validate()

    def _validate(self):
        """Raise if the fields do not form a valid record."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))
