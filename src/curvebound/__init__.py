"""Exact toolkit for automorphism-group bounds of ordinary even-genus curves."""

__version__ = "0.1.0"


class Record:
    """Immutable value over the fields a subclass names in ``__slots__``.

    A subclass writes its ``__init__`` and stores each field with
    ``object.__setattr__``; equality, hashing and ``repr`` follow the
    fields in slot order, as for a frozen dataclass.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
