"""Shared exception types, and the base class of the package's records."""

from operator import attrgetter


class Record:
    """An immutable value with named fields, listed in order by each
    subclass as ``_fields``: equal to another of its class with equal
    fields, hashed and shown by them.  Each subclass writes its own
    ``__init__``, which checks its arguments and stores them in the
    instance ``__dict__``; attribute assignment is refused after that
    (``cached_property`` still writes to ``__dict__``)."""

    _fields = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class DiagramTypeError(ValueError):
    """A diagram slice does not match its input boundary."""

    def __init__(self, message, slice_index=None, expected=None, actual=None):
        if slice_index is not None:
            message = (
                f"{message} (slice {slice_index}: expected {''.join(expected) or 'empty'},"
                f" got {''.join(actual) or 'empty'})"
            )
        super().__init__(message)
        self.slice_index = slice_index
        self.expected = expected
        self.actual = actual


class ParseError(ValueError):
    """Malformed textual input, with a 1-based source position."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class CapacityError(RuntimeError):
    """An enumeration or evaluation exceeds its configured cap."""
