"""Exception types shared across the package, and `Record`, the base of its
immutable values."""


class InputError(ValueError):
    """Malformed or schema-violating input document."""


class DimensionError(ValueError):
    """Operand shapes, variable counts, or point counts do not match."""


class Record:
    """An immutable value.  A subclass's `__slots__` are its fields, then any
    slot that its `_check` derives; `_fields` names the fields.  `__init__`
    sets the fields from positional values and runs `_check`, which validates
    them.  Equality, hash and repr read the fields only, and a copy or an
    unpickled record is built from them by `__init__`, checked again."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self._check()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called without a value

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
