"""Immutable record classes, without the cost of importing dataclasses.

A record lists its fields in ``__slots__`` and assigns them in its own
``__init__`` through ``_set`` (object.__setattr__), so construction costs
one call per field.  Equality, hashing and the repr follow the field order,
as for a frozen dataclass; assigning or deleting a field afterwards raises
AttributeError.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """Base of the package's immutable records; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every record has at least two fields, so this returns a tuple
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # positional constructor arguments follow the field order
        return type(self), self._fields(self)
