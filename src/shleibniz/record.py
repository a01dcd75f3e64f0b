"""Immutable value types, written without dataclass code generation.

A dataclass execs generated source for its methods while its module is
imported; these bases define the methods once.  Immutable refuses
assignment and deletion, so ``__init__`` validates and then sets the slots
through ``_assign``.  Record compares, hashes, shows and copies an instance
by its public slots, those not starting with ``_``, as a frozen dataclass
does; a ``_`` slot holds something derived from them.
"""

from __future__ import annotations

from operator import attrgetter


class Immutable:
    """No attribute can be assigned or deleted once the instance is built."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # every slot, a base class's first, and the setter of its descriptor,
        # which is faster than object.__setattr__ and looks up no name
        cls._slots = tuple(n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ()))
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._slots])

    def _assign(self, *values: object) -> None:
        """Set the slots, in their order, to values."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Immutable):
    """Immutable value whose fields are its public slots.

    A subclass lists its fields, then its ``_`` slots, in ``__slots__``, and
    its ``__init__`` takes the fields in that order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls._slots if not name.startswith("_"))
        cls._get = attrgetter(*cls._fields)  # not a descriptor: self._get is the getter

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __ne__(self, other: object) -> bool:
        if self is other:
            return False
        if type(other) is not type(self):
            return NotImplemented
        get = self._get
        return get(self) != get(other)

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._fields])
