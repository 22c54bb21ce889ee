"""The base of the package's immutable value classes."""


class Value:
    """An immutable record with field-wise ``repr``, ``==`` and ``hash``,
    whose copies and pickles are rebuilt through its constructor.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``_set`` or the slots' ``__set__``, or builds its
    instances in ``__new__`` (``LCFN`` fills a subclass whose stores are
    plain, then switches the class).  A subclass that lists no fields
    keeps its parent's ``_fields`` and ``_key``.  Fields whose
    names start with ``_`` are caches, kept out of ``repr``, ``==`` and
    ``hash``; the others, in order, are the constructor's arguments.  A
    subclass may define ``_key``, the tuple that ``==`` and ``hash``
    compare, to leave more fields out.  Setting or deleting an attribute
    raises ``FrozenInstanceError``, whose module loads only then."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = "".join(f"self.{name}, " for name in cls.__slots__
                         if name[0] != "_")
        if not fields:  # no fields of its own: the parent's stay
            return
        # a generated tuple display reads the fields fastest
        cls._fields = eval(f"lambda self: ({fields})")
        if "_key" not in cls.__dict__:
            cls._key = cls._fields

    def _set(self, *values):
        """Store ``values`` in the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._fields()


def _frozen(message: str):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(message)
