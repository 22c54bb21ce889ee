"""The base of the package's immutable value classes."""


class Value:
    """An immutable record with field-wise ``repr``, ``==`` and ``hash``,
    whose copies and pickles are rebuilt through its constructor.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``_set``, or builds its instances in ``__new__``
    (``LCFN`` fills a subclass whose stores are plain, then switches the
    class).  Fields whose names start with ``_`` are caches, kept out of
    ``repr``, ``==`` and ``hash``; the others, in order, are ``_names``,
    the constructor's arguments.  A subclass that lists no public fields
    keeps its parent's ``_names`` and ``_set``.  ``==`` and ``hash``
    compare ``_key()``, the tuple of the fields; a subclass may define
    ``_key`` to leave fields out.  Setting or deleting an attribute raises
    ``FrozenInstanceError``, whose module loads only then."""

    __slots__ = ()
    _names = _stores = ()

    def __init_subclass__(cls):
        names = tuple(name for name in cls.__slots__ if name[0] != "_")
        if names:  # else the parent's names and stores stay
            cls._names = names
            cls._stores = tuple(cls.__dict__[name].__set__
                                for name in cls.__slots__
                                if name != "__weakref__")

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self._names))

    _key = _fields

    def _set(self, *values):
        """Store ``values`` through ``_stores``, in ``__slots__`` order."""
        for store, value in zip(self._stores, values):
            store(self, value)

    def __setattr__(self, name, value):
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _frozen(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
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
