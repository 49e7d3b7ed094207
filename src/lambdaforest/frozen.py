"""The base of the library's immutable records, which declare their fields as __slots__."""


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):  # _fields: the slots of the class and its bases, base first
        cls._fields = tuple(f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ()))

    def __init__(self, *values):  # one value per field, in order
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):  # equal only to exactly its class with equal fields; hashed as their tuple
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self._fields]))
