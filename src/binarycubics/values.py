"""Value classes: instances compared, hashed and shown by their fields.

A subclass names its fields in _fields and sets them in its __init__.
Two values are equal when they are of one class with equal fields, so a
value never equals a tuple; repr shows the fields as keywords.  A Value
is mutable and unhashable; a Frozen one hashes by its fields and raises
AttributeError on assignment, so its __init__ writes into vars(self).
"""


class Value:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
