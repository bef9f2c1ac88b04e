"""Immutable records whose methods are written once, so that, unlike with
``dataclasses``, no source is generated and compiled per class at import.
A ``Record`` subclass declares its fields as annotations, in order; a class
attribute of the same name is the field's default, and a ``Factory``
default is called afresh for each instance.
"""

from operator import attrgetter

__all__ = ["Record", "Factory", "replace"]


class Factory:
    """A field default built by calling ``make()`` for each instance."""

    def __init__(self, make):
        self.make = make


class Record:
    """Fields by position or keyword, then ``__post_init__``, which sets
    derived values with ``object.__setattr__``; assignment raises
    ``AttributeError``.  Records compare and hash by their field values, or
    by identity where the class statement passes ``eq=False``."""

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        cls._key = staticmethod(attrgetter(*cls._fields))  # the values that eq and hash use
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        # object.__setattr__: touching self.__dict__ would slow every attribute load
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
                value = value.make() if isinstance(value, Factory) else value
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, built through its
    constructor, so ``__post_init__`` runs again."""
    return type(record)(**{**{n: getattr(record, n) for n in record._fields}, **changes})
