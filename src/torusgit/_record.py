"""Frozen record classes, without ``dataclasses``.

``record`` gives a class with annotated fields what
``dataclasses.dataclass(frozen=True)`` gives it: ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and frozen ``__setattr__``/``__delattr__``.  The
methods are closures built once per class, so decorating compiles no code
and the package does not import ``dataclasses`` (nor, through it,
``inspect``); that import and the per-class compilation were most of the
start-up time of a CLI call.
"""

from __future__ import annotations

import operator


class FrozenRecordError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def record(cls: type) -> type:
    """Make ``cls`` a frozen record over its own annotated fields, in order.

    A class attribute named like a field is that field's default.
    ``__init__`` takes the fields positionally or by keyword and then calls
    ``self.__post_init__()``, looked up on every call, when the class has
    one; ``object.__setattr__`` stays available to it.  Methods the class
    defines itself are kept.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    has_post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__
    get = operator.attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def bind(args: tuple, kwargs: dict) -> tuple:
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        out = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                out.append(kwargs.pop(name))
            elif name in defaults:
                out.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        return tuple(out)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        # not self.__dict__.update: materializing __dict__ makes every later
        # attribute read of the instance about three times slower on CPython
        for name, value in zip(names, args):
            set_field(self, name, value)
        if has_post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
