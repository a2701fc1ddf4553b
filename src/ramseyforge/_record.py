"""Frozen records: the immutable certificate and result types.

``frozen`` makes a class whose fields are declared by annotations behave
like ``dataclasses.dataclass(frozen=True)``: the same constructor, equality,
hash and repr, and ``dataclasses.FrozenInstanceError`` on assignment or
deletion.  Where ``dataclass`` generates and compiles six methods for each
class, and its import pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, ``frozen`` compiles only ``__init__``: equality, hash, repr
and the frozen setters are closures over the field names, so importing the
library stays cheap.

The fields are the class's own annotations, in order; a class attribute of
the same name is the field's default.  Records do not inherit fields, and
there is no ``field()``, ``ClassVar`` or ``InitVar``.  A dunder the class
defines itself is kept.
"""

from operator import attrgetter


def _frozen_error(message):
    from dataclasses import FrozenInstanceError  # only when one is raised

    return FrozenInstanceError(message)


def _setattr(self, name, value):
    raise _frozen_error(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise _frozen_error(f"cannot delete field {name!r}")


def _field_values(names):
    """The tuple of a record's field values, as ``dataclass`` compares and
    hashes it."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return attrgetter(*names)


def _compiled_init(cls, names, defaults):
    """``__init__`` as ``dataclass`` writes it: Python binds the named
    parameters, so a missing, extra or repeated argument raises its usual
    ``TypeError``, then one store per field and ``__post_init__``.

    It is the one method compiled per record: a generic
    ``__init__(self, *args, **kwargs)`` that bound the arguments in Python
    made each construction a few microseconds slower inside a task, enough
    to lift the median task time of the completion benchmark by about 5 %.
    """
    params = ", ".join(f"{n}=__defaults[{n!r}]" if n in defaults else n for n in names)
    body = "".join(f"    __set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace = {"__name__": __name__, "__set": object.__setattr__, "__defaults": defaults}
    exec(f"def __init__(self, {params}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def frozen(cls):
    """Class decorator: make ``cls`` a frozen record over its annotated
    fields (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    slots = cls.__dict__.get("__slots__", ())
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__ and n not in slots}
    values = _field_values(names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    if "__init__" not in cls.__dict__:
        cls.__init__ = _compiled_init(cls, names, defaults)
    methods = {
        "__eq__": __eq__,
        "__repr__": __repr__,
        "__setattr__": _setattr,
        "__delattr__": _delattr,
        "__match_args__": names,
    }
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    # A class that defines __eq__ alone has __hash__ set to None by Python;
    # like dataclass, fill that in from the fields.
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = __hash__
    return cls
