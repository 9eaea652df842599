"""Value classes: the part of ``dataclasses`` this package uses, at a fraction of its import cost.

``@record`` or ``@record(frozen=True)`` reads a class's annotated fields in order and gives it
``__init__``, ``__eq__``, ``__repr__`` and, when frozen, ``__hash__`` and guards that refuse
assignment and deletion; a non-frozen record is unhashable.  These behave as ``dataclasses``'
do: equal only to records of the same class with equal field tuples, the hash of the field
tuple, ``Name(field=value, ...)``.  ``field(default_factory=..., compare=False)`` is the one
field option: a value made fresh per instance, left out of ``==`` and ``hash`` when
``compare`` is false.  A method the class defines itself is kept, ``__post_init__`` runs at
the end of ``__init__``, and ``cached_property`` fills a frozen record's instance dict, as
``kept`` does for what a function builds once per object.  Inheritance, ordering, slots and
keyword-only fields are not supported.

Only ``__init__`` and a frozen record's ``__hash__`` are compiled per class, in one ``exec`` of
the source ``dataclasses`` compiles, so that building and hashing a record cost no more.
``__eq__`` and ``__repr__`` share one body over an ``attrgetter`` of the fields.  That makes
``==`` about 130 ns slower per record compared than a compiled one; the package calls it too
rarely for that to show, while compiling it too would add about 2 ms to the import.
"""

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default_factory", "compare")

    def __init__(self, default_factory, compare):
        self.default_factory, self.compare = default_factory, compare


def field(*, default_factory, compare=True):
    """A field made fresh per instance by ``default_factory``; ``compare=False`` leaves it out of ``==`` and ``hash``."""
    return _Field(default_factory, compare)


def kept(obj, name: str, build):
    """``build()``, built once per object and kept in its instance dict under ``name``, outside equality
    and hashing, as a ``cached_property`` is; a ``build`` that raises keeps nothing."""
    return vars(obj)[name] if name in vars(obj) else vars(obj).setdefault(name, build())


def _fields_key(names):
    # the field tuple of an instance, as dataclasses compares it
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return attrgetter(*names)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen=False):
    """``@record`` or ``@record(frozen=True)``: make ``cls`` a value class over its annotated fields."""
    if cls is None:
        return lambda cls: _make_record(cls, frozen)
    return _make_record(cls, frozen)


def _make_record(cls, frozen):
    names = tuple(cls.__annotations__)
    params, lines, compared = [], [], []
    env = {"_MISSING": _MISSING, "_setattr": object.__setattr__}
    for name in names:
        spec = cls.__dict__.get(name, _MISSING)
        value = name
        if isinstance(spec, _Field):
            delattr(cls, name)
            env[f"_factory_{name}"] = spec.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_factory_{name}() if {name} is _MISSING else {name}"
        elif spec is not _MISSING:
            env[f"_default_{name}"] = spec
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        if not isinstance(spec, _Field) or spec.compare:
            compared.append(name)
        lines.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if "__post_init__" in cls.__dict__:
        lines.append("self.__post_init__()")
    # one exec per class: __init__ closes over its defaults and factories, as dataclasses' does,
    # and a frozen record's __hash__ reads its fields as attributes, as fast as dataclasses' hash
    body = "".join(f"\n        {line}" for line in lines)
    source = f"def _make({', '.join(env)}):\n    def __init__(self, {', '.join(params)}):{body}\n"
    if frozen:
        key = "".join(f"self.{name}," for name in compared)
        source += f"    def __hash__(self):\n        return hash(({key}))\n    return __init__, __hash__"
    else:
        source += "    return __init__, None"
    scope = {}
    exec(source, {}, scope)
    init, hash_ = scope["_make"](**env)
    cls.__record_fields__ = names
    values, compared_values = _fields_key(names), _fields_key(compared)

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values(self)))})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared_values(self) == compared_values(other)
        return NotImplemented

    for method in (init, __repr__, __eq__, hash_):
        if method and method.__name__ not in cls.__dict__:  # a method the class defines is kept
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    else:
        cls.__hash__ = None
    return cls
