"""``records.record`` against ``dataclasses.dataclass``, on the features the package's value classes use."""

import ast
import dataclasses
import importlib
import itertools
from functools import cached_property
from pathlib import Path

import pytest

from twistcech import records
from twistcech.fixtures import GAMMA_NERVES, GROUPS, NERVES, named_action

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistcech"


def _bodies(field):
    """Fresh class bodies, one per shape the package uses; ``field`` is records.field or dataclasses.field."""

    class Point:  # frozen, with a default, a factory field outside == and hash, and a cached property
        x: int
        y: tuple
        tag: str = "p"
        memo: dict = field(compare=False, default_factory=dict)

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must not be negative")

        @cached_property
        def norm(self):
            return self.x + len(self.y)

    class Bag:  # not frozen, with a fresh list per instance
        name: str
        items: list = field(default_factory=list)

    class Single:  # frozen, one field: its key is still a 1-tuple
        values: tuple

    class Named:  # frozen, with its own __repr__
        order: int
        label: str = None

        def __repr__(self):
            return f"Named({self.label or ''} order={self.order})"

    return {"Point": (Point, True), "Bag": (Bag, False), "Single": (Single, True), "Named": (Named, True)}


def _pair(name):
    """The body ``name`` as a record and as a dataclass."""
    ours, frozen = _bodies(records.field)[name]
    theirs, _ = _bodies(dataclasses.field)[name]
    return records.record(frozen=frozen)(ours), dataclasses.dataclass(frozen=frozen)(theirs)


FROZEN = {name: frozen for name, (_, frozen) in _bodies(dataclasses.field).items()}


ARGS = {
    "Point": [((1, (2, 3)), {}), ((0, ()), {"tag": "q"}), ((), {"x": 1, "y": (2, 3), "memo": {"k": 1}})],
    "Bag": [(("a",), {}), (("a", [1]), {}), ((), {"name": "b", "items": [2]})],
    "Single": [(((1, 2),), {}), ((), {"values": ()})],
    "Named": [((8,), {}), ((8, "Q8"), {}), ((), {"order": 2, "label": "C2"})],
}
BAD_ARGS = {
    "Point": [((), {}), ((1,), {}), ((1, (), "t", {}, 5), {}), ((1, ()), {"z": 1}), ((1, ()), {"x": 2})],
    "Bag": [((), {}), (("a", [], 3), {}), (("a",), {"size": 1})],
    "Single": [((), {}), ((1, 2), {})],
    "Named": [((), {}), ((1, "a", 3), {}), ((1,), {"lable": "a"})],
}


def _outcome(fn):
    """The result, or the built-in kind and text of the error (FrozenInstanceError is an AttributeError)."""
    try:
        return "ok", fn()
    except (TypeError, AttributeError, ValueError) as exc:
        return next(k for k in type(exc).__mro__ if k.__module__ == "builtins").__name__, str(exc)


@pytest.mark.parametrize("name", ARGS)
def test_record_builds_compares_hashes_and_prints_as_dataclass_does(name):
    ours, theirs = _pair(name)
    # a default stays a class attribute, a factory field leaves none
    assert {f: getattr(ours, f, "-") for f in ours.__record_fields__} == {
        f.name: getattr(theirs, f.name, "-") for f in dataclasses.fields(theirs)
    }
    built = []
    for args, kwargs in ARGS[name]:
        a, b = ours(*args, **kwargs), theirs(*args, **kwargs)
        assert [getattr(a, f) for f in ours.__record_fields__] == [getattr(b, f.name) for f in dataclasses.fields(b)]
        assert repr(a) == repr(b)
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b))
        built.append((a, b))
    for (a1, b1), (a2, b2) in itertools.product(built, repeat=2):
        assert (a1 == a2, a1 != a2) == (b1 == b2, b1 != b2)
    for a, b in built:
        # a value of another class, even a dataclass with the same fields, is never equal
        for other in (b, None, tuple(vars(a).values()), object()):
            assert (a == other, a != other) == (False, True)
        for other in (a, None, tuple(vars(b).values()), object()):
            assert (b == other, b != other) == (False, True)
    for args, kwargs in BAD_ARGS[name]:
        assert _outcome(lambda: ours(*args, **kwargs)) == _outcome(lambda: theirs(*args, **kwargs))
        assert _outcome(lambda: ours(*args, **kwargs))[0] == "TypeError"
    a, b = built[0]
    for field in ours.__record_fields__:
        value = getattr(a, field)
        assert _outcome(lambda: setattr(a, field, value)) == _outcome(lambda: setattr(b, field, value))
        assert _outcome(lambda: delattr(a, field)) == _outcome(lambda: delattr(b, field))
        if FROZEN[name]:
            assert _outcome(lambda: setattr(a, field, value)) == ("AttributeError", f"cannot assign to field {field!r}")
            assert _outcome(lambda: delattr(a, field)) == ("AttributeError", f"cannot delete field {field!r}")


def test_record_factory_gives_each_instance_its_own_object():
    for name, field in (("Point", "memo"), ("Bag", "items")):
        for cls in _pair(name):
            args = (1, ()) if name == "Point" else ("a",)
            first, second = cls(*args), cls(*args)
            assert getattr(first, field) == getattr(second, field) and getattr(first, field) is not getattr(second, field)
    with pytest.raises(TypeError, match="default_factory"):  # the factory is the one way to give field() a value
        records.field(compare=False)


def test_record_factory_field_is_left_out_of_equality_and_hash():
    for cls in _pair("Point"):
        a, b = cls(1, (2,), memo={"a": 1}), cls(1, (2,), memo={"b": 2})
        assert a == b and hash(a) == hash(b) == hash((1, (2,), "p"))


def test_record_post_init_and_cached_property_on_a_frozen_record():
    for cls in _pair("Point"):
        with pytest.raises(ValueError, match="must not be negative"):
            cls(-1, ())
        point = cls(1, (2, 3))
        assert point.norm == 3 and vars(point)["norm"] == 3
    ours, _ = _pair("Named")
    assert repr(ours(8, "Q8")) == "Named(Q8 order=8)"


def test_non_frozen_record_takes_assignment_and_is_unhashable():
    for cls in _pair("Bag"):
        bag = cls("a")
        bag.items = [1]
        assert bag == cls("a", [1]) and cls.__hash__ is None


def test_every_decorated_class_in_the_package_is_a_record():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"twistcech.{path.stem}")
        decorated = {
            node.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) and any("record" in ast.unparse(dec) for dec in node.decorator_list)
        }
        made = {
            name
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__ and "__record_fields__" in vars(value)
        }
        assert made == decorated, path.stem


@pytest.mark.parametrize(
    "values",
    [
        list(GROUPS.values()),
        [named_action(a, GROUPS["C2"], GROUPS[g]) for a in ("trivial", "inversion") for g in ("C4", "C2xC2")],
        list(NERVES.values()),
        list(GAMMA_NERVES.values()),
    ],
    ids=["FiniteGroup", "GammaAction", "Nerve", "GammaNerve"],
)
def test_builtin_records_hash_as_their_field_tuple(values):
    # the hash dataclasses gave these, so set and dict order, and with it every report, stays as it was
    for value in values:
        assert hash(value) == hash(tuple(getattr(value, f) for f in type(value).__record_fields__))
