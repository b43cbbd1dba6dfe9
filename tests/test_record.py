"""The exec-free record decorator against ``dataclasses.dataclass(frozen=True)``."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgit._record import FrozenRecordError, record
from torusgit.torus import SignedSquare


def _classes(deco):
    """One class per field shape, built the same way for either decorator, so
    that both get the same ``__qualname__`` and hence the same ``repr``."""

    @deco
    class Point:
        x: int
        label: str
        tags: tuple = ()

    @deco
    class Single:
        orders: tuple

    return Point, Single


Point, Single = _classes(record)
TwinPoint, TwinSingle = _classes(dataclasses.dataclass(frozen=True))

ints = st.integers(-3, 3)
labels = st.sampled_from(["", "a", "b"])
tags = st.tuples(ints) | st.tuples(ints, ints)
point_args = st.tuples(ints, labels, tags)


@settings(max_examples=200, deadline=None)
@given(point_args, point_args, st.tuples(ints, ints))
def test_agrees_with_dataclass_twin(a, b, orders):
    pairs = [(Point(*a), TwinPoint(*a), Point(*b), TwinPoint(*b)),
             (Point(a[0], a[1]), TwinPoint(a[0], a[1]), Point(x=b[0], label=b[1], tags=b[2]),
              TwinPoint(x=b[0], label=b[1], tags=b[2])),
             (Single(orders), TwinSingle(orders), Single(orders[:1]), TwinSingle(orders[:1]))]
    for rec_a, twin_a, rec_b, twin_b in pairs:
        assert repr(rec_a) == repr(twin_a)
        assert hash(rec_a) == hash(twin_a)
        assert (rec_a == rec_b) == (twin_a == twin_b)
        assert (rec_a != rec_b) == (twin_a != twin_b)


def test_other_class_with_same_fields_is_not_equal():
    @record
    class Other:
        x: int
        label: str
        tags: tuple = ()

    p = Point(1, "a")
    assert p != Other(1, "a")
    assert p != TwinPoint(1, "a")
    assert p.__eq__(Other(1, "a")) is NotImplemented
    assert p == Point(1, "a", ())


def test_fields_cannot_be_assigned_or_deleted():
    p = Point(1, "a")
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 2
    with pytest.raises(FrozenRecordError):
        p.new = 2
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del p.x
    assert issubclass(FrozenRecordError, AttributeError)
    assert (p.x, p.label, p.tags) == (1, "a", ())


def test_defaults_and_argument_errors():
    assert Point(1, "a").tags == ()
    assert Point(label="a", x=1) == Point(1, "a", ())
    for args, kwargs in [((1,), {}), ((), {"x": 1}), ((1, "a", (), 4), {}),
                         ((1, "a"), {"nope": 3}), ((1, "a"), {"x": 2}), ((), {})]:
        with pytest.raises(TypeError):
            Point(*args, **kwargs)
        with pytest.raises(TypeError):
            TwinPoint(*args, **kwargs)


def test_post_init_is_looked_up_at_call_time(monkeypatch):
    @record
    class Checked:
        n: int

        def __post_init__(self):
            if self.n < 0:
                raise ValueError("negative")
            object.__setattr__(self, "n", self.n * 10)

    assert Checked(2).n == 20
    with pytest.raises(ValueError):
        Checked(-1)

    seen = []
    monkeypatch.setattr(Checked, "__post_init__", lambda self: seen.append(self.n))
    c = Checked(-1)
    assert c.n == -1 and seen == [-1]


def test_methods_the_class_defines_are_kept():
    @record
    class Named:
        x: int

        def __repr__(self):
            return "named"

    assert repr(Named(1)) == "named" and Named(1) == Named(1)
    low, high = SignedSquare(-1, 4), SignedSquare(1, 1)
    assert low < high and low <= high and not high <= low
