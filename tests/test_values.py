"""Every value type: slotted, closed to attribute writes once built, and
copied or pickled as an equal value with the same hash and repr."""

import copy
import pickle
import sys

import pytest

from wormcalc.formula import Bottom, Box, Diamond, Implies, Top, parse_formula
from wormcalc.ignatiev import ForcingResult, Point, parse_point
from wormcalc.ordinal import ZERO, Ordinal, parse_ordinal
from wormcalc.spectrum import LimitTheory, Spectrum, TheoryPresentation, normalize, registry
from wormcalc.worm import TOP, Worm, parse_worm

VALUE_TYPES = {
    Ordinal, Point, Worm, Top, Bottom, Implies, Box, Diamond,
    ForcingResult, TheoryPresentation, Spectrum, LimitTheory,
}


def values():
    """Values of every value type, a worm among them with its ranks read."""
    read = parse_worm("2.0.1")
    assert read.ranks
    presentation = TheoryPresentation.from_json('{"name": "T", "entries": {"0": "1.1", "2": "0.3"}}')
    return [
        ZERO,
        parse_ordinal("w^(w+1)*2+w+3"),
        parse_point("<w^w, w, 1>"),
        TOP,
        read,
        Top(),
        Bottom(),
        parse_formula("[1]<0>T -> ~F"),
        Box(0, Top()),
        Diamond(2, Bottom()),
        ForcingResult(True, False),
        presentation,
        normalize(presentation),
        registry()["PA"],
    ]


def test_value_types_are_slotted_and_refuse_every_write():
    assert {type(v) for v in values()} == VALUE_TYPES
    for v in values():
        assert not hasattr(v, "__dict__"), type(v)
        slots = {name for klass in type(v).__mro__ for name in getattr(klass, "__slots__", ())}
        before = repr(v)
        for name in sorted(slots | {"x", "_hash", "__dict__"}):
            with pytest.raises(AttributeError):
                setattr(v, name, 1)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert repr(v) == before


def test_copies_and_pickles_are_equal_values():
    for v in values():
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is type(v), type(v)
            assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)


def test_constructors_refuse_fields_of_the_wrong_type():
    # each of these was built, and Spectrum(5) failed later in repr and to_json
    for cls, args in (
        (Spectrum, (5,)),
        (Spectrum, (None,)),
        (Spectrum, ((ZERO,),)),
        (ForcingResult, ("yes", None)),
        (ForcingResult, (1, True)),
        (ForcingResult, (True, 0)),
        (LimitTheory, (1, 2)),
        (LimitTheory, ("PA", None)),
        (LimitTheory, (b"PA", "note")),
    ):
        with pytest.raises(TypeError):
            cls(*args)


def test_deep_ordinals_copy_and_pickle_in_constant_stack():
    tower = Worm((1500,)).ranks[0]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        twins = [copy.copy(tower), copy.deepcopy(tower), pickle.loads(pickle.dumps(tower))]
    finally:
        sys.setrecursionlimit(limit)
    assert all(type(twin) is Ordinal and hash(twin) == hash(tower) for twin in twins)
    # comparing two separately built towers still descends them, so equality
    # is checked on a lower one
    lower = Worm((600,)).ranks[0]
    for twin in (copy.deepcopy(lower), pickle.loads(pickle.dumps(lower))):
        assert twin is not lower and twin == lower and hash(twin) == hash(lower)
