"""Every value type: slotted, closed to attribute writes once built, and
copied or pickled as an equal value with the same hash and repr; ordinals,
formulas and worms are hash-consed, so each of their build paths returns
the one object with its value."""

import copy
import itertools
import pickle
import sys
import threading

import pytest

import samples
from wormcalc.formula import Bottom, Box, Diamond, Implies, Top, parse_formula, print_formula
from wormcalc.ignatiev import ForcingResult, Point, parse_point
from wormcalc.ordinal import ONE, ZERO, Ordinal, from_int, hyperexp, omega_power, parse_ordinal, print_ordinal
from wormcalc.parsing import ParseError
from wormcalc.spectrum import LimitTheory, Spectrum, TheoryPresentation, normalize, registry
from wormcalc.worm import TOP, Worm, head, ordinal_of, parse_worm, print_worm, remainder, worm_of_ordinal

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


def test_values_print_as_their_texts_and_results_test_as_their_value():
    for text, parse in (("w^(w+1)*2+w+3", parse_ordinal), ("2.0.1", parse_worm), ("T", parse_worm), ("[1]<0>T -> ~F", parse_formula)):
        assert str(parse(text)) == text
    results = [ForcingResult(value, exact) for value in (False, True) for exact in (False, True)]
    assert [bool(r) for r in results] == [False, False, True, True]
    assert (from_int(7).as_int(), ZERO.as_int()) == (7, 0)
    with pytest.raises(ValueError, match="^w is not finite$"):
        parse_ordinal("w").as_int()


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


def test_values_equal_no_other_type():
    # the fields alone do not make a value equal to a tuple of them
    assert Point.of([ONE]).coords == (ONE,)
    assert Point.of([ONE]) != (ONE,) and not Point.of([ONE]) == (ONE,)
    assert ForcingResult(True, True) != (True, True)


def test_parse_errors_copy_and_pickle():
    # a parse error raised in a worker process reaches its caller pickled
    error = ParseError("bad", 3)
    assert (str(error), repr(error)) == ("bad (at position 3)", "ParseError('bad', 3)")
    for twin in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(twin) is ParseError
        assert (twin.message, twin.position, str(twin)) == ("bad", 3, "bad (at position 3)")


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
        # a name of 5 printed to JSON that from_json refused, and [1] made
        # a presentation whose hash raised
        (TheoryPresentation, ((), 5)),
        (TheoryPresentation, ((), [1])),
    ):
        with pytest.raises(TypeError):
            cls(*args)


def test_constructors_that_keep_a_tuple_refuse_anything_else():
    # a worm's letters are its intern key and a presentation's entries are
    # read twice, so an iterator was read up and a list kept unhashable:
    # Worm(iter((1, 2))) ranked as the empty worm, and a presentation of an
    # iterator normalized to <0>
    for cls, args in (
        (Worm, (iter((1, 2)),)),
        (Worm, ([1, 2],)),
        (Worm, (None,)),
        (TheoryPresentation, (iter(((0, Worm((1,))),)),)),
        (TheoryPresentation, ([(0, Worm((1,)))],)),
        (TheoryPresentation, ({0: Worm((1,))}, "T")),
    ):
        with pytest.raises(TypeError):
            cls(*args)
    assert Worm((1, 2)).letters == (1, 2) and TheoryPresentation(((0, Worm((1,))),)).entries[0][0] == 0


def test_deep_ordinals_copy_and_pickle_in_constant_stack():
    tower = Worm((1500,)).ranks[0]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        twins = [copy.copy(tower), copy.deepcopy(tower), pickle.loads(pickle.dumps(tower)), hyperexp(1500, ONE)]
    finally:
        sys.setrecursionlimit(limit)
    # a copy, and the same value built apart, is the one object with that value
    assert all(twin is tower and twin == tower and hash(twin) == hash(tower) for twin in twins)


def test_every_build_path_returns_the_one_object():
    # identity equality holds only if no build path bypasses the intern table
    sample = samples.ordinal_sample()
    for x in sample:
        builds = (
            Ordinal(x.terms),
            parse_ordinal(print_ordinal(x)),
            ordinal_of(worm_of_ordinal(x)),
            copy.deepcopy(x),
            pickle.loads(pickle.dumps(x)),
        )
        assert all(y is x for y in builds), x
    for a, b in itertools.product(sample, repeat=2):
        assert (a is b) == (samples.recursive_compare(a, b) == 0), (a, b)
    for f in samples.axiom_instances([parse_worm("1"), parse_worm("0.1")], 1):
        for g in (parse_formula(print_formula(f)), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g is f, f
    assert Top() is Top() and Bottom() is Bottom() and Box(0, Top()) is Box(0, Top())
    for a in samples.all_worms(4, 3):
        up = tuple(letter + 1 for letter in a.letters)
        joined = Worm(up + (0,) + a.letters)
        builds = (
            Worm(a.letters),
            parse_worm(print_worm(a)),
            parse_worm(print_worm(a, diamonds=True)),
            copy.copy(a),
            copy.deepcopy(a),
            pickle.loads(pickle.dumps(a)),
        )
        assert all(b is a for b in builds), a
        assert head(joined, 1) is Worm(up) and remainder(joined, 1) is Worm((0,) + a.letters)
    for x in sample:
        canonical = worm_of_ordinal(x)
        assert worm_of_ordinal(ordinal_of(canonical)) is canonical is parse_worm(print_worm(canonical)), x
    # the table holds the live values only: a fresh value leaves no entry
    sizes = samples.interned()
    fresh = omega_power(from_int(10**30)), Diamond(10**30, Box(10**30, Top())), Worm((10**30, 10**30))
    grown = samples.interned() - sizes
    assert grown == {Ordinal: 2, Diamond: 1, Box: 1, Worm: 1}
    del fresh
    assert samples.interned() == sizes


def test_threads_that_build_one_value_share_one_object():
    # the intern table is shared: threads that build the same values at
    # once get one object per value, round after round, while the last
    # thread to drop a round's values frees them as the others rebuild them
    count, rounds = 4, 60
    barrier = threading.Barrier(count, timeout=60)
    shared: list = [None] * count
    split, finished = [], []

    def work(t):
        for r in range(rounds):
            mine = [omega_power(from_int(10**20 + i)) for i in range(100)]
            mine += [Box(i, Diamond(10**20, Top())) for i in range(100)]
            mine += [Worm((10**20, i)) for i in range(100)]
            shared[t] = mine
            barrier.wait()
            if any(x is not y for x, y in zip(mine, shared[0])):
                split.append(r)
            barrier.wait()
            mine = shared[t] = None
        finished.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == list(range(count)) and split == []
