import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samples
from samples import axiom_instances, parse_outcome
from wormcalc.formula import (
    Bottom,
    Box,
    Diamond,
    Implies,
    Top,
    conj,
    disj,
    formula_of_worm,
    max_modality,
    neg,
    parse_formula,
    print_formula,
)
from wormcalc.parsing import Interned, ParseError
from wormcalc.worm import TOP, Worm, parse_worm, print_worm


def test_parse_examples():
    assert parse_formula("<0><1>T") == Diamond(0, Diamond(1, Top()))
    assert parse_formula("[1]F -> [0]F") == Implies(Box(1, Bottom()), Box(0, Bottom()))
    assert parse_formula("~<2>T") == Implies(Diamond(2, Top()), Bottom())


def test_parse_precedence():
    # ~ binds over &, & over |, | over ->; -> is right-associative
    assert parse_formula("~T & F") == conj(neg(Top()), Bottom())
    assert parse_formula("T & F | T") == disj(conj(Top(), Bottom()), Top())
    assert parse_formula("T | F -> F") == Implies(disj(Top(), Bottom()), Bottom())
    assert parse_formula("T -> F -> T") == Implies(Top(), Implies(Bottom(), Top()))
    assert parse_formula("[0]T & F") == conj(Box(0, Top()), Bottom())
    assert parse_formula("(T -> F) -> T") == Implies(Implies(Top(), Bottom()), Top())


def test_parse_errors_carry_position():
    for text in ["", "T &", "[T", "<1T", "(T", "T)", "G", "T -> ", "<١>T", "[²]F"]:
        with pytest.raises(ParseError):
            parse_formula(text)


def test_parse_formula_agrees_with_the_cursor_oracle():
    # every string up to length 4 over the atoms, ~, both modal brackets,
    # two digits, parentheses, the connectives' characters and a space: equal
    # formulas, or parse errors with the same text and position
    alphabet, oracle = "TF~[]<>01()&|- ", samples.cursor_parse_formula
    checked = 0
    for length in range(5):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert parse_outcome(parse_formula, text) == parse_outcome(oracle, text), text
            checked += 1
    assert checked == 54_241
    deep_query = "[0]" * 30 + "(<0>T -> <0>T)"
    long_chain = " -> ".join(["T", "[1]F", "~<0>T", "(F | T & F)"] * 50)
    for text in (deep_query, long_chain):
        assert parse_formula(text) == oracle(text)
    for text in (long_chain + " ->", " ~[1](T -> F)&<10>F|~T ", "T -> F -", "(T -> F"):
        assert parse_outcome(parse_formula, text) == parse_outcome(oracle, text), text


def test_modal_indices_refuse_leading_zeros():
    # the worm grammar's rule: <01>T used to read as <1>T here
    for text, position in (("<01>T", 1), ("[007]F", 1), ("T -> [1]<00>T", 9)):
        with pytest.raises(ParseError, match="leading zeros") as info:
            parse_formula(text)
        assert info.value.position == position, text
    assert parse_formula("<0>[10]T") == Diamond(0, Box(10, Top()))


def test_modal_index_must_be_natural():
    for index in (-1, True, False, 1.0, "0", None):
        for node in (Box, Diamond):
            with pytest.raises(ValueError):
                node(index, Top())


def test_formula_constructors_refuse_parts_that_are_not_formulas():
    for part in (1, None, "T", True, TOP, (Top(),)):
        for build in (
            lambda x: Implies(x, Top()),
            lambda x: Implies(Bottom(), x),
            lambda x: Box(0, x),
            lambda x: Diamond(2, x),
            neg,
            lambda x: conj(x, Top()),
            lambda x: conj(Top(), x),
            lambda x: disj(x, Top()),
            lambda x: disj(Top(), x),
        ):
            with pytest.raises(TypeError):
                build(part)
    with pytest.raises(TypeError):
        Implies(1, 2)
    with pytest.raises(TypeError, match="not a formula"):
        print_formula(object())


def test_parser_and_sugar_build_past_the_constructors_checks(monkeypatch):
    # the parser, the sugar and formula_of_worm build their nodes without the
    # public constructors, and build the values those would
    t, f = Top(), Bottom()
    d = Diamond(1, t)
    expected = [
        Implies(Box(0, d), f),
        Implies(t, f),
        Implies(Implies(t, Implies(d, f)), f),
        Implies(Implies(t, f), d),
        Diamond(2, Diamond(0, Diamond(1, t))),
        Implies(Implies(Box(3, t), Implies(d, f)), f),
    ]

    def refused(cls, *parts):
        raise AssertionError(f"{cls.__name__}{parts} went through its constructor")

    for node in (Implies, Box, Diamond):
        monkeypatch.setattr(node, "__new__", refused)
    built = [
        parse_formula("[0]<1>T -> F"),
        neg(t),
        conj(t, d),
        disj(t, d),
        formula_of_worm(parse_worm("2.0.1")),
        parse_formula("[3]T & <1>T"),
    ]
    assert built == expected
    assert [hash(g) for g in built] == [hash(g) for g in expected]


def test_a_live_worm_keeps_its_formula(monkeypatch):
    # formula_of_worm builds a worm's chain once, and the worm keeps it in
    # its slot: a second call, or a call on the worm parsed again, makes no
    # intern lookup
    lookups = []
    intern = Interned._from_checked.__func__

    def counting(cls, *fields):
        lookups.append(fields)
        return intern(cls, *fields)

    a = Worm((10**9, 3, 10**9))
    again = parse_worm(print_worm(a))
    expected = Diamond(10**9, Diamond(3, Diamond(10**9, Top())))
    monkeypatch.setattr(Interned, "_from_checked", classmethod(counting))
    first = formula_of_worm(a)
    assert first is expected and len(lookups) == 3
    del lookups[:]
    assert formula_of_worm(a) is first and formula_of_worm(again) is first
    assert lookups == []


def test_reprs():
    assert repr(Top()) == "Top()" and repr(Bottom()) == "Bottom()"
    assert repr(parse_formula("[1]F -> <0>T")) == "Implies(Box(1, Bottom()), Diamond(0, Top()))"


def test_equal_formulas_share_hash_and_dict_entry():
    instances = axiom_instances([parse_worm("1"), parse_worm("0.1")], 1)
    copies = [parse_formula(print_formula(f)) for f in instances]
    assert all(c is f and c == f and hash(c) == hash(f) for f, c in zip(instances, copies))
    table = {f: i for i, f in enumerate(instances)}
    assert [table[c] for c in copies] == list(range(len(instances)))


def test_deep_chains_hash_in_constant_stack():
    # 3000 levels, built in loops; the recursion limit is 1000
    negations, boxes = Top(), Top()
    for _ in range(3000):
        negations, boxes = neg(negations), Box(0, boxes)
    for f in (negations, boxes):
        assert hash(f) == hash(f)
        assert {f: 1}[f] == 1
        assert f == f


def test_separately_built_deep_chains_compare_in_constant_stack():
    # two builds of each 3000-deep chain, in loops, which are one object, and
    # one chain that differs only at the bottom; the recursion limit is 1000
    def chain(wrap, bottom):
        f = bottom
        for _ in range(3000):
            f = wrap(f)
        return f

    for wrap in (neg, lambda f: Box(0, f)):
        a, b, other = chain(wrap, Top()), chain(wrap, Top()), chain(wrap, Bottom())
        assert a is b and a == b and not a != b
        assert {a: 1}.get(b) == 1 and {a: 1, b: 2} == {a: 2}
        assert a != other and {a: 1}.get(other) is None
    boxes, diamonds = chain(lambda f: Box(0, f), Top()), chain(lambda f: Diamond(0, f), Top())
    assert boxes != diamonds and boxes != chain(lambda f: Box(1, f), Top())


def test_worm_formula_round_trip():
    for text in ["T", "2.1", "0.1.0.3"]:
        w = parse_worm(text)
        f = formula_of_worm(w)
        assert print_formula(f) == print_worm(w, diamonds=True)
        assert parse_formula(print_formula(f)) == f


def test_max_modality():
    assert max_modality(Top()) == -1
    assert max_modality(parse_formula("[3]T -> <5>F")) == 5


def test_max_modality_takes_constant_stack():
    # a diamond nest far deeper than the process's recursion limit
    script = """
import sys
sys.setrecursionlimit(200)
from wormcalc.formula import formula_of_worm, max_modality
from wormcalc.worm import Worm
print(max_modality(formula_of_worm(Worm((0,) * 4999 + (3,)))))
"""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "3\n")


def test_deep_formulas_copy_and_pickle_in_constant_stack():
    # 3000-deep box and negation chains, built in loops, and a formula that
    # shares them; a copy is the one interned object
    script = """
import copy, pickle, sys
from wormcalc.formula import Box, Diamond, Implies, Top, neg
boxes, negations = Top(), Top()
for _ in range(3000):
    boxes, negations = Box(0, boxes), neg(negations)
both = Implies(Diamond(1, boxes), Implies(negations, boxes))
sys.setrecursionlimit(200)
for f in (boxes, negations, both):
    twins = copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))
    print(all(twin is f for twin in twins))
"""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\nTrue\nTrue\n")


def test_axiom_instances_examples():
    pool = [TOP]
    instances = axiom_instances(pool, 1)
    assert Implies(Box(0, Top()), Box(1, Top())) in instances
    assert Implies(Diamond(0, Top()), Box(1, Diamond(0, Top()))) in instances
    loeb_top = Implies(Box(0, Implies(Box(0, Top()), Top())), Box(0, Top()))
    assert loeb_top in axiom_instances([], 0)


def test_axiom_instances_cover_pool_negations():
    instances = axiom_instances([parse_worm("1")], 1)
    phi = formula_of_worm(parse_worm("1"))
    assert Implies(Box(0, neg(phi)), Box(1, neg(phi))) in instances
    assert len(instances) == len(set(instances))


def _formulas():
    atoms = st.sampled_from([Top(), Bottom(), Diamond(1, Top()), Box(0, Bottom())])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: conj(*p)),
            st.tuples(sub, sub).map(lambda p: disj(*p)),
            sub.map(neg),
            st.tuples(st.integers(0, 3), sub).map(lambda p: Box(*p)),
            st.tuples(st.integers(0, 3), sub).map(lambda p: Diamond(*p)),
        ),
        max_leaves=12,
    )


@given(_formulas())
@settings(max_examples=300)
def test_print_parse_round_trip(f):
    text = print_formula(f)
    assert parse_formula(text) == f
    # printer output is a fixed point modulo nothing at all
    assert print_formula(parse_formula(text)) == text


@given(_formulas())
@settings(max_examples=100)
def test_sugar_expansion_equivalence(f):
    # diamond kept primitive; its boxed negation form parses differently but
    # prints compatibly
    assert parse_formula(f"~[2]~({print_formula(f)})") == neg(Box(2, neg(f)))
