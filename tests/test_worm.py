import itertools
import os
import subprocess
import sys
from collections import defaultdict
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings

import samples
from samples import concat, in_worms, promote
from wormcalc import worm
from wormcalc.formula import Diamond, Implies, formula_of_worm
from wormcalc.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    from_int,
    hyperexp,
    omega_power,
    parse_ordinal,
)
from wormcalc.parsing import ParseError
from wormcalc.worm import (
    TOP,
    Worm,
    _ranks,
    compare_worms,
    head,
    ordinal_of,
    parse_worm,
    print_worm,
    remainder,
    worm_of_ordinal,
)


def test_head_examples():
    assert head(parse_worm("0.1"), 1) == TOP
    assert head(parse_worm("2.1.0.3"), 1) == parse_worm("2.1")
    for a in samples.all_worms(4, 3):
        assert head(a, 0) == a


def test_remainder_examples():
    assert remainder(parse_worm("0.1"), 1) == parse_worm("0.1")
    assert remainder(parse_worm("2.1.0.3"), 1) == parse_worm("0.3")
    assert remainder(TOP, 7) == TOP


def test_promote_examples():
    assert promote(parse_worm("0.1.0"), 1) == parse_worm("1.2.1")
    assert promote(parse_worm("2"), 0) == parse_worm("2")
    assert promote(TOP, 2) == TOP


def test_rank_examples():
    assert ordinal_of(TOP) == ZERO
    assert ordinal_of(parse_worm("1.0.1")) == parse_ordinal("w*2")
    assert ordinal_of(parse_worm("0.1")) == parse_ordinal("w+1")
    assert ordinal_of(parse_worm("2")) == parse_ordinal("w^w")


def test_rank_cache_stays_outside_the_fields():
    # the letters are the one field: the intern key, match and repr see
    # only them, whether or not the ranks were read, and a worm built again
    # from its letters is the one worm, with its rank table
    for a in samples.all_worms(3, 2):
        before = repr(a)
        top = max(a.letters) + 1 if a.letters else 0
        assert a.ranks == tuple(ordinal_of(a, n) for n in range(top + 1))
        again = Worm(a.letters)
        assert again is a and again.ranks is a.ranks
        assert a._fields() == (a.letters,) and hash(again) == hash(a) == object.__hash__(a)
        assert repr(a) == before == f"Worm({print_worm(a)!r})"


def test_rank_at_level_examples():
    assert ordinal_of(parse_worm("2"), level=1) == OMEGA
    assert ordinal_of(parse_worm("2"), level=2) == ONE
    assert ordinal_of(parse_worm("1.0.1"), level=1) == ONE


def test_compare_examples():
    assert compare_worms(parse_worm("0.1"), parse_worm("1.0.1")) == -1
    for a in samples.all_worms(3, 3):
        assert compare_worms(a, a, 2) == 0
    assert compare_worms(parse_worm("1"), parse_worm("2"), level=1) == -1


def test_worm_of_ordinal_examples():
    assert worm_of_ordinal(ZERO) == TOP
    w2 = worm_of_ordinal(parse_ordinal("w*2"))
    assert ordinal_of(w2) == parse_ordinal("w*2")
    assert w2 == parse_worm("1.0.1")
    ww = worm_of_ordinal(parse_ordinal("w^w"))
    assert ordinal_of(ww) == parse_ordinal("w^w")
    assert ww == parse_worm("2")


def test_levels_must_be_natural():
    # a bool level used to be read as 0 or 1
    for level in (True, False, -1, 1.0, "1", None):
        with pytest.raises(ValueError, match="level"):
            ordinal_of(Worm((1,)), level)
        with pytest.raises(ValueError, match="level"):
            worm_of_ordinal(OMEGA, level)


def test_parse_print():
    assert parse_worm("T") == TOP
    assert parse_worm("2.1.0.3") == Worm((2, 1, 0, 3))
    assert parse_worm("<2><1>T") == Worm((2, 1))
    assert parse_worm("10.2") == Worm((10, 2))
    assert print_worm(Worm((2, 1))) == "2.1"
    assert print_worm(Worm((2, 1)), diamonds=True) == "<2><1>T"
    assert print_worm(TOP) == "T"
    assert print_worm(TOP, diamonds=True) == "T"
    for text in ["", "2.", ".1", "2..1", "<1>", "T.1", "<01>T", "02", "١", "²", "1.²", "<١>T"]:
        with pytest.raises(ParseError):
            parse_worm(text)


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as error:
        return (str(error), error.position)


def test_parse_worm_agrees_with_the_cursor_oracle():
    # every string up to length 5 over digits, dot, T, brackets, a letter and
    # space: equal worms, or parse errors with the same message and position
    alphabet = "01.T<>a "
    checked = 0
    for length in range(6):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert _outcome(parse_worm, text) == _outcome(samples.cursor_parse_worm, text), text
            checked += 1
    assert checked == sum(len(alphabet) ** k for k in range(6))
    for text in ["", "2.", ".1", "2..1", "02", "1.02", "1.2x.3", "١", "²", "1.²", "0²", " 10.2 ", "T.1"]:
        assert _outcome(parse_worm, text) == _outcome(samples.cursor_parse_worm, text), text


def test_parsed_and_canonical_worms_match_constructed_ones():
    # parse_worm and worm_of_ordinal skip the constructor's letter check
    built = []
    for a in samples.all_worms(4, 3):
        built += [parse_worm(print_worm(a)), parse_worm(print_worm(a, diamonds=True))]
    for x in samples.ordinal_sample()[:80]:
        built += [worm_of_ordinal(x, n) for n in range(3)]
    for b in built:
        fresh = Worm(b.letters)
        assert type(b.letters) is tuple and all(type(letter) is int for letter in b.letters)
        assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
        assert b.ranks == fresh.ranks


def test_rank_memo_is_bounded():
    # a rank table lives in its worm's slot, and the intern table holds the
    # live worms only: a worm that nothing holds leaves, its table with it
    before = samples.interned()
    worms = [Worm((7, 100 + i)) for i in range(100)]
    assert all(len(a.ranks) == 100 + i + 2 for i, a in enumerate(worms))
    grown = samples.interned() - before
    assert grown[Worm] == 100 and grown[Ordinal] >= 200
    del worms
    assert samples.interned() == before


def test_ranks_agree_with_the_recursive_oracle():
    for a in samples.all_worms(5, 3):
        assert _ranks(a.letters) == samples.recursive_ranks(a.letters), a
    # single letters, where the oracle rebuilds every level's tower
    for k in (*range(20), 100, 300):
        assert _ranks((k,)) == samples.recursive_ranks((k,)), k


@given(samples.worms(max_letter=50, max_len=12))
@settings(max_examples=200)
def test_ranks_agree_with_the_recursive_oracle_random(a):
    assert _ranks(a.letters) == samples.recursive_ranks(a.letters)


def test_single_letter_ranks_are_hyperexponentials():
    # the worm k ranks hyperexp(k - n, 1) at each level n <= k, and 0 above
    for k in (0, 1, 2, 7, 300):
        assert Worm((k,)).ranks == tuple(hyperexp(k - n, ONE) for n in range(k + 1)) + (ZERO,)
    # the same up to 5000, checked in constant stack: level k is 1, and each
    # level below is w to the power of the very object one level up
    for k in (1000, 5000):
        ranks = Worm((k,)).ranks
        assert len(ranks) == k + 2 and ranks[k:] == (ONE, ZERO)
        assert all(ranks[n].terms == ((ranks[n + 1], 1),) for n in range(k))


def test_single_letter_ranks_build_one_ordinal_per_level(monkeypatch):
    # one w-power step per level, not a tower rebuilt at every level, in
    # one sweep on the first read of the worm's slot and none after
    built, swept = [], []
    build, sweep = Ordinal._from_checked.__func__, worm._ranks

    def counted(cls, terms):
        built.append(terms)
        return build(cls, terms)

    monkeypatch.setattr(Ordinal, "_from_checked", classmethod(counted))
    monkeypatch.setattr(worm, "_ranks", lambda letters: swept.append(letters) or sweep(letters))
    a = Worm((2000,))
    assert len(a.ranks) == 2002 and Worm((2000,)).ranks is a.ranks
    assert len(built) <= 2001 and swept == [(2000,)]


# deep worms and (level-0 term count, its leading coefficient, levels);
# equal blocks must share one value, or adding them compares two towers
DEEP_WORMS = [
    ((0, 1000) * 20, (2, 20, 1002)),
    ((0, 1000, 1000) * 20, (2, 20, 1002)),
    ((700, 0, 700), (1, 2, 702)),
    (tuple(range(1, 992)), (1, 1, 993)),
    ((5000,), (1, 1, 5002)),
]


def test_ranks_take_constant_stack():
    # every rank, and ordinal_of from a worm built again once the first
    # has died, its table with it, in a process whose recursion limit is
    # far below the worms' letters
    script = f"""
import sys
sys.setrecursionlimit(200)
from wormcalc import parsing
from wormcalc.worm import Worm, ordinal_of
for letters, _ in {DEEP_WORMS!r}:
    ranks = Worm(letters).ranks
    assert (Worm, letters) not in parsing._TABLE
    x = ordinal_of(Worm(letters))
    print(len(x.terms), x.terms[0][1], len(ranks))
# equal blocks share one value across worms too, each swept on its own:
# the tables of these two share the tower w^E, so they compare w^E with
# w^E + 1 by identity
from wormcalc.ignatiev import forces_worm, min_point_for_worm
from wormcalc.worm import compare_worms
a = Worm((1000,))
a.ranks
b = Worm((0, 1000))
print(b.ranks[0].terms[0][0] is a.ranks[0].terms[0][0])
print(compare_worms(a, b), compare_worms(b, a), forces_worm(min_point_for_worm(a), b))
"""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [" ".join(map(str, shape)) for _, shape in DEEP_WORMS] + ["True", "-1 1 False"]


def test_constructor_refuses_ill_typed_letters():
    for letters in ((True, False), (1, True), (-1,), (1.0,), ("0",)):
        with pytest.raises(ValueError):
            Worm(letters)


def test_membership_predicate():
    assert in_worms(TOP, 9)
    assert in_worms(parse_worm("2.1"), 1)
    assert not in_worms(parse_worm("2.1.0.3"), 1)


def test_concatenation_identity():
    for a in samples.all_worms(5, 3):
        for n in range(5):
            assert concat(head(a, n), remainder(a, n)) == a
            r = remainder(a, n)
            assert not r.letters or r.letters[0] < n
            assert in_worms(head(a, n), n)


def test_split_independence_exhaustive():
    # rank computed by splitting at any one zero must agree with the split at
    # every zero that ordinal_of makes
    for a in samples.all_worms(6, 3):
        value = ordinal_of(a)
        for i, letter in enumerate(a.letters):
            if letter == 0:
                split = add(
                    add(ordinal_of(Worm(a.letters[i + 1 :])), ONE),
                    ordinal_of(Worm(a.letters[:i])),
                )
                assert split == value, (a, i)


def test_order_isomorphism_shadow_small():
    pool = samples.all_worms(5, 3)
    ranks = {a: ordinal_of(a) for a in pool}
    fibers = defaultdict(list)
    for a in pool:
        fibers[ranks[a]].append(a)
    # equal classes are exactly the rank fibers
    for a, b in itertools.product(samples.all_worms(3, 3), repeat=2):
        assert (compare_worms(a, b) == 0) == (ranks[a] == ranks[b])
    # ranks are totally ordered consistently
    distinct = sorted(fibers, key=cmp_to_key(compare))
    for i in range(len(distinct) - 1):
        assert compare(distinct[i], distinct[i + 1]) == -1


def test_worm_orders_agree_with_provability_on_the_full_model():
    # A <_n B iff B -> <n>A is a theorem, decided by the symbolic evaluator
    pool = samples.all_worms(3, 2)
    for n in range(3):
        level = [a for a in pool if in_worms(a, n)]
        for a, b in itertools.product(level, repeat=2):
            f = Implies(formula_of_worm(b), Diamond(n, formula_of_worm(a)))
            assert samples.is_theorem(f) == (compare_worms(a, b, n) < 0), (a, b, n)


def test_promotion_law():
    for a in samples.all_worms(5, 3):
        for n in range(4):
            assert ordinal_of(promote(a, n)) == hyperexp(n, ordinal_of(a))


def test_round_trip_through_ordinals():
    image = {ordinal_of(a) for a in samples.all_worms(5, 3)}
    for x in image:
        for n in range(4):
            assert ordinal_of(worm_of_ordinal(x, n), n) == x
    for x in samples.ordinal_sample():
        assert ordinal_of(worm_of_ordinal(x)) == x


def _worm_of_oracle(x: Ordinal) -> Worm:
    """The canonical worm by the right-to-left recursion on the normal form:
    a successor y+1 is 0 followed by the worm of y, a single term w^e is the
    worm of e promoted once, and any other ordinal is (worm of its final
    term w^e) 0 (worm of the rest)."""
    if x.is_zero:
        return TOP
    exponent, coefficient = x.terms[-1]
    if exponent.is_zero:
        return concat(Worm((0,)), _worm_of_oracle(_drop_last_unit(x)))
    if len(x.terms) == 1 and coefficient == 1:
        return promote(_worm_of_oracle(exponent), 1)
    rest = _drop_last_unit(x)
    return concat(_worm_of_oracle(omega_power(exponent)), concat(Worm((0,)), _worm_of_oracle(rest)))


def _drop_last_unit(x: Ordinal) -> Ordinal:
    """x with one copy of its final term w^e removed (coefficient decremented)."""
    exponent, coefficient = x.terms[-1]
    if coefficient > 1:
        return Ordinal(x.terms[:-1] + ((exponent, coefficient - 1),))
    return Ordinal(x.terms[:-1])


def test_worm_of_ordinal_matches_recursive_oracle():
    ranks = {ordinal_of(a) for a in samples.all_worms(5, 3)}
    for x in list(ranks) + samples.ordinal_sample():
        expected = _worm_of_oracle(x)
        for n in range(4):
            assert worm_of_ordinal(x, n) == promote(expected, n), (x, n)


def test_worm_of_large_finite_ordinal():
    # one letter per unit, built without one recursion level per unit
    assert worm_of_ordinal(from_int(5000)) == Worm((0,) * 5000)
    assert worm_of_ordinal(from_int(5000), 2) == Worm((2,) * 5000)


def test_worm_of_ordinal_lands_in_level():
    for x in samples.ordinal_sample()[:60]:
        for n in range(4):
            assert in_worms(worm_of_ordinal(x, n), n)


def test_head_drop():
    for a in samples.all_worms(4, 3):
        for n in range(4):
            for m in range(n + 1):
                assert ordinal_of(a, n) == ordinal_of(head(a, m), n)


def test_compare_factors_through_head():
    for a in samples.all_worms(4, 2):
        for n in range(3):
            assert compare_worms(a, head(a, n), n) == 0


@given(samples.worms(), samples.worms())
@settings(max_examples=200)
def test_prefixing_never_lowers_rank(a, b):
    assert compare(ordinal_of(concat(b, a)), ordinal_of(a)) >= 0


@given(samples.worms())
@settings(max_examples=200)
def test_text_round_trip_random(a):
    assert parse_worm(print_worm(a)) == a
    assert parse_worm(print_worm(a, diamonds=True)) == a
