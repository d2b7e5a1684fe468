import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import samples
from samples import check_invariants, parse_outcome, recursive_compare
from wormcalc.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    from_int,
    hyperexp,
    last_exponent,
    omega_power,
    parse_ordinal,
    print_ordinal,
)
from wormcalc.parsing import ParseError


# --- independent oracle for the finite-exponent fragment -----------------
#
# Ordinals whose exponents are all finite are polynomials in the first
# limit ordinal; a dense, degree-descending coefficient vector gives an
# order and an addition that never touch the implementation under test.


def poly(a):
    if not all(e.is_finite for e, _ in a.terms):
        raise ValueError("oracle only covers finite exponents")
    degree = max((e.as_int() for e, _ in a.terms), default=0)
    vector = [0] * (degree + 1)
    for e, c in a.terms:
        vector[degree - e.as_int()] = c
    return degree, vector


def poly_compare(a, b):
    da, va = poly(a)
    db, vb = poly(b)
    width = max(da, db) + 1
    va = [0] * (width - len(va)) + va
    vb = [0] * (width - len(vb)) + vb
    return (va > vb) - (va < vb)


def poly_add(a, b):
    da, va = poly(a)
    db, vb = poly(b)
    width = max(da, db) + 1
    va = [0] * (width - len(va)) + va
    vb = [0] * (width - len(vb)) + vb
    out = list(va)
    lead = next((i for i, c in enumerate(vb) if c), len(vb) - 1)
    for i in range(len(out)):
        if i > lead:
            out[i] = vb[i]
        elif i == lead:
            out[i] += vb[i]
    return out


def from_poly(vector):
    from wormcalc.ordinal import Ordinal

    degree = len(vector) - 1
    terms = tuple((from_int(degree - i), c) for i, c in enumerate(vector) if c)
    return Ordinal(terms)


W_PLUS_1 = parse_ordinal("w+1")
W_TIMES_2 = parse_ordinal("w*2")


def test_compare_examples():
    assert compare(ZERO, OMEGA) == -1
    assert compare(omega_power(OMEGA), omega_power(OMEGA)) == 0
    # oracle: (1,1) < (2,0) as degree-1 coefficient vectors
    assert poly_compare(W_PLUS_1, W_TIMES_2) == -1
    assert compare(W_PLUS_1, W_TIMES_2) == -1
    # an ordinal orders only against ordinals, not against the int it names
    with pytest.raises(TypeError):
        ONE < 1


def test_add_examples():
    assert add(ZERO, omega_power(OMEGA)) == omega_power(OMEGA)
    assert add(ONE, OMEGA) == OMEGA
    # oracle: vector (1,1) + (1,0) = (2,0)
    assert poly_add(W_PLUS_1, OMEGA) == [2, 0]
    assert add(W_PLUS_1, OMEGA) == W_TIMES_2


def test_omega_power_examples():
    assert omega_power(ZERO) == ONE
    assert omega_power(ONE) == OMEGA
    assert omega_power(OMEGA) == parse_ordinal("w^w")


def test_last_exponent_examples():
    assert last_exponent(ZERO) == ZERO
    assert last_exponent(OMEGA) == ONE
    assert last_exponent(parse_ordinal("w^w*3+w^2")) == from_int(2)


def test_hyperexp_examples():
    assert hyperexp(0, parse_ordinal("w+3")) == parse_ordinal("w+3")
    assert hyperexp(1, ZERO) == ZERO
    assert hyperexp(2, ONE) == parse_ordinal("w^w")


def test_parse_print_examples():
    assert parse_ordinal("w^w*3+w^2") == add(
        add(omega_power(OMEGA), add(omega_power(OMEGA), omega_power(OMEGA))),
        omega_power(from_int(2)),
    )
    assert parse_ordinal("0") == ZERO
    with pytest.raises(ParseError):
        parse_ordinal("w^2+w^5")


@pytest.mark.parametrize(
    "text",
    ["0", "1", "4", "w", "w*3", "w+1", "w^2*4+w*2+7", "w^w", "w^w*3+w^2", "w^(w+1)", "w^w^w+w^(w*2)*3+1"],
)
def test_round_trip_text(text):
    assert print_ordinal(parse_ordinal(text)) == text


@pytest.mark.parametrize(
    "text",
    ["", "w^2+w^2", "1+2", "w+w", "w*0", "0*2", "3*2", "w^0", "w++1", "w^", "01", "w*0 1", "١", "²", "w*١", "w^²", "0١"],
)
def test_rejects_bad_text(text):
    with pytest.raises(ParseError):
        parse_ordinal(text)


def test_parse_ordinal_agrees_with_the_cursor_oracle():
    # every string up to length 5 over digits, w, ^, brackets, + and both
    # product signs: equal ordinals, or parse errors with the same text
    alphabet = "012w^()+*·"
    checked = 0
    for length in range(6):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert parse_outcome(parse_ordinal, text) == parse_outcome(samples.cursor_parse_ordinal, text), text
            checked += 1
    assert checked == 111_111
    for text in ["w^w^w+w^(w*2)*3+1", " ω^ω·2+ω+1 ", "w^(w+1)+w^(1+w)", "w^w+w^(w+1)+1", "w^10+w^9*2+w^(w+"]:
        assert parse_outcome(parse_ordinal, text) == parse_outcome(samples.cursor_parse_ordinal, text), text
    # numerals, which parse_ordinal reads without a scan when they are plain
    long = "9" + "0" * 399
    numerals = [" 7 ", "\t12\n", " 0 ", "00", "007", "0 7", "²", "٣", "1٣", "٣1", long, f" {long} ", "0" + long]
    for text in numerals:
        assert parse_outcome(parse_ordinal, text) == parse_outcome(samples.cursor_parse_ordinal, text), text
    assert parse_ordinal(long).as_int() == 9 * 10**399


def test_parsing_a_sum_builds_it_once(monkeypatch):
    # a k-term sum is built once, not once per term read so far; the checked
    # constructor and the unchecked path both end in `_from_checked`
    built = []
    from_checked = Ordinal._from_checked.__func__

    def counting_checked(cls, terms):
        built.append(len(terms))
        return from_checked(cls, terms)

    monkeypatch.setattr(Ordinal, "_from_checked", classmethod(counting_checked))
    k = 40
    value = parse_ordinal("+".join(f"w^{i}" for i in range(k - 1, 1, -1)) + "+w+1")
    assert len(value.terms) == k
    assert [n for n in built if n > 1] == [k]


def test_unicode_printer():
    assert print_ordinal(parse_ordinal("w^w*3+w^2"), unicode=True) == "ω^ω·3+ω^2"
    assert print_ordinal(ZERO, unicode=True) == "0"


def test_total_order_on_sample():
    sample = samples.ordinal_sample()
    ordered = sorted(sample, key=_cmp_key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            assert compare(a, b) == -1
            assert compare(b, a) == 1
        assert compare(a, a) == 0


def _cmp_key(x):
    from functools import cmp_to_key

    return cmp_to_key(compare)(x)


def test_cached_hash_and_key_agree_with_structure():
    # every pair of the sample, the right one reparsed from its print, which
    # interning makes the one object with that value
    sample = samples.ordinal_sample()
    copies = [parse_ordinal(print_ordinal(x)) for x in sample]
    for a in sample:
        for b in copies:
            want = recursive_compare(a, b)
            assert compare(a, b) == want, (a, b)
            assert (a < b, a == b, a > b) == (want < 0, want == 0, want > 0), (a, b)
            if want == 0:
                assert hash(a) == hash(b), a
    table = {x: i for i, x in enumerate(sample)}
    assert [table[x] for x in copies] == list(range(len(sample)))


def test_hashing_takes_constant_stack():
    # a 1200-high w-tower, built in a loop; the recursion limit is 1000
    tower = ONE
    for _ in range(1200):
        tower = omega_power(tower)
    assert hash(tower) == hash(tower)
    assert {tower: 1}[tower] == 1
    assert compare(tower, tower) == 0 and tower == tower
    # two distinct towers: `compare` loops down both to the first term pair
    # that is not one object
    low, high = ONE, OMEGA
    for _ in range(600):
        low, high = omega_power(low), omega_power(high)
    assert compare(low, high) == -1 and low < high and low != high
    assert compare(low, hyperexp(600, ONE)) == 0 and low == hyperexp(600, ONE)


def test_separately_built_towers_compare_in_constant_stack():
    # towers of height 5000 and 5001, one of them built twice through the
    # checked constructor, in a process whose recursion limit is 200
    script = """
import sys
sys.setrecursionlimit(200)
from wormcalc.ignatiev import Point, forces_worm, least_world
from wormcalc.ordinal import Ordinal, compare
from wormcalc.worm import Worm

def tower(height):
    x = Ordinal()
    for _ in range(height):
        x = Ordinal(((x, 1),))
    return x

low, high, again = tower(5000), tower(5001), tower(5000)
print(compare(low, high), compare(high, low), compare(low, again))
print(low == again, low == high, low < high, high < low, low <= again)
print(sorted([high, again, low]) == [low, low, high])
print(least_world([low, high]).coords == (Ordinal(((high, 1),)), high))
worm = Worm((5000,))
above = Ordinal(((high, 1),))
print(*[forces_worm(Point.of([t, *worm.ranks[1:]]), worm) for t in (low, high, above)])
print(forces_worm(Point.of([high]), worm))
"""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "-1 1 0",
        "True False True False True",
        "True",
        "True",
        "False True True",
        "False",
    ]


def test_constructor_refuses_ill_typed_terms():
    for terms in (
        ((ZERO, True),),
        ((ZERO, 0),),
        ((ZERO, 1.0),),
        ((ONE, 1), (ONE, 1)),
        ((ZERO, 1), (ONE, 1)),
    ):
        with pytest.raises(ValueError):
            Ordinal(terms)
    for terms in (((0, 1),), [(ZERO, 1)], iter([(ZERO, 1)]), ([ZERO, 1],)):
        with pytest.raises(TypeError):
            Ordinal(terms)


def test_omega_power_and_hyperexp_refuse_a_non_ordinal():
    # each built its result around the argument: omega_power(5) interned an
    # ordinal whose str raised AttributeError, and hyperexp(0, 5) returned 5
    before = samples.interned()
    for build in (omega_power, lambda x: hyperexp(1, x), lambda x: hyperexp(0, x)):
        for x in (5, None, "w", (ZERO, 1)):
            with pytest.raises(TypeError):
                build(x)
    assert samples.interned() == before


def test_compare_agrees_with_polynomial_oracle():
    finite_part = [x for x in samples.ordinal_sample() if all(e.is_finite for e, _ in x.terms)]
    for a, b in itertools.product(finite_part[:120], repeat=2):
        assert compare(a, b) == poly_compare(a, b)


def test_add_agrees_with_polynomial_oracle():
    finite_part = [x for x in samples.ordinal_sample() if all(e.is_finite for e, _ in x.terms)]
    for a, b in itertools.product(finite_part[:80], repeat=2):
        assert add(a, b) == from_poly(poly_add(a, b))


def test_add_identities_and_associativity():
    sample = samples.ordinal_sample()[:40]
    for a in sample:
        assert add(a, ZERO) == a
        assert add(ZERO, a) == a
    for a, b, c in itertools.product(sample, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))


def test_last_exponent_law():
    sample = samples.ordinal_sample()[:60]
    for a in sample:
        for b in sample[:20]:
            assert last_exponent(add(a, omega_power(b))) == b


def test_hyperexp_composition_and_monotonicity():
    sample = samples.ordinal_sample()[:80]
    for n in range(5):
        for m in range(5 - n):
            for x in sample:
                assert hyperexp(n + m, x) == hyperexp(n, hyperexp(m, x))
    ordered = sorted(sample, key=_cmp_key)
    images = [hyperexp(1, x) for x in ordered]
    for i in range(len(images) - 1):
        assert compare(images[i], images[i + 1]) == -1


def test_operations_preserve_canonical_form():
    sample = samples.ordinal_sample()[:50]
    for a, b in itertools.product(sample, repeat=2):
        check_invariants(add(a, b))
    for a in sample:
        check_invariants(omega_power(a))
        check_invariants(last_exponent(a))
        check_invariants(hyperexp(2, a))


@given(samples.ordinals(), samples.ordinals(), samples.ordinals())
@settings(max_examples=150)
def test_associativity_random(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(samples.ordinals(), samples.ordinals())
@settings(max_examples=150)
def test_left_addition_strictly_monotone(a, b):
    if compare(a, b) == -1:
        probe = parse_ordinal("w^w*2+w*3+1")
        assert compare(add(probe, a), add(probe, b)) == -1


@given(samples.ordinals(depth=3))
@settings(max_examples=200)
def test_text_round_trip_random(a):
    assert parse_ordinal(print_ordinal(a)) == a
    check_invariants(a)
