"""End-to-end acceptance checks.

Each test is one exit criterion, exact and deterministic; a pass prints a
one-line summary (visible with `pytest -s` or in captured output). Sweeps
are exhaustive over the stated families.
"""

import itertools
from collections import defaultdict
from functools import cmp_to_key
from pathlib import Path

import samples
from samples import axiom_instances, promote
from wormcalc.formula import formula_of_worm
from wormcalc.ignatiev import (
    Point,
    enumerate_submodel,
    forces,
    forces_worm,
    is_valid_point,
    min_point_for_worm,
    render_dot,
    validity_check,
)
from wormcalc.ordinal import ZERO, add, compare, from_int, hyperexp, parse_ordinal
from wormcalc.spectrum import (
    TheoryPresentation,
    conservation_level,
    describe_conservation,
    normalize,
    registry,
)
from wormcalc.worm import Worm, ordinal_of, parse_worm, worm_of_ordinal

GOLDEN = Path(__file__).parent / "golden"
WORM_FAMILY = samples.all_worms(5, 3)  # 1365 worms
RANKS = {a: ordinal_of(a) for a in WORM_FAMILY}


def finite_universe(k):
    return [from_int(i) for i in range(k + 1)]


def test_progression_union_collapse():
    # T_1^{w+1} proves the same as the level-1 progression joined with the
    # rewritten level-0 progression at w*2
    assert ordinal_of(parse_worm("0.1")) == parse_ordinal("w+1")
    assert ordinal_of(parse_worm("1.0.1")) == parse_ordinal("w*2")
    t = TheoryPresentation.of({1: parse_worm("1"), 0: parse_worm("0.1")})
    s = normalize(t)
    assert s.point.coord(0) == parse_ordinal("w*2")
    assert s.point == Point.of([parse_ordinal("w*2"), from_int(1)])
    print("PASS union collapse: 0.1 at w+1 and 1.0.1 at w*2, level 0 rewritten to w*2")


def test_fragment_theory_placements():
    isigma1 = Point.of([parse_ordinal("w^w"), parse_ordinal("w"), from_int(1)])
    pra = Point.of([parse_ordinal("w^w"), parse_ordinal("w"), ZERO])
    assert min_point_for_worm(parse_worm("2")) == isigma1
    assert normalize(TheoryPresentation.of({1: parse_worm("2")})).point == pra
    named = registry()
    assert named["ISigma1"].point == isigma1
    assert named["PRA"].point == pra
    print("PASS theory placements: <w^w, w, 1> and <w^w, w, 0> reproduced exactly")


def test_conservation_between_named_fragments():
    named = registry()
    level = conservation_level(named["ISigma1"], named["PRA"])
    assert level == 1
    assert describe_conservation(level) == "level=1 (Pi^0_2 agreement)"
    print("PASS conservation readout: level 1, Pi^0_2 agreement")


def test_order_isomorphism_exhaustive():
    violations = 0
    # equality classes of the level-0 comparison are exactly the rank fibers
    fibers = defaultdict(list)
    for a in WORM_FAMILY:
        fibers[RANKS[a]].append(a)
    short = samples.all_worms(3, 3)
    for a, b in itertools.product(short, repeat=2):
        same = compare(RANKS[a], RANKS[b]) == 0
        if (ordinal_of(a) == ordinal_of(b)) != same:
            violations += 1
    # the distinct ranks are linearly ordered: every sorted pair compares Less
    distinct = sorted(fibers, key=cmp_to_key(compare))
    for i, x in enumerate(distinct):
        if compare(x, x) != 0:
            violations += 1
        for y in distinct[i + 1 :]:
            if compare(x, y) != -1 or compare(y, x) != 1:
                violations += 1
    # splitting at any zero yields the same rank
    for a in WORM_FAMILY:
        value = RANKS[a]
        for i, letter in enumerate(a.letters):
            if letter == 0:
                left = ordinal_of(Worm(a.letters[:i]))
                right = ordinal_of(Worm(a.letters[i + 1 :]))
                if add(add(right, from_int(1)), left) != value:
                    violations += 1
    assert violations == 0
    print(
        f"PASS order isomorphism: {len(WORM_FAMILY)} worms, "
        f"{len(distinct)} distinct ranks, 0 violations"
    )


def test_ordinal_worm_round_trip():
    image = sorted(set(RANKS.values()), key=cmp_to_key(compare))
    failures = 0
    for x in image:
        for n in range(4):
            if ordinal_of(worm_of_ordinal(x, n), n) != x:
                failures += 1
    assert failures == 0
    print(f"PASS round trip: {len(image)} ordinals x levels 0..3, 0 failures")


def test_world_condition_and_idempotence():
    for a in WORM_FAMILY:
        assert is_valid_point(min_point_for_worm(a))
    count = 0
    for t in samples.presentation_family():
        s = normalize(t)
        assert is_valid_point(s.point), t
        assert normalize(s.as_presentation()).point == s.point, t
        count += 1
    print(
        f"PASS world condition: {len(WORM_FAMILY)} minimal points and "
        f"{count} normalized presentations valid, normalization idempotent"
    )


def test_hyperexponential_laws():
    sample = samples.ordinal_sample()
    for n in range(5):
        for m in range(5 - n):
            for x in sample:
                assert hyperexp(n + m, x) == hyperexp(n, hyperexp(m, x))
    for a in WORM_FAMILY:
        for n in range(5):
            assert ordinal_of(promote(a, n)) == hyperexp(n, ordinal_of(a))
    print(
        f"PASS hyperexponential laws: composition over {len(sample)} ordinals, "
        f"promotion over {len(WORM_FAMILY)} worms"
    )


def test_kripke_agreement_and_axiom_validity():
    worms = samples.all_worms(4, 3)
    formulas = {a: formula_of_worm(a) for a in worms}
    checked = 0
    for k in range(6):
        m = enumerate_submodel(finite_universe(k), 3)
        assert m.witness_complete
        for p in m.worlds:
            for a in worms:
                exact = forces(m, p, formulas[a])
                assert exact.exact
                assert exact.value == forces_worm(p, a), (k, p, a)
                checked += 1
    fixtures = axiom_instances(samples.all_worms(2, 2), 2)
    model = enumerate_submodel(finite_universe(5), 2)
    for f in fixtures:
        assert validity_check(f, model).value, f
    print(
        f"PASS semantic cross-validation: {checked} world/worm pairs agree, "
        f"{len(fixtures)} axiom instances valid"
    )


def test_dot_rendering_matches_golden():
    chain = render_dot(enumerate_submodel(finite_universe(3), 2))
    assert chain == (GOLDEN / "chain_finite3_idx2.dot").read_text(encoding="utf-8")
    isigma1 = Point.of([parse_ordinal("w^w"), parse_ordinal("w"), from_int(1)])
    pra = Point.of([parse_ordinal("w^w"), parse_ordinal("w"), ZERO])
    universe = [ZERO, from_int(1), parse_ordinal("w"), parse_ordinal("w^w")]
    fragment = render_dot(
        enumerate_submodel(universe, 2), labels={isigma1: "ISigma1", pra: "PRA"}
    )
    assert fragment == (GOLDEN / "labeled_fragment_idx2.dot").read_text(encoding="utf-8")
    assert 'label="ISigma1\\n<w^w, w, 1>"' in fragment
    assert 'label="PRA\\n<w^w, w>"' in fragment
    assert 'color="black:invis:black"' in fragment
    assert 'color="black:invis:black:invis:black"' in fragment
    print("PASS rendering: both golden files matched byte for byte, labels verbatim")
