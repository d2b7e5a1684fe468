import gc
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import samples
from samples import axiom_instances, parse_outcome, rank_criterion, relation_holds
from wormcalc import ignatiev, ordinal, worm
from wormcalc.formula import (
    Bottom,
    Box,
    Diamond,
    Implies,
    Top,
    formula_of_worm,
    parse_formula,
)
from wormcalc.ignatiev import (
    FiniteSubmodel,
    ForcingResult,
    ModalityOutOfRangeError,
    Point,
    PointNotInModelError,
    UniverseError,
    enumerate_submodel,
    first_violation,
    forces,
    forces_worm,
    is_valid_point,
    least_world,
    min_point_for_worm,
    parse_coords,
    parse_point,
    print_point,
    render_dot,
    validity_check,
)
from wormcalc.ordinal import ONE, ZERO, compare, from_int, last_exponent, omega_power, parse_ordinal
from wormcalc.spectrum import Spectrum, TheoryPresentation, normalize
from wormcalc.worm import TOP, Worm, head, ordinal_of, parse_worm, remainder

W = parse_ordinal("w")
W_TO_W = parse_ordinal("w^w")
GOLDEN = Path(__file__).parent / "golden"
ISIGMA1 = Point.of([W_TO_W, W, from_int(1)])
PRA = Point.of([W_TO_W, W, ZERO])


def finite_universe(k):
    return [from_int(i) for i in range(k + 1)]


def test_point_canonical_form():
    assert Point.of([from_int(1), ZERO, ZERO]) == Point.of([from_int(1)])
    assert Point.of([]) == Point.of([ZERO])
    assert len(Point.of([ZERO]).coords) == 1
    with pytest.raises(ValueError):
        Point((from_int(1), ZERO))
    with pytest.raises(ValueError):
        Point(())


def test_point_refuses_coordinates_that_are_not_ordinals():
    for coords in (("x",), (1,), (1, 2), (from_int(1), 0), [from_int(1)], None):
        with pytest.raises(TypeError):
            Point(coords)
    for coords in ([from_int(2), 1], [from_int(2), 0], ["x", ZERO]):
        with pytest.raises(TypeError):
            Point.of(coords)


def test_equal_points_share_hash_and_dict_entry():
    m = enumerate_submodel([parse_ordinal(t) for t in ("0", "1", "2", "w", "w+1", "w^2", "w^w")], 2)
    copies = [parse_point(print_point(p)) for p in m.worlds]
    assert all(c is not p and c == p and hash(c) == hash(p) for p, c in zip(m.worlds, copies))
    assert all(c in m for c in copies)
    table = {p: i for i, p in enumerate(m.worlds)}
    assert [table[c] for c in copies] == list(range(len(m.worlds)))


def test_point_hash_takes_constant_stack():
    # a coordinate that is a 1200-high w-tower, built in a loop
    tower = from_int(1)
    for _ in range(1200):
        tower = omega_power(tower)
    p = Point((tower,))
    assert hash(p) == hash(p)
    assert {p: 1}[p] == 1
    assert compare(p.coord(0), tower) == 0 and p == p


def test_point_text_round_trip():
    assert parse_point("<w^w, w, 1>") == ISIGMA1
    assert print_point(ISIGMA1) == "<w^w, w, 1>"
    assert print_point(ISIGMA1, unicode=True) == "⟨ω^ω, ω, 1⟩"
    assert parse_point(print_point(ISIGMA1, unicode=True)) == ISIGMA1
    assert parse_coords("<2, 1>") == (from_int(2), from_int(1))


def test_parse_errors_count_positions_in_the_text_passed():
    # leading whitespace, brackets and earlier coordinates all count
    for parser, text, position in (
        (parse_ordinal, "  w^", 4),
        (parse_ordinal, "\t w+w", 4),
        (parse_ordinal, "   ", 3),
        # a leading-zeros error points at the numeral's first digit
        (parse_worm, "  0.01", 4),
        (parse_worm, " <1>Tx ", 5),
        (parse_coords, "<1, w^>", 6),
        (parse_coords, "  ⟨w, 1,, 0⟩", 8),
        (parse_point, " <w^w, 01>", 7),
    ):
        message, at = parse_outcome(parser, text)
        assert at == position and message.endswith(f"(at position {position})"), (text, message)


def test_world_condition_examples():
    assert is_valid_point(ISIGMA1)
    assert first_violation((from_int(2), from_int(1))) == 0
    assert is_valid_point(Point.of([ZERO]))
    assert first_violation((W_TO_W, W, from_int(1))) is None
    assert first_violation((from_int(2), ZERO, from_int(1))) == 1


def test_relation_examples():
    assert relation_holds(0, Point.of([from_int(1)]), Point.of([ZERO]))
    assert relation_holds(2, ISIGMA1, PRA)
    for p in (ISIGMA1, PRA, Point.of([ZERO])):
        for n in range(3):
            assert not relation_holds(n, p, p)
    # coordinates below n must agree exactly
    assert not relation_holds(1, ISIGMA1, Point.of([W, from_int(1)]))


def test_min_point_examples():
    assert min_point_for_worm(parse_worm("2")) == ISIGMA1
    assert min_point_for_worm(TOP) == Point.of([ZERO])
    assert min_point_for_worm(parse_worm("0.1")) == Point.of([parse_ordinal("w+1")])


def test_min_point_always_valid():
    for a in samples.all_worms(5, 3):
        assert is_valid_point(min_point_for_worm(a))


# the 13 worlds over {0, 1, 2, 3, w, w+1, w^w} with max index 3
BRANCHING = enumerate_submodel(
    [from_int(i) for i in range(4)] + [W, parse_ordinal("w+1"), W_TO_W], 3
)


def test_least_world_keeps_worlds_and_trims():
    assert len(BRANCHING.worlds) == 13
    for p in BRANCHING.worlds + enumerate_submodel(finite_universe(5), 2).worlds:
        assert least_world(p.coords) == p
    assert least_world([ONE, ZERO]) == Point.of([ONE])
    assert least_world([]) == Point.of([ZERO])
    assert least_world([ZERO, ONE]) == Point.of([W, ONE])
    with pytest.raises(AttributeError):
        least_world([ONE, 1])


def test_least_world_is_the_least_world_above():
    # every triple over a universe closed under last exponents; the worlds of
    # its fragment are the candidates, compared by universe position
    universe = [
        parse_ordinal(text)
        for text in "0 1 2 3 w w+1 w*2 w^2 w^2+w w^3 w^w w^w+1 w^(w+1) w^(w*2) w^w^w".split()
    ]
    m = enumerate_submodel(universe, 2)
    position = {u: k for k, u in enumerate(m.universe)}
    padded = [tuple(position[p.coord(n)] for n in range(3)) for p in m.worlds]
    compared = 0
    for coords in itertools.product(m.universe, repeat=3):
        p = least_world(coords)
        assert is_valid_point(p) and len(p.coords) <= 3, coords
        assert all(compare(c, p.coord(n)) <= 0 for n, c in enumerate(coords)), coords
        low = tuple(position[c] for c in coords)
        for q, at in zip(m.worlds, padded):
            if all(a >= b for a, b in zip(at, low)):
                compared += 1
                assert all(compare(p.coord(n), q.coord(n)) <= 0 for n in range(3)), (coords, q)
    assert compared > len(m.universe) ** 3


def test_full_model_forcing_agrees_with_forces_worm():
    # the symbolic evaluator against the rank criterion, at worlds off the chains
    for a in samples.all_worms(4, 3):
        truth = samples.truth_set(formula_of_worm(a))
        for p in BRANCHING.worlds:
            assert samples.in_truth_set(truth, p) == forces_worm(p, a), (p, a)


def test_full_model_forcing_agrees_with_exact_fragments():
    rng = random.Random(17)
    models = [enumerate_submodel(finite_universe(k), 2) for k in (3, 6)]
    for _ in range(200):
        f = random_formula(rng, 4, 2)
        truth = samples.truth_set(f)
        for m in models:
            for p in m.worlds:
                assert samples.in_truth_set(truth, p) == forces(m, p, f).value, (p, f)


def test_full_model_validity():
    # every axiom instance is a theorem; [1]F holds on every world of finite:3
    # but fails at <w, 1>, so it is none
    for f in axiom_instances(samples.all_worms(2, 1), 2):
        assert samples.is_theorem(f), f
    never = parse_formula("[1]F")
    assert validity_check(never, enumerate_submodel(finite_universe(3), 1)).value
    assert not samples.is_theorem(never)
    assert not samples.in_truth_set(samples.truth_set(never), Point.of([W, ONE]))


def test_forces_worm_examples():
    root = Point.of([ZERO])
    assert forces_worm(root, TOP)
    assert not forces_worm(root, parse_worm("0"))
    assert forces_worm(Point.of([parse_ordinal("w+1")]), parse_worm("0.1"))


def test_forces_worm_matches_kripke_on_generated_fragment():
    # the fragment below w+1 contains the needed witness chain for 0.1
    universe = [ZERO, from_int(1), W, parse_ordinal("w+1")]
    m = enumerate_submodel(universe, 1)
    p = Point.of([parse_ordinal("w+1")])
    result = forces(m, p, formula_of_worm(parse_worm("0.1")))
    assert result.value
    assert not result.exact  # universe is not an initial segment of naturals


def test_enumerate_examples():
    m = enumerate_submodel([ZERO, from_int(1)], 1)
    assert set(m.worlds) == {Point.of([ZERO]), Point.of([from_int(1)])}
    m0 = enumerate_submodel([ZERO], 3)
    assert m0.worlds == (Point.of([ZERO]),)
    assert all(not m0.edges(n) for n in range(4))
    for k in range(6):
        mk = enumerate_submodel(finite_universe(k), 2)
        assert len(mk.worlds) == k + 1
        assert mk.witness_complete


def test_enumerate_rejects_bad_universe():
    # a universe lacking 0 or a last exponent is closed, not refused
    assert enumerate_submodel([from_int(1)], 1).universe == (ZERO, ONE)
    w2 = parse_ordinal("w*2")
    assert enumerate_submodel([ZERO, w2], 1).universe == (ZERO, ONE, w2)
    with pytest.raises(UniverseError):
        enumerate_submodel([], 1)
    with pytest.raises(UniverseError):
        enumerate_submodel([ZERO], -1)
    with pytest.raises(TypeError):
        enumerate_submodel([ZERO, 1], 1)


def test_submodel_closes_its_universe_under_last_exponents():
    # a branching universe given closed, or as its top elements alone in any
    # order, makes the same fragment
    cases = [("0,1,w,w^w", "w^w"), ("0,1,w+1,w*2", "w*2,w+1"), ("0,3,w+1,w^(w+1)", "w^(w+1),3")]
    for closed, tops in cases:
        universe = [parse_ordinal(text) for text in closed.split(",")]
        expected = FiniteSubmodel(universe, 2)
        assert expected.universe == tuple(universe)
        for order in itertools.permutations(parse_ordinal(text) for text in tops.split(",")):
            m = FiniteSubmodel(list(order), 2)
            assert m.universe == expected.universe, order
            assert m.worlds == expected.worlds and m._spans == expected._spans, order
            assert m.witness_complete == expected.witness_complete, order


def test_submodel_refuses_a_max_index_that_is_not_natural():
    for max_index in (-1, True, False, 1.5, 1.0, "1", None):
        with pytest.raises(UniverseError):
            FiniteSubmodel(finite_universe(1), max_index)


def test_enumeration_walks_positions_without_comparing_or_checking(monkeypatch):
    # the children of a world are read off the table of last-exponent
    # positions, and each world, canonical by construction, skips Point's
    # check; only the universe's sort compares, its own distinct elements,
    # at most u * ceil(log2 u) times
    compared, checked = [], []
    ordinal_compare, point_new = ordinal.compare, Point.__new__

    def counting_compare(a, b):
        compared.append((a, b))
        return ordinal_compare(a, b)

    def counting_new(cls, coords):
        checked.append(coords)
        return point_new(cls, coords)

    universe = closed_universe(["w^w+w", "w^(w+1)", "w*2+1", "3"])
    for module in (ordinal, ignatiev):
        monkeypatch.setattr(module, "compare", counting_compare)
    # Point's check is its constructor, __new__
    monkeypatch.setattr(Point, "__new__", counting_new)
    models = []
    for max_index in range(4):
        compared.clear()
        models.append(enumerate_submodel(universe, max_index))
        u = len(models[-1].universe)
        assert 0 < len(compared) <= u * (u - 1).bit_length()
        assert all(a in models[-1].universe and b in models[-1].universe and a is not b for a, b in compared)
    assert checked == []
    monkeypatch.undo()
    # the same worlds as the definition gives
    m = models[-1]
    assert len(m.worlds) == len(set(m.worlds)) > len(universe)
    assert set(m.worlds) == {
        Point.of(c) for c in itertools.product(m.universe, repeat=4) if is_valid_point(c)
    }


def test_submodel_relations_are_strict_orders():
    m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    for n in range(3):
        edges = set(m.edges(n))
        for p, q in edges:
            assert (q, p) not in edges
            assert p != q
            for r, s in edges:
                if q == r:
                    assert (p, s) in edges


def test_forces_examples():
    m = enumerate_submodel(finite_universe(3), 3)
    for p in m.worlds:
        assert forces(m, p, Top()).value
    assert forces(m, Point.of([from_int(3)]), parse_formula("<0><0><0>T")).value
    assert not forces(m, Point.of([from_int(2)]), parse_formula("<0><0><0>T")).value
    big = enumerate_submodel(finite_universe(1), 17)
    assert big.worlds == (Point.of([ZERO]), Point.of([from_int(1)]))
    assert forces(big, Point.of([ZERO]), parse_formula("[17]F")).value


def test_forces_errors():
    m = enumerate_submodel(finite_universe(2), 1)
    with pytest.raises(PointNotInModelError):
        forces(m, Point.of([from_int(9)]), Top())
    with pytest.raises(ModalityOutOfRangeError):
        forces(m, Point.of([ZERO]), parse_formula("[2]T"))
    with pytest.raises(ModalityOutOfRangeError):
        validity_check(parse_formula("<5>T"), m)
    # the formula's text is no formula, and a refused query keeps nothing
    for query in (lambda: forces(m, Point.of([ZERO]), "T"), lambda: validity_check("T", m)):
        with pytest.raises(TypeError, match="not a formula: 'T'"):
            query()
    assert not m._vectors


def test_successors_reject_relations_outside_the_fragment():
    m = enumerate_submodel(finite_universe(2), 1)
    for n in (-1, 2):
        with pytest.raises(ModalityOutOfRangeError):
            m.successors(n, Point.of([from_int(2)]))
        with pytest.raises(ModalityOutOfRangeError):
            m.edge_count(n)
    # a point that is no world is refused in the words `forces` uses
    outside = Point.of([from_int(9)])
    with pytest.raises(PointNotInModelError) as by_forces:
        forces(m, outside, Top())
    with pytest.raises(PointNotInModelError) as by_successors:
        m.successors(0, outside)
    assert str(by_successors.value) == str(by_forces.value)


def test_values_that_are_not_points_are_no_worlds():
    # the fragment finds worlds by their coordinate tuples; a world's tuple,
    # its spectrum, text and an unhashable list are still no points
    m = enumerate_submodel(finite_universe(2), 1)
    world = Point.of([from_int(2)])
    assert world in m and forces(m, world, Top()).value
    for other in (world.coords, Spectrum(world), print_point(world), None, 2, [from_int(2)]):
        assert other not in m
        with pytest.raises(PointNotInModelError, match="is not a world"):
            forces(m, other, Top())
        with pytest.raises(PointNotInModelError, match="is not a world"):
            m.successors(0, other)
    with pytest.raises(PointNotInModelError, match="is not a world"):
        render_dot(m, labels={world.coords: "tuple"})


def test_validity_examples():
    m = enumerate_submodel(finite_universe(3), 1)
    assert validity_check(parse_formula("[0]([0]T->T)->[0]T"), m).value
    assert validity_check(parse_formula("[0]F->[1]F"), m).value
    refuted = validity_check(parse_formula("<0>T"), m)
    assert not refuted.value
    assert refuted.exact
    # thirty nested boxes: the cost does not multiply with the depth
    deep = parse_formula("[0]" * 30 + "(<0>T -> <0>T)")
    chain = enumerate_submodel(finite_universe(20), 0)
    assert validity_check(deep, chain).value
    assert forces(chain, Point.of([from_int(20)]), deep).value


def test_kept_vectors_keep_the_errors():
    m = enumerate_submodel(finite_universe(2), 1)
    kept = parse_formula("<0>T")
    assert not forces(m, Point.of([ZERO]), kept).value
    assert not validity_check(kept, m).value
    # a kept formula keeps its subformulas too
    assert list(m._vectors) == [Top(), kept]

    def refuses(query, message):
        # an out-of-range formula is refused every time, and its failed
        # query keeps nothing, not even the in-range subformulas its walk
        # took before it met the index
        before = dict(m._vectors)
        with pytest.raises(ModalityOutOfRangeError, match=re.escape(message)):
            query()
        assert m._vectors == before and list(m._vectors) == list(before)

    out_of_range = parse_formula("[2]T")
    message = "formula mentions [2] but the submodel stops at [1]"
    for _ in range(2):
        refuses(lambda: forces(m, Point.of([ZERO]), out_of_range), message)
    refuses(lambda: validity_check(out_of_range, m), message)
    # the message names the formula's highest index, not the first index the
    # walk meets out of range
    for text, top in (("[2]T -> <5>F", 5), ("<0>[3]T", 3), ("<1>F -> ([0]<1>T -> [2]T)", 2)):
        refused = parse_formula(text)
        message = f"formula mentions [{top}] but the submodel stops at [1]"
        for query in (lambda: forces(m, Point.of([ZERO]), refused), lambda: validity_check(refused, m)):
            refuses(query, message)
    assert list(m._vectors) == [Top(), kept]
    # a kept formula still needs a world
    with pytest.raises(PointNotInModelError, match="is not a world"):
        forces(m, Point.of([from_int(9)]), kept)


def test_equal_formulas_share_answers():
    m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    text = "<0>[1]<0>T -> [2]<1>T"
    f, g = parse_formula(text), parse_formula(text)
    assert f == g and f is g
    truth = definitional_truth(m, f)
    for p in m.worlds:
        assert forces(m, p, f).value == forces(m, p, g).value == (p in truth)
    assert validity_check(g, m).value == validity_check(f, m).value == (len(truth) == len(m.worlds))


def test_interleaved_queries_agree_with_fresh_models():
    universe, max_index = [ZERO, from_int(1), W, W_TO_W], 2
    texts = ("<0>[1]<0>T -> [2]<1>T", "<1>T", "[0]F", "<0><0>T", "[1](<0>T -> [2]F)")
    formulas = [parse_formula(t) for t in texts]
    validity_first = enumerate_submodel(universe, max_index)
    forces_first = enumerate_submodel(universe, max_index)
    for f in formulas:
        valid = validity_check(f, enumerate_submodel(universe, max_index))
        assert validity_check(f, validity_first) == valid
        for p in validity_first.worlds:
            fresh = forces(enumerate_submodel(universe, max_index), p, f)
            assert forces(validity_first, p, f) == fresh
            assert forces(forces_first, p, f) == fresh
        assert validity_check(f, forces_first) == valid


def subformulas(f):
    match f:
        case Implies(left=left, right=right):
            return {f} | subformulas(left) | subformulas(right)
        case Box(body=body) | Diamond(body=body):
            return {f} | subformulas(body)
    return {f}


def test_each_formula_is_evaluated_once_per_fragment(monkeypatch):
    # _truth recurses through the module global, so the wrapper sees every
    # call, and a call for a formula not yet in the memo builds its vector.
    # These formulas share <1>T, <0>T and T, and each validity query asks
    # about a formula that forces already built: across all the queries on
    # one fragment, each distinct subformula is built exactly once
    built = []
    truth = ignatiev._truth

    def counting(m, f, memo):
        if f not in memo:
            built.append(f)
        return truth(m, f, memo)

    monkeypatch.setattr(ignatiev, "_truth", counting)
    universe = [ZERO, from_int(1), from_int(2), W, W_TO_W]
    texts = ("<0>[1]<0>T -> [2]<1>T", "<0><1>T", "[0](<1>T -> <0>T)")
    formulas = [parse_formula(t) for t in texts]
    distinct = set().union(*map(subformulas, formulas))
    assert len(distinct) < sum(map(len, map(subformulas, formulas)))
    for m in (enumerate_submodel(universe, 2), enumerate_submodel(universe, 2)):
        # a second fragment builds its own vectors
        built.clear()
        for f in formulas:
            truth_set = definitional_truth(m, f)
            for p in m.worlds:
                assert forces(m, p, f).value == (p in truth_set), (p, f)
            assert validity_check(f, m).value == (len(truth_set) == len(m.worlds)), f
        assert len(m.worlds) > 1
        assert len(built) == len(set(built)) and set(built) == distinct


def test_shared_subformulas_are_walked_once():
    # Implies(f, f) taken 64 times over <1>T is 66 distinct formulas but 2^64
    # paths from the top; a walk along the paths would not end, so the
    # queries run in a subprocess that a timeout stops
    script = """
from wormcalc.formula import Implies, max_modality, parse_formula
from wormcalc.ignatiev import enumerate_submodel, forces, validity_check
from wormcalc.ordinal import from_int
f = parse_formula("<1>T")
for _ in range(64):
    f = Implies(f, f)
m = enumerate_submodel([from_int(i) for i in range(4)], 1)
print(max_modality(f), all(forces(m, p, f) for p in m.worlds), validity_check(f, m))
"""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1 True ForcingResult(value=True, exact=True)\n"


def test_worm_ranks_are_taken_once_per_worm(monkeypatch):
    # a worm's ranks are swept once, on the first read of its `ranks` slot,
    # and a worm built again from letters seen before is the one worm, its
    # table with it
    swept, sweep = [], worm._ranks
    monkeypatch.setattr(worm, "_ranks", lambda letters: swept.append(letters) or sweep(letters))
    m = enumerate_submodel([ZERO, from_int(1), from_int(2), W, W_TO_W], 2)
    texts = ("0", "1.0", "2", "0.1.2", "2.1", "1.1", "2.1")
    assert len(m.worlds) == 10
    # at most one sweep per distinct letter tuple, and none for worms built
    # again from letters seen before
    first = None
    for most_sweeps in (len(set(texts)), 0):
        del swept[:]
        worms = [Worm(tuple(map(int, t.split(".")))) for t in texts]
        for p in m.worlds:
            for a in worms:
                forces_worm(p, a)
        assert len(swept) <= most_sweeps and len(set(swept)) == len(swept)
        assert first is None or all(a is b for a, b in zip(worms, first))
        first = worms

    # the same texts parsed are the worms built from their letters, whose
    # ranks are in their slots already: no sweep at all
    del swept[:]
    again = [parse_worm(t) for t in texts]
    assert all(a is b for a, b in zip(again, first))
    for p in m.worlds:
        for a in again:
            forces_worm(p, a)
    assert swept == []

    # forces and validity_check answer with the same values a fresh
    # ForcingResult holds, on an exact fragment and on one that is not
    models = [enumerate_submodel(finite_universe(3), 1), m]
    assert [model.witness_complete for model in models] == [True, False]
    values = set()
    for model in models:
        for f in (parse_formula("<0><0>T"), parse_formula("[1]<0>T")):
            truth = definitional_truth(model, f)
            for p in model.worlds:
                assert forces(model, p, f) == ForcingResult(p in truth, model.witness_complete)
                values.add(p in truth)
            valid = len(truth) == len(model.worlds)
            assert validity_check(f, model) == ForcingResult(valid, model.witness_complete)
    assert values == {False, True}


def test_hot_readers_fill_an_unranked_worms_table_once(monkeypatch):
    # forces_worm and normalize read the rank slot itself, and on a worm
    # never ranked fall back to the `ranks` property, which sweeps once and
    # keeps the one table that every later read returns
    swept, sweep = [], worm._ranks
    monkeypatch.setattr(worm, "_ranks", lambda letters: swept.append(letters) or sweep(letters))
    a, b = Worm((17, 0, 13, 2)), Worm((19, 1, 0, 11))
    for fresh in (a, b):
        with pytest.raises(AttributeError):
            fresh._rank_table
    m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    assert [forces_worm(p, a) for p in m.worlds] == [rank_criterion(p, a) for p in m.worlds]
    assert swept == [a.letters]
    assert normalize(TheoryPresentation(((0, b), (1, b)))) == Spectrum(least_world(b.ranks[:2]))
    assert swept == [a.letters, b.letters]
    assert a.ranks is a.ranks and b.ranks is b._rank_table
    assert swept == [a.letters, b.letters]


def test_head_remainder_forcing_semantics():
    worms = samples.all_worms(4, 2)
    points = [min_point_for_worm(a) for a in samples.all_worms(3, 2)]
    for p in points:
        for a in worms:
            full = forces_worm(p, a)
            for n in range(4):
                split = forces_worm(p, head(a, n)) and forces_worm(p, remainder(a, n))
                assert split == full


def test_forcing_persists_upward():
    m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    worms = samples.all_worms(3, 2)
    for p, q in itertools.product(m.worlds, repeat=2):
        height = max(len(p.coords), len(q.coords))
        if all(compare(q.coord(n), p.coord(n)) >= 0 for n in range(height)):
            for a in worms:
                if forces_worm(p, a):
                    assert forces_worm(q, a)


def test_rank_criterion_agrees_with_kripke_semantics():
    # certifies the coordinatewise fast path against the definitional
    # evaluator wherever the fragment is exact
    worms = samples.all_worms(4, 3)
    for k in range(4):
        m = enumerate_submodel(finite_universe(k), 3)
        assert m.witness_complete
        for p in m.worlds:
            for a in worms:
                kripke = forces(m, p, formula_of_worm(a))
                assert kripke.exact
                assert kripke.value == forces_worm(p, a), (p, a)


def test_axiom_fixtures_hold_on_exact_fragments():
    instances = axiom_instances(samples.all_worms(2, 2), 2)
    m = enumerate_submodel(finite_universe(2), 2)
    for f in instances:
        assert validity_check(f, m).value, f


def test_render_dot_single_world():
    dot = render_dot(enumerate_submodel([ZERO], 0))
    assert dot.count("label") == 1
    assert "->" not in dot


def test_render_dot_reduction_counts():
    m = enumerate_submodel(finite_universe(2), 0)
    assert len(m.edges(0)) == 3
    reduced = render_dot(m)
    assert reduced.count("->") == 2
    full = render_dot(m, reduce_transitive=False)
    assert full.count("->") == 3


def test_render_dot_labels_and_styles():
    universe = [ZERO, from_int(1), W, W_TO_W]
    m = enumerate_submodel(universe, 2)
    dot = render_dot(m, labels={ISIGMA1: "ISigma1", PRA: "PRA"})
    assert 'label="ISigma1\\n<w^w, w, 1>"' in dot
    assert 'label="PRA\\n<w^w, w>"' in dot
    assert 'color="black:invis:black"' in dot
    assert 'color="black:invis:black:invis:black"' in dot


def test_render_dot_labels_print_multi_term_coordinates():
    m = enumerate_submodel(closed_universe(["w^w+w", "w^(w+1)", "w*2+1"]), 2)
    assert any(len(c.terms) > 1 for p in m.worlds for c in p.coords)
    names = {p: f"W{i}" for i, p in enumerate(m.worlds) if i % 2}
    for labels in (None, names):
        nodes = re.findall(r'^  n(\d+) \[label="(.*)"\];$', render_dot(m, labels=labels), re.M)
        assert [int(i) for i, _ in nodes] == list(range(len(m.worlds)))
        for (_, text), p in zip(nodes, m.worlds):
            expected = print_point(p)
            if labels and p in labels:
                expected = f"{labels[p]}\\n{expected}"
            assert text == expected


def test_a_high_max_index_costs_only_the_relations_with_edges(monkeypatch):
    # the relations from the deepest support up share one empty column, and
    # render_dot stops before them: it styles relation 0 alone
    styled = []
    edge_style = ignatiev._edge_style
    monkeypatch.setattr(ignatiev, "_edge_style", lambda n: styled.append(n) or edge_style(n))
    universe = finite_universe(50)
    tracemalloc.start()
    try:
        m = enumerate_submodel(universe, 20_000)
        dot = render_dot(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and styled == [0]
    assert dot == render_dot(enumerate_submodel(universe, 0))
    assert m.edge_count(20_000) == 0 and not m.successors(20_000, m.worlds[-1])
    assert validity_check(parse_formula("[20000]F"), m).value


def test_render_dot_escapes_labels():
    # a quote or a backslash in a label must neither end the DOT string nor
    # open an escape of its own
    m = enumerate_submodel(finite_universe(1), 0)
    one = Point.of([from_int(1)])
    cases = {
        'a"b': 'a\\"b',
        "a\\b": "a\\\\b",
        'a\\"];x [label="y': 'a\\\\\\"];x [label=\\"y',
    }
    for label, escaped in cases.items():
        nodes = re.findall(r'^  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];$', render_dot(m, labels={one: label}), re.M)
        assert nodes == [("0", "<0>"), ("1", f"{escaped}\\n<1>")], label


# the kripke workload's catalog of small ordinals, whose closures under
# last exponents make branching universes
CATALOG = (
    "1", "2", "3", "w", "w+1", "w+2", "w*2", "w*2+1", "w^2", "w^2+1", "w^2+w",
    "w^2*2", "w^3", "w^w", "w^w+1", "w^w+w", "w^(w+1)", "w^(w*2)", "w^w^w",
)


def test_render_dot_matches_the_per_arrow_oracle():
    # each span's arrows are one join over names formatted once; the bytes
    # are those of one f-string per arrow
    rng = random.Random(32)
    catalog = [parse_ordinal(text) for text in CATALOG]
    fragments = [enumerate_submodel(rng.sample(catalog, rng.randint(1, 5)), rng.randint(0, 3)) for _ in range(40)]
    # a mid-size fragment, the shape of the large model inputs
    fragments.append(enumerate_submodel([parse_ordinal(f"w^(w^{i})") for i in range(2, 13)], 3))
    assert {m.max_index for m in fragments} == {0, 1, 2, 3} and len(fragments[-1].worlds) > 500
    for k, m in enumerate(fragments):
        labels = {p: f'w{i} "q" \\ b\\"' for i, p in enumerate(m.worlds) if (i + k) % 3 == 0}
        for reduce_transitive in (True, False):
            for named in (None, labels):
                expected = samples.render_dot_oracle(m, named, reduce_transitive)
                assert render_dot(m, named, reduce_transitive) == expected, (m, reduce_transitive)


def test_render_dot_labels_must_be_worlds():
    m = enumerate_submodel(finite_universe(2), 1)
    for text in ("<7>", "<2, 1>"):
        with pytest.raises(PointNotInModelError):
            render_dot(m, labels={parse_point(text): "X"})


def test_render_dot_deterministic():
    m = enumerate_submodel([W_TO_W, ZERO, W, from_int(1)], 2)
    again = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    assert render_dot(m) == render_dot(again)


def test_fragments_share_one_point_per_world():
    # the worlds of a fragment come from one memo keyed by their coordinates,
    # so two fragments whose universes meet hold one Point for each world
    # both have
    m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    other = enumerate_submodel([from_int(2), W], 3)
    mine = {p.coords: p for p in m.worlds}
    shared = [q for q in other.worlds if q.coords in mine]
    assert list(map(print_point, shared)) == ["<0>", "<1>", "<w>", "<w, 1>"]
    assert all(mine[q.coords] is q for q in shared)


def test_a_point_built_elsewhere_is_the_same_world():
    # sharing is an optimisation: a parsed point, a Point of its own, is the
    # fragment's world to membership, forcing and render_dot's labels
    m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
    p = parse_point("<w^w, w, 1>")
    world = next(q for q in m.worlds if q == p)
    assert world is not p and p in m
    for text in ("<0>T", "<2>T", "[1]<0>T", "<1><0>T -> <2>T"):
        f = parse_formula(text)
        assert forces(m, p, f) is forces(m, world, f)
    labels = {p: "ISigma1", parse_point("<w^w, w>"): "PRA"}
    assert render_dot(m, labels=labels) == (GOLDEN / "labeled_fragment_idx2.dot").read_text(encoding="utf-8")


def test_kept_world_texts_leave_the_golden_bytes():
    # a world keeps its text from its first drawing, with a label or
    # without: in either order the labelled DOT is the golden file, and the
    # unlabelled one is the golden file without its labels
    golden = (GOLDEN / "labeled_fragment_idx2.dot").read_text(encoding="utf-8")
    plain = golden.replace("ISigma1\\n", "").replace("PRA\\n", "")
    labels = {ISIGMA1: "ISigma1", PRA: "PRA"}
    for order in ((None, labels), (labels, None)):
        ignatiev._world.cache_clear()
        m = enumerate_submodel([ZERO, from_int(1), W, W_TO_W], 2)
        assert not any(hasattr(p, "_text") for p in m.worlds)
        for names in order:
            assert render_dot(m, labels=names) == (golden if names else plain)
        assert all(p._text == print_point(p) for p in m.worlds)


# --- structural relations against their definitions ----------------------

CATALOG = ["1", "2", "3", "w", "w+1", "w*2", "w*2+1", "w^2", "w^2+w", "w^2*2", "w^w", "w^w+1", "w^(w+1)", "w^w^w"]


def closed_universe(texts):
    universe = {ZERO}
    for text in texts:
        x = parse_ordinal(text)
        while x not in universe:
            universe.add(x)
            x = last_exponent(x)
    return sorted(universe)


def suite_fragments():
    """Every fragment the suite builds, then seeded branching universes."""
    for k in range(6):
        for max_index in range(4):
            yield finite_universe(k), max_index
    yield finite_universe(1), 17
    yield [ZERO, from_int(1), W, parse_ordinal("w+1")], 1
    yield [ZERO, from_int(1), W, W_TO_W], 2
    rng = random.Random(2)
    for _ in range(40):
        universe = closed_universe(rng.sample(CATALOG, rng.randint(1, 5)))
        for max_index in range(4):
            yield universe, max_index


def transitive_reduction(edges):
    """Covering pairs of a strict order by brute force, O(E^2)."""
    present = set(edges)
    return [
        (p, q)
        for (p, q) in edges
        if not any((p, r) in present and (r, q) in present for r in {e[1] for e in present if e[0] == p})
    ]


def drawn_arrows(dot):
    """(relation, source, target) per arrow line; relation n has n `:invis:`."""
    out = []
    for line in dot.splitlines():
        if " -> " in line:
            left, right = line.strip().rstrip(";").split(" -> ")
            out.append((line.count(":invis:"), int(left[1:]), int(right.split(" ")[0][1:])))
    return out


def test_structural_relations_match_definitions():
    for universe, max_index in suite_fragments():
        m = enumerate_submodel(universe, max_index)
        assert list(m.worlds) == sorted(set(m.worlds), key=lambda p: p.coords)
        if len(universe) ** (max_index + 1) <= 4096:
            every = {
                Point.of(c)
                for c in itertools.product(universe, repeat=max_index + 1)
                if first_violation(c) is None
            }
            assert set(m.worlds) == every
        index = {p: i for i, p in enumerate(m.worlds)}
        covers, full = [], []
        for n in range(max_index + 1):
            for p in m.worlds:
                assert m.successors(n, p) == tuple(q for q in m.worlds if relation_holds(n, p, q))
            assert m.edge_count(n) == len(m.edges(n))
            for edges, into in ((transitive_reduction(m.edges(n)), covers), (m.edges(n), full)):
                into.extend(sorted((n, index[p], index[q]) for p, q in edges))
        assert drawn_arrows(render_dot(m)) == covers
        assert drawn_arrows(render_dot(m, reduce_transitive=False)) == full


def test_forces_worm_agrees_with_rank_criterion():
    # each world of the suite's fragments once, and finite:0..6 at max index 3
    fragments = list(suite_fragments()) + [(finite_universe(k), 3) for k in range(7)]
    worlds = {p for universe, max_index in fragments for p in enumerate_submodel(universe, max_index).worlds}
    for a in samples.all_worms(4, 3):
        top = max(a.letters) + 1 if a.letters else 0
        assert min_point_for_worm(a) == Point.of(ordinal_of(a, n) for n in range(top + 1))
        for p in worlds:
            assert forces_worm(p, a) == rank_criterion(p, a), (p, a)


def definitional_truth(m, g):
    """The worlds of m forcing g, straight from the definition: each box and
    diamond quantifies over m.worlds through relation_holds."""
    match g:
        case Top():
            return set(m.worlds)
        case Bottom():
            return set()
        case Implies(left=left, right=right):
            return (set(m.worlds) - definitional_truth(m, left)) | definitional_truth(m, right)
        case Box(index=n, body=body):
            inner = definitional_truth(m, body)
            return {p for p in m.worlds if all(q in inner for q in m.worlds if relation_holds(n, p, q))}
        case Diamond(index=n, body=body):
            inner = definitional_truth(m, body)
            return {p for p in m.worlds if any(q in inner for q in m.worlds if relation_holds(n, p, q))}


def random_formula(rng, depth, max_index):
    pick = rng.randrange(5 if depth else 2)
    if pick == 0:
        return Top()
    if pick == 1:
        return Bottom()
    if pick == 2:
        return Implies(random_formula(rng, depth - 1, max_index), random_formula(rng, depth - 1, max_index))
    modality = Box if pick == 3 else Diamond
    return modality(rng.randint(0, max_index), random_formula(rng, depth - 1, max_index))


def test_evaluator_matches_definition():
    rng, deep = random.Random(5), random.Random(6)
    for universe, max_index in suite_fragments():
        m = enumerate_submodel(universe, max_index)
        shallow = [random_formula(rng, 3, max_index) for _ in range(12)]
        for f in shallow + [random_formula(deep, 6, max_index) for _ in range(2)]:
            truth = definitional_truth(m, f)
            for p in m.worlds:
                result = forces(m, p, f)
                assert (result.value, result.exact) == (p in truth, m.witness_complete), (universe, p, f)
            result = validity_check(f, m)
            assert (result.value, result.exact) == (len(truth) == len(m.worlds), m.witness_complete), (universe, f)


def test_dropped_fragment_is_freed_without_the_cycle_collector():
    # nothing of a fragment refers back to it, so dropping the last reference
    # frees it at once, with the cyclic collector switched off
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        model = enumerate_submodel([from_int(i) for i in range(4)], 2)
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
