import itertools
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import samples
from samples import concat, in_worms
from wormcalc import spectrum
from wormcalc.cli import main
from wormcalc.ignatiev import Point, is_valid_point, min_point_for_worm
from wormcalc.ordinal import (
    ZERO,
    add,
    compare,
    from_int,
    last_exponent,
    omega_power,
    parse_ordinal,
)
from wormcalc.spectrum import (
    LimitTheory,
    Spectrum,
    TheoryPresentation,
    conservation_level,
    describe_conservation,
    normalize,
    registry,
)
from wormcalc.worm import (
    TOP,
    Worm,
    compare_worms,
    head,
    ordinal_of,
    parse_worm,
    remainder,
    worm_of_ordinal,
)

W = parse_ordinal("w")
W_TO_W = parse_ordinal("w^w")


def worm_theory(a: Worm) -> TheoryPresentation:
    """The presentation of the theory axiomatized by the worm itself:
    its progression at every level that can see any of it."""
    top = max(a.letters) if a.letters else 0
    return TheoryPresentation.of({n: a for n in range(top + 1)})


def small_presentations():
    pool = samples.all_worms(2, 2)
    options = [None] + pool
    for picks in itertools.product(options, repeat=3):
        entries = {n: w for n, w in enumerate(picks) if w is not None}
        yield TheoryPresentation.of(entries)


def random_presentations(count, seed=0):
    """Seeded presentations over levels 0-6, each stored worm of length at
    most 6 over letters 0-6."""
    rng = random.Random(seed)
    for _ in range(count):
        levels = rng.sample(range(7), rng.randint(0, 7))
        yield TheoryPresentation.of(
            {
                n: Worm(tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 6))))
                for n in levels
            }
        )


def normalize_presentation_oracle(t: TheoryPresentation) -> tuple[Worm, ...]:
    """The closure computed on worms, for levels 0 through the max level.

    Pass 1 replaces each stored worm by its level head (a level-n
    progression only sees the level-n head). Pass 2 walks top-down: when
    the level above outstrips the head of the level below, the lower worm
    is replaced by the upper worm followed by whatever part of the lower
    one the upper level cannot express. One pass suffices: after a rewrite
    the new level-(n+1) head is exactly the worm above, so no earlier step
    can fire again.
    """
    entries = dict(t.entries)
    top = max(entries, default=0)
    worms = [head(entries.get(n, TOP), n) for n in range(top + 1)]
    for n in range(top - 1, -1, -1):
        upper = worms[n + 1]
        if compare_worms(worms[n], upper, n + 1) < 0:
            worms[n] = concat(upper, remainder(worms[n], n + 1))
    return tuple(worms)


def test_presentation_construction():
    t = TheoryPresentation.of({1: parse_worm("1"), 0: parse_worm("0.1")})
    assert t.entries == ((0, parse_worm("0.1")), (1, parse_worm("1")))
    with pytest.raises(ValueError):
        TheoryPresentation(((-1, TOP),))
    with pytest.raises(ValueError):
        TheoryPresentation(((1, TOP), (0, TOP)))
    # each of these was built; normalize then raised TypeError or
    # AttributeError, or read True as level 1
    for entries in (((1.5, Worm((2,))),), ((1, "2"),), ((True, TOP),), (("1", TOP),), ((0, None),)):
        with pytest.raises(ValueError):
            TheoryPresentation(entries)


def test_presentation_of_checks_levels_before_sorting():
    # {"a": ..., 1: ...} used to fail in sorted() with a TypeError
    for entries in ({"a": TOP, 1: TOP}, {1: TOP, 2.5: TOP}, {True: TOP}, {None: TOP, 0: TOP}):
        with pytest.raises(ValueError, match="natural level"):
            TheoryPresentation.of(entries)


def test_presentation_json_round_trip():
    t = TheoryPresentation.from_json('{"entries":{"0":"0.1","1":"1"}}')
    assert dict(t.entries) == {0: parse_worm("0.1"), 1: parse_worm("1")}
    assert TheoryPresentation.from_json(t.to_json()) == t
    named = TheoryPresentation.from_json('{"name":"demo","entries":{"2":"2"}}')
    assert named.name == "demo"
    assert named.to_json()["name"] == "demo"
    # unequal presentations print apart: the repr shows a name that is there
    assert repr(t) == "TheoryPresentation({0: '0.1', 1: '1'})"
    assert repr(named) == "TheoryPresentation({2: '2'}, name='demo')"
    assert repr(TheoryPresentation((), "a")) != repr(TheoryPresentation((), "b"))
    for bad in (
        "[]",
        '{"entries":{"-1":"T"}}',
        '{"entries":{"0":"banana"}}',
        '{"entries":["0"]}',
        '{"entries":null}',
        '{"entries":{"0":1}}',
        '{"entries":{"x":"T"}}',
        '{"entries":{"١":"T"}}',
        # a leading zero would let two keys name one level
        '{"entries":{"1":"1","01":"0"}}',
        '{"entries":{"00":"T"}}',
        '{"entries":{"":"T"}}',
        # keys are strings, as in JSON text; 1 would collide with "1"
        {"entries": {1: "1", "1": "0"}},
        # the name is a string when present
        '{"name":[1,2],"entries":{"0":"0"}}',
        '{"name":3,"entries":{}}',
        '{"name":null,"entries":{}}',
    ):
        with pytest.raises((ValueError,)):
            TheoryPresentation.from_json(bad)
    # json.loads alone keeps the last of two equal keys, so a level was named twice
    for bad in ('{"entries":{"1":"1","1":"0"}}', '{"name":"a","name":"b","entries":{}}'):
        with pytest.raises(ValueError, match="is repeated"):
            TheoryPresentation.from_json(bad)


def test_repeated_key_is_refused_in_linear_time():
    # the repeat was looked for in a new dict of every prefix: 8,000 keys took 1.9 s
    keys = [f'"{n}":"T"' for n in range(50_000)] + ['"7":"0"']
    text = '{"entries":{' + ",".join(keys) + "}}"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="JSON key '7' is repeated"):
        TheoryPresentation.from_json(text)
    assert time.perf_counter() - start < 1


def test_repeated_keys_are_refused_in_every_object_that_is_read(capsys):
    # the presentation, its entries and the spectrum object each refuse a
    # repeat, which json.loads would read as its last value
    for read, text, key in (
        (TheoryPresentation.from_json, '{"entries":{"1":"1","1":"0"}}', "1"),
        (TheoryPresentation.from_json, '{"name":"a","name":"b","entries":{}}', "name"),
        (TheoryPresentation.from_json, '{"entries":{},"entries":{"0":"1"}}', "entries"),
        (Spectrum.from_json, '{"coords":["1"],"coords":["w"]}', "coords"),
    ):
        with pytest.raises(ValueError, match=f"^JSON key '{key}' is repeated$"):
            read(text)
    # a worm that is an object is refused as no string, repeat or not
    for text in ('{"entries":{"0":{"a":1,"a":2}}}', '{"entries":{"0":{}}}'):
        with pytest.raises(ValueError, match="^the worm at level 0 must be a string$"):
            TheoryPresentation.from_json(text)
        assert main(["spectrum", text]) == 2
        assert capsys.readouterr() == ("", "error: the worm at level 0 must be a string\n")
    # nothing inside a value the reader ignores is read, so no answer can
    # come from a last value there
    extra = '"extra": {"a": 1, "a": 2}'
    assert TheoryPresentation.from_json('{"entries": {}, %s}' % extra) == TheoryPresentation(())
    assert Spectrum.from_json('{"coords": ["1"], %s}' % extra) == Spectrum(Point.of([from_int(1)]))


JSON_SPACE = " \t\r\n"


@pytest.mark.parametrize("read", [TheoryPresentation.from_json, Spectrum.from_json])
def test_texts_decode_as_json_loads_decodes_them(read):
    texts = (
        "",
        "   ",
        "nul",
        JSON_SPACE + '{"entries": {"0": "1"}}' + JSON_SPACE,
        JSON_SPACE + '{"coords": ["w", "1"]}' + JSON_SPACE,
        '{"entries": {"0": "1"}} x',
        '{"coords": []}' + JSON_SPACE + "x",
        # neither is JSON whitespace, though str.strip would take both
        '{"entries": {}}\x0c',
        '\xa0{"coords": []}',
        "{}",
        '{"entries": []}',
        '{"name": "x"}',
    )
    for text in texts:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as expected:
            with pytest.raises(json.JSONDecodeError) as caught:
                read(text)
            assert (str(caught.value), caught.value.pos) == (str(expected), expected.pos), repr(text)
            continue
        # a text that decodes reads as its decoded dict does: the same
        # value, or the same refusal
        try:
            expected = read(data)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                read(text)
        else:
            assert read(text) == expected, repr(text)
    # the position after the whitespace, as json.loads gives it
    with pytest.raises(json.JSONDecodeError, match=r"^Extra data: line 1 column 25 \(char 24\)$"):
        read('{"entries": {"0": "1"}} x')


def test_presentation_json_builds_sorted_entries():
    t = TheoryPresentation.from_json('{"entries":{"10":"T","0":"0","2":"1.0"}}')
    assert t.entries == ((0, parse_worm("0")), (2, parse_worm("1.0")), (10, TOP))
    public = TheoryPresentation(t.entries)
    assert t == public and hash(t) == hash(public)
    assert TheoryPresentation.from_json('{"entries":{}}').name is None
    assert TheoryPresentation.from_json('{"name":"","entries":{}}').name == ""


def test_spectrum_of_worm_examples():
    assert min_point_for_worm(parse_worm("2")) == Point.of([W_TO_W, W, from_int(1)])
    assert min_point_for_worm(TOP) == Point.of([ZERO])
    p = min_point_for_worm(parse_worm("1.0.1"))
    assert p == Point.of([parse_ordinal("w*2"), from_int(1)])


def test_normalize_progression_union_example():
    t = TheoryPresentation.of({1: parse_worm("1"), 0: parse_worm("0.1")})
    closed = normalize_presentation_oracle(t)
    assert closed == (parse_worm("1.0.1"), parse_worm("1"))
    s = normalize(t)
    assert s.point == Point.of([parse_ordinal("w*2"), from_int(1)])


def test_normalize_single_level_one_progression():
    s = normalize(TheoryPresentation.of({1: parse_worm("2")}))
    assert s.point == Point.of([W_TO_W, W, ZERO])
    assert s.point == Point.of([W_TO_W, W])


def test_normalize_fixed_point():
    s = Spectrum(min_point_for_worm(parse_worm("2.1")))
    again = normalize(s.as_presentation())
    assert again == s
    assert again.point == s.point


def test_normalize_empty_presentation_is_base_theory():
    assert normalize(TheoryPresentation.of({})).point == Point.of([ZERO])


def test_normalize_skips_empty_levels():
    # only levels up to the highest nonzero rank are visited
    assert normalize(TheoryPresentation.of({10**6: TOP})).point == Point.of([ZERO])


def test_normalize_high_empty_level_allocates_little():
    tracemalloc.start()
    try:
        s = normalize(TheoryPresentation.of({2_000_000: TOP}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.to_json() == {"coords": ["0"], "worms": ["T"]}
    assert peak < 1 << 20


def _same_json_as_oracles(t: TheoryPresentation) -> None:
    got = json.dumps(normalize(t).to_json())
    assert got == json.dumps(samples.spectrum_json_oracle(samples.normalize_oracle(t))), t


def test_normalize_and_json_match_oracles_on_acceptance_slice():
    # every 11th member: 7,558 presentations across all three family parts
    for t in itertools.islice(samples.presentation_family(), 0, None, 11):
        _same_json_as_oracles(t)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=8), samples.worms(max_letter=5, max_len=5), max_size=6
    )
)
@example({})
@example({0: TOP, 3: TOP})
@example({0: Worm((1,)), 5: Worm((0, 1, 2))})
@example({1: Worm((0,)), 2: Worm((2,)), 7: Worm((3,))})
@settings(max_examples=300)
def test_normalize_and_json_match_oracles(entries):
    # levels reach past every letter, so stored worms are often T or rank 0
    # at their level, and levels above every nonzero rank are common
    _same_json_as_oracles(TheoryPresentation.of(entries))


def test_normalize_matches_worm_rewrite_oracle():
    family = itertools.chain(small_presentations(), random_presentations(3000))
    for t in family:
        closed = normalize_presentation_oracle(t)
        expected = Point.of(ordinal_of(w, n) for n, w in enumerate(closed))
        assert normalize(t).point == expected, t


def test_spectrum_json():
    s = normalize(TheoryPresentation.from_json('{"entries":{"0":"0.1","1":"1"}}'))
    assert s.to_json() == {"coords": ["w*2", "1"], "worms": ["1.0.1", "1"]}
    assert Spectrum.from_json(s.to_json()) == s
    with pytest.raises(ValueError, match="not a world"):
        Spectrum.from_json({"coords": ["1", "5"]})
    for bad in ({}, {"coords": None}, {"coords": [1]}):
        with pytest.raises(ValueError, match="coords"):
            Spectrum.from_json(bad)
    with pytest.raises(ValueError, match="'coords' is repeated"):
        Spectrum.from_json('{"coords":["1"],"coords":["w"]}')


def test_json_views_are_fresh_lists_of_memoized_strings():
    s = normalize(TheoryPresentation.from_json('{"entries":{"0":"0.1","1":"1"}}'))
    out = s.to_json()
    out["coords"][0] = "junk"
    out["worms"].append("junk")
    out["extra"] = []
    assert s.to_json() == {"coords": ["w*2", "1"], "worms": ["1.0.1", "1"]}
    # an equal point built apart from s meets the entries s filled
    out = s.to_json()
    size = spectrum._views.cache_info().currsize
    again = Spectrum.from_json(json.dumps(out))
    assert again.to_json() == out
    assert spectrum._views.cache_info().currsize == size


def test_json_views_keep_nothing_from_a_failed_print(capsys):
    # the worm of this coordinate nests past the recursion limit
    info = spectrum._views.cache_info()
    assert main(["spectrum", '{"entries":{"1200":"1200"}}']) == 2
    assert capsys.readouterr().err.startswith("error: input nested too deeply")
    after = spectrum._views.cache_info()
    assert (after.misses, after.currsize) == (info.misses + 1, info.currsize)


def test_a_refused_print_keeps_no_view_and_joins_once(capsys):
    # the join is a loop and succeeds; only printing its 1200-high tower
    # fails. The failed print keeps no view, and the join's one entry is the
    # exact spectrum, which a second refusal reads instead of joining again
    spectrum._spectrum_of_ranks.cache_clear()
    spectrum._views.cache_clear()
    for _ in range(2):
        assert main(["spectrum", '{"entries":{"1200":"1200"}}']) == 2
        assert capsys.readouterr().err.startswith("error: input nested too deeply")
    joins, views = spectrum._spectrum_of_ranks.cache_info(), spectrum._views.cache_info()
    assert (views.hits, views.misses, views.currsize) == (0, 2, 0)
    assert (joins.hits, joins.misses, joins.currsize) == (1, 1, 1)
    t = TheoryPresentation.from_json('{"entries":{"1200":"1200"}}')
    assert normalize(t) == samples.normalize_oracle(t)


def test_json_views_match_the_oracle_from_a_cleared_memo():
    spectra = [normalize(TheoryPresentation.of({n: a})) for n in range(4) for a in samples.all_worms(4, 3)]
    spectrum._views.cache_clear()
    # the first pass fills the memo, the second reads it
    for _ in range(2):
        for s in spectra:
            assert s.to_json() == samples.spectrum_json_oracle(s), s
    assert spectrum._views.cache_info().hits > 0


def test_spectrum_memos_match_the_oracles_from_cleared_memos():
    # every single-level presentation over worms of length <= 4 and letters
    # <= 3, and every two-level one over worms of length <= 2 and letters <= 2
    pool = samples.all_worms(2, 2)
    family = [TheoryPresentation.of({n: a}) for n in range(4) for a in samples.all_worms(4, 3)]
    family += [
        TheoryPresentation.of({low: a, high: b})
        for low, high in itertools.combinations(range(4), 2)
        for a in pool
        for b in pool
    ]
    memos = (spectrum._spectrum_of_ranks, spectrum._views)
    for memo in memos:
        memo.cache_clear()
    # the first pass fills both memos, the second only reads them
    for filling in (True, False):
        before = [memo.cache_info() for memo in memos]
        for t in family:
            s = normalize(t)
            expected = samples.normalize_oracle(t)
            assert s == expected, t
            assert s.to_json() == samples.spectrum_json_oracle(expected), t
        for memo, info in zip(memos, before):
            after = memo.cache_info()
            assert after.hits + after.misses - info.hits - info.misses == len(family)
            assert (after.misses > info.misses) is filling
            assert after.currsize == after.misses


def test_presentations_with_equal_ranks_share_one_spectrum():
    # "1" and "1.0" have one level-1 head, and T ranks 0 at level 0, so all
    # three rank to (0, 1)
    texts = ('{"entries":{"1":"1"}}', '{"entries":{"1":"1.0"}}', '{"entries":{"0":"T","1":"1.0"}}')
    first, *others = [normalize(TheoryPresentation.from_json(text)) for text in texts]
    assert all(s is first for s in others)
    assert first.to_json() == {"coords": ["w", "1"], "worms": ["1", "1"]}
    # other ranks with the same least world: an equal spectrum, one view
    size = spectrum._views.cache_info().currsize
    assert normalize(TheoryPresentation.from_json('{"entries":{"0":"1","1":"1"}}')) == first
    assert first.to_json() == {"coords": ["w", "1"], "worms": ["1", "1"]}
    assert spectrum._views.cache_info().currsize == size


def test_conservation_examples():
    named = registry()
    assert conservation_level(named["ISigma1"], named["PRA"]) == 1
    assert describe_conservation(1) == "level=1 (Pi^0_2 agreement)"
    assert conservation_level(named["PRA"], named["PRA"]) == "all"
    left = Spectrum.of_point(Point.of([parse_ordinal("w*2"), from_int(1)]))
    right = Spectrum.of_point(Point.of([parse_ordinal("w+1")]))
    assert conservation_level(left, right) == "none"


def test_registry():
    named = registry()
    assert named["EA+"].point == Point.of([ZERO])
    assert named["ISigma1"].point == Point.of([W_TO_W, W, from_int(1)])
    assert named["PRA"].point == Point.of([W_TO_W, W])
    assert isinstance(named["PA"], LimitTheory)


def test_spectra_compare_by_point_only():
    p = Point.of([W_TO_W, W, from_int(1)])
    assert Spectrum(p) == Spectrum.of_point(p)
    # the worm view is derived from the point, so it is always the canonical one
    assert Spectrum(p).worms == tuple(worm_of_ordinal(p.coord(n), n) for n in range(3))
    assert Spectrum(p).worms == (parse_worm("2"),) * 3


def test_normalize_outputs_are_valid_points():
    for t in small_presentations():
        s = normalize(t)
        assert is_valid_point(s.point), t


def test_normalize_idempotent():
    for t in small_presentations():
        s = normalize(t)
        assert normalize(s.as_presentation()).point == s.point, t


def test_normalize_dominates_input():
    for t in small_presentations():
        s = normalize(t)
        # an absent level ranks 0, which every coordinate dominates
        for n, w in t.entries:
            before = ordinal_of(head(w, n), n)
            assert compare(s.point.coord(n), before) >= 0, t


def test_normalize_matches_worm_theory():
    # the union of a worm's progressions at every level has the worm's own
    # minimal point as its spectrum
    for a in samples.all_worms(4, 3):
        assert normalize(worm_theory(a)).point == min_point_for_worm(a), a


def test_single_entry_level_drop():
    # a lone level-n progression pins coordinates up to n and nothing above
    for n in range(4):
        for a in samples.all_worms(3, 3):
            if not in_worms(a, n):
                continue
            point = normalize(TheoryPresentation.of({n: a})).point
            for m in range(n + 1):
                assert point.coord(m) == ordinal_of(a, m), (n, a, m)
            for m in range(n + 1, n + 4):
                assert point.coord(m) == ZERO, (n, a, m)


def test_rewrite_is_minimal_upper_bound():
    # brute-force oracle: the rewritten worm realizes the least level-n
    # ordinal that dominates both progressions being joined
    candidates = samples.all_worms(5, 3)
    ranks0 = {c: ordinal_of(c, 0) for c in candidates}
    ranks1 = {c: ordinal_of(c, 1) for c in candidates}
    uppers = [w for w in samples.all_worms(2, 2) if in_worms(w, 1) and w.letters]
    lowers = samples.all_worms(2, 2)
    for upper in uppers:
        for lower in lowers:
            fires = compare(ordinal_of(head(lower, 1), 1), ordinal_of(upper, 1)) < 0
            # the coordinate step fires exactly when the worm rewrite does
            step = compare(ordinal_of(upper, 1), last_exponent(ordinal_of(lower))) > 0
            assert step == fires, (upper, lower)
            if not fires:
                continue  # the closure step does not fire for this pair
            rewritten = concat(upper, remainder(lower, 1))
            target = ordinal_of(rewritten, 0)
            assert target == add(ordinal_of(lower), omega_power(ordinal_of(upper, 1))), (upper, lower)
            feasible = [
                ranks0[c]
                for c in candidates
                if compare(ranks0[c], ranks0.get(lower, ordinal_of(lower))) >= 0
                and compare(ranks1[c], ranks1.get(upper, ordinal_of(upper, 1))) >= 0
            ]
            best = min(feasible, key=_rank_key)
            assert best == target, (upper, lower)


def _rank_key(x):
    from functools import cmp_to_key

    from wormcalc.ordinal import compare as ordinal_compare

    return cmp_to_key(ordinal_compare)(x)
