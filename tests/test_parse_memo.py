"""The parsers' text memos: each distinct text is parsed once per process
into one value, a text that fails keeps nothing, and a non-string is
refused before it reaches a memo. A presentation's JSON entries, (level,
worm text) pairs, are read the same way."""

import json

import pytest

import samples
from wormcalc import formula, ordinal, spectrum, worm
from wormcalc.cli import main
from wormcalc.parsing import ParseError
from wormcalc.spectrum import TheoryPresentation

# each grammar: its parser, its memo, its printer and malformed texts
GRAMMARS = {
    "worm": (worm.parse_worm, worm._parsed_worm, worm.print_worm, ("1..2", "<1>", "01", "T.0")),
    "ordinal": (ordinal.parse_ordinal, ordinal._parsed_ordinal, ordinal.print_ordinal, ("w+w^2", "00", "w^", "1+w")),
    "formula": (formula.parse_formula, formula._parsed_formula, formula.print_formula, ("<0>", "T &", "<01>T", "(T")),
}


def printed_texts(grammar: str) -> list[str]:
    if grammar == "worm":
        values = samples.all_worms(4, 3)
    elif grammar == "ordinal":
        values = samples.ordinal_sample()
    else:
        values = samples.axiom_instances(samples.all_worms(2, 1), 1)
    return [GRAMMARS[grammar][2](value) for value in values]


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_parsers_refuse_non_strings(grammar):
    parse, memo, _, _ = GRAMMARS[grammar]
    size = memo.cache_info().currsize
    # a sequence of strings is no text, and a tuple would be a memo key
    for argument in (5, None, ["T"], ("~", "T")):
        with pytest.raises(TypeError, match="is not a string"):
            parse(argument)
    assert memo.cache_info().currsize == size


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_each_text_is_parsed_once(grammar):
    parse, memo, _, _ = GRAMMARS[grammar]
    texts = printed_texts(grammar)
    assert len(set(texts)) < memo.cache_parameters()["maxsize"]
    first = [parse(text) for text in texts]
    assert all(parse(text) is value for text, value in zip(texts, first))
    memo.cache_clear()
    # a fresh parse gives the same values: for ordinals and formulas, which
    # are interned, the same objects
    again = [parse(text) for text in texts]
    assert again == first
    if grammar != "worm":
        assert all(a is b for a, b in zip(again, first))


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_failed_parses_keep_nothing(grammar):
    parse, memo, _, bad = GRAMMARS[grammar]
    for text in bad:
        for _ in range(2):
            before = memo.cache_info()
            with pytest.raises(ParseError):
                parse(text)
            after = memo.cache_info()
            # checked again on every call, and never entered
            assert (after.misses, after.currsize) == (before.misses + 1, before.currsize), text


def test_deep_inputs_keep_nothing(capsys):
    # worms are flat; the ordinal and formula parsers recurse per nesting level
    for parse, memo, text, argv in (
        (ordinal.parse_ordinal, ordinal._parsed_ordinal, "w^" * 2000 + "1", ("worm-of", "0")),
        (formula.parse_formula, formula._parsed_formula, "~" * 3000 + "T", ("valid", "--universe", "finite:3")),
    ):
        size = memo.cache_info().currsize
        with pytest.raises(RecursionError):
            parse(text)
        assert memo.cache_info().currsize == size
        for _ in range(2):
            assert main([*argv, text]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: input nested too deeply")
        assert memo.cache_info().currsize == size


def test_refused_entries_keep_nothing():
    # a bad key, a bad worm text and each non-string worm: the memo keeps
    # no entry for any of them
    memo = spectrum._entry
    size = memo.cache_info().currsize
    worms = ('"1..2"', "5", "null", "true", "[1]", '{"a": 1}')
    texts = ['{"entries": {"01": "1"}}', '{"entries": {"x": "1"}}']
    for text in texts + [f'{{"entries": {{"0": {w}}}}}' for w in worms]:
        for _ in range(2):
            with pytest.raises(ValueError):
                TheoryPresentation.from_json(text)
            assert memo.cache_info().currsize == size, text


def test_each_family_entry_is_read_once():
    # one memo entry per distinct (level, worm text) pair: 1,364 over the
    # 83,130-member acceptance family, all under the bound
    family = list(samples.presentation_family())
    entries = {(str(n), worm.print_worm(w)) for t in family for n, w in t.entries}
    assert len(entries) == 1364 < spectrum._entry.cache_parameters()["maxsize"]
    memo = spectrum._entry
    memo.cache_clear()
    for t in family[::7]:
        assert TheoryPresentation.from_json(json.dumps(t.to_json())) == t
    info = memo.cache_info()
    assert info.misses == info.currsize <= len(entries)
    # a second pass only reads the memo
    for t in family[::7]:
        TheoryPresentation.from_json(json.dumps(t.to_json()))
    assert (memo.cache_info().misses, memo.cache_info().currsize) == (info.misses, info.currsize)
