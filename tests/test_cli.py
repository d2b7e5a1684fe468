import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wormcalc.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_rank_subcommand(capsys):
    code, out, _ = run(capsys, "o", "-n", "0", "1.0.1", "--ascii")
    assert (code, out) == (0, "w*2")
    code, out, _ = run(capsys, "o", "-n", "0", "1.0.1")
    assert (code, out) == (0, "ω·2")
    code, out, _ = run(capsys, "o", "-n", "1", "2", "--json")
    assert code == 0 and json.loads(out) == {"ordinal": "w"}


def test_compare_subcommand(capsys):
    assert run(capsys, "compare", "-n", "0", "0.1", "1.0.1")[:2] == (0, "Less")
    assert run(capsys, "compare", "-n", "1", "2", "1")[:2] == (0, "Greater")
    assert run(capsys, "compare", "T", "T")[:2] == (0, "Equal")


def test_head_rem_subcommands(capsys):
    assert run(capsys, "head", "-n", "1", "2.1.0.3")[:2] == (0, "2.1")
    assert run(capsys, "rem", "-n", "1", "2.1.0.3")[:2] == (0, "0.3")
    assert run(capsys, "head", "-n", "1", "0.1")[:2] == (0, "T")


def test_worm_of_subcommand(capsys):
    assert run(capsys, "worm-of", "0", "w*2")[:2] == (0, "1.0.1")
    assert run(capsys, "worm-of", "1", "w")[:2] == (0, "2")
    assert run(capsys, "worm-of", "0", "0")[:2] == (0, "T")


def test_point_check_subcommand(capsys):
    assert run(capsys, "point-check", "<w^w, w, 1>")[:2] == (0, "valid")
    code, out, _ = run(capsys, "point-check", "<2, 1>")
    assert (code, out) == (1, "invalid at index 0")
    code, out, _ = run(capsys, "point-check", "<2, 1>", "--json")
    assert code == 1 and json.loads(out) == {"valid": False, "index": 0}


def test_min_point_subcommand(capsys):
    assert run(capsys, "min-point", "0.1", "--ascii")[:2] == (0, "<w+1>")
    assert run(capsys, "min-point", "T", "--ascii")[:2] == (0, "<0>")
    code, out, _ = run(capsys, "min-point", "2", "--json")
    assert code == 0 and json.loads(out) == {"coords": ["w^w", "w", "1"]}


def test_unicode_output_round_trips(capsys):
    code, out, _ = run(capsys, "o", "-n", "0", "1.0.1")
    assert code == 0 and out == "ω·2"
    code, again, _ = run(capsys, "worm-of", "0", out)
    assert (code, again) == (0, "1.0.1")


def test_normalize_subcommand_inline_json(capsys):
    code, out, _ = run(capsys, "normalize", '{"entries":{"0":"0.1","1":"1"}}', "--ascii")
    assert code == 0
    assert out == "<w*2, 1> worms: 1.0.1 1"
    code, out, _ = run(capsys, "normalize", '{"entries":{"0":"0.1","1":"1"}}', "--json")
    assert code == 0 and json.loads(out) == {"coords": ["w*2", "1"], "worms": ["1.0.1", "1"]}


def test_spectrum_subcommand_from_file(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text('{"entries":{"1":"2"}}')
    code, out, _ = run(capsys, "spectrum", str(path), "--json")
    assert code == 0 and json.loads(out) == {"coords": ["w^w", "w"], "worms": ["2", "2"]}


def test_conserve_subcommand(capsys):
    code, out, _ = run(capsys, "conserve", "ISigma1", "PRA")
    assert (code, out) == (0, "level=1 (Pi^0_2 agreement)")
    code, out, _ = run(capsys, "conserve", "<w*2, 1>", "<w+1>")
    assert (code, out) == (1, "level=none (already Pi^0_1 ordinals differ)")
    code, out, _ = run(capsys, "conserve", "PRA", "PRA", "--json")
    assert code == 0 and json.loads(out) == {"level": "all"}
    code, _, err = run(capsys, "conserve", "PA", "PRA")
    assert code == 2 and "no point" in err


def test_model_subcommand_matches_golden(tmp_path, capsys):
    out_path = tmp_path / "model.dot"
    code, _, err = run(
        capsys, "model", "--universe", "finite:3", "--max-index", "2", "--dot", str(out_path)
    )
    assert code == 0
    assert "worlds=4" in err
    assert out_path.read_text() == (GOLDEN / "chain_finite3_idx2.dot").read_text(encoding="utf-8")


def test_model_subcommand_labels_match_golden(capsys):
    code, out, _ = run(
        capsys,
        "model",
        "--universe",
        "w^w,w,1",
        "--max-index",
        "2",
        "--label",
        "<w^w, w, 1>=ISigma1",
        "--label",
        "<w^w, w>=PRA",
    )
    assert code == 0
    assert out == (GOLDEN / "labeled_fragment_idx2.dot").read_text(encoding="utf-8").rstrip("\n")
    assert 'label="ISigma1\\n<w^w, w, 1>"' in out
    assert 'label="PRA\\n<w^w, w>"' in out


def test_model_subcommand_escapes_labels(capsys):
    # a quote in a label used to end the DOT string early, and exit 0
    code, out, _ = run(capsys, "model", "--universe", "finite:1", "--max-index", "0", "--label", '<1>=a"b')
    assert code == 0
    assert '  n1 [label="a\\"b\\n<1>"];' in out.splitlines()
    code, out, _ = run(capsys, "model", "--universe", "finite:1", "--max-index", "0", "--label", '<1>=a\\"];x [label="y')
    assert code == 0
    assert len(re.findall(r"^  n\d+ \[label=", out, re.M)) == 2
    assert '  n1 [label="a\\\\\\"];x [label=\\"y\\n<1>"];' in out.splitlines()


def test_model_no_reduce(capsys):
    code, out, _ = run(capsys, "model", "--universe", "finite:3", "--max-index", "0", "--no-reduce")
    assert code == 0
    assert out.count("->") == 6


def test_model_json_summary(capsys):
    code, out, _ = run(capsys, "model", "--universe", "finite:2", "--max-index", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["worlds"] == [["0"], ["1"], ["2"]]
    assert payload["edges"] == {"0": 3, "1": 0}
    assert payload["witness_complete"] is True


def test_forces_subcommand(capsys):
    code, out, _ = run(capsys, "forces", "--universe", "finite:3", "<3>", "<0><0><0>T")
    assert (code, out) == (0, "true")
    code, out, _ = run(capsys, "forces", "--universe", "finite:3", "<2>", "<0><0><0>T")
    assert (code, out) == (1, "false")
    code, out, err = run(capsys, "forces", "--universe", "w+1,w,1", "<w+1>", "<0><1>T")
    assert (code, out) == (0, "true")
    assert "fragment-relative" in err


def test_valid_subcommand(capsys):
    code, out, _ = run(capsys, "valid", "--universe", "finite:3", "[0]([0]T->T)->[0]T")
    assert (code, out) == (0, "true")
    code, out, _ = run(capsys, "valid", "--universe", "finite:1", "--max-index", "1", "[0]F->[1]F")
    assert (code, out) == (0, "true")
    code, out, _ = run(capsys, "valid", "--universe", "finite:2", "<0>T")
    assert (code, out) == (1, "false")


def test_valid_true_is_a_necessary_condition_only(capsys):
    # [1]F holds at every world <i> of finite:3 but fails at <w, 1>
    code, out, err = run(capsys, "valid", "--universe", "finite:3", "[1]F", "--json")
    assert (code, json.loads(out)) == (0, {"value": True, "exact": False})
    assert len(err.splitlines()) == 1 and "necessary condition" in err
    code, out, err = run(capsys, "valid", "--universe", "finite:2", "<0>T", "--json")
    assert (code, json.loads(out), err) == (1, {"value": False, "exact": True}, "")
    code, out, err = run(capsys, "valid", "--universe", "w", "[0]T", "--json")
    assert (code, json.loads(out)) == (0, {"value": True, "exact": False})
    assert len(err.splitlines()) == 1 and "fragment-relative" in err


def test_parse_errors_exit_2(capsys):
    for argv in (
        ("o", "-n", "0", "1..2"),
        ("worm-of", "0", "w^2+w^5"),
        ("point-check", "w, 1"),
        ("normalize", "/nonexistent/path.json"),
        ("normalize", '{"entries":'),
        ("model", "--universe", "banana", "--max-index", "1"),
        ("forces", "--universe", "finite:1", "<0>", "[3]T", "--max-index", "1"),
        # malformed presentation shapes, non-ASCII digits, coordinates that are no world
        ("spectrum", '{"entries":["0"]}'),
        ("spectrum", '{"entries":null}'),
        ("spectrum", '{"entries":{"0":1}}'),
        # "01" named level 1 a second time and overwrote it, answering <0>
        ("spectrum", '{"entries":{"1":"1","01":"0"}}'),
        # so did a repeated key: json.loads keeps the last of two equal keys
        ("spectrum", '{"entries":{"1":"1","1":"0"}}'),
        ("spectrum", '{"name":[1,2],"entries":{"0":"0"}}'),
        ("o", "١"),
        ("o", "²"),
        ("worm-of", "0", "w*١"),
        ("forces", "--universe", "finite:1", "<1>", "<١>T"),
        ("conserve", "<1, 5>", "PRA"),
        ("conserve", "PRA", "<w, w>"),
        ("model", "--universe", "finite:١"),
        ("model", "--universe", "finite:-1"),
        # leading zeros, refused as in every grammar
        ("model", "--universe", "finite:01"),
        ("forces", "--universe", "finite:00", "<0>", "T"),
        # labels must name worlds of the fragment
        ("model", "--universe", "finite:2", "--max-index", "1", "--label", "<7>=X"),
        ("model", "--universe", "finite:2", "--max-index", "1", "--label", "<2, 1>=X"),
        # a label is POINT=NAME
        ("model", "--universe", "finite:2", "--max-index", "1", "--label", "<1>"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
    assert err == "error: --label expects POINT=NAME, got '<1>'\n"


def test_formula_index_leading_zeros_exit_2(capsys):
    # as in worm text: `o '<01>T'` exits 2, and so does a formula with <01>
    for argv in (
        ("o", "<01>T"),
        ("valid", "--universe", "finite:2", "<01>T -> <1>T"),
        ("forces", "--universe", "finite:1", "<1>", "[007]F"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert "indices may not have leading zeros (at position 1)" in err, argv


def test_deep_inputs_exit_2(capsys):
    # long flat worms have no nesting: ranks split at every base letter in a loop
    assert run(capsys, "o", ".".join(["0"] * 1200)) == (0, "1200", "")
    assert run(capsys, "o", "--ascii", ".".join(["1"] * 1500)) == (0, "w^1500", "")
    # ranks take no stack per level; printing a tower 600 high still fits
    code, out, err = run(capsys, "o", ".".join(map(str, range(1, 601))))
    assert (code, out.count("\n"), err) == (0, 0, "")
    # the two ranks share the tower w^E, so comparing w^E with w^E + 1 stops there
    assert run(capsys, "compare", "1000", "0.1000") == (0, "Less", "")
    # nesting past the recursion limit is refused, never a traceback with exit 1
    for argv in (
        ("spectrum", '{"entries":{"1200":"1200"}}'),
        ("worm-of", "0", "w^" * 2000 + "1"),
        ("valid", "--universe", "finite:3", "~" * 3000 + "T"),
        # ranked in well under a second, but its point prints too deep
        ("min-point", "5000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv[0]
        assert err.startswith("error: input nested too deeply"), argv[0]


def test_coordinate_errors_count_positions_in_the_argument(capsys):
    # a coordinate's error is placed in the whole point or universe text
    for argv, position in (
        (("point-check", "<1, w^>"), 6),
        (("valid", "--universe", "w,w^", "T"), 4),
        (("forces", "--universe", "0, 1,w+w", "<0>", "T"), 7),
        (("point-check", " <w, 00>"), 5),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert err.startswith("parse error: ") and err.endswith(f"(at position {position})\n"), argv


def test_deeply_nested_json_exits_2(capsys):
    # the C JSON decoder recurses once per nesting level, and past the
    # recursion limit raises RecursionError, which main reports
    text = '{"entries":' + "[" * 100000 + "]" * 100000 + "}"
    code, out, err = run(capsys, "spectrum", text)
    assert (code, out, err) == (2, "", "error: input nested too deeply (recursion limit reached)\n")


def test_universe_error_position(capsys):
    for universe in ("finite:١", "finite:01"):
        code, _, err = run(capsys, "model", "--universe", universe)
        assert code == 2 and "position 7" in err, universe


def test_integer_arguments_are_ascii_naturals(capsys):
    # argparse refuses a bad value with SystemExit(2) and one "error:" line
    for argv in (
        ("o", "-n", "١", "1"),
        ("o", "-n", "+1", "1"),
        ("head", "-n", "-1", "0.1"),
        ("compare", "-n", "1_0", "1", "2"),
        ("worm-of", "-1", "w"),
        ("model", "--universe", "finite:2", "--max-index", "-1"),
        ("valid", "--universe", "finite:1", "--max-index", "²", "<0>T"),
        # leading zeros, which every grammar refuses
        ("o", "-n", "01", "1"),
        ("worm-of", "00", "w"),
        ("model", "--universe", "finite:01", "--max-index", "00"),
        ("valid", "--universe", "finite:1", "--max-index", "007", "<0>T"),
    ):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, ""), argv
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), argv


def test_worm_of_large_finite_ordinal(capsys):
    code, out, _ = run(capsys, "worm-of", "0", "5000")
    assert (code, out) == (0, ".".join(["0"] * 5000))


def test_usage_error_exit_2(capsys):
    for argv in (["frobnicate"], []):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert capsys.readouterr().err.count("\n") == 1, argv


def test_spectrum_skips_empty_levels(capsys):
    code, out, _ = run(capsys, "spectrum", '{"entries":{"2000000":"T"}}', "--ascii")
    assert (code, out) == (0, "<0> worms: T")


def test_module_entry_point():
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wormcalc", "o", "-n", "0", "1.0.1", "--ascii"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "w*2"


PRESENTATION = '{"entries":{"0":"0.1","1":"1"}}'

# each subcommand name: its argv, its exact text-mode stdout and exit code,
# and one input it refuses
CONTRACT = [
    (["o", "1.0.1", "--ascii"], "w*2\n", 0, ["o", "1..2"]),
    (["compare", "0.1", "1.0.1"], "Less\n", 0, ["compare", "0.1", "1.x"]),
    (["head", "-n", "1", "2.1.0.3"], "2.1\n", 0, ["head", "2.a"]),
    (["rem", "-n", "1", "2.1.0.3"], "0.3\n", 0, ["rem", "01"]),
    (["worm-of", "0", "w*2"], "1.0.1\n", 0, ["worm-of", "0", "w^2+w^5"]),
    (["point-check", "<2, 1>"], "invalid at index 0\n", 1, ["point-check", "w, 1"]),
    (["min-point", "0.1", "--ascii"], "<w+1>\n", 0, ["min-point", "0.x"]),
    (["spectrum", PRESENTATION, "--ascii"], "<w*2, 1> worms: 1.0.1 1\n", 0, ["spectrum", '{"entries":']),
    (["normalize", PRESENTATION, "--ascii"], "<w*2, 1> worms: 1.0.1 1\n", 0, ["normalize", '{"entries":null}']),
    (
        ["conserve", "<w*2, 1>", "<w+1>"],
        "level=none (already Pi^0_1 ordinals differ)\n",
        1,
        ["conserve", "PA", "PRA"],
    ),
    (
        ["model", "--universe", "finite:3", "--max-index", "2"],
        (GOLDEN / "chain_finite3_idx2.dot").read_text(encoding="utf-8"),
        0,
        ["model", "--universe", "banana"],
    ),
    (
        ["forces", "--universe", "finite:3", "<2>", "<0><0><0>T"],
        "false\n",
        1,
        ["forces", "--universe", "w^", "<0>", "T"],
    ),
    (["valid", "--universe", "finite:3", "[0]([0]T->T)->[0]T"], "true\n", 0, ["valid", "--universe", "w", "~"]),
]


def test_every_subcommand_writes_one_answer(tmp_path, capsys):
    # main alone writes stdout, so every name answers in one shape; bytes are
    # compared exactly, with no newline stripped
    with pytest.raises(SystemExit) as info:
        main(["-h"])
    listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    assert info.value.code == 0 and sorted(listed) == sorted(argv[0] for argv, *_ in CONTRACT)
    assert len(listed) == 13 and {"spectrum", "normalize"} <= set(listed)
    for argv, text, code, refused in CONTRACT:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert out == text and out.endswith("\n") and not out.endswith("\n\n"), argv
        assert main([*argv, "--json"]) == code, argv
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n") and isinstance(json.loads(out), dict), argv
        assert main(refused) == 2, refused
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("\n")) == ("", 1) and captured.err.endswith("\n"), refused
    # the DOT ends in "}\n" once, on stdout with --dot - too, and --dot FILE leaves stdout empty
    model, dot = CONTRACT[10][:2]
    assert dot.endswith("}\n") and dot.count("}") == 1
    assert main([*model, "--dot", "-"]) == 0 and capsys.readouterr().out == dot
    assert main([*model, "--dot", str(tmp_path / "m.dot")]) == 0 and capsys.readouterr().out == ""


def test_out_of_memory_exits_2():
    # 41,181 worlds whose DOT outgrows an address space of 400 MB, a limit set
    # on the child alone: one stderr line and exit 2, never a traceback and exit 1
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    universe = ",".join(f"w^(w^{i})" for i in range(2, 60))
    for extra in ([], ["--json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "wormcalc", "model", "--universe", universe, "--max-index", "3", *extra],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n"), extra
