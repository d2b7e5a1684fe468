"""Command-line interface.

Each handler computes its answer and returns it as (exit code, text, JSON
payload); `main` alone writes stdout and picks the exit code. Diagnostics go
to stderr. Exit codes: 0 for success (or a positive answer), 1 for a
well-posed query with a negative answer (invalid point, refuted formula,
spectra already apart at the first coordinate), 2 for usage or parse errors
and for running out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formula as fm
from . import ignatiev as ig
from . import spectrum as sp
from .ordinal import from_int, parse_ordinal, print_ordinal
from .parsing import Cursor, ParseError, parse_comma_list
from .worm import compare_worms, head, ordinal_of, parse_worm, print_worm, remainder, worm_of_ordinal

_COMPARISON_WORDS = {-1: "Less", 0: "Equal", 1: "Greater"}


def natural(text: str) -> int:
    """An ASCII decimal natural without leading zeros, as in every grammar;
    int() also takes signs, "_", leading zeros and other scripts' digits."""
    cur = Cursor(text)
    value = cur.numeral("indices")
    cur.expect_end()
    return value


def _read_presentation(argument: str) -> sp.TheoryPresentation:
    text = argument
    if not argument.lstrip().startswith("{"):
        with open(argument, "r", encoding="utf-8") as handle:
            text = handle.read()
    return sp.TheoryPresentation.from_json(text)


def _parse_universe(text: str) -> list:
    cur = Cursor(text)
    if cur.try_eat("finite:"):
        k = cur.numeral("indices")
        cur.expect_end()
        return [from_int(i) for i in range(k + 1)]
    # the submodel closes the list under last exponents
    return list(parse_comma_list(parse_ordinal, text))


def _resolve_spectrum(argument: str):
    named = sp.registry()
    if argument in named:
        return named[argument]
    return sp.Spectrum(ig.valid_point(ig.parse_coords(argument)))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text, payload = args.handler(args)
        # the one writer of stdout: a text that already ends a line (DOT) gets no second newline
        if args.json:
            print(json.dumps(payload))
        elif text is not None:
            print(text, end="" if text.endswith("\n") else "\n")
        return code
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
    except RecursionError:
        # the C JSON decoder, the parsers and the printers recurse once per
        # nesting level; ranks do not
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, exit 2; subparsers inherit the class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")
    common.add_argument(
        "--ascii", action="store_true", help="grammar-form ASCII output (default is unicode)"
    )
    leveled = argparse.ArgumentParser(add_help=False, parents=[common])
    leveled.add_argument("-n", "--level", type=natural, default=0)
    fragment = argparse.ArgumentParser(add_help=False, parents=[common])
    fragment.add_argument("--universe", required=True)
    fragment.add_argument("--max-index", type=natural, default=None)

    parser = _Parser(
        prog="wormcalc",
        description="Worm calculus, ordinal arithmetic and theory spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("o", parents=[leveled], help="ordinal denoted by a worm at a level")
    p.add_argument("worm")
    p.set_defaults(handler=_cmd_ordinal)

    p = sub.add_parser("compare", parents=[leveled], help="compare two worms at a level")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_compare)

    for name, part, title in (
        ("head", head, "leading block at a level"),
        ("rem", remainder, "what the head leaves"),
    ):
        p = sub.add_parser(name, parents=[leveled], help=title)
        p.add_argument("worm")
        p.set_defaults(handler=_cmd_part, part=part)

    p = sub.add_parser("worm-of", parents=[common], help="canonical worm for an ordinal")
    p.add_argument("level", type=natural)
    p.add_argument("ordinal")
    p.set_defaults(handler=_cmd_worm_of)

    p = sub.add_parser("point-check", parents=[common], help="check the world condition")
    p.add_argument("point")
    p.set_defaults(handler=_cmd_point_check)

    p = sub.add_parser("min-point", parents=[common], help="minimal world forcing a worm")
    p.add_argument("worm")
    p.set_defaults(handler=_cmd_min_point)

    p = sub.add_parser("spectrum", aliases=["normalize"], parents=[common], help="normalize a presentation")
    p.add_argument("presentation", help="JSON text or a path to a JSON file")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("conserve", parents=[common], help="conservation level of two theories")
    p.add_argument("left", help="registry name or point literal")
    p.add_argument("right", help="registry name or point literal")
    p.set_defaults(handler=_cmd_conserve)

    p = sub.add_parser("model", parents=[common], help="enumerate a finite fragment as DOT")
    p.add_argument("--universe", required=True, help="finite:<k> or a comma-separated ordinal list")
    p.add_argument("--max-index", type=natural, default=2)
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.add_argument("--no-reduce", action="store_true", help="draw all arrows, not only covers")
    p.add_argument(
        "--label",
        action="append",
        default=[],
        metavar="POINT=NAME",
        help="attach a theory name to a world (repeatable)",
    )
    p.set_defaults(handler=_cmd_model)

    p = sub.add_parser("forces", parents=[fragment], help="evaluate a formula at a world")
    p.add_argument("point")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_forces)

    p = sub.add_parser("valid", parents=[fragment], help="check a formula at every world")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_valid)

    return parser


def _cmd_ordinal(args):
    value = ordinal_of(parse_worm(args.worm), args.level)
    return 0, print_ordinal(value, unicode=not args.ascii), {"ordinal": print_ordinal(value)}


def _cmd_compare(args):
    left = parse_worm(args.left)
    right = parse_worm(args.right)
    word = _COMPARISON_WORDS[compare_worms(left, right, args.level)]
    return 0, word, {"result": word}


def _worm_answer(worm):
    text = print_worm(worm)
    return 0, text, {"worm": text}


def _cmd_part(args):
    return _worm_answer(args.part(parse_worm(args.worm), args.level))


def _cmd_worm_of(args):
    return _worm_answer(worm_of_ordinal(parse_ordinal(args.ordinal), args.level))


def _cmd_point_check(args):
    coords = ig.parse_coords(args.point)
    violation = ig.first_violation(coords)
    if violation is None:
        return 0, "valid", {"valid": True, "coords": [print_ordinal(c) for c in ig.Point.of(coords).coords]}
    return 1, f"invalid at index {violation}", {"valid": False, "index": violation}


def _cmd_min_point(args):
    point = ig.min_point_for_worm(parse_worm(args.worm))
    return 0, ig.print_point(point, unicode=not args.ascii), {"coords": [print_ordinal(c) for c in point.coords]}


def _cmd_spectrum(args):
    result = sp.normalize(_read_presentation(args.presentation))
    payload = result.to_json()
    point = ig.print_point(result.point, unicode=not args.ascii)
    return 0, f"{point} worms: {' '.join(payload['worms'])}", payload


def _cmd_conserve(args):
    left = _resolve_spectrum(args.left)
    right = _resolve_spectrum(args.right)
    for side in (left, right):
        if isinstance(side, sp.LimitTheory):
            raise ValueError(f"{side.name} has no point in the model ({side.note})")
    level = sp.conservation_level(left, right)
    return 1 if level == "none" else 0, sp.describe_conservation(level), {"level": level}


def _parse_labels(raw_labels: list[str]) -> dict:
    labels = {}
    for item in raw_labels:
        if "=" not in item:
            raise ValueError(f"--label expects POINT=NAME, got {item!r}")
        point_text, name = item.split("=", 1)
        labels[ig.parse_point(point_text)] = name
    return labels


def _cmd_model(args):
    model = ig.enumerate_submodel(_parse_universe(args.universe), args.max_index)
    dot = ig.render_dot(
        model,
        labels=_parse_labels(args.label),
        reduce_transitive=not args.no_reduce,
    )
    if args.dot and args.dot != "-":
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
        dot = None
    edge_counts = {str(n): model.edge_count(n) for n in range(model.max_index + 1)}
    payload = None
    if args.json:
        payload = {
            "worlds": [[print_ordinal(c) for c in p.coords] for p in model.worlds],
            "edges": edge_counts,
            "witness_complete": model.witness_complete,
        }
    print(
        f"worlds={len(model.worlds)} "
        + " ".join(f"edges[{n}]={k}" for n, k in edge_counts.items()),
        file=sys.stderr,
    )
    return 0, dot, payload


def _evaluation_model(args, needed_index: int) -> ig.FiniteSubmodel:
    max_index = args.max_index if args.max_index is not None else max(needed_index, 0)
    return ig.enumerate_submodel(_parse_universe(args.universe), max_index)


_FRAGMENT_RELATIVE = "note: fragment-relative answer (universe is not witness-complete)"


def _report(value: bool, exact: bool, note: str = _FRAGMENT_RELATIVE):
    if not exact:
        print(note, file=sys.stderr)
    return 0 if value else 1, "true" if value else "false", {"value": value, "exact": exact}


def _cmd_forces(args):
    point = ig.parse_point(args.point)
    f = fm.parse_formula(args.formula)
    model = _evaluation_model(args, max(fm.max_modality(f), len(point.coords) - 1))
    result = ig.forces(model, point, f)
    return _report(result.value, result.exact)


def _cmd_valid(args):
    f = fm.parse_formula(args.formula)
    model = _evaluation_model(args, fm.max_modality(f))
    result = ig.validity_check(f, model)
    if result.value and result.exact:
        # the fragment holds only some worlds of the full model, so truth at
        # all of them is necessary for validity but not sufficient
        note = "note: true at every world of the fragment, a necessary condition for validity only"
        return _report(True, False, note)
    return _report(result.value, result.exact)
