"""Closed polymodal formulas: AST, parser and printer.

The semantic core is falsum, implication and the indexed box/diamond;
negation, conjunction and disjunction are surface sugar expanded at parse
time and recovered by the printer. Diamonds stay primitive so the model
checker can use the existential clause directly.

Formulas are hash-consed (`parsing.Interned`): Implies, Box and Diamond
nodes are interned by their class and parts, and Top and Bottom are
singletons, so two equal formulas are one object. Equality is identity and
the hash is object's, so both take constant stack however deep the
formula. The public constructors check the parts and build through
`_from_checked`, which the parser, the sugar and `formula_of_worm` call
directly: their parts are formulas already, or are checked once on the way
in. A worm keeps its formula in its `formula` slot, and `parse_formula`
parses each distinct text once per process, from a bounded memo that keeps
its interned result alive.

Interning makes a formula a DAG: `Implies(f, f)` holds one f, and taken n
times over makes n + |f| nodes but 2^n paths. Every walk that need not
recurse goes over the distinct nodes, `parsing.post_order` with `_parts`
as the children, in constant stack: `max_modality`, and the flat table a
copy or a pickle goes through. The parser and the printer recurse.
"""

from __future__ import annotations

from functools import lru_cache

from .parsing import Cursor, Interned, ParseError, post_order, require_natural
from .worm import Worm

__all__ = [
    "Formula",
    "Top",
    "Bottom",
    "Implies",
    "Box",
    "Diamond",
    "neg",
    "conj",
    "disj",
    "formula_of_worm",
    "max_modality",
    "parse_formula",
    "print_formula",
]


class Formula(Interned):
    __slots__ = ()

    def __reduce__(self):
        """Copy and pickle through a flat table, in constant stack, as
        `Ordinal.__reduce__` does.

        Each distinct subformula is one row, parts before the formulas that
        use them, and every row has one shape: its class, its plain fields
        (a modal index, or none), and its parts named by their row numbers;
        the last row is this formula. `_from_table` rebuilds the rows in
        order through the public constructors, so a copy or an unpickled
        formula passes their checks and is the one object with its value."""
        row_of = post_order(self, _parts)
        rows = []
        for f in row_of:
            plain = tuple(x for x in f._fields() if not isinstance(x, Formula))
            rows.append((type(f), plain, tuple(map(row_of.__getitem__, _parts(f)))))
        return _from_table, (tuple(rows),)

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        return _TOP


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls):
        return _BOTTOM


_TOP, _BOTTOM = object.__new__(Top), object.__new__(Bottom)


def _formula(part: object) -> Formula:
    if not isinstance(part, Formula):
        raise TypeError(f"{part!r} is not a formula")
    return part


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return cls._from_checked(_formula(left), _formula(right))


class _Modal(Formula):
    """The shared shape of Box and Diamond: a natural-number index and a body."""

    __slots__ = __match_args__ = ("index", "body")

    def __new__(cls, index: int, body: Formula):
        return cls._from_checked(require_natural(index, "modal index"), _formula(body))


class Box(_Modal):
    __slots__ = ()


class Diamond(_Modal):
    __slots__ = ()


def _parts(f: Formula) -> list[Formula]:
    """f's immediate subformulas, the children `post_order` walks."""
    return [x for x in f._fields() if isinstance(x, Formula)]


def _from_table(rows: tuple[tuple, ...]) -> Formula:
    # the inverse of Formula.__reduce__: every row through its constructor,
    # which takes the plain fields before the parts
    built: list[Formula] = []
    for cls, plain, parts in rows:
        built.append(cls(*plain, *map(built.__getitem__, parts)))
    return built[-1]


def neg(f: Formula) -> Formula:
    return Implies._from_checked(_formula(f), Bottom())


def conj(f: Formula, g: Formula) -> Formula:
    return Implies._from_checked(Implies._from_checked(_formula(f), neg(g)), Bottom())


def disj(f: Formula, g: Formula) -> Formula:
    return Implies._from_checked(neg(f), _formula(g))


def formula_of_worm(a: Worm) -> Formula:
    """The worm as a formula, a chain of diamonds over Top, built on the
    first call and kept in the worm's `formula` slot while the worm lives."""
    f = getattr(a, "formula", None)
    if f is None:
        f = Top()
        for letter in reversed(a.letters):
            f = Diamond._from_checked(letter, f)
        _set_formula(a, f)
    return f


_set_formula = Worm.formula.__set__


def max_modality(f: Formula) -> int:
    """Largest box/diamond index occurring in f; -1 when purely propositional.
    The walk is `post_order`'s, so it takes constant stack and visits each
    distinct subformula once, however often f shares it."""
    return max((g.index for g in post_order(f, _parts) if isinstance(g, _Modal)), default=-1)


# --- text form ---------------------------------------------------------
#
# atoms T, F; prefix ~, [n], <n>; infix & | -> with precedence
# ~ > & > | > -> and right-associative ->; modalities bind tightest.

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def parse_formula(text: str) -> Formula:
    """The formula a text spells.

    Each distinct text is parsed once per process, from a bounded memo that
    holds, and so keeps alive, the one interned formula. A text that fails
    to parse keeps nothing, and a non-string is refused.
    """
    if not isinstance(text, str):
        raise TypeError(f"formula text {text!r} is not a string")
    return _parsed_formula(text)


# one entry per distinct text: a `kripke` benchmark pass reads 117 query
# texts, 3 of them distinct, so the memo never evicts there; the bound only
# keeps a long-running process from growing it without limit
@lru_cache(maxsize=1 << 12)
def _parsed_formula(text: str) -> Formula:
    cur = Cursor(text)
    f = _parse(cur, _PREC_IMPLIES)
    cur.expect_end()
    return f


# each infix connective: its precedence, the precedence its right operand is
# read at, and its builder. -> reads its right operand at its own precedence,
# so it associates to the right; | and & read theirs one higher, so they
# associate to the left
_INFIX = {
    "->": (_PREC_IMPLIES, _PREC_IMPLIES, Implies._from_checked),
    "|": (_PREC_OR, _PREC_AND, disj),
    "&": (_PREC_AND, _PREC_UNARY, conj),
}


def _parse(cur: Cursor, floor: int) -> Formula:
    """A formula whose connectives bind at least as tightly as floor, by
    precedence climbing; returns with the cursor past any whitespace."""
    f = _parse_unary(cur)
    while True:
        cur.skip_ws()
        token = cur.peek()
        if token == "-":
            token = cur.text[cur.pos : cur.pos + 2]
        entry = _INFIX.get(token)
        if entry is None or entry[0] < floor:
            return f
        _, right, build = entry
        cur.pos += len(token)
        f = build(f, _parse(cur, right))


def _parse_unary(cur: Cursor) -> Formula:
    cur.skip_ws()
    token = cur.peek()
    if token == "T" or token == "F":
        cur.pos += 1
        return Top() if token == "T" else Bottom()
    if token == "~":
        cur.pos += 1
        return neg(_parse_unary(cur))
    if token == "[" or token == "<":
        cur.pos += 1
        n = cur.numeral("indices")
        cur.expect("]" if token == "[" else ">")
        return (Box if token == "[" else Diamond)._from_checked(n, _parse_unary(cur))
    if token == "(":
        cur.pos += 1
        f = _parse(cur, _PREC_IMPLIES)
        cur.expect(")")
        return f
    raise cur.error("expected a formula")


def print_formula(f: Formula) -> str:
    return _print(f, 0)


def _print(f: Formula, context: int) -> str:
    match f:
        case Top():
            return "T"
        case Bottom():
            return "F"
        case Box(index=n, body=b):
            return f"[{n}]{_print(b, _PREC_UNARY)}"
        case Diamond(index=n, body=b):
            return f"<{n}>{_print(b, _PREC_UNARY)}"
        case Implies(left=Implies(left=x, right=Implies(left=y, right=Bottom())), right=Bottom()):
            text = f"{_print(x, _PREC_AND)} & {_print(y, _PREC_UNARY)}"
            return f"({text})" if context > _PREC_AND else text
        case Implies(left=x, right=Bottom()):
            return f"~{_print(x, _PREC_UNARY)}"
        case Implies(left=Implies(left=x, right=Bottom()), right=y):
            text = f"{_print(x, _PREC_OR)} | {_print(y, _PREC_AND)}"
            return f"({text})" if context > _PREC_OR else text
        case Implies(left=x, right=y):
            text = f"{_print(x, _PREC_OR)} -> {_print(y, _PREC_IMPLIES)}"
            return f"({text})" if context > _PREC_IMPLIES else text
    raise TypeError(f"not a formula: {f!r}")
