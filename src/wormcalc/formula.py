"""Closed polymodal formulas: AST, parser and printer.

The semantic core is falsum, implication and the indexed box/diamond;
negation, conjunction and disjunction are surface sugar expanded at parse
time and recovered by the printer. Diamonds stay primitive so the model
checker can use the existential clause directly. Formulas are hash-consed,
and `parse_formula` parses each distinct text once per process, from a
bounded memo that keeps its interned result alive.
"""

from __future__ import annotations

from functools import lru_cache

from .parsing import Cursor, ParseError, Value, interner, is_natural
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


# Formulas are hash-consed: Implies, Box and Diamond nodes are interned by
# (type, parts), and Top and Bottom are singletons, so two equal formulas
# are one object. Equality is identity and the hash is object's, so both
# take constant stack however deep the formula. The public constructors
# check the parts and build through `_from_checked`, which the parser, the
# sugar and `formula_of_worm` call directly: their parts are formulas
# already, or are checked once on the way in.


class Formula(Value):
    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __str__(self) -> str:
        return print_formula(self)


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
    __slots__ = ("left", "right", "__weakref__")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return cls._from_checked(_formula(left), _formula(right))

    def __repr__(self):
        return f"Implies({self.left!r}, {self.right!r})"


class _Modal(Formula):
    """The shared shape of Box and Diamond: a natural-number index and a body."""

    __slots__ = ("index", "body", "__weakref__")
    __match_args__ = ("index", "body")

    def __new__(cls, index: int, body: Formula):
        if not is_natural(index):
            raise ValueError(f"modal index {index!r} must be a natural number")
        return cls._from_checked(index, _formula(body))


class Box(_Modal):
    __slots__ = ()

    def __repr__(self):
        return f"Box({self.index}, {self.body!r})"


class Diamond(_Modal):
    __slots__ = ()

    def __repr__(self):
        return f"Diamond({self.index}, {self.body!r})"


_set_left, _set_right = Implies.left.__set__, Implies.right.__set__
_set_index, _set_body = _Modal.index.__set__, _Modal.body.__set__


def _build(cls: type, first, second) -> Formula:
    # a new node, its parts set through the slots' own setters
    node = object.__new__(cls)
    if cls is Implies:
        _set_left(node, first)
        _set_right(node, second)
    else:
        _set_index(node, first)
        _set_body(node, second)
    return node


_FORMULAS, _intern = interner(_build)
Implies._from_checked = _Modal._from_checked = classmethod(_intern)


def neg(f: Formula) -> Formula:
    return Implies._from_checked(_formula(f), Bottom())


def conj(f: Formula, g: Formula) -> Formula:
    return Implies._from_checked(Implies._from_checked(_formula(f), neg(g)), Bottom())


def disj(f: Formula, g: Formula) -> Formula:
    return Implies._from_checked(neg(f), _formula(g))


def formula_of_worm(a: Worm) -> Formula:
    f: Formula = Top()
    for letter in reversed(a.letters):
        f = Diamond._from_checked(letter, f)
    return f


def max_modality(f: Formula) -> int:
    """Largest box/diamond index occurring in f; -1 when purely propositional.
    The parts still to visit wait on a stack, so any depth takes constant stack."""
    top, pending = -1, [f]
    while pending:
        match pending.pop():
            case Box(index=n, body=b) | Diamond(index=n, body=b):
                top = max(top, n)
                pending.append(b)
            case Implies(left=l, right=r):
                pending += (l, r)
    return top


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
