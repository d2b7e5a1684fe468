"""Closed polymodal formulas: AST, parser and printer.

The semantic core is falsum, implication and the indexed box/diamond;
negation, conjunction and disjunction are surface sugar expanded at parse
time and recovered by the printer. Diamonds stay primitive so the model
checker can use the existential clause directly.
"""

from __future__ import annotations

from .parsing import Cursor, ParseError, Value, is_natural
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


class Formula(Value):
    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


# The nodes with parts hash once, when they are built, from their parts'
# stored hashes; so hashing takes constant stack however deep the formula.
# They compare by `_equal`, which walks the two trees on an explicit stack,
# so equality takes constant stack too. Their public constructors check the
# parts and build through `_from_checked`, which the parser, the sugar and
# `formula_of_worm` call directly: their parts are formulas already, or are
# checked once on the way in.


def _equal(f: Formula, g: object) -> bool:
    """Structural equality: the node types, stored hashes and indices, pair
    by pair down both trees; an implication's right parts wait on a stack."""
    if not isinstance(g, Formula):
        return NotImplemented
    pending = []
    while True:
        while f is not g:
            kind = type(f)
            if kind is not type(g):
                return False
            if kind is Implies:
                if f._hash != g._hash:
                    return False
                pending.append((f.right, g.right))
                f, g = f.left, g.left
            elif kind is Box or kind is Diamond:
                if f._hash != g._hash or f.index != g.index:
                    return False
                f, g = f.body, g.body
            else:  # Top or Bottom
                break
        if not pending:
            return True
        f, g = pending.pop()


def _formula(part: object) -> Formula:
    if not isinstance(part, Formula):
        raise TypeError(f"{part!r} is not a formula")
    return part


class Implies(Formula):
    __slots__ = ("left", "right", "_hash")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return cls._from_checked(_formula(left), _formula(right))

    @classmethod
    def _from_checked(cls, left: Formula, right: Formula) -> "Implies":
        node = object.__new__(cls)
        _set_left(node, left)
        _set_right(node, right)
        _set_implies_hash(node, hash((left, right)))
        return node

    def __hash__(self) -> int:
        return self._hash

    __eq__ = _equal

    def __repr__(self):
        return f"Implies({self.left!r}, {self.right!r})"


class _Modal(Formula):
    """The shared shape of Box and Diamond: a natural-number index and a body."""

    __slots__ = ("index", "body", "_hash")
    __match_args__ = ("index", "body")

    def __new__(cls, index: int, body: Formula):
        if not is_natural(index):
            raise ValueError(f"modal index {index!r} must be a natural number")
        return cls._from_checked(index, _formula(body))

    @classmethod
    def _from_checked(cls, index: int, body: Formula) -> "_Modal":
        node = object.__new__(cls)
        _set_index(node, index)
        _set_body(node, body)
        _set_modal_hash(node, hash((index, body)))
        return node

    def __hash__(self) -> int:
        return self._hash

    __eq__ = _equal


class Box(_Modal):
    __slots__ = ()

    def __repr__(self):
        return f"Box({self.index}, {self.body!r})"


class Diamond(_Modal):
    __slots__ = ()

    def __repr__(self):
        return f"Diamond({self.index}, {self.body!r})"


_set_left, _set_right, _set_implies_hash = (
    Implies.left.__set__, Implies.right.__set__, Implies._hash.__set__
)
_set_index, _set_body, _set_modal_hash = (
    _Modal.index.__set__, _Modal.body.__set__, _Modal._hash.__set__
)


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
