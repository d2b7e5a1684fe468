"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum w^e1*c1 + ... + w^ek*ck with ordinal exponents
e1 > e2 > ... > ek and positive integer coefficients; the empty sum is 0.
Canonical form is unique, so structural equality decides ordinal equality.

Values are hash-consed (`parsing.Interned`): every build, by the
constructor, the parser, the arithmetic, a copy or an unpickling, returns
the one live object with its terms. Equality is identity and the hash is
object's, so no output may depend on the order of a set of ordinals.
`add`, `compare` and `last_exponent` take their ordinals unchecked;
`omega_power` and `hyperexp`, which would otherwise intern a value built
around a non-Ordinal, refuse one with `TypeError`. `compare` is a loop
that stops at the first term pair that is not one object, so it, and so
everything that orders ordinals, takes constant stack at any nesting.
Copies and pickles go through a flat table of sub-ordinals, so they too
take constant stack. `parse_ordinal` parses each distinct text once per
process, from a bounded memo that keeps its interned result alive.

Provided operations are the ones the worm calculus needs: comparison,
(non-commutative) addition, w-powers, the last-exponent map and the
hyperexponentials; general multiplication and exponentiation are out of
scope.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering

from .parsing import Cursor, Interned, ParseError, is_natural, post_order, require_natural

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "from_int",
    "compare",
    "add",
    "omega_power",
    "last_exponent",
    "hyperexp",
    "parse_ordinal",
    "print_ordinal",
]


@total_ordering
class Ordinal(Interned):
    """Cantor normal form: a tuple of (exponent, coefficient) terms.

    Instances are immutable and the constructor validates its terms, so any
    reachable value is canonical; the parser and the arithmetic below, whose
    results are canonical by construction, build through `_from_checked`.
    Exponents are themselves Ordinals; coefficients are positive ints (not
    bools). The empty term tuple is 0.

    Both ways in end in the one intern table, so two equal values are one
    object: equality is identity, and the hash is object's.
    """

    __slots__ = __match_args__ = ("terms",)

    def __new__(cls, terms: tuple[tuple["Ordinal", int], ...] = ()):
        # the terms are the intern key: an iterator would be read up here
        if type(terms) is not tuple:
            raise TypeError(f"terms {terms!r} are not a tuple")
        previous = None
        for exponent, coefficient in terms:
            if not isinstance(exponent, Ordinal):
                raise TypeError(f"exponent {exponent!r} is not an Ordinal")
            if not (is_natural(coefficient) and coefficient):
                raise ValueError(f"coefficient {coefficient!r} must be a positive int")
            if previous is not None and compare(previous, exponent) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            previous = exponent
        return cls._from_checked(terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        """True for 0 and for ordinals whose single term has exponent 0."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        """The value of a finite ordinal as an int."""
        if not self.terms:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1]

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) < 0

    def __reduce__(self):
        """Copy and pickle through a flat table, in constant stack.

        Each distinct sub-ordinal is one row, exponents before the ordinals
        that use them, and a row's terms name their exponents by row number;
        the last row is this ordinal. `_from_table` rebuilds the rows in
        order through the public constructor, so a copy or an unpickled
        value passes its checks and is the one object with its value."""
        row_of = post_order(self, lambda x: [e for e, _ in x.terms])
        return _from_table, (tuple(tuple((row_of[e], c) for e, c in x.terms) for x in row_of),)

    def __str__(self) -> str:
        return print_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({print_ordinal(self)!r})"


def _from_table(rows: tuple[tuple[tuple[int, int], ...], ...]) -> Ordinal:
    # the inverse of Ordinal.__reduce__: every row through the constructor
    built: list[Ordinal] = []
    for row in rows:
        built.append(Ordinal(tuple((built[i], c) for i, c in row)))
    return built[-1]


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    return Ordinal._from_checked(((ZERO, n),)) if require_natural(n, "value") else ZERO


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on canonical forms: -1, 0 or 1.

    Lexicographic on the term lists, comparing exponents before
    coefficients; a proper prefix is smaller. Equal values are one object,
    so the first term pair that differs decides: by its coefficients if its
    exponents are one object, else by its exponents, which the loop goes on
    to compare. So any height takes constant stack. Both arguments are
    taken unchecked: a non-Ordinal raises `AttributeError`.
    """
    while a is not b:
        x, y = a.terms, b.terms
        if not (x and y):
            return 1 if x else -1
        (e, c), (f, d) = x[0], y[0]
        if e is f and c == d:
            # the leading terms agree, and a later pair decides
            for (e, c), (f, d) in zip(x, y):
                if e is not f or c != d:
                    break
            else:
                return 1 if len(x) > len(y) else -1
        if e is f:
            return 1 if c > d else -1
        a, b = e, f
    return 0


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b; terms of a below the leading exponent of b are absorbed.

    Both arguments are taken unchecked: a non-Ordinal raises
    `AttributeError`, except that a + 0 returns a as it is."""
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = b.terms[0][0]
    cut = 0
    while cut < len(a.terms) and compare(a.terms[cut][0], lead) > 0:
        cut += 1
    if cut < len(a.terms) and a.terms[cut][0] is lead:
        merged = (lead, a.terms[cut][1] + b.terms[0][1])
        return Ordinal._from_checked(a.terms[:cut] + (merged,) + b.terms[1:])
    return Ordinal._from_checked(a.terms[:cut] + b.terms)


def omega_power(e: Ordinal) -> Ordinal:
    """w^e as a single-term canonical ordinal (w^0 = 1)."""
    if not isinstance(e, Ordinal):
        raise TypeError(f"exponent {e!r} is not an Ordinal")
    return Ordinal._from_checked(((e, 1),))


def last_exponent(a: Ordinal) -> Ordinal:
    """The exponent of the final, smallest term; 0 for input 0.

    This is the map sending alpha + w^beta to beta, which decides which
    coordinate sequences are worlds of the universal model. The argument
    is taken unchecked: a non-Ordinal raises `AttributeError`.
    """
    return a.terms[-1][0] if a.terms else ZERO


def hyperexp(n: int, x: Ordinal) -> Ordinal:
    """n-fold iterate of the shifted exponential x -> -1 + w^x.

    The base map sends 0 to 0 (the "-1 +" cancels w^0 = 1) and any x > 0 to
    w^x, which is then already additively indecomposable.
    """
    require_natural(n, "iteration count")
    if not isinstance(x, Ordinal):
        raise TypeError(f"{x!r} is not an Ordinal")
    for _ in range(n):
        x = omega_power(x) if x.terms else ZERO
    return x


# --- text form ---------------------------------------------------------
#
# ordinal  ::= "0" | term ("+" term)*
# term     ::= nat | power ("*" nat)?
# power    ::= "w" ("^" exponent)?
# exponent ::= nat | power | "(" ordinal ")"
#
# nat is a nonzero decimal; terms must already be in decreasing exponent
# order (non-canonical spellings are rejected, not normalized).


def parse_ordinal(text: str) -> Ordinal:
    """The ordinal a CNF text spells, around optional whitespace.

    Each distinct text is parsed once per process, from a bounded memo that
    holds, and so keeps alive, the one interned ordinal. A text that fails
    to parse keeps nothing, and a non-string is refused.
    """
    if not isinstance(text, str):
        raise TypeError(f"ordinal text {text!r} is not a string")
    return _parsed_ordinal(text)


# one entry per distinct text: a `kripke` benchmark pass reads 1,077
# universe texts, 37 of them distinct, so the memo never evicts there; the
# bound only keeps a long-running process from growing it without limit
@lru_cache(maxsize=1 << 12)
def _parsed_ordinal(text: str) -> Ordinal:
    # the scan starts past the leading whitespace of text itself, so that an
    # error's position counts in text
    cur = Cursor(text.rstrip(), len(text) - len(text.lstrip()))
    value = _parse_ordinal(cur)
    cur.expect_end()
    return value


def _parse_ordinal(cur: Cursor) -> Ordinal:
    if cur.peek() == "0":
        cur.numeral("numbers")
        return ZERO
    # every term is read before the order is checked: a syntax error wins
    positions, terms = [cur.pos], [_parse_term(cur)]
    while cur.try_eat("+"):
        positions.append(cur.pos)
        terms.append(_parse_term(cur))
    for (previous, _), (exponent, _), pos in zip(terms, terms[1:], positions[1:]):
        if compare(exponent, previous) >= 0:
            raise ParseError("non-canonical form: exponents must strictly decrease", pos)
    return Ordinal._from_checked(tuple(terms))


def _parse_term(cur: Cursor) -> tuple[Ordinal, int]:
    """A term as (exponent, coefficient); a bare numeral n is w^0 * n."""
    if cur.at_digit():
        n = cur.numeral("numbers", nonzero=True)
        if cur.peek() in ("*", "·"):
            raise ParseError("a coefficient may only follow a w-power", cur.pos)
        return ZERO, n
    exponent = _parse_power(cur)
    if cur.try_eat("*") or cur.try_eat("·"):
        return exponent, cur.numeral("numbers", nonzero=True)
    return exponent, 1


def _parse_power(cur: Cursor) -> Ordinal:
    """The exponent e of a w-power w^e: `w`, `w^n`, `w^(...)` or `w^w...`."""
    if not (cur.try_eat("w") or cur.try_eat("ω")):
        raise cur.error("expected a term (number, 'w' or 'w^...')")
    if not cur.try_eat("^"):
        return ONE
    if cur.try_eat("("):
        inner = _parse_ordinal(cur)
        cur.expect(")")
        return inner
    if cur.at_digit():
        return from_int(cur.numeral("numbers", nonzero=True))
    return omega_power(_parse_power(cur))


def print_ordinal(a: Ordinal, unicode: bool = False) -> str:
    """Grammar text for a canonical ordinal; round-trips through parse_ordinal.

    With unicode=True emits the omega and middle-dot glyphs instead of the
    ASCII 'w' and '*'.
    """
    if not a.terms:
        return "0"
    w = "ω" if unicode else "w"
    dot = "·" if unicode else "*"
    parts = []
    for exponent, coefficient in a.terms:
        if not exponent.terms:
            parts.append(str(coefficient))
            continue
        if exponent is ONE:
            base = w
        else:
            inner = print_ordinal(exponent, unicode)
            # an atom prints without parentheses in exponent position: a
            # single term that is finite or has coefficient 1
            terms = exponent.terms
            atom = len(terms) == 1 and (terms[0][1] == 1 or not terms[0][0].terms)
            base = f"{w}^{inner}" if atom else f"{w}^({inner})"
        parts.append(base if coefficient == 1 else f"{base}{dot}{coefficient}")
    return "+".join(parts)
