"""Worms: iterated consistency statements as strings of modality indices.

A worm is a finite word over the naturals, leftmost letter outermost; the
empty word is the trivially true statement. Worms double as ordinal
notations below epsilon_0: `ordinal_of` ranks a worm inside the
well-ordering of level-n worms, `worm_of_ordinal` inverts it, and
`compare_worms` decides the level-n ordering through those ranks instead of
proof search.

Worms are hash-consed (`parsing.Interned`), as ordinals and formulas are:
every build, by the constructor, the parser, `head`, `remainder`,
`worm_of_ordinal`, a copy or an unpickling, returns the one live worm with
its letters, so equality is identity. That one worm owns what is derived
from it: its rank table, and the formula `formula.formula_of_worm` builds,
each kept in a slot for as long as the worm lives.

A worm's ranks at all levels form one table, taken in one sweep from the
top letter down on the first read of its `ranks` slot: going down a level
costs one w-power step, o(up A) = -1 + w^o(A), not a new tower, and
nothing recurses: the one-letter worm k builds k ordinals, and every worm
ranks in constant stack. Ordinals are hash-consed too, so equal blocks, in
one worm or in two, rank to one object and compare without descending the
towers. The table is not filled when a worm is built, since most worms
that `worm_of_ordinal` and `head` build are never ranked, and a long worm's
sweep costs far more than its build.

`parse_worm` parses each distinct text once per process, from a bounded
memo that keeps its worm, and so that worm's rank table, alive.
"""

from __future__ import annotations

from functools import lru_cache

from .ordinal import ONE, ZERO, Ordinal, add, compare, omega_power
from .parsing import Cursor, Interned, require_natural

__all__ = [
    "Worm",
    "TOP",
    "head",
    "remainder",
    "ordinal_of",
    "compare_worms",
    "worm_of_ordinal",
    "parse_worm",
    "print_worm",
]


class Worm(Interned):
    __slots__ = {
        "letters": None,
        "ranks": """ordinal_of(self, n) for n = 0 .. max letter + 1; every rank above is 0.

        The rank table `ordinal_of` reads, swept (`_ranks`) on the first
        read and kept in this slot while the worm lives; `normalize` and
        `forces_worm` read the slot directly. It is not a field, so repr
        and the intern key see only the letters.""",
        "formula": """The worm as a formula, kept here by `formula.formula_of_worm`.""",
    }
    __match_args__ = ("letters",)

    def __new__(cls, letters: tuple[int, ...] = ()):
        # the letters are the intern key: an iterator would be read up here
        if type(letters) is not tuple:
            raise TypeError(f"letters {letters!r} are not a tuple")
        for letter in letters:
            require_natural(letter, "letter")
        return cls._from_checked(letters)

    def __getattr__(self, name: str):
        # reached only when the ordinary lookup fails: for `ranks`, until the
        # first read fills its slot. A property would cost a Python call on
        # every read, and `forces_worm` reads the ranks at every world
        if name != "ranks":
            raise AttributeError(f"'Worm' object has no attribute {name!r}")
        ranks = _ranks(self.letters)
        _set_ranks(self, ranks)
        return ranks

    def __str__(self) -> str:
        return print_worm(self)

    def __repr__(self) -> str:
        return f"Worm({print_worm(self)!r})"


_set_ranks = Worm.ranks.__set__

TOP = Worm()


def _cut(letters: tuple[int, ...], n: int) -> int:
    """Length of the maximal leading block of letters that are all >= n."""
    cut = 0
    while cut < len(letters) and letters[cut] >= n:
        cut += 1
    return cut


def head(a: Worm, n: int) -> Worm:
    """The maximal leading block of letters that are all >= n."""
    return Worm._from_checked(a.letters[: _cut(a.letters, require_natural(n, "level"))])


def remainder(a: Worm, n: int) -> Worm:
    """What head(a, n) leaves behind: empty, or starting with a letter < n."""
    return Worm._from_checked(a.letters[_cut(a.letters, require_natural(n, "level")) :])


def _ranks(letters: tuple[int, ...]) -> tuple[Ordinal, ...]:
    # Every level's rank in one sweep from the top level down. At level n
    # the letters >= n form maximal runs, each held as a record [level,
    # value]: its rank at that level, read with the level in the part of 0.
    # Going down to level n, each letter n, left to right, joins the run on
    # its left and the run on its right into one run worth
    # rank(right) + 1 + rank(left). A run that meets no letter n owes one
    # step x -> w^x per level (o(up A) = -1 + w^o(A)), paid only when it is
    # next read; the run at position 0 is read at every level, and its value
    # there is that level's rank.
    top = max(letters, default=-1) + 1
    at: dict[int, list[int]] = {}
    for i, letter in enumerate(letters):
        at.setdefault(letter, []).append(i)
    # each run under both its end positions: the other end, and its record
    ends: dict[int, tuple[int, list]] = {}
    empty = [0, ZERO]  # the empty run: 0 at every level, never stepped
    ranks = [ZERO]
    for n in range(top - 1, -1, -1):
        for i in at.get(n, ()):
            # a run that meets i from the left ends at i - 1, and one from
            # the right starts at i + 1
            start, left = ends.pop(i - 1, (i, empty))
            end, right = ends.pop(i + 1, (i, empty))
            run = [n, add(add(_read(right, n), ONE), _read(left, n))]
            ends[start], ends[end] = (end, run), (start, run)
        ranks.append(_read(ends[0][1], n) if 0 in ends else ZERO)
    return tuple(reversed(ranks))


def _read(run: list, n: int) -> Ordinal:
    # a run's value at level n, paying the steps it owes
    while run[0] > n:
        run[0] -= 1
        run[1] = omega_power(run[1])
    return run[1]


def ordinal_of(a: Worm, level: int = 0) -> Ordinal:
    """The ordinal a worm denotes at the given level.

    At level 0 this is the recursion: the empty worm is 0; a worm split
    around a 0-letter as B0A is worth rank(A) + 1 + rank(B); and shifting
    all letters up by n applies the n-th hyperexponential. At level n the
    rank only sees the level-n head, read with n in the part of 0. Every
    level is read from the worm's one rank table, its `ranks` slot; past the
    top letter the head is empty and the rank is 0.
    """
    ranks = a.ranks
    return ranks[level] if require_natural(level, "level") < len(ranks) else ZERO


def compare_worms(a: Worm, b: Worm, level: int = 0) -> int:
    """The level-n well-ordering, decided via ordinal ranks: -1, 0 or 1.

    Total on all worm pairs; it factors through the level-n head, so callers
    that need both worms to have every letter at least n check that
    themselves.
    """
    return compare(ordinal_of(a, level), ordinal_of(b, level))


def worm_of_ordinal(x: Ordinal, level: int = 0) -> Worm:
    """A canonical worm denoting x at the given level; inverts ordinal_of.

    Reading the normal form from its smallest term up, a finite part c
    becomes c zeros in front, and each copy of a term w^e with e > 0
    becomes the worm of e shifted up one level, the copies joined by 0s;
    at level n every letter is shifted up by n.
    """
    return Worm._from_checked(_worm_of(x, require_natural(level, "level")))


def _worm_of(x: Ordinal, base: int) -> tuple[int, ...]:
    # the canonical worm of x with base in the part of the letter 0
    letters: list[int] = []
    copies = 0
    for exponent, coefficient in reversed(x.terms):
        if not exponent.terms:
            letters += [base] * coefficient
            continue
        piece = _worm_of(exponent, base + 1)
        for _ in range(coefficient):
            if copies:
                letters.append(base)
            letters += piece
            copies += 1
    return tuple(letters)


# --- text form ---------------------------------------------------------
#
# worm ::= "T" | index ("." index)*          (dot form, default)
#        | ("<" index ">")* "T"              (diamond form)


def parse_worm(text: str) -> Worm:
    """The worm a text spells, in either form, around optional whitespace.

    Each distinct text is parsed once per process, from a bounded memo
    that keeps the one interned worm alive, so its `ranks` slot is filled
    on its first read and serves every later parse of that text. A text
    that fails to parse keeps nothing, and a non-string is refused.
    """
    if not isinstance(text, str):
        raise TypeError(f"worm text {text!r} is not a string")
    return _parsed_worm(text)


# one entry per distinct text: the 83,130 acceptance presentations use 341
# worm texts, and a `spectra` benchmark pass 125 of its 11,369, so the memo
# never evicts there; the bound only keeps a long-running process from
# growing it without limit. Interning alone would hand back the same worm
# only while something else held it; the memo holds it, and skips the scan
@lru_cache(maxsize=1 << 12)
def _parsed_worm(text: str) -> Worm:
    # a malformed text fails where the scan stops, counting from the start
    # of text itself, leading whitespace too
    cur = Cursor(text.rstrip(), len(text) - len(text.lstrip()))
    letters = []
    if cur.peek() in ("<", "T"):
        while cur.try_eat("<"):
            letters.append(cur.numeral("indices"))
            cur.expect(">")
        cur.expect("T")
    else:
        letters.append(cur.numeral("indices"))
        while cur.try_eat("."):
            letters.append(cur.numeral("indices"))
    cur.expect_end()
    return Worm._from_checked(tuple(letters))


def print_worm(a: Worm, diamonds: bool = False) -> str:
    if diamonds:
        return "".join(f"<{letter}>" for letter in a.letters) + "T"
    return ".".join(map(str, a.letters)) if a.letters else "T"
