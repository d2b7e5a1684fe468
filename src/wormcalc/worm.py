"""Worms: iterated consistency statements as strings of modality indices.

A worm is a finite word over the naturals, leftmost letter outermost; the
empty word is the trivially true statement. Worms double as ordinal
notations below epsilon_0: `ordinal_of` ranks a worm inside the
well-ordering of level-n worms, `worm_of_ordinal` inverts it, and
`compare_worms` decides the level-n ordering through those ranks instead of
proof search.

A worm's ranks at all levels form one table, taken in one sweep from the
top letter down and memoized per letter tuple: going down a level costs one
w-power step, o(up A) = -1 + w^o(A), not a new tower, and nothing
recurses: the one-letter worm k builds k ordinals, and every worm ranks in
constant stack. Ordinals are hash-consed, so equal blocks, in one worm or
in two, rank to one object and compare without descending the towers.

`parse_worm` parses each distinct text once per process, from a bounded
memo, and hands back one shared worm per text. Worms are immutable, so the
sharing shows only in the `ranks` slot: a text parsed again brings its rank
table with it, and `normalize` and `forces_worm` read it at slot speed.
"""

from __future__ import annotations

from functools import lru_cache

from .ordinal import ONE, ZERO, Ordinal, add, compare, omega_power
from .parsing import Cursor, Value, are_numerals, is_natural

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


class Worm(Value):
    __slots__ = {
        "letters": None,
        "ranks": """ordinal_of(self, n) for n = 0 .. max letter + 1; every rank above is 0.

        The rank table `ordinal_of` reads too, swept once per distinct letter
        tuple (`_ranks`) and kept in this slot on the first read; `normalize`
        and `forces_worm` read the slot directly. It is not a field, so
        equality, hashing and repr still see only the letters.""",
    }
    __match_args__ = ("letters",)

    def __new__(cls, letters: tuple[int, ...] = ()):
        for letter in letters:
            if not is_natural(letter):
                raise ValueError(f"letter {letter!r} must be a natural number")
        return cls._from_checked(letters)

    @classmethod
    def _from_checked(cls, letters: tuple[int, ...]) -> "Worm":
        """A worm of letters that are already known to be naturals, built
        without running the constructor's per-letter check again."""
        worm = object.__new__(cls)
        _set_letters(worm, letters)
        return worm

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


_set_letters, _set_ranks = Worm.letters.__set__, Worm.ranks.__set__

TOP = Worm()


def _cut(letters: tuple[int, ...], n: int) -> int:
    """Length of the maximal leading block of letters that are all >= n."""
    cut = 0
    while cut < len(letters) and letters[cut] >= n:
        cut += 1
    return cut


def _level(n: int) -> int:
    # n, once it is checked to be a natural: every level argument's rule
    if not is_natural(n):
        raise ValueError(f"level {n!r} must be a natural number")
    return n


def head(a: Worm, n: int) -> Worm:
    """The maximal leading block of letters that are all >= n."""
    return Worm._from_checked(a.letters[: _cut(a.letters, _level(n))])


def remainder(a: Worm, n: int) -> Worm:
    """What head(a, n) leaves behind: empty, or starting with a letter < n."""
    return Worm._from_checked(a.letters[_cut(a.letters, _level(n)) :])


# one entry per distinct letter tuple: normalizing the 83,130 acceptance
# presentations fills 341 entries, and a benchmark run under 140, so the
# memo never evicts; the bound only keeps a long-running process from
# growing it without limit
_RANK_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=_RANK_MEMO_SIZE)
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
    level is read from the worm's one rank table, `_ranks`; past the top
    letter the head is empty and the rank is 0.
    """
    ranks = _ranks(a.letters)
    return ranks[level] if _level(level) < len(ranks) else ZERO


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
    return Worm._from_checked(_worm_of(x, _level(level)))


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

    Each distinct text is parsed once per process: the result is the one
    shared, immutable worm kept in a bounded memo, so its `ranks` slot is
    filled on its first read and serves every later parse of that text. A
    text that fails to parse keeps nothing, and a non-string is refused.
    """
    if not isinstance(text, str):
        raise TypeError(f"worm text {text!r} is not a string")
    return _parsed_worm(text)


# one entry per distinct text: the 83,130 acceptance presentations use 341
# worm texts, and a `spectra` benchmark pass 125 of its 11,369, so the memo
# never evicts there; the bound only keeps a long-running process from
# growing it without limit
@lru_cache(maxsize=1 << 12)
def _parsed_worm(text: str) -> Worm:
    text = text.strip()
    if text == "T":
        return TOP
    pieces = text.split(".")
    if are_numerals(pieces):
        return Worm._from_checked(tuple(map(int, pieces)))
    # the diamond form, or malformed text: scan it, and fail where the scan stops
    cur = Cursor(text)
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
