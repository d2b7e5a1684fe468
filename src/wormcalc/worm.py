"""Worms: iterated consistency statements as strings of modality indices.

A worm is a finite word over the naturals, leftmost letter outermost; the
empty word is the trivially true statement. Worms double as ordinal
notations below epsilon_0: `ordinal_of` ranks a worm inside the
well-ordering of level-n worms, `worm_of_ordinal` inverts it, and
`compare_worms` decides the level-n ordering through those ranks instead of
proof search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ordinal import ONE, ZERO, Ordinal, add, compare, hyperexp
from .parsing import Cursor, are_numerals, is_natural

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


@dataclass(frozen=True, repr=False)
class Worm:
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for letter in self.letters:
            if not is_natural(letter):
                raise ValueError(f"letter {letter!r} must be a natural number")

    @classmethod
    def _from_checked(cls, letters: tuple[int, ...]) -> "Worm":
        """A worm of letters that are already known to be naturals, built
        without running __post_init__'s per-letter check again."""
        worm = object.__new__(cls)
        object.__setattr__(worm, "letters", letters)
        return worm

    @property
    def is_empty(self) -> bool:
        return not self.letters

    @cached_property
    def ranks(self) -> tuple[Ordinal, ...]:
        """ordinal_of(self, n) for n = 0 .. max letter + 1; every rank above is 0.

        Taken once per distinct letter tuple (`_ranks`), and kept in the
        instance dict, outside the dataclass fields, so equality, hashing and
        repr still see only the letters.
        """
        return _ranks(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return print_worm(self)

    def __repr__(self) -> str:
        return f"Worm({print_worm(self)!r})"


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


# normalizing the 83,130 acceptance presentations fills 498 entries and a
# benchmark run under 200, so neither evicts; the bound only keeps a
# long-running process from growing the memo, or the per-worm memo `_ranks`,
# without limit
_RANK_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=_RANK_MEMO_SIZE)
def _rank(letters: tuple[int, ...], base: int) -> Ordinal:
    # every letter is >= base, and base plays the part of the letter 0
    if not letters:
        return ZERO
    m = min(letters)
    if m > base:
        return hyperexp(m - base, _rank(letters, m))
    # split at every base letter, B_0 base B_1 ... base B_k, in one loop:
    # the rank is rank(B_k) + 1 + ... + 1 + rank(B_0), and only the blocks,
    # whose letters are all above base, recurse
    blocks, start = [], 0
    for i, letter in enumerate(letters):
        if letter == base:
            blocks.append(letters[start:i])
            start = i + 1
    value = _rank(letters[start:], base)
    for block in reversed(blocks):
        value = add(add(value, ONE), _rank(block, base))
    return value


@lru_cache(maxsize=_RANK_MEMO_SIZE)
def _ranks(letters: tuple[int, ...]) -> tuple[Ordinal, ...]:
    # every level's rank of one worm, so a worm whose letters were seen
    # before costs one lookup however many levels it has
    top = max(letters) + 1 if letters else 0
    return tuple(_rank(letters[: _cut(letters, n)], n) for n in range(top + 1))


def ordinal_of(a: Worm, level: int = 0) -> Ordinal:
    """The ordinal a worm denotes at the given level.

    At level 0 this is the recursion: the empty worm is 0; a worm split
    around a 0-letter as B0A is worth rank(A) + 1 + rank(B); and shifting
    all letters up by n applies the n-th hyperexponential. At level n the
    rank only sees the level-n head, read with n in the part of 0.
    """
    return _rank(a.letters[: _cut(a.letters, _level(level))], level)


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
