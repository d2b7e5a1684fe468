"""Reference Cantor normal forms, independent of wormcalc.

The correctness gates read the library's printed ordinals back with this
parser and compare them here, so a bug shared by the library's parser,
printer and comparison cannot pass the gates unseen. An ordinal is a tuple
of (exponent, coefficient) terms with exponents that are themselves such
tuples; () is zero.
"""

from __future__ import annotations


def parse(text: str) -> tuple:
    """Read the ASCII grammar form that `print_ordinal` emits."""
    value, pos = _sum(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r} at {pos}")
    return value


def _sum(text: str, pos: int) -> tuple[tuple, int]:
    if text.startswith("0", pos):
        return (), pos + 1
    terms = []
    while True:
        term, pos = _term(text, pos)
        terms.append(term)
        if not text.startswith("+", pos):
            return tuple(terms), pos
        pos += 1


def _term(text: str, pos: int) -> tuple[tuple, int]:
    if pos < len(text) and text[pos].isdigit():
        n, pos = _nat(text, pos)
        return ((), n), pos
    exponent, pos = _power(text, pos)
    coefficient = 1
    if text.startswith("*", pos):
        coefficient, pos = _nat(text, pos + 1)
    return (exponent, coefficient), pos


def _power(text: str, pos: int) -> tuple[tuple, int]:
    """The exponent of a w-power atom: `w`, `w^3`, `w^(...)` or `w^w...`."""
    if not text.startswith("w", pos):
        raise ValueError(f"expected a term in {text!r} at {pos}")
    pos += 1
    if not text.startswith("^", pos):
        return (((), 1),), pos
    pos += 1
    if text.startswith("(", pos):
        exponent, pos = _sum(text, pos + 1)
        if not text.startswith(")", pos):
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        return exponent, pos + 1
    if pos < len(text) and text[pos].isdigit():
        n, pos = _nat(text, pos)
        return (((), n),), pos
    inner, pos = _power(text, pos)
    return ((inner, 1),), pos


def _nat(text: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(text) and text[end] in "0123456789":
        end += 1
    return int(text[pos:end]), end


def compare(a: tuple, b: tuple) -> int:
    """-1, 0 or 1: terms compared exponent first, a proper prefix is smaller."""
    for (ea, ca), (eb, cb) in zip(a, b):
        c = compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def last_exponent(a: tuple) -> tuple:
    return a[-1][0] if a else ()


def depth(a: tuple) -> int:
    """Exponent nesting: 0 for zero, 1 for finite, 2 for w, 3 for w^w, ..."""
    return 1 + max(depth(e) for e, _ in a) if a else 0


def is_world(coords: list[tuple]) -> bool:
    """Each coordinate is at most the last exponent of the one before it."""
    return all(
        compare(nxt, last_exponent(cur)) <= 0 for cur, nxt in zip(coords, coords[1:])
    )
