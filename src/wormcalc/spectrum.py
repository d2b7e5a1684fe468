"""Theory spectra: finite unions of consistency progressions and their points.

A presentation assigns to finitely many levels n a worm driving the level-n
progression over the fixed base theory; absent levels mean the stage-0
progression, i.e. the base itself. Normalization collapses any presentation
to the unique world of the universal model whose coordinates are the
per-level proof-theoretic ordinals of the presented theory. It ranks each
stored worm at its level and takes the least world at or above those
ranks, `ignatiev.least_world`.

Many presentations share one point, so both per-point steps run once per
distinct point from bounded memos keyed by tuples of ordinals. Ordinals are
hash-consed, so such a tuple hashes and compares by identity, in C. The
join runs once per distinct rank tuple, and every presentation with those
ranks gets the one shared, immutable `Spectrum`. A spectrum's JSON shows
each coordinate twice: as CNF text, and as the canonical worm that denotes
it at its level; both lists of strings are made once per distinct point.

Reading JSON text runs almost no Python per object or per entry. The
decoder's pairs hook is the C type `tuple`, so each object decodes to the
tuple of its pairs, and `raw_decode` is called from the first non-space
character, with json.loads's errors kept. Each object that is read becomes
a dict and refuses a repeated key; nothing inside an ignored value is read
or checked. A presentation's entries are (level key, worm text) pairs, and
each distinct pair is checked and parsed once per process, from a bounded
memo, `_entry`: a presentation never seen before mostly hits it too.

Conservation between two theories reads off directly: the largest level at
which the two points still agree.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import zip_longest
from typing import Mapping, Union

from .ignatiev import Point, least_world, parse_point, print_point, valid_point
from .ordinal import ZERO, Ordinal, parse_ordinal, print_ordinal
from .parsing import Value, is_natural, is_numeral
from .worm import Worm, parse_worm, print_worm, worm_of_ordinal

__all__ = [
    "TheoryPresentation",
    "Spectrum",
    "LimitTheory",
    "normalize",
    "conservation_level",
    "describe_conservation",
    "registry",
]


# each JSON object decodes, in C, to the tuple of its pairs; arrays stay
# lists, so among decoded values a tuple is exactly an object
_JSON = json.JSONDecoder(object_pairs_hook=tuple)
_SPACE = " \t\n\r"  # JSON whitespace; str.isspace would take more


def _decode(text: str):
    """The value `JSONDecoder.decode` reads from text, each object as the
    tuple of its pairs, and the same errors, message and position."""
    value, end = _JSON.raw_decode(text, len(text) - len(text.lstrip(_SPACE)))
    rest = text[end:].lstrip(_SPACE) if end < len(text) else ""
    if rest:
        raise json.JSONDecodeError("Extra data", text, len(text) - len(rest))
    return value


def _object(value, decoded: bool) -> dict | None:
    """A JSON object that is read, as a dict; None for any other value.

    A decoded object's pairs become a dict here, and it is refused if it
    repeats a key, which json.loads would read as its last value. A
    caller's dict is taken as it is, and a caller's tuple is no object."""
    if not decoded:
        return value if isinstance(value, dict) else None
    if type(value) is not tuple:
        return None
    data = dict(value)
    if len(data) < len(value):
        seen = set()
        for key, _ in value:
            if key in seen:
                raise ValueError(f"JSON key {key!r} is repeated")
            seen.add(key)
    return data


# the 83,130 acceptance presentations have 1,364 distinct (level, worm text)
# entries, 341 texts at each of 4 levels, so the memo never evicts, and it
# pays on presentations never seen before; the bound only keeps a
# long-running process from growing it without limit
@lru_cache(maxsize=1 << 12)
def _entry(key: str, text: str) -> tuple[int, Worm]:
    """One entry of a presentation's JSON, its key and its worm text, as
    (level, worm); distinct keys name distinct levels only without leading
    zeros. The memo's key is the argument tuple, (key, text), and a refused
    pair keeps nothing."""
    if not is_numeral(key):
        raise ValueError(f"level {key!r} must be a natural number without leading zeros")
    if not isinstance(text, str):
        raise ValueError(f"the worm at level {key} must be a string")
    return int(key), parse_worm(text)


class TheoryPresentation(Value):
    """A finite map level -> worm, the union of the per-level progressions."""

    __slots__ = __match_args__ = ("entries", "name")

    def __new__(cls, entries: tuple[tuple[int, Worm], ...] = (), name: str | None = None):
        # an iterator would be read up by the checks below, and a list kept as it is
        if type(entries) is not tuple:
            raise TypeError(f"entries {entries!r} are not a tuple")
        for level, worm in entries:
            if not (is_natural(level) and isinstance(worm, Worm)):
                raise ValueError(f"entry {(level, worm)!r} must pair a natural level with a Worm")
        levels = [level for level, _ in entries]
        if levels != sorted(set(levels)):
            raise ValueError("entries must be sorted by level without duplicates")
        if not (name is None or isinstance(name, str)):
            raise TypeError(f"name {name!r} is neither None nor a string")
        return cls._from_checked(entries, name)

    @classmethod
    def of(cls, entries: Mapping[int, Worm], name: str | None = None) -> "TheoryPresentation":
        # only natural levels are sure to sort; the constructor refuses the rest
        items = tuple(entries.items())
        return cls(tuple(sorted(items)) if all(map(is_natural, entries)) else items, name)

    def to_json(self) -> dict:
        data: dict = {"entries": {str(level): print_worm(w) for level, w in self.entries}}
        if self.name is not None:
            data = {"name": self.name, **data}
        return data

    @classmethod
    def from_json(cls, data: Union[str, dict]) -> "TheoryPresentation":
        decoded = isinstance(data, str)
        data = _object(_decode(data) if decoded else data, decoded)
        entries = None if data is None else _object(data.get("entries"), decoded)
        if entries is None:
            raise ValueError('presentation JSON needs an "entries" object')
        name = data.get("name")
        if "name" in data and not isinstance(name, str):
            raise ValueError('the presentation "name" must be a string')
        try:
            # distinct numerals are distinct levels, so no two worms compare
            return cls._from_checked(tuple(sorted(map(_entry, entries, entries.values()))), name)
        except TypeError:
            # an unhashable worm, such as a JSON array, reaches no memo; the
            # checks alone name the first refused pair
            for key, text in entries.items():
                _entry.__wrapped__(key, text)
            raise

    def __repr__(self):
        inner = ", ".join(f"{level}: {print_worm(w)!r}" for level, w in self.entries)
        named = "" if self.name is None else f", name={self.name!r}"
        return f"TheoryPresentation({{{inner}}}{named})"


class Spectrum(Value):
    """A theory's spectrum: a world of the universal model.

    Coordinate n is the theory's Pi_{n+1} ordinal, and two spectra are the
    same theory exactly when their points coincide. `worms` is a view
    computed from the point on each access: the worm at position n is the
    canonical worm of coordinate n at level n.
    """

    __slots__ = __match_args__ = ("point",)

    def __new__(cls, point: Point):
        if not isinstance(point, Point):
            raise TypeError(f"point {point!r} is not a Point")
        return cls._from_checked(point)

    @classmethod
    def of_point(cls, p: Point) -> "Spectrum":
        return cls(p)

    @property
    def worms(self) -> tuple[Worm, ...]:
        return tuple(worm_of_ordinal(c, n) for n, c in enumerate(self.point.coords))

    def as_presentation(self, name: str | None = None) -> TheoryPresentation:
        return TheoryPresentation(tuple(enumerate(self.worms)), name)

    def to_json(self) -> dict:
        """{"coords": [CNF text], "worms": [canonical worm text]}, one item
        per stored coordinate; worm n denotes coordinate n at level n.

        The strings come from `_views`, one memo entry per distinct point;
        the lists and the dict are new on every call, so a caller may change
        them."""
        coords, worms = _views(self.point.coords)
        return {"coords": list(coords), "worms": list(worms)}

    @classmethod
    def from_json(cls, data: Union[str, dict]) -> "Spectrum":
        decoded = isinstance(data, str)
        data = _object(_decode(data) if decoded else data, decoded)
        coords = None if data is None else data.get("coords")
        if not isinstance(coords, list) or not all(isinstance(text, str) for text in coords):
            raise ValueError('spectrum JSON needs a "coords" list of ordinal strings')
        return cls(valid_point([parse_ordinal(text) for text in coords]))

    def __repr__(self):
        return f"Spectrum({print_point(self.point)})"


# the 83,130 acceptance presentations have 753 distinct points, and a
# benchmark worker meets about 246, so the memo never evicts; the bound only
# keeps a long-running process from growing it without limit
@lru_cache(maxsize=1 << 12)
def _views(coords: tuple[Ordinal, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    # each coordinate as CNF text, and coordinate n's canonical worm at
    # level n as text; only immutable tuples of strings are kept
    worms = tuple(print_worm(worm_of_ordinal(c, n)) for n, c in enumerate(coords))
    return tuple(map(print_ordinal, coords)), worms


def normalize(t: TheoryPresentation) -> Spectrum:
    """Collapse a presentation to its unique point of the universal model.

    Coordinate n is first the rank of the stored level-n worm (a level-n
    progression only sees that worm's level-n head), read straight from the
    worm's rank table, `Worm.ranks`: the levels were checked when the
    presentation was built, and worms are hash-consed, so a worm built
    again while it lives has its table in its slot already. The union of
    the progressions is the least world at or above those ranks, which
    `least_world` takes once per distinct rank tuple: presentations with
    equal ranks get one shared, immutable `Spectrum`. Levels above the
    highest nonzero rank are never visited.
    """
    coords = []
    for n, w in t.entries:
        # the slot itself; the property fills it on a worm's first read
        try:
            ranks = w._rank_table
        except AttributeError:
            ranks = w.ranks
        x = ranks[n] if n < len(ranks) else ZERO
        if x.terms:
            coords += [ZERO] * (n - len(coords)) + [x]
    return _spectrum_of_ranks(tuple(coords))


# the 83,130 acceptance presentations have 2,194 distinct rank tuples, and a
# benchmark worker meets about 640, so the memo never evicts; the bound only
# keeps a long-running process from growing it without limit
@lru_cache(maxsize=1 << 12)
def _spectrum_of_ranks(ranks: tuple[Ordinal, ...]) -> Spectrum:
    return Spectrum._from_checked(least_world(ranks))


class LimitTheory(Value):
    """Registry sentinel for theories whose spectrum leaves the model."""

    __slots__ = __match_args__ = ("name", "note")

    def __new__(cls, name: str, note: str):
        if not (isinstance(name, str) and isinstance(note, str)):
            raise TypeError(f"name {name!r} and note {note!r} must be strings")
        return cls._from_checked(name, note)


def conservation_level(p: Spectrum, q: Spectrum) -> int | str:
    """Largest n with coordinates 0..n equal; 'all' for equal points,
    'none' when already coordinate 0 differs."""
    if p.point == q.point:
        return "all"
    pairs = zip_longest(p.point.coords, q.point.coords, fillvalue=ZERO)
    level = next(n for n, (a, b) in enumerate(pairs) if a != b) - 1
    return "none" if level < 0 else level


def describe_conservation(level: int | str) -> str:
    if level == "all":
        return "level=all (identical spectra)"
    if level == "none":
        return "level=none (already Pi^0_1 ordinals differ)"
    return f"level={level} (Pi^0_{level + 1} agreement)"


def registry() -> dict[str, Spectrum | LimitTheory]:
    """Built-in theory placements over the fixed base.

    The base itself sits at the root; the two classical fragments sit at
    their known points, one relation-2 step apart. Full arithmetic has
    every coordinate equal to the limit ordinal and therefore no point.
    """
    return {
        "EA+": Spectrum(parse_point("<0>")),
        "ISigma1": Spectrum(parse_point("<w^w, w, 1>")),
        "PRA": Spectrum(parse_point("<w^w, w>")),
        "PA": LimitTheory(
            "PA", "limit: every coordinate is epsilon_0, outside the model"
        ),
    }
