"""Theory spectra: finite unions of consistency progressions and their points.

A presentation assigns to finitely many levels n a worm driving the level-n
progression over the fixed base theory; absent levels mean the stage-0
progression, i.e. the base itself. Normalization collapses any presentation
to the unique world of the universal model whose coordinates are the
per-level proof-theoretic ordinals of the presented theory. It ranks each
stored worm at its level and takes the least world at or above those
ranks, `ignatiev.least_world`.

A spectrum's JSON shows each coordinate twice: as CNF text, and as the
canonical worm that denotes it at its level. Both strings of a coordinate
are read from one bounded memo keyed by (coordinate, level), so each
distinct pair is printed once per process, however many spectra share it.

Conservation between two theories reads off directly: the largest level at
which the two points still agree.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import zip_longest
from operator import itemgetter
from typing import Mapping, Union

from .ignatiev import Point, least_world, print_point, valid_point
from .ordinal import ZERO, Ordinal, from_int, omega_power, parse_ordinal, print_ordinal
from .parsing import Value, are_numerals, is_natural
from .worm import Worm, _worm_of, parse_worm, print_worm, worm_of_ordinal

__all__ = [
    "TheoryPresentation",
    "Spectrum",
    "LimitTheory",
    "normalize",
    "conservation_level",
    "describe_conservation",
    "registry",
]


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; json.loads alone keeps the last of two equal keys."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON key {key!r} is repeated")
            seen.add(key)
    return data


# built once: json.loads(text, object_pairs_hook=...) builds a decoder per call
_JSON = json.JSONDecoder(object_pairs_hook=_distinct_keys)


class TheoryPresentation(Value):
    """A finite map level -> worm, the union of the per-level progressions."""

    __slots__ = __match_args__ = ("entries", "name")

    def __new__(cls, entries: tuple[tuple[int, Worm], ...] = (), name: str | None = None):
        for level, worm in entries:
            if not (is_natural(level) and isinstance(worm, Worm)):
                raise ValueError(f"entry {(level, worm)!r} must pair a natural level with a Worm")
        levels = [level for level, _ in entries]
        if levels != sorted(set(levels)):
            raise ValueError("entries must be sorted by level without duplicates")
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
        if isinstance(data, str):
            data = _JSON.decode(data)
        if not isinstance(data, dict) or not isinstance(data.get("entries"), dict):
            raise ValueError('presentation JSON needs an "entries" object')
        name = data.get("name")
        if "name" in data and not isinstance(name, str):
            raise ValueError('the presentation "name" must be a string')
        entries = []
        # distinct keys name distinct levels only without leading zeros; the
        # keys are checked together, and one by one only to name a bad one
        numerals = are_numerals(data["entries"])
        for key, text in data["entries"].items():
            if not (numerals or are_numerals((key,))):
                raise ValueError(f"level {key!r} must be a natural number without leading zeros")
            if not isinstance(text, str):
                raise ValueError(f"the worm at level {key} must be a string")
            entries.append((int(key), parse_worm(text)))
        entries.sort(key=itemgetter(0))
        return cls._from_checked(tuple(entries), name)

    @classmethod
    def _from_checked(
        cls, entries: tuple[tuple[int, Worm], ...], name: str | None
    ) -> "TheoryPresentation":
        """A presentation whose levels are already known to be naturals,
        sorted and distinct, built without running the constructor's check
        again."""
        presentation = object.__new__(cls)
        _set_entries(presentation, entries)
        _set_name(presentation, name)
        return presentation

    def __repr__(self):
        inner = ", ".join(f"{level}: {print_worm(w)!r}" for level, w in self.entries)
        return f"TheoryPresentation({{{inner}}})"


_set_entries, _set_name = TheoryPresentation.entries.__set__, TheoryPresentation.name.__set__


class Spectrum(Value):
    """A theory's spectrum: a world of the universal model.

    Coordinate n is the theory's Pi_{n+1} ordinal, and two spectra are the
    same theory exactly when their points coincide. `worms` is a view
    computed from the point on each access: the worm at position n is the
    canonical worm of coordinate n at level n.
    """

    __slots__ = __match_args__ = ("point",)

    def __init__(self, point: Point):
        if not isinstance(point, Point):
            raise TypeError(f"point {point!r} is not a Point")
        _set_point(self, point)

    @classmethod
    def of_point(cls, p: Point) -> "Spectrum":
        return cls(p)

    @property
    def worms(self) -> tuple[Worm, ...]:
        return tuple(worm_of_ordinal(c, n) for n, c in enumerate(self.point.coords))

    def as_presentation(self, name: str | None = None) -> TheoryPresentation:
        return TheoryPresentation.of(
            {n: w for n, w in enumerate(self.worms)}, name
        )

    def to_json(self) -> dict:
        """{"coords": [CNF text], "worms": [canonical worm text]}, one item
        per stored coordinate; worm n denotes coordinate n at level n.

        The strings come from the (coordinate, level) memo `_views`; the
        lists and the dict are new on every call, so a caller may change
        them."""
        coords, worms = [], []
        for n, c in enumerate(self.point.coords):
            text, worm = _views(c, n)
            coords.append(text)
            worms.append(worm)
        return {"coords": coords, "worms": worms}

    @classmethod
    def from_json(cls, data: Union[str, dict]) -> "Spectrum":
        if isinstance(data, str):
            data = _JSON.decode(data)
        coords = data.get("coords") if isinstance(data, dict) else None
        if not isinstance(coords, list) or not all(isinstance(text, str) for text in coords):
            raise ValueError('spectrum JSON needs a "coords" list of ordinal strings')
        return cls.of_point(valid_point([parse_ordinal(text) for text in coords]))

    def __repr__(self):
        return f"Spectrum({print_point(self.point)})"


_set_point = Spectrum.point.__set__


# the 83,130 acceptance presentations have 271 distinct (coordinate, level)
# pairs, and a benchmark worker meets 124, so the memo never evicts; the
# bound only keeps a long-running process from growing it without limit
@lru_cache(maxsize=1 << 12)
def _views(c: Ordinal, n: int) -> tuple[str, str]:
    # coordinate c as CNF text, and its canonical worm at level n as text;
    # only immutable strings are kept
    letters = _worm_of(c, n)
    return print_ordinal(c), ".".join(map(str, letters)) if letters else "T"


def normalize(t: TheoryPresentation) -> Spectrum:
    """Collapse a presentation to its unique point of the universal model.

    Coordinate n is first the rank of the stored level-n worm (a level-n
    progression only sees that worm's level-n head), read straight from the
    worm's rank table, `Worm.ranks`: the levels were checked when the
    presentation was built, and a worm parsed from a text seen before is
    the one shared worm whose table is already in its slot. The union of
    the progressions is the least world at or above those ranks, which
    `least_world` takes. Levels above the highest nonzero rank are never
    visited.
    """
    coords = []
    for n, w in t.entries:
        ranks = w.ranks
        x = ranks[n] if n < len(ranks) else ZERO
        if x.terms:
            coords += [ZERO] * (n - len(coords)) + [x]
    return Spectrum(least_world(coords))


class LimitTheory(Value):
    """Registry sentinel for theories whose spectrum leaves the model."""

    __slots__ = __match_args__ = ("name", "note")

    def __init__(self, name: str, note: str):
        if not (isinstance(name, str) and isinstance(note, str)):
            raise TypeError(f"name {name!r} and note {note!r} must be strings")
        _set_limit_name(self, name)
        _set_note(self, note)


_set_limit_name, _set_note = LimitTheory.name.__set__, LimitTheory.note.__set__


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
    w = omega_power(from_int(1))
    w_to_w = omega_power(w)
    one = from_int(1)
    return {
        "EA+": Spectrum.of_point(Point.of([from_int(0)])),
        "ISigma1": Spectrum.of_point(Point.of([w_to_w, w, one])),
        "PRA": Spectrum.of_point(Point.of([w_to_w, w])),
        "PA": LimitTheory(
            "PA", "limit: every coordinate is epsilon_0, outside the model"
        ),
    }
