"""The universal Kripke model for the closed fragment.

Worlds are finite-support sequences of ordinals whose every coordinate is
bounded by the last exponent of the one before it; relation n drops
coordinate n while fixing all earlier ones. The full model is infinite, so
model checking runs over explicitly enumerated finite fragments. Forcing
results carry an exactness flag: on a universe that is an initial segment
of the naturals every possible witness lies inside the fragment and
evaluation agrees with the full model, otherwise diamonds are
underapproximated. Evaluation builds one truth vector over the worlds per
distinct subformula, so it costs O(|W|*|f|) whatever the nesting depth,
where |f| counts f's distinct subformulas: one that f shares is taken
once, however many paths lead to it. A fragment keeps the vector of each
distinct subformula it has built for its life, and every query on it
shares them: the first query of f costs O(|W|*k), where k counts the
subformulas of f that no earlier query built, and checks the modal indices
in the same walk; a refused query keeps nothing. The same formula at each
further world costs O(1): the fragment finds the world by its coordinate
tuple and the vector by the formula, and both keys hash in C, since
ordinals and formulas are hash-consed and hash by identity.

`least_world` is the model's join: the coordinatewise least world at or
above any finite list of ordinals. `spectrum.normalize` places a
presentation with it, and the test suite's symbolic evaluator on the full
model decides satisfiability with it.

A fragment is enumerated on universe positions: one table, built once,
gives the position of each element's last exponent, so the walk makes no
ordinal comparison, and worlds canonical by construction skip the
constructor's check. Each world comes from one bounded memo keyed by its
coordinate tuple, so the fragments of a process that hold a world share
one `Point` for it, built once. Each relation keeps its own span per world,
which evaluation, successors and rendering index directly.

`render_dot` labels each world with its text, which it joins from the
coordinates' texts on the world's first drawing and keeps on the world; a
world drawn again, in this fragment's DOT or in another's, reads it back.
Sharing worlds and their texts is an optimisation only: a `Point` built
any other way, by `parse_point` say, is the same world to every query and
to `render_dot`'s labels.

`forces_worm` decides worm statements through the coordinatewise criterion
rank_n(worm) <= coordinate_n. The ranks are taken once per distinct worm
(`Worm.ranks`), so each further world costs one identity test per level,
and one `compare` where the rank and the coordinate differ. That
criterion is folklore rather than textbook; the test suite certifies it
by exhaustive agreement with the definitional evaluator on exact
fragments, and any disagreement fails the build.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, zip_longest
from typing import Iterable, Mapping, Sequence

from . import formula as fm
from .ordinal import (
    ZERO, Ordinal, add, compare, last_exponent, omega_power, parse_ordinal, print_ordinal
)
from .parsing import ParseError, Value, is_natural, parse_comma_list, require_natural
from .worm import Worm

__all__ = [
    "Point",
    "parse_coords",
    "parse_point",
    "print_point",
    "first_violation",
    "is_valid_point",
    "valid_point",
    "least_world",
    "min_point_for_worm",
    "forces_worm",
    "FiniteSubmodel",
    "enumerate_submodel",
    "ForcingResult",
    "forces",
    "validity_check",
    "render_dot",
    "UniverseError",
    "PointNotInModelError",
    "ModalityOutOfRangeError",
]


class UniverseError(ValueError):
    """The requested universe cannot carry a submodel."""


class PointNotInModelError(ValueError):
    """Evaluation was asked at a world the submodel does not contain."""


class ModalityOutOfRangeError(ValueError):
    """The formula mentions a modality above the submodel's max index."""


class Point(Value):
    """A world: stored coordinates, with an implicit all-zero tail.

    Canonical support: the final stored coordinate is nonzero unless the
    point is the root, stored as the single coordinate 0. Equal points are
    therefore structurally identical, and the coordinate tuple, whose
    ordinals hash by identity, is a key for the point that hashes in C.
    """

    __slots__ = {
        "coords": None,
        "_text": """The world's ASCII text, print_point(self), kept here by
        `render_dot` on its first use. It is not a field, so equality,
        hashing, repr, copies and pickles see only the coordinates.""",
    }
    __match_args__ = ("coords",)

    def __new__(cls, coords: tuple[Ordinal, ...]):
        if not isinstance(coords, tuple) or not all(isinstance(c, Ordinal) for c in coords):
            raise TypeError(f"coordinates {coords!r} are not a tuple of Ordinals")
        if not coords:
            raise ValueError("a point stores at least one coordinate")
        if len(coords) > 1 and coords[-1].is_zero:
            raise ValueError("non-canonical point: trailing zero coordinate")
        return cls._from_checked(coords)

    @classmethod
    def of(cls, coords: Iterable[Ordinal]) -> "Point":
        stored = list(coords)
        # only an Ordinal equals ZERO, so the constructor sees anything else
        while len(stored) > 1 and stored[-1] == ZERO:
            stored.pop()
        if not stored:
            stored = [ZERO]
        return cls(tuple(stored))

    def coord(self, n: int) -> Ordinal:
        return self.coords[n] if require_natural(n, "coordinate") < len(self.coords) else ZERO

    def __str__(self) -> str:
        return print_point(self)

    def __repr__(self) -> str:
        return f"Point({print_point(self)!r})"


_set_text = Point._text.__set__


def parse_coords(text: str) -> tuple[Ordinal, ...]:
    """The raw coordinate list of `<w^w, w, 1>`; no trimming, no validity
    check. An error's position counts in text, brackets and whitespace too."""
    s = text.strip()
    if len(s) > 1 and s[0] + s[-1] in ("<>", "⟨⟩"):
        # s[0], the bracket, is text's first non-blank character; the list
        # starts one past it
        return tuple(parse_comma_list(parse_ordinal, s[1:-1], text.index(s[0]) + 1))
    raise ParseError("expected an angle-bracketed point like <w, 1>", 0)


def parse_point(text: str) -> Point:
    """Angle-bracket syntax with canonical trimming; does not check validity."""
    return Point.of(parse_coords(text))


def print_point(p: Point, unicode: bool = False) -> str:
    inner = ", ".join(print_ordinal(c, unicode) for c in p.coords)
    return f"⟨{inner}⟩" if unicode else f"<{inner}>"


def first_violation(coords: Sequence[Ordinal]) -> int | None:
    """Index of the first adjacent pair breaking the world condition, if any.

    The condition: each coordinate is at most the last exponent of its
    predecessor. The implicit zero tail can never violate it.
    """
    for i in range(len(coords) - 1):
        if compare(coords[i + 1], last_exponent(coords[i])) > 0:
            return i
    return None


def is_valid_point(coords: Sequence[Ordinal] | Point) -> bool:
    if isinstance(coords, Point):
        coords = coords.coords
    return first_violation(coords) is None


def valid_point(coords: Sequence[Ordinal]) -> Point:
    """The point with these coordinates; ValueError if they are not a world."""
    i = first_violation(coords)
    if i is not None:
        raise ValueError(f"not a world: coordinate {i + 1} exceeds the last exponent before it")
    return Point.of(coords)


def least_world(coords: Sequence[Ordinal]) -> Point:
    """The coordinatewise least world at or above coords.

    Trailing zeros are trimmed, then one top-down pass restores the world
    condition: where alpha_{n+1} exceeds the last exponent of alpha_n, the
    least ordinal at or above alpha_n whose last exponent reaches
    alpha_{n+1} is alpha_n + w^alpha_{n+1}. The step changes only alpha_n,
    and its new last exponent is alpha_{n+1}, so the condition then holds
    at n and at every level above: one pass suffices. Like `add` and
    `compare`, it does not check its arguments, but it reads every
    coordinate's terms, so a non-Ordinal raises instead of making a point.
    """
    coords = list(coords)
    while coords and not coords[-1].terms:
        coords.pop()
    for n in range(len(coords) - 2, -1, -1):
        if compare(coords[n + 1], last_exponent(coords[n])) > 0:
            coords[n] = add(coords[n], omega_power(coords[n + 1]))
    # the top coordinate is nonzero, so the point is canonical as it stands
    return Point._from_checked(tuple(coords) or (ZERO,))


def min_point_for_worm(a: Worm) -> Point:
    """The world whose n-th coordinate is the worm's level-n rank.

    This is the spectrum of the theory axiomatized by the worm; it always
    satisfies the world condition.
    """
    return Point.of(a.ranks)


def forces_worm(p: Point, a: Worm) -> bool:
    """Decide a worm statement at a world via the coordinatewise rank criterion.

    The worm's ranks are taken once per distinct worm; at each world the test
    is one identity test per level up to the point's support, and a
    `compare` where the rank is not the coordinate itself.
    """
    # the slot itself; the property fills it on a worm's first read
    try:
        ranks = a._rank_table
    except AttributeError:
        ranks = a.ranks
    coords = p.coords
    # the ranks form a world, so once one is 0 all later ones are: a rank
    # past the support is nonzero iff the first one there is
    if len(ranks) > len(coords) and ranks[len(coords)].terms:
        return False
    for r, c in zip(ranks, coords):
        if r is not c and compare(r, c) > 0:
            return False
    return True


class FiniteSubmodel:
    """A finite fragment: all valid points over a fixed coordinate universe.

    Worlds are every valid point with support at most max_index + 1 and all
    coordinates drawn from the universe; edges are the full relations
    restricted to those worlds. Immutable after construction. The universe
    is the closure of the given elements under last exponents: a coordinate
    is bounded by the last exponent of the one before it, so each element
    brings its chain of last exponents down to 0. Any nonempty list of
    Ordinals is a universe.

    `worlds` is in lexicographic coordinate order: the root, then a
    depth-first walk that puts each prefix P before its subtree. The walk
    runs on positions in the ascending universe: a coordinate after the
    element at position k may be any nonzero element up to its last
    exponent, which are positions 1..below[k], looked up in a table built
    once. The worlds agreeing with P below n = len(P) are P and its
    subtree, so relation n at a child P+(u,), and at every world below it,
    reaches exactly P and the subtrees of the earlier siblings: one stretch
    of `worlds`. Relation n keeps a span _spans[n][i] = (a, b, c) for each
    world i, with P at a, the previous sibling (or P) at b and the child at
    c; the successors of world i are worlds[a:c] and its covers, the arrows
    `render_dot` draws, worlds[b:c]. Relations at or above a world's
    support have empty spans, and those at or above every world's support
    share one column of them.
    """

    def __init__(self, universe: Sequence[Ordinal], max_index: int):
        if not is_natural(max_index):
            raise UniverseError(f"max index {max_index!r} must be a natural number")
        if not all(isinstance(u, Ordinal) for u in universe):
            raise TypeError("universe elements must be Ordinals")
        if not universe:
            raise UniverseError("universe is empty")
        # the elements and their last-exponent chains down to 0, whose last
        # exponent is 0 again; equal ordinals are one object, so a dict in
        # first-seen order dedupes them, and the sort compares distinct ones
        closed = {}
        for u in universe:
            while u not in closed:
                closed[u] = None
                u = last_exponent(u)
        self.universe: tuple[Ordinal, ...] = tuple(sorted(closed))
        # the position of each element's last exponent
        position = {u: k for k, u in enumerate(self.universe)}
        below = [position[last_exponent(u)] for u in self.universe]
        self.max_index = max_index
        self.worlds, spans = self._generate(below)
        # the relations from the deepest support up have no edge: they share
        # one all-empty column, and render_dot stops before them
        self._depth = len(spans)
        self._spans = spans + (((0, 0, 0),) * len(self.worlds),) * (max_index + 1 - len(spans))
        # each world's position, keyed by its coordinates
        self._index = {p.coords: i for i, p in enumerate(self.worlds)}
        # the truth vector of each distinct formula and subformula queried
        # so far; a query's walk holds them all while it runs, and the
        # fragment keeps them for every later query
        self._vectors: dict[fm.Formula, list[bool]] = {}
        # exactness is certified only for initial segments of the naturals:
        # there every coordinate beyond the first is forced to zero, so all
        # full-model successors of a world already lie in the fragment. The
        # universe ascends from 0 without repeats, so it is one iff its top
        # element is the natural len - 1
        top = self.universe[-1]
        self.witness_complete = top.is_finite and top.as_int() == len(self.universe) - 1
        self._results = _RESULTS[self.witness_complete]

    def _generate(self, below: list[int]) -> tuple[tuple[Point, ...], tuple[tuple, ...]]:
        """The worlds in walk order, and the spans by world of each relation
        below the deepest support."""
        universe, top, make = self.universe, self.max_index, _world
        worlds = [make((ZERO,))]
        rows = [()]  # world i's spans, for the relations below its support
        # an entry stands for the child P+(universe[k],) of a prefix P: P, the
        # position of P, of the previous sibling (or P), k, and the last
        # position P's children reach. The next sibling is pushed before the
        # child, so the child's subtree comes out first
        stack = [((), 0, 0, 1, len(universe) - 1)] if len(universe) > 1 else []
        while stack:
            prefix, start, previous, k, bound = stack.pop()
            coords = prefix + (universe[k],)
            i = len(worlds)
            worlds.append(make(coords))
            rows.append(rows[start] + ((start, previous, i),))
            if k < bound:
                stack.append((prefix, start, i, k + 1, bound))
            if len(prefix) < top and below[k]:
                stack.append((coords, i, i, 1, below[k]))
        return tuple(worlds), tuple(zip_longest(*rows, fillvalue=(0, 0, 0)))

    def _position(self, p: Point) -> int:
        i = self._index.get(p.coords) if isinstance(p, Point) else None
        if i is None:
            raise PointNotInModelError(f"{p} is not a world of {self!r}")
        return i

    def _relation(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """The spans of relation n, once n is checked to be one of 0..max_index."""
        if not (is_natural(n) and n <= self.max_index):
            raise ModalityOutOfRangeError(f"relation {n!r} is outside 0..{self.max_index}")
        return self._spans[n]

    def successors(self, n: int, p: Point) -> tuple[Point, ...]:
        a, _, c = self._relation(n)[self._position(p)]
        return self.worlds[a:c]

    def edges(self, n: int) -> list[tuple[Point, Point]]:
        spans = self._relation(n)
        return [(p, q) for p, (a, _, c) in zip(self.worlds, spans) for q in self.worlds[a:c]]

    def edge_count(self, n: int) -> int:
        """len(edges(n)), summed over the spans without building a pair."""
        spans = self._relation(n)
        return sum(c - a for a, _, c in spans) if n < self._depth else 0

    def __contains__(self, p: Point) -> bool:
        return isinstance(p, Point) and p.coords in self._index

    def __repr__(self) -> str:
        return (
            f"FiniteSubmodel(|universe|={len(self.universe)}, "
            f"max_index={self.max_index}, worlds={len(self.worlds)})"
        )


# the worlds of a session's fragment come back in fragment after fragment:
# the 117 benchmark sessions of seed 3111 enumerate 84 distinct worlds, and
# those of seeds 1, 2, 7 and 42 enumerate 83-87, of which 80-83 are among
# the 84; all five seeds together hold 90. The bound keeps at most 4,096
# worlds alive, each with its text once `render_dot` has drawn it; a larger
# fragment evicts, and the evicted worlds are built again when next met
@lru_cache(maxsize=1 << 12)
def _world(coords: tuple[Ordinal, ...]) -> Point:
    """The fragment world with these coordinates, already canonical and
    valid: one Point per coordinate tuple while the memo keeps it, so every
    fragment that holds the world shares it, and its text."""
    return Point._from_checked(coords)


def enumerate_submodel(universe: Iterable[Ordinal], max_index: int) -> FiniteSubmodel:
    return FiniteSubmodel(list(universe), max_index)


class ForcingResult(Value):
    """Truth value plus whether it is exact for the full model."""

    __slots__ = __match_args__ = ("value", "exact")

    def __new__(cls, value: bool, exact: bool):
        if not (isinstance(value, bool) and isinstance(exact, bool)):
            raise TypeError(f"value {value!r} and exact {exact!r} must be bools")
        return cls._from_checked(value, exact)

    def __bool__(self) -> bool:
        return self.value


# the two answers forces and validity_check give, indexed by value, on an
# inexact and on an exact fragment
_RESULTS = tuple(
    (ForcingResult(False, exact), ForcingResult(True, exact)) for exact in (False, True)
)


def _truth(m: FiniteSubmodel, f: fm.Formula, memo: dict) -> list[bool]:
    """f's truth value at every world position, one pass per distinct
    subformula: memo holds the vector of each subformula already taken, so
    one that f shares is taken once. The node kind is told by its class,
    compared by identity. A box or diamond counts its body over each span
    (a, _, c) by prefix sums. An index above m's max index raises a bare
    error for `_vector` to word."""
    vector = memo.get(f)
    if vector is not None:
        return vector
    kind = f.__class__
    if kind is fm.Implies:
        vector = [not x or y for x, y in zip(_truth(m, f.left, memo), _truth(m, f.right, memo))]
    elif kind is fm.Box or kind is fm.Diamond:
        n = f.index
        if n > m.max_index:
            raise ModalityOutOfRangeError
        pre = list(accumulate(_truth(m, f.body, memo), initial=0))
        if kind is fm.Box:
            vector = [pre[c] - pre[a] == c - a for a, _, c in m._spans[n]]
        else:
            vector = [pre[c] > pre[a] for a, _, c in m._spans[n]]
    elif kind is fm.Top:
        vector = [True] * len(m.worlds)
    elif kind is fm.Bottom:
        vector = [False] * len(m.worlds)
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[f] = vector
    return vector


def _vector(m: FiniteSubmodel, f: fm.Formula) -> list[bool]:
    """f's truth vector on m, built on the first query. The walk keeps the
    vector of each distinct subformula in m for the fragment's life, so a
    later query builds only the subformulas no earlier one did. It refuses
    an index above m's max index, naming f's highest one, and then a
    refused query keeps nothing: the walk only inserts, so popping back to
    the length before it drops exactly what it stored."""
    vectors = m._vectors
    vector = vectors.get(f)
    if vector is None:
        size = len(vectors)
        try:
            vector = _truth(m, f, vectors)
        except ModalityOutOfRangeError:
            while len(vectors) > size:
                vectors.popitem()
            raise ModalityOutOfRangeError(
                f"formula mentions [{fm.max_modality(f)}] but the submodel stops at [{m.max_index}]"
            ) from None
    return vector


def forces(m: FiniteSubmodel, p: Point, f: fm.Formula) -> ForcingResult:
    """Kripke evaluation of a closed formula at a world of the fragment.

    Boxes quantify over the fragment's edges, diamonds existentially; on a
    witness-complete fragment the answer is exact for the full model,
    otherwise diamonds are underapproximated and the result says so. The
    first query of f on m costs O(|W|*k) for |W| worlds, whatever the
    nesting depth, where k counts the subformulas of f that no earlier
    query on m built; m keeps their truth vectors, so f at each further
    world costs a lookup of p and one of f.
    """
    # the lookups inline; the helpers run only on a miss, to raise or to
    # build the vector
    i = m._index.get(p.coords) if p.__class__ is Point else None
    if i is None:
        i = m._position(p)
    vector = m._vectors.get(f)
    if vector is None:
        vector = _vector(m, f)
    return m._results[vector[i]]


def validity_check(f: fm.Formula, m: FiniteSubmodel) -> ForcingResult:
    """True iff the formula holds at every world of the fragment.

    A False answer on a witness-complete fragment refutes theoremhood in
    the closed fragment; a True answer is only a necessary condition. It
    shares the truth vectors of f and its subformulas with every other
    query on the same model, as `forces` does, so it costs what `forces`
    costs to build them, and O(|W|) once f's vector is kept.
    """
    return m._results[all(_vector(m, f))]


# --- DOT rendering ------------------------------------------------------


# the kripke benchmark's fragments hold 37 distinct universe elements, so
# the memo never evicts there; the bound only keeps a long-running process
# from growing it without limit. A world keeps its own text once drawn, so
# this memo serves only the worlds `render_dot` draws for the first time
@lru_cache(maxsize=1 << 12)
def _coordinate_text(u: Ordinal) -> str:
    """print_ordinal(u), taken once per distinct universe element; ordinals
    are interned, so the key is the one object."""
    return print_ordinal(u)


def _dot_escaped(text: str) -> str:
    """text as it may stand inside a quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _edge_style(n: int) -> str:
    """Multi-stroke edges: relation n is drawn with n+1 parallel strokes."""
    if n == 0:
        return ""
    color = "black" + ":invis:black" * n
    return f' [color="{color}"]'


def render_dot(
    m: FiniteSubmodel,
    labels: Mapping[Point, str] | None = None,
    reduce_transitive: bool = True,
) -> str:
    """Deterministic DOT digraph of the fragment.

    Relation 0 uses plain arrows; higher relations stack parallel strokes
    (double for 1, triple for 2, and so on). By default only covering
    arrows of each relation are drawn. Every labelled point must be a world.
    """
    named = {}  # world position -> escaped label
    for p, label in (labels or {}).items():
        if p not in m:
            raise PointNotInModelError(f"label {label!r}: {p} is not a world of {m!r}")
        named[m._index[p.coords]] = _dot_escaped(label)
    lines = ["digraph ignatiev {", "  node [shape=box];"]
    # each world's name is formatted once, and each world's text is joined
    # from its coordinates' texts on its first drawing and kept on the world
    names = [f"n{i}" for i in range(len(m.worlds))]
    for i, p in enumerate(m.worlds):
        try:
            text = p._text
        except AttributeError:
            text = "<" + ", ".join(map(_coordinate_text, p.coords)) + ">"
            _set_text(p, text)
        if i in named:
            text = f"{named[i]}\\n{text}"
        lines.append(f'  {names[i]} [label="{text}"];')
    # a span's arrows share their source and style, so they are one join
    # over the target names; the join's separator ends one arrow's line and
    # starts the next
    heads = [f"  {name} -> " for name in names]
    for n, spans in enumerate(m._spans[: m._depth]):
        end = _edge_style(n) + ";"
        for head, (a, b, c) in zip(heads, spans):
            start = b if reduce_transitive else a
            if start < c:
                lines.append(head + (end + "\n" + head).join(names[start:c]) + end)
    lines.append("}")
    return "\n".join(lines) + "\n"
