"""The universal Kripke model for the closed fragment.

Worlds are finite-support sequences of ordinals whose every coordinate is
bounded by the last exponent of the one before it; relation n drops
coordinate n while fixing all earlier ones. The full model is infinite, so
model checking runs over explicitly enumerated finite fragments. Forcing
results carry an exactness flag: on a universe that is an initial segment
of the naturals every possible witness lies inside the fragment and
evaluation agrees with the full model, otherwise diamonds are
underapproximated. Evaluation builds one truth vector over the worlds per
subformula, so it costs O(|W|*|f|) whatever the nesting depth. A fragment
evaluates each distinct formula it is asked about once: the first query
costs O(|W|*|f|) and checks the modal indices in the same walk, the same
formula at each further world costs O(1), since points and formulas carry
the hash taken when they were built, and the vectors live as long as the
model.

`least_world` is the model's join: the coordinatewise least world at or
above any finite list of ordinals. `spectrum.normalize` places a
presentation with it, and the test suite's symbolic evaluator on the full
model decides satisfiability with it.

A fragment is enumerated on universe positions: one table, built once,
gives the position of each element's last exponent, so the walk makes no
ordinal comparison, and worlds canonical by construction skip the
constructor's check. Each relation keeps its own span per world, which
evaluation, successors and rendering index directly.

`forces_worm` decides worm statements through the coordinatewise criterion
rank_n(worm) <= coordinate_n. The ranks are taken once per distinct worm
(`Worm.ranks`), so each further world costs one order-key comparison per
level. That criterion is folklore rather than textbook; the test suite
certifies it by exhaustive agreement with the definitional evaluator on
exact fragments, and any disagreement fails the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from typing import Iterable, Mapping, Sequence

from . import formula as fm
from .ordinal import (
    ZERO, Ordinal, add, compare, last_exponent, omega_power, parse_ordinal, print_ordinal
)
from .parsing import ParseError, is_natural
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


@dataclass(frozen=True, repr=False)
class Point:
    """A world: stored coordinates, with an implicit all-zero tail.

    Canonical support: the final stored coordinate is nonzero unless the
    point is the root, stored as the single coordinate 0. Equal points are
    therefore structurally identical. The hash is taken once, from the
    coordinates' stored hashes, when the point is built.
    """

    coords: tuple[Ordinal, ...]

    def __post_init__(self):
        coords = self.coords
        if not isinstance(coords, tuple) or not all(isinstance(c, Ordinal) for c in coords):
            raise TypeError(f"coordinates {coords!r} are not a tuple of Ordinals")
        if not coords:
            raise ValueError("a point stores at least one coordinate")
        if len(coords) > 1 and coords[-1].is_zero:
            raise ValueError("non-canonical point: trailing zero coordinate")
        object.__setattr__(self, "_hash", hash(coords))

    @classmethod
    def _from_checked(cls, coords: tuple[Ordinal, ...]) -> "Point":
        """A point of coordinates already known to be canonical Ordinals,
        built without running __post_init__'s check again."""
        point = object.__new__(cls)
        fields = point.__dict__  # cheaper than object.__setattr__ past the frozen guard
        fields["coords"] = coords
        fields["_hash"] = hash(coords)
        return point

    def __hash__(self) -> int:
        return self._hash

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
        if not is_natural(n):
            raise ValueError(f"coordinate {n!r} must be a natural number")
        return self.coords[n] if n < len(self.coords) else ZERO

    @property
    def support(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return print_point(self)

    def __repr__(self) -> str:
        return f"Point({print_point(self)!r})"


def parse_coords(text: str) -> tuple[Ordinal, ...]:
    """The raw coordinate list of `<w^w, w, 1>`; no trimming, no validity check."""
    s = text.strip()
    for opener, closer in (("<", ">"), ("⟨", "⟩")):
        if s.startswith(opener) and s.endswith(closer) and len(s) > 1:
            body = s[len(opener) : -len(closer)]
            return tuple(parse_ordinal(part) for part in body.split(","))
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
    is one order-key comparison per level up to the point's support.
    """
    coords, ranks = p.coords, a.ranks
    # the ranks form a world, so once one is 0 all later ones are: a rank
    # past the support is nonzero iff the first one there is
    if len(ranks) > len(coords) and ranks[len(coords)].terms:
        return False
    for r, c in zip(ranks, coords):
        if r._key > c._key:
            return False
    return True


class FiniteSubmodel:
    """A finite fragment: all valid points over a fixed coordinate universe.

    Worlds are every valid point with support at most max_index + 1 and all
    coordinates drawn from the universe; edges are the full relations
    restricted to those worlds. Immutable after construction.

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
        # the elements deduplicated and sorted by their order keys
        by_key = {u._key: u for u in universe}
        self.universe: tuple[Ordinal, ...] = tuple([by_key[key] for key in sorted(by_key)])
        if not self.universe or self.universe[0].terms:
            raise UniverseError("universe must contain 0")
        # the position of each element's last exponent, None where it is missing
        position = {u: k for k, u in enumerate(self.universe)}
        exponents = [last_exponent(u) for u in self.universe]
        below = [position.get(e) for e in exponents]
        if None in below:
            missing = exponents[below.index(None)]
            raise UniverseError(f"universe is not closed under last exponents: missing {missing}")
        self.max_index = max_index
        self.worlds, spans = self._generate(below)
        # the relations from the deepest support up have no edge: they share
        # one all-empty column, and render_dot stops before them
        self._depth = len(spans)
        self._spans = spans + (((0, 0, 0),) * len(self.worlds),) * (max_index + 1 - len(spans))
        self._index = {p: i for i, p in enumerate(self.worlds)}
        # truth vectors of the formulas queried so far; subformula vectors are
        # not kept, so a one-shot query on a large fragment holds just one
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
        universe, top, make = self.universe, self.max_index, Point._from_checked
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
        i = self._index.get(p)
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
        return p in self._index

    def __repr__(self) -> str:
        return (
            f"FiniteSubmodel(|universe|={len(self.universe)}, "
            f"max_index={self.max_index}, worlds={len(self.worlds)})"
        )


def enumerate_submodel(universe: Iterable[Ordinal], max_index: int) -> FiniteSubmodel:
    return FiniteSubmodel(list(universe), max_index)


@dataclass(frozen=True)
class ForcingResult:
    """Truth value plus whether it is exact for the full model."""

    value: bool
    exact: bool

    def __bool__(self) -> bool:
        return self.value


# the two answers forces and validity_check give, indexed by value, on an
# inexact and on an exact fragment
_RESULTS = tuple(
    (ForcingResult(False, exact), ForcingResult(True, exact)) for exact in (False, True)
)


def _truth(m: FiniteSubmodel, f: fm.Formula) -> list[bool]:
    """f's truth value at every world position, one pass per subformula; a box
    or diamond counts its body over each span (a, _, c) by prefix sums. An
    index above m's max index raises a bare error for `_vector` to word."""
    match f:
        case fm.Top():
            return [True] * len(m.worlds)
        case fm.Bottom():
            return [False] * len(m.worlds)
        case fm.Implies(left=left, right=right):
            return [not x or y for x, y in zip(_truth(m, left), _truth(m, right))]
        case fm.Box(index=n, body=body) | fm.Diamond(index=n, body=body):
            if n > m.max_index:
                raise ModalityOutOfRangeError
            pre = list(accumulate(_truth(m, body), initial=0))
            if isinstance(f, fm.Box):
                return [pre[c] - pre[a] == c - a for a, _, c in m._spans[n]]
            return [pre[c] > pre[a] for a, _, c in m._spans[n]]
    raise TypeError(f"not a formula: {f!r}")


def _vector(m: FiniteSubmodel, f: fm.Formula) -> list[bool]:
    """f's truth vector on m, built and kept on the first query. That query's
    one walk refuses an index above m's max index, naming f's highest one,
    and keeps nothing."""
    vector = m._vectors.get(f)
    if vector is None:
        try:
            vector = _truth(m, f)
        except ModalityOutOfRangeError:
            raise ModalityOutOfRangeError(
                f"formula mentions [{fm.max_modality(f)}] but the submodel stops at [{m.max_index}]"
            ) from None
        m._vectors[f] = vector
    return vector


def forces(m: FiniteSubmodel, p: Point, f: fm.Formula) -> ForcingResult:
    """Kripke evaluation of a closed formula at a world of the fragment.

    Boxes quantify over the fragment's edges, diamonds existentially; on a
    witness-complete fragment the answer is exact for the full model,
    otherwise diamonds are underapproximated and the result says so. The
    first query of f on m costs O(|W|*|f|) for |W| worlds, whatever the
    nesting depth; m keeps f's truth vector, so f at each further world
    costs a lookup of p and one of f.
    """
    i = m._position(p)
    return m._results[_vector(m, f)[i]]


def validity_check(f: fm.Formula, m: FiniteSubmodel) -> ForcingResult:
    """True iff the formula holds at every world of the fragment.

    A False answer on a witness-complete fragment refutes theoremhood in
    the closed fragment; a True answer is only a necessary condition. The
    cost is O(|W|*|f|) for |W| worlds, whatever the nesting depth, and
    shares f's truth vector with `forces` on the same model, so once the
    vector is kept a query costs O(|W|).
    """
    return m._results[all(_vector(m, f))]


# --- DOT rendering ------------------------------------------------------


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
        named[m._index[p]] = _dot_escaped(label)
    lines = ["digraph ignatiev {", "  node [shape=box];"]
    # print_point of each world, with each universe element printed once
    printed = {u: print_ordinal(u) for u in m.universe}
    for i, p in enumerate(m.worlds):
        text = "<" + ", ".join([printed[c] for c in p.coords]) + ">"
        if i in named:
            text = f"{named[i]}\\n{text}"
        lines.append(f'  n{i} [label="{text}"];')
    for n, spans in enumerate(m._spans[: m._depth]):
        style = _edge_style(n)
        for i, (a, b, c) in enumerate(spans):
            for j in range(b if reduce_transitive else a, c):
                lines.append(f"  n{i} -> n{j}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
