"""The benchmark's two workloads: inputs, the timed op, and correctness gates.

Every workload makes its inputs from the seed alone, with the standard
library only (no hypothesis, no test helpers). `input(i)` gives op i's
input and is called outside the timed region; `op(x)` is the timed call
into wormcalc's public API, made through module attributes so that a
traced run sees it; `keep(i, out)` stores what the gates check after the
timed passes.

The first `quota` ops are the warm-up: they run during set-up, fill
caches and feed the output digest, so the digest depends on the seed alone
and not on how many ops a run completes. A timed pass then runs ops quota
.. quota + PASS_OPS - 1; a pool workload's pass covers its pool once.

Why these workloads:

- spectra: the library form of `wormcalc spectrum --json` over the
  acceptance caps (levels 0-3, worms up to length 4 over letters 0-3). The
  worm set is small and reused, so the rank memo nearly always hits and the
  cost sits in worm and spectrum object construction and the eager worm
  view. Cache, validation and lazy-view changes show here.
- kripke: fragment sessions (enumerate, force worm formulas everywhere, one
  nested validity query, render DOT) on chains and on branching universes.
  It touches ignatiev and formula and almost none of spectrum; build,
  query and render share a session, so cost moved between them shows as
  the trade it is.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cnf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
PINNED = Path(__file__).resolve().parent / "digests.json"
MAX_FAILURES = 20


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _golden_text(filename: str) -> str:
    """A golden DOT file, read from the repository root whatever the cwd."""
    with open(GOLDEN / filename, encoding="utf-8", newline="") as handle:
        return handle.read()


def _worms_upto(max_len: int, max_letter: int) -> list[str]:
    """Dot forms of every worm up to max_len over letters 0..max_letter, in
    the order of the acceptance sweep."""
    out = []
    for length in range(max_len + 1):
        for letters in itertools.product(range(max_letter + 1), repeat=length):
            out.append(".".join(map(str, letters)) or "T")
    return out


def _shares(weights: list, total: int) -> list[int]:
    """`total` split in proportion to `weights`, by largest remainder."""
    whole = sum(weights)
    exact = [total * w / whole for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda j: counts[j] - exact[j])
    for j in by_remainder[: total - sum(counts)]:
        counts[j] += 1
    return counts


class Workload:
    quota = 0
    PASS_OPS = 0  # timed ops in one pass, quota .. quota + PASS_OPS - 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.warm: list = []

    def setup(self) -> None:
        """Run the warm-up quota; the constructor has made the inputs."""
        for i in range(self.quota):
            out = self.op(self.input(i))
            self.warm.append(out)
            self.keep(i, out)

    def keep(self, i: int, out) -> None:
        raise NotImplementedError

    def gates(self) -> list[str]:
        """Failure messages; empty when every checked output is right."""
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def pinned_digest(self) -> list[str]:
        """Recompute the warm-up digest for the pinned seed and compare it
        with the committed one, so a change of any output byte fails."""
        with open(PINNED, encoding="utf-8") as handle:
            pinned = json.load(handle)
        other = type(self)(int(pinned["seed"]))
        other.setup()
        got = other.digest()
        want = pinned["digests"].get(self.name)
        if got != want:
            return [f"seed {pinned['seed']} output digest {got} != pinned {want}"]
        return []


# --- spectra ------------------------------------------------------------


class Spectra(Workload):
    """Presentations drawn from the 83,130-member acceptance family.

    POOL draws are cycled; one warm-up pass over 4096 takes a fraction of a
    second. The draw is stratified by family part, number of entries and
    highest level, the things that set an op's cost: each stratum gets its
    share of the pool (largest remainder), drawn uniformly inside it, so
    the cost mix is the same on every seed and only the worms vary.
    """

    name = "spectra"
    POOL = 4096

    def __init__(self, seed: int):
        super().__init__(seed)
        self.short = _worms_upto(2, 2)
        self.single = _worms_upto(4, 3)
        self.medium = _worms_upto(3, 3)
        self.pairs = list(itertools.combinations(range(4), 2))
        self.family_size = 14**4 + 4 * len(self.single) + len(self.pairs) * len(self.medium) ** 2
        self.entries = [self._member(i) for i in self._draw()]
        self.texts = [json.dumps({"entries": {str(n): w for n, w in e}}) for e in self.entries]
        self.quota = self.PASS_OPS = self.POOL
        self.outputs: list = [None] * self.POOL
        from wormcalc import spectrum

        self.sp = spectrum

    def _draw(self) -> list[int]:
        """POOL member indices, stratified as the class says."""
        strata: dict[tuple, list] = {}
        for i, digits in enumerate(itertools.product(range(14), repeat=4)):
            levels = [n for n, d in enumerate(digits) if d]
            strata.setdefault(("all", len(levels), levels[-1] if levels else -1), []).append(i)
        base = 14**4
        for n in range(4):
            strata[("single", 1, n)] = range(base, base + len(self.single))
            base += len(self.single)
        square = len(self.medium) ** 2
        for low, high in self.pairs:
            strata[("pair", low, high)] = range(base, base + square)
            base += square
        picks = []
        for members, count in zip(strata.values(), _shares([len(m) for m in strata.values()], self.POOL)):
            picks += self.rng.sample(members, count)
        self.rng.shuffle(picks)
        return picks

    def _member(self, i: int) -> tuple[tuple[int, str], ...]:
        """Member i of the acceptance family, as sorted (level, worm) pairs."""
        options = [None] + self.short
        if i < 14**4:
            picks = [options[(i // 14 ** (3 - n)) % 14] for n in range(4)]
            return tuple((n, w) for n, w in enumerate(picks) if w is not None)
        i -= 14**4
        if i < 4 * len(self.single):
            return ((i // len(self.single), self.single[i % len(self.single)]),)
        i -= 4 * len(self.single)
        square = len(self.medium) ** 2
        low, high = self.pairs[i // square]
        a, b = divmod(i % square, len(self.medium))
        return ((low, self.medium[a]), (high, self.medium[b]))

    def input(self, i: int) -> str:
        return self.texts[i % self.POOL]

    def op(self, text: str) -> dict:
        sp = self.sp
        return sp.normalize(sp.TheoryPresentation.from_json(text)).to_json()

    def keep(self, i: int, out) -> None:
        self.outputs[i % self.POOL] = out

    def gates(self) -> list[str]:
        from wormcalc import ordinal, worm

        sp = self.sp
        failures = []
        for j, (text, out) in enumerate(zip(self.texts, self.outputs)):
            if out != self.warm[j]:
                failures.append(f"{text}: output changed between passes")
                continue
            coords = [cnf.parse(c) for c in out["coords"]]
            if not cnf.is_world(coords):
                failures.append(f"{text}: {out['coords']} breaks the world condition")
            for n, (c, w) in enumerate(zip(out["coords"], out["worms"])):
                if ordinal.print_ordinal(worm.ordinal_of(worm.parse_worm(w), n)) != c:
                    failures.append(f"{text}: worm {w} does not denote {c} at level {n}")
            again = sp.Spectrum.from_json(out)
            if again.to_json() != out:
                failures.append(f"{text}: Spectrum.from_json round trip gives {again.to_json()}")
            if sp.normalize(again.as_presentation()).to_json() != out:
                failures.append(f"{text}: normalization is not idempotent")
            if len(failures) >= MAX_FAILURES:
                break
        return failures

    def digest(self) -> str:
        return _digest(json.dumps(out, sort_keys=True) for out in self.warm)

    def properties(self) -> dict:
        from wormcalc import ordinal, worm

        rewritten = 0
        depth = 0
        for entries, out in zip(self.entries, self.warm):
            stored = dict(entries)
            for n in range(max(stored, default=0) + 1):
                letters = [int(x) for x in stored.get(n, "T").split(".") if x != "T"]
                head = []
                for letter in letters:
                    if letter < n:
                        break
                    head.append(letter)
                rank = ordinal.print_ordinal(worm.ordinal_of(worm.Worm(tuple(head)), n))
                coord = out["coords"][n] if n < len(out["coords"]) else "0"
                rewritten += rank != coord
            depth = max([depth] + [cnf.depth(cnf.parse(c)) for c in out["coords"]])
        return {
            "ops": len(self.entries),
            "worm.distinct_inputs": len({w for e in self.entries for _, w in e}),
            "ordinal.max_cnf_depth": depth,
            "spectrum.levels_rewritten": rewritten,
        }


# --- kripke -------------------------------------------------------------

# small ordinals whose closures under last exponents make branching
# universes; depth at most 3 keeps every universe renderable in milliseconds
CATALOG = (
    "1", "2", "3", "w", "w+1", "w+2", "w*2", "w*2+1", "w^2", "w^2+1", "w^2+w",
    "w^2*2", "w^3", "w^w", "w^w+1", "w^w+w", "w^(w+1)", "w^(w*2)", "w^w^w",
)


class Kripke(Workload):
    """A pool of fragment sessions, half chains and half branching universes.

    Chains are finite:k for k = 2..20 (k + 1 worlds). Branching universes
    are seeded picks of 2-5 catalog ordinals, closed under last exponents,
    redrawn until their fragment has exactly the target number of worlds,
    4..23 (every target is reached by about 1% of draws or more). The pool
    holds each chain and each target three times, once with each query
    depth and once with each max_index 1-3. The cost of a session is set
    mostly by its world count (render time grows with the square of the
    edge count), its max_index and the nesting depth of its validity query,
    so all three are fixed by the pool's layout and the medians agree
    across seeds, while the branching universes and the worms' letters come
    from the seed. At most ~24 worlds keeps a session under ~100 ms, so
    a pass over the 117 sessions takes a few seconds and leaves 11 sessions
    above the p90.
    """

    name = "kripke"
    CHAIN_K = range(2, 21)
    BRANCH_WORLDS = range(4, 24)
    COPIES = 3
    WORM_LENGTHS = (1, 2, 3, 1, 2, 3)

    def __init__(self, seed: int):
        super().__init__(seed)
        from wormcalc import formula, ignatiev, ordinal, worm

        self.o, self.w, self.fm, self.ig = ordinal, worm, formula, ignatiev
        rng = self.rng
        specs = []
        for copy in range(self.COPIES):
            for k in self.CHAIN_K:
                specs.append(self._spec([str(i) for i in range(k + 1)], 1 + (k + 2 * copy) % 3, 1 + (k + copy) % 3))
            for target in self.BRANCH_WORLDS:
                specs.append(self._branching(target, 1 + (target + 2 * copy) % 3, 1 + (target + copy) % 3))
        rng.shuffle(specs)
        self.specs = specs
        self.quota = self.PASS_OPS = len(specs)
        self.outputs: list = [None] * len(specs)

    def _spec(self, universe: list[str], max_index: int, depth: int) -> dict:
        rng = self.rng
        worms = [
            ".".join(str(rng.randint(0, max_index)) for _ in range(length))
            for length in self.WORM_LENGTHS
        ]
        return {
            "universe": universe,
            "max_index": max_index,
            # an initial segment of the naturals: every witness is inside
            "complete": universe == [str(i) for i in range(len(universe))],
            "worms": worms,
            "query": "[0]" * depth + "(<0>T -> <0>T)",
            "nodes": sum(len(a.split(".")) + 1 for a in worms) + depth + 5,
        }

    def _branching(self, target: int, max_index: int, depth: int) -> dict:
        o, rng = self.o, self.rng
        best = None
        for _ in range(2000):
            picks = rng.sample(CATALOG, rng.randint(2, 5))
            universe = {o.from_int(0)}
            for text in picks:
                x = o.parse_ordinal(text)
                while x not in universe:
                    universe.add(x)
                    x = o.last_exponent(x)
            worlds = self._count_worlds(sorted(universe), max_index)
            if best is None or abs(worlds - target) < abs(best[0] - target):
                best = (worlds, sorted(universe))
            if worlds == target:
                break
        _, universe = best
        return self._spec([o.print_ordinal(u) for u in universe], max_index, depth)

    def _count_worlds(self, universe: list, max_index: int) -> int:
        """Root plus every run of nonzero coordinates, each at most the last
        exponent of the one before, of length 1..max_index + 1."""
        o = self.o
        nonzero = [u for u in universe if not u.is_zero]
        memo: dict = {}

        def below(bound, left: int) -> int:
            key = (bound, left)
            if key not in memo:
                memo[key] = sum(
                    1 + (below(o.last_exponent(u), left - 1) if left else 0)
                    for u in nonzero
                    if bound is None or o.compare(u, bound) <= 0
                )
            return memo[key]

        return 1 + below(None, max_index)

    def input(self, i: int) -> dict:
        return self.specs[i % len(self.specs)]

    def op(self, spec: dict):
        w, fm, ig = self.w, self.fm, self.ig
        m = self._model(spec)
        worms = [w.parse_worm(s) for s in spec["worms"]]
        formulas = [fm.formula_of_worm(a) for a in worms]
        table = []
        for p in m.worlds:
            for a, f in zip(worms, formulas):
                r = ig.forces(m, p, f)
                table.append((r.value, r.exact, ig.forces_worm(p, a)))
        nested = ig.validity_check(fm.parse_formula(spec["query"]), m)
        return len(m.worlds), table, (nested.value, nested.exact), ig.render_dot(m)

    def keep(self, i: int, out) -> None:
        self.outputs[i % len(self.specs)] = out

    def _model(self, spec: dict):
        return self.ig.enumerate_submodel(
            [self.o.parse_ordinal(s) for s in spec["universe"]], spec["max_index"]
        )

    def gates(self) -> list[str]:
        failures = self._golden()
        for j, (spec, out) in enumerate(zip(self.specs, self.outputs)):
            where = f"universe {','.join(spec['universe'])} max_index {spec['max_index']}"
            if out != self.warm[j]:
                failures.append(f"{where}: output changed between passes")
                continue
            worlds, table, nested, dot = out
            complete = spec["complete"]
            for value, exact, by_rank in table:
                # with every witness in the fragment forcing is exact;
                # otherwise diamonds are underapproximated, so a true answer
                # must still be true in the full model
                if exact != complete or (value != by_rank if complete else value and not by_rank):
                    failures.append(f"{where}: forces {value}/{exact} vs forces_worm {by_rank}")
                    break
            if nested != (True, complete):
                failures.append(f"{where}: {spec['query']} gave {nested}, want valid")
            drawn = self._drawn(dot)
            m = self._model(spec)
            edges = {n: set(m.edges(n)) for n in range(m.max_index + 1)}
            if worlds != len(m.worlds) or dot.count(" [label=") != worlds:
                failures.append(f"{where}: DOT nodes differ from {worlds} worlds")
            for n, a, b in drawn:
                if n not in edges or (m.worlds[a], m.worlds[b]) not in edges[n]:
                    failures.append(f"{where}: DOT draws n{a} -> n{b} outside relation {n}")
                    break
            if len(failures) >= MAX_FAILURES:
                break
        return failures

    @staticmethod
    def _drawn(dot: str) -> list[tuple[int, int, int]]:
        """(relation, source, target) of each drawn arrow; relation n has n
        `:invis:` separators in its colour."""
        out = []
        for line in dot.splitlines():
            if " -> " in line:
                left, right = line.strip().rstrip(";").split(" -> ")
                target = right.split(" ")[0]
                out.append((line.count(":invis:"), int(left[1:]), int(target[1:])))
        return out

    def _golden(self) -> list[str]:
        o, ig = self.o, self.ig
        cases = (
            ("chain_finite3_idx2.dot", ["0", "1", "2", "3"], {}),
            (
                "labeled_fragment_idx2.dot",
                ["0", "1", "w", "w^w"],
                {"<w^w, w, 1>": "ISigma1", "<w^w, w>": "PRA"},
            ),
        )
        failures = []
        for filename, universe, labels in cases:
            m = ig.enumerate_submodel([o.parse_ordinal(s) for s in universe], 2)
            got = ig.render_dot(m, labels={ig.parse_point(p): name for p, name in labels.items()})
            if got != _golden_text(filename):
                failures.append(f"render_dot differs from tests/golden/{filename}")
        return failures

    def digest(self) -> str:
        return _digest(json.dumps(out) for out in self.warm)

    def properties(self) -> dict:
        worlds = edges = drawn = 0
        for spec, out in zip(self.specs, self.warm):
            m = self._model(spec)
            worlds += len(m.worlds)
            edges += sum(len(m.edges(n)) for n in range(m.max_index + 1))
            drawn += len(self._drawn(out[3]))
        sessions = len(self.specs)
        return {
            "ops": sessions,
            "ignatiev.worlds": worlds / sessions,
            "ignatiev.edges": edges / sessions,
            "ignatiev.render_dot.cover_ratio": drawn / edges,
            "formula.nodes": sum(spec["nodes"] for spec in self.specs) / sessions,
            "worm.distinct_inputs": len({a for spec in self.specs for a in spec["worms"]}),
        }


# --- cli layer ----------------------------------------------------------


def readme_commands() -> list[tuple[list[str], str, int]]:
    """The README's command examples with their documented stdout and exit code.

    `spectrum` reads its presentation inline rather than from a file, and
    `model` prints its DOT to stdout rather than to a file, so a run writes
    nothing; both outputs are the documented ones.
    """
    presentation = '{"entries":{"0":"0.1","1":"1"}}'
    return [
        (["o", "-n", "0", "1.0.1", "--ascii"], "w*2\n", 0),
        (["compare", "-n", "0", "0.1", "1.0.1"], "Less\n", 0),
        (["head", "-n", "1", "2.1.0.3"], "2.1\n", 0),
        (["rem", "-n", "1", "2.1.0.3"], "0.3\n", 0),
        (["worm-of", "0", "w*2"], "1.0.1\n", 0),
        (["point-check", "<2, 1>"], "invalid at index 0\n", 1),
        (["min-point", "0.1", "--ascii"], "<w+1>\n", 0),
        (["normalize", presentation, "--ascii"], "<w*2, 1> worms: 1.0.1 1\n", 0),
        (["spectrum", presentation, "--json"], '{"coords": ["w*2", "1"], "worms": ["1.0.1", "1"]}\n', 0),
        (["conserve", "ISigma1", "PRA"], "level=1 (Pi^0_2 agreement)\n", 0),
        (["model", "--universe", "finite:3", "--max-index", "2"], _golden_text("chain_finite3_idx2.dot"), 0),
        (
            ["model", "--universe", "w^w,w,1", "--max-index", "2",
             "--label", "<w^w, w, 1>=ISigma1", "--label", "<w^w, w>=PRA"],
            _golden_text("labeled_fragment_idx2.dot"),
            0,
        ),
        (["forces", "--universe", "finite:3", "<3>", "<0><0><0>T"], "true\n", 0),
        (["valid", "--universe", "finite:3", "[0]([0]T->T)->[0]T"], "true\n", 0),
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def in_process(argv: list[str]) -> tuple[str, int]:
    """cli.main(argv) in this process, with stdout captured."""
    from wormcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), code


WORKLOADS = {cls.name: cls for cls in (Spectra, Kripke)}
