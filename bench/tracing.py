"""In-memory spans around calls into wormcalc's public functions.

`Tracer.install` replaces every public function of every loaded wormcalc
module, plus a few public methods, by a wrapper that opens a span; the
replacement is made in every wormcalc namespace that binds the function, so
calls between modules are seen as well as the benchmark's own. A call made
while a span of the same function is open (recursion) opens no new span.
`uninstall` puts the originals back, so untraced code runs unwrapped.

Each span has a name (`<module>.<function>`), start and end, its parent
span and the id of the benchmark op it belongs to. Spans are aggregated as
they close: calls, busy time (duration) and self time (duration minus the
part covered by child spans) per name, and per layer the time spent inside
the layer when entered from another one. The first KEEP spans are kept
whole, for the run to write out at the end.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

# public methods traced alongside the modules' __all__ functions, named as
# `<module>.<method>`
METHODS = {
    "wormcalc.spectrum": (
        ("TheoryPresentation", "from_json"),
        ("Spectrum", "of_point"),
        ("Spectrum", "to_json"),
    ),
    "wormcalc.cli": (("", "main"),),
}

ROOT = "bench.op"


def layer_of(name: str) -> str:
    """The module of a span; every parse_* call counts as the parsing layer,
    since parsing's Cursor sits behind each of them."""
    module, _, function = name.rpartition(".")
    return "parsing" if function.startswith("parse_") else module


class Tracer:
    KEEP = 20000  # whole spans kept for writing out; aggregates cover all

    def __init__(self):
        self.kept: list[tuple] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns]
        self.layer_ns: dict[str, int] = {}
        self.spans = 0
        # open spans: [span id, name, layer, start_ns, child_ns]
        self._stack: list[list] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _open(self, name: str) -> None:
        self.spans += 1
        self._stack.append([self.spans, name, layer_of(name), perf_counter_ns(), 0])

    def _close(self) -> None:
        end = perf_counter_ns()
        sid, name, layer, start, child_ns = self._stack.pop()
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        if parent is None or parent[2] != layer:
            self.layer_ns[layer] = self.layer_ns.get(layer, 0) + duration
        if len(self.kept) < self.KEEP:
            self.kept.append((sid, parent[0] if parent else None, self._op, name, start, end))

    def begin_op(self, op: int) -> None:
        self._op = op
        self._open(ROOT)

    def end_op(self) -> None:
        while self._stack:  # an op that raised leaves its spans open
            self._close()

    def _wrap(self, name: str, fn):
        active = [0]
        tracer = self

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
                active[0] = 0

        return traced

    # --- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wormcalc" or n.startswith("wormcalc.")]
        replacements: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = self._wrap(f"{short}.{attr}", fn)
            for owner_name, attr in METHODS.get(module.__name__, ()):
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner)[attr] if owner_name else getattr(module, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(f"{short}.{attr}", raw.__func__))
                else:
                    wrapped = self._wrap(f"{short}.{attr}", raw)
                self._patch(owner, attr, raw, wrapped)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, value, replacements[id(value)])

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls, calls_per_op, busy_s and self_s per span name, busy_s per
        layer. Calls per op compare commits whatever their throughput."""
        out: dict[str, float] = {}
        ops = self.stats.get(ROOT, [0])[0]
        for name, (calls, busy, own) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.calls_per_op"] = calls / ops if ops else 0.0
            out[f"{name}.busy_s"] = busy / 1e9
            out[f"{name}.self_s"] = own / 1e9
        for layer, busy in sorted(self.layer_ns.items()):
            out[f"layer.{layer}.busy_s"] = busy / 1e9
        return out
