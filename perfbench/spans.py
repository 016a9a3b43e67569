"""Span tracer for the traced benchmark pass.

The tracer wraps public layer functions of ``tempvor`` under every name a
module imported them as, so the library itself is never edited. A span is
recorded per call (name, start, end, parent, op id); a layer's self time is
its span's duration minus the durations of its direct child spans. Counters
are taken at the same boundaries. Nothing is patched until :meth:`install`
is called, and :meth:`uninstall` restores every original.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Span group of each wrapped function, by defining module. builders and
# randgen contribute all of their public functions to one group each.
SPAN_GROUPS = {
    "tempvor.reach": {
        "all_pairs": "reach.all_pairs",
        "earliest_arrivals": "reach.earliest_arrivals",
        "oracle_arrivals": "reach.oracle_arrivals",
    },
    "tempvor.games": {
        "enumerate_nash": "games.table",
        "first_nash": "games.table",
        "best_response_graph": "games.table",
        "best_response_dynamics": "games.table",
        "payoff": "games.point",
        "is_nash": "games.point",
        "best_responses": "games.point",
    },
    "tempvor.classify": {
        "build_class_report": "classify.build_class_report",
        "classify_underlying": "classify.classify_underlying",
    },
    "tempvor.explorer": {
        "generate_family": "explorer.generate_family",
        "sweep": "explorer.sweep",
        "write_outcome": "explorer.write_outcome",
    },
    "tempvor.graph": {
        "from_json": "graph.from_json",
        "validate": "graph.validate",
    },
    "tempvor.cli": {"main": "cli"},
    "tempvor.reproduce": {"run_claim": "reproduce"},
    "tempvor.builders": "builders",
    "tempvor.randgen": "randgen",
}

# all_pairs runs one earliest_arrivals per source through the reach module's
# own global; wrapping that name would move all of reach.all_pairs into n
# child spans. Only the single-source calls made by other modules are traced.
_NOT_PATCHED = {("tempvor.reach", "earliest_arrivals")}

SELF_TIME_GROUPS = (
    "reach.all_pairs",
    "reach.earliest_arrivals",
    "reach.oracle_arrivals",
    "games.table",
    "games.point",
    "classify.build_class_report",
    "classify.classify_underlying",
    "explorer.generate_family",
    "explorer.sweep",
    "explorer.write_outcome",
    "graph.from_json",
    "graph.validate",
    "cli",
    "builders",
    "randgen",
    "reproduce",
)


def _targets() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, span group) for every traced function."""
    out = {}
    for modname, groups in SPAN_GROUPS.items():
        mod = sys.modules[modname]
        if isinstance(groups, str):
            groups = {
                name: groups
                for name, value in vars(mod).items()
                if inspect.isfunction(value)
                and value.__module__ == modname
                and not name.startswith("_")
            }
        for name, group in groups.items():
            fn = getattr(mod, name)
            out[id(fn)] = (fn, group)
    return out


class Tracer:
    """Records spans and counters while :attr:`active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._graphs: set[int] = set()
        self._edge_sets: set[int] = set()
        self._stack: list[list] = []
        self._next_id = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    # --- span bookkeeping -------------------------------------------------

    def _enter(self, group: str) -> None:
        self._stack.append([group, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self) -> None:
        end = perf_counter()
        group, start, child, span_id = self._stack.pop()
        dur = end - start
        self.self_s[group] += dur - child
        self.calls[group] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append(
            (span_id, group, start, end, parent[3] if parent else -1, self.op)
        )

    def _count(self, group: str, args: tuple, result) -> None:
        # Runs outside the layer's own span; its cost is handed to the
        # parent's child time so that it lands in trace.unattributed_s.
        t0 = perf_counter()
        if group == "reach.all_pairs":
            self.counts["reach.pairs"] += args[0].n ** 2
            if self._stack and self._stack[-1][0] == "randgen":
                self.counts["randgen.all_pairs_calls"] += 1
        elif group == "games.table":
            self.counts["games.table_cells"] += args[0].n ** 3
            self._graphs.add(hash(args[0]))
        elif group == "classify.classify_underlying":
            s = args[0]
            self._edge_sets.add(hash((s.n, s.edges)))
        elif group == "graph.from_json":
            self.counts["graph.bytes_parsed"] += len(args[0].encode("utf-8"))
        elif group == "explorer.write_outcome":
            self.counts["explorer.bytes_written"] += sum(p.stat().st_size for p in result)
        if self._stack:
            self._stack[-1][2] += perf_counter() - t0

    def _wrap(self, fn, group: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        tracer._enter(group)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit()
                        tracer.counts["explorer.instances"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._count(group, args, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # --- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function under every name it is bound to."""
        if self._patched:
            return
        targets = _targets()
        wrappers = {key: self._wrap(fn, group) for key, (fn, group) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "tempvor" and not modname.startswith("tempvor."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and (modname, name) not in _NOT_PATCHED:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # --- results ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of the spans recorded since the last reset.

        The self times plus ``trace.unattributed_s`` add up to ``wall_s``,
        the summed latency of the traced ops.
        """
        m: dict[str, float] = {}
        for group in SELF_TIME_GROUPS:
            m[f"{group}.self_s"] = self.self_s.get(group, 0.0)
        m["reach.all_pairs.calls"] = float(self.calls["reach.all_pairs"])
        m["reach.pairs"] = float(self.counts["reach.pairs"])
        ap_s = m["reach.all_pairs.self_s"]
        m["reach.pairs_per_s"] = self.counts["reach.pairs"] / ap_s if ap_s > 0 else 0.0
        m["games.table_cells"] = float(self.counts["games.table_cells"])
        m["games.tables_per_graph"] = (
            self.calls["games.table"] / len(self._graphs) if self._graphs else 0.0
        )
        cu_calls = self.calls["classify.classify_underlying"]
        m["classify.underlying_distinct_ratio"] = (
            len(self._edge_sets) / cu_calls if cu_calls else 0.0
        )
        m["explorer.instances"] = float(self.counts["explorer.instances"])
        m["explorer.bytes_written"] = float(self.counts["explorer.bytes_written"])
        m["graph.bytes_parsed"] = float(self.counts["graph.bytes_parsed"])
        rg_calls = self.calls["randgen"]
        m["randgen.all_pairs_per_call"] = (
            self.counts["randgen.all_pairs_calls"] / rg_calls if rg_calls else 0.0
        )
        m["python.gc_s"] = self.gc_s
        m["python.gc_collections"] = float(self.gc_collections)
        m["trace.wall_s"] = wall_s
        m["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        return m

    def write_spans(self, path, pass_index: int) -> None:
        """Append the recorded spans as JSON lines: id, name, start, end, parent, op."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([pass_index, *span], separators=(",", ":")))
                fh.write("\n")
