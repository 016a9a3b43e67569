"""Exhaustive sweep over parameterized families of small temporal graphs.

A family is the set of temporal instances whose underlying graph belongs to a
base class, with the layer pattern constrained by a lifetime range, a
monotonicity mode and an optional edge-change budget (the sum of
|E_t symmetric-difference E_{t+1}| over consecutive stored layers). Only
minimal-lifetime instances are emitted -- a sequence whose last layer repeats
its predecessor describes the same graph as a shorter one -- so each
semantically distinct instance appears exactly once per lifetime.

Underlying graphs are enumerated as canonical labeled representatives: one
standard labeling for paths, cycles, grids and cliques, one per part-size
multiset for complete multipartite graphs, all clique-to-independent
connection patterns for split graphs, and all creation sequences for
threshold graphs; labeled trees run over all Pruefer codes. Cycle instances
are additionally deduplicated up to rotation and reflection of the labeling;
other classes get no isomorphism reduction. Streams are lazy and
deterministic: two sweeps of one spec produce identical output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import Iterator

from .classify import ClassReport, build_class_report
from .games import GameKind, Profile, first_nash
from .graph import (
    Edge,
    TemporalGraph,
    _cycle_edges,
    _grid_edges,
    _path_edges,
    _pruefer_edges,
    to_json_obj,
)
from .reach import all_pairs

BASE_CLASSES = (
    "path",
    "cycle",
    "tree",
    "grid",
    "clique",
    "complete_k_partite",
    "split",
    "threshold",
)

MONOTONICITY = ("growing", "shrinking", "any")

DEFAULT_INSTANCE_LIMIT = 1_000_000


class FamilySpecError(ValueError):
    """The family parameters do not describe a supported family."""


class FamilyBudgetError(RuntimeError):
    """The family exceeded the instance guard; nothing was silently dropped."""

    def __init__(self, limit: int):
        super().__init__(f"family exceeds the {limit} instance guard")
        self.limit = limit


@dataclass(frozen=True)
class FamilySpec:
    base_class: str
    n_range: tuple[int, int]
    tau_range: tuple[int, int] = (1, 3)
    monotonicity: str = "any"
    max_edge_changes: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "base_class": self.base_class,
            "n_range": list(self.n_range),
            "tau_range": list(self.tau_range),
            "monotonicity": self.monotonicity,
            "max_edge_changes": self.max_edge_changes,
        }


def _check_spec(spec: FamilySpec) -> None:
    if spec.base_class not in BASE_CLASSES:
        raise FamilySpecError(
            f"unknown base class {spec.base_class!r}; known: {', '.join(BASE_CLASSES)}"
        )
    lo, hi = spec.n_range
    if lo < 1 or lo > hi:
        raise FamilySpecError(f"bad vertex range {spec.n_range}")
    tlo, thi = spec.tau_range
    if tlo < 1 or tlo > thi:
        raise FamilySpecError(f"bad lifetime range {spec.tau_range}")
    if spec.monotonicity not in MONOTONICITY:
        raise FamilySpecError(f"bad monotonicity {spec.monotonicity!r}")
    if spec.max_edge_changes is not None and spec.max_edge_changes < 0:
        raise FamilySpecError("edge-change budget must be non-negative")


# --- underlying graph enumeration -------------------------------------------


def _partitions_desc(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def _labeled_trees(n: int) -> Iterator[tuple[Edge, ...]]:
    for seq in product(range(1, n + 1), repeat=max(0, n - 2)):
        yield tuple(sorted(_pruefer_edges(seq, n)))


def _kpartite_edge_sets(n: int) -> Iterator[tuple[Edge, ...]]:
    # one canonical labeling per part-size multiset, two or more parts
    for sizes in _partitions_desc(n):
        if len(sizes) < 2:
            continue
        part_of = {}
        v = 1
        for idx, size in enumerate(sizes):
            for _ in range(size):
                part_of[v] = idx
                v += 1
        yield tuple(
            (u, w)
            for u, w in combinations(range(1, n + 1), 2)
            if part_of[u] != part_of[w]
        )


def _split_edge_sets(n: int) -> Iterator[tuple[Edge, ...]]:
    seen: set[frozenset[Edge]] = set()
    for c in range(0, n + 1):
        clique = tuple(combinations(range(1, c + 1), 2))
        i_vertices = range(c + 1, n + 1)
        subsets = [
            tuple(combinations(range(1, c + 1), r)) for r in range(0, c + 1)
        ]
        choices = [s for group in subsets for s in group]
        for pick in product(choices, repeat=len(i_vertices)):
            edges = list(clique)
            for v, nbrs in zip(i_vertices, pick):
                edges.extend((u, v) for u in nbrs)
            key = frozenset(edges)
            if key in seen:
                continue
            seen.add(key)
            yield tuple(sorted(edges))


def _threshold_edge_sets(n: int) -> Iterator[tuple[Edge, ...]]:
    # bit v says whether v dominates 1..v-1; edge (1, v) is present iff bit v
    # is set, so distinct creation sequences give distinct edge sets
    for bits in product((0, 1), repeat=max(0, n - 1)):
        edges = []
        for v, bit in zip(range(2, n + 1), bits):
            if bit:
                edges.extend((u, v) for u in range(1, v))
        yield tuple(sorted(edges))


def _underlying_edge_sets(base_class: str, n: int) -> Iterator[tuple[Edge, ...]]:
    if base_class == "path":
        yield _path_edges(n)
    elif base_class == "cycle":
        if n >= 3:
            yield _cycle_edges(n)
    elif base_class == "grid":
        for a in range(2, n + 1):
            if n % a == 0 and a * a <= n:
                yield _grid_edges(a, n // a)
    elif base_class == "clique":
        yield tuple(combinations(range(1, n + 1), 2))
    elif base_class == "tree":
        yield from _labeled_trees(n)
    elif base_class == "complete_k_partite":
        yield from _kpartite_edge_sets(n)
    elif base_class == "split":
        yield from _split_edge_sets(n)
    elif base_class == "threshold":
        yield from _threshold_edge_sets(n)
    else:  # pragma: no cover - guarded by _check_spec
        raise FamilySpecError(base_class)


# --- temporal layer patterns -------------------------------------------------


def _layer_chains(
    edge_set: tuple[Edge, ...],
    tau: int,
    monotonicity: str,
    budget: int | None,
) -> Iterator[tuple[frozenset[Edge], ...]]:
    """All minimal-lifetime layer sequences over ``edge_set``.

    Yields tuples (E_1, ..., E_tau) with union exactly ``edge_set``, the given
    monotonicity, total change within ``budget``, and E_tau != E_{tau-1} when
    tau >= 2. Each layer is its predecessor with a subset of a pool toggled:
    all edges for ``any``, absent edges for ``growing``, present edges for
    ``shrinking``. E_1 toggles the edge set itself, dropping the edges that
    appear later (none when shrinking or when tau is 1), uncharged but capped
    by the budget. The last toggle holds every edge no layer has held yet and
    is not empty, so every completed branch is an instance. Toggles go by
    (size, sorted edges) at each step, and M | X sorts as X does for a fixed M.
    """
    universe = frozenset(edge_set)
    ordered = tuple(sorted(universe))
    shrinking = monotonicity == "shrinking"

    def toggles(pool, required: frozenset[Edge], room: float, least: int = 0):
        free = [e for e in pool if e not in required]
        for r in range(least, min(len(free), room - len(required)) + 1):
            for extra in combinations(free, r):
                yield required.union(extra)

    def extend(chain: tuple[frozenset[Edge], ...], unseen: frozenset[Edge], left: float):
        if len(chain) == tau:
            yield chain
            return
        prev, last = chain[-1], len(chain) == tau - 1
        pool = ordered if monotonicity == "any" else [e for e in ordered if (e in prev) == shrinking]
        for toggle in toggles(pool, unseen if last else frozenset(), left, int(last and not unseen)):
            yield from extend(chain + (prev ^ toggle,), unseen - toggle, left - len(toggle))

    left = float("inf") if budget is None else budget
    for dropped in toggles(() if shrinking or tau == 1 else ordered, frozenset(), left):
        yield from extend((universe - dropped,), dropped, left)


def _dihedral_maps(n: int) -> list[dict[int, int]]:
    maps = []
    for k in range(n):
        maps.append({v: (v - 1 + k) % n + 1 for v in range(1, n + 1)})
        maps.append({v: (k - (v - 1)) % n + 1 for v in range(1, n + 1)})
    return maps


def _cycle_canonical_key(g: TemporalGraph) -> tuple:
    best = None
    for perm in _dihedral_maps(g.n):
        mapped = tuple(
            tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in layer))
            for layer in g.layers
        )
        if best is None or mapped < best:
            best = mapped
    return best


def generate_family(spec: FamilySpec) -> Iterator[TemporalGraph]:
    """Lazy, deterministic stream of every instance in the described family."""
    _check_spec(spec)
    n_lo, n_hi = spec.n_range
    t_lo, t_hi = spec.tau_range
    for n in range(n_lo, n_hi + 1):
        for edge_set in _underlying_edge_sets(spec.base_class, n):
            for tau in range(t_lo, t_hi + 1):
                for chain in _layer_chains(
                    edge_set, tau, spec.monotonicity, spec.max_edge_changes
                ):
                    g = TemporalGraph(n, chain)
                    if spec.base_class == "cycle" and tuple(g.layers) != _cycle_canonical_key(g):
                        continue
                    yield g


# --- sweeping -----------------------------------------------------------------


@dataclass(frozen=True)
class InstanceOutcome:
    graph: TemporalGraph
    report: ClassReport
    witness: Profile | None

    @property
    def has_nash(self) -> bool:
        return self.witness is not None

    def to_record_obj(self, kind: GameKind) -> dict:
        return {
            "graph": to_json_obj(self.graph),
            "n": self.graph.n,
            "tau": self.graph.tau,
            "report": self.report.to_json_obj(),
            "game": kind,
            "has_nash": self.has_nash,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class SearchOutcome:
    spec: FamilySpec
    kind: GameKind
    outcomes: tuple[InstanceOutcome, ...]

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def with_nash(self) -> int:
        return sum(1 for o in self.outcomes if o.has_nash)

    @property
    def without_nash(self) -> int:
        return self.total - self.with_nash

    def min_counterexample_n(self) -> int | None:
        sizes = [o.graph.n for o in self.outcomes if not o.has_nash]
        return min(sizes) if sizes else None

    def summary_obj(self) -> dict:
        min_n = self.min_counterexample_n()
        return {
            "spec": self.spec.to_json_obj(),
            "game": self.kind,
            "instances": self.total,
            "with_nash": self.with_nash,
            "without_nash": self.without_nash,
            "min_counterexample_n": min_n,
            "minimal_counterexamples": [
                to_json_obj(o.graph)
                for o in self.outcomes
                if not o.has_nash and o.graph.n == min_n
            ],
        }


def sweep(
    spec: FamilySpec, kind: GameKind, limit: int = DEFAULT_INSTANCE_LIMIT
) -> SearchOutcome:
    """Decide equilibrium existence for every instance of the family.

    Raises :class:`FamilyBudgetError` once more than ``limit`` instances are
    generated; a partial sweep is never returned. Every stored verdict is
    reproducible by re-running the equilibrium enumeration on the stored
    graph.
    """
    outcomes = []
    count = 0
    for g in generate_family(spec):
        count += 1
        if count > limit:
            raise FamilyBudgetError(limit)
        d = all_pairs(g)
        witness = first_nash(g, d, kind)
        outcomes.append(InstanceOutcome(g, build_class_report(g, d), witness))
    return SearchOutcome(spec, kind, tuple(outcomes))


def write_outcome(outcome: SearchOutcome, outdir: str | Path) -> tuple[Path, Path]:
    """Write one JSON-lines record per instance plus a summary JSON."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records_path = outdir / "instances.jsonl"
    summary_path = outdir / "summary.json"
    with records_path.open("w", encoding="utf-8") as fh:
        for o in outcome.outcomes:
            fh.write(json.dumps(o.to_record_obj(outcome.kind), sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    with summary_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(outcome.summary_obj(), sort_keys=True, indent=2))
        fh.write("\n")
    return records_path, summary_path
