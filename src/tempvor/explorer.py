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
multiset for complete multipartite graphs, every distinct clique-to-independent
connection pattern for split graphs, and all creation sequences for threshold
graphs; labeled trees run over all Pruefer codes. The edge sets come from the
class constructions in :mod:`tempvor.graph`, which :mod:`tempvor.randgen`
draws from too. Cycle instances are additionally deduplicated up to rotation
and reflection of the labeling: an instance is kept only when no image of it
has lexicographically smaller layers, each image's masks made by bit rotation
(and bit reversal, for a reflection) in the cycle's edge order, and the check
stops at the first image that does. Other classes get no isomorphism
reduction. Streams are lazy and deterministic: two sweeps of one spec
produce identical output bytes.

A sweep passes one private run per edge set from the walk to the writer:
the vertex count, the edge set's sorted edges, checked once by the public
:class:`TemporalGraph` constructor on its one-layer graph, and the chains of
its instances' layers, each layer an int whose bit i holds edge i. The
chains come from a depth-first walk that enters only branches which can
still end in an instance, so its work follows the instances it yields: a
toggle is a sum of single-bit ints, and sizes come from ``int.bit_count``.
:func:`generate_family` makes each chain a graph by the private
``TemporalGraph._of``, with no check of its own, each distinct layer of an
edge set one shared tuple found by its mask.

:func:`sweep` takes at most ``limit + 1`` chains and raises the budget
error before it computes any distance or class label. It decides the class
labels once per run and the run's chains in the game module's chunks, each
instance's temporal connectivity read from its chunk's flat array of
distances. A chain is growing when no step drops an edge (``a & ~b == 0``
for each consecutive pair of masks) and shrinking when no step adds one.
No batched instance becomes a graph or a matrix: :class:`SearchOutcome`
holds the decided runs, and the records written from them are the sweep's
per-instance output.

:func:`write_outcome` frames each JSON-lines record from text pieces, in
sorted key order: the game and each distinct class report encoded once by
the compact JSON encoder, and each distinct layer of a run framed once from
its edges' texts, kept by mask for the records that share it. The lines are
written as they are made, so writing holds one line and at most
``_FRAGMENTS`` layer fragments, never the whole file. The bytes equal those
of the record as a dict encoded with sorted keys and compact separators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, islice, pairwise, product
from pathlib import Path
from typing import Iterator

from .classify import ClassReport, classify_underlying
from .games import GameKind, _check_kind, _decide_run
from .graph import (
    _MAX_VERTICES,
    Edge,
    StaticGraph,
    TemporalGraph,
    _Layers,
    _clique_edges,
    _cycle_edges,
    _grid_edges,
    _kpartite_edges,
    _path_edges,
    _pruefer_edges,
    _split_edges,
    _threshold_edges,
    to_json_obj,
)

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
    for field in ("n_range", "tau_range"):
        pair = getattr(spec, field)
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise FamilySpecError(f"{field} must be a pair of ints, got {pair!r}")
    budget = () if spec.max_edge_changes is None else (spec.max_edge_changes,)
    if any(type(x) is not int for x in (*spec.n_range, *spec.tau_range, *budget)):
        # exact type: bool is rejected too
        raise FamilySpecError(f"family bounds and budget must be ints: {spec}")
    lo, hi = spec.n_range
    if lo < 1 or lo > hi or hi > _MAX_VERTICES:
        raise FamilySpecError(f"bad vertex range {spec.n_range}; n is 1..{_MAX_VERTICES}")
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
        yield _clique_edges(range(1, n + 1))
    elif base_class == "tree":
        for seq in product(range(1, n + 1), repeat=max(0, n - 2)):
            yield tuple(sorted(_pruefer_edges(seq, n)))
    elif base_class == "complete_k_partite":
        # one canonical labeling per part-size multiset, two or more parts
        for sizes in _partitions_desc(n):
            if len(sizes) >= 2:
                yield _kpartite_edges([i for i, size in enumerate(sizes) for _ in range(size)])
    elif base_class == "split":
        # clique 1..c; when no independent vertex picks c, the same edge set is
        # the (c - 1)-clique graph in which c picks all of 1..c-1, so it is
        # kept only there
        for c in range(0, n + 1):
            subsets = [s for r in range(c + 1) for s in combinations(range(1, c + 1), r)]
            for picks in product(subsets, repeat=n - c):
                if c == 0 or any(c in pick for pick in picks):
                    yield tuple(sorted(_split_edges(c, picks)))
    elif base_class == "threshold":
        # edge (1, v) is present iff bit v is set, so distinct creation
        # sequences give distinct edge sets
        for bits in product((0, 1), repeat=max(0, n - 1)):
            yield tuple(sorted(_threshold_edges(bits)))
    else:  # pragma: no cover - guarded by _check_spec
        raise FamilySpecError(base_class)


# --- temporal layer patterns -------------------------------------------------


def _layer_chains(
    edge_set: tuple[Edge, ...],
    tau: int,
    monotonicity: str,
    budget: int | None,
) -> Iterator[tuple[int, ...]]:
    """All minimal-lifetime layer sequences over ``edge_set``, as edge masks.

    A layer is an int whose bit i holds edge i of ``sorted(edge_set)``.
    Yields tuples (E_1, ..., E_tau) with union exactly ``edge_set``, the given
    monotonicity, total change within ``budget``, and E_tau != E_{tau-1} when
    tau >= 2. Each layer is its predecessor with a subset of a pool toggled:
    all edges for ``any``, absent edges for ``growing``, present edges for
    ``shrinking``. E_1 toggles the edge set itself, dropping the edges that
    appear later (none when shrinking or when tau is 1), uncharged but capped
    by the budget. The last toggle holds every edge no layer has held yet and
    is not empty. The walk expands a node only while it is live: while such a
    last toggle, with the budget left, can still finish it. So every branch
    it enters ends in an instance. Toggles go by (size, sorted edges) at each
    step, as the combinations of a pool's bits in ascending order do, and
    M | X sorts as X does for a fixed M.
    """
    bits = [1 << i for i in range(len(edge_set))]
    universe = sum(bits)
    shrinking = monotonicity == "shrinking"

    def toggles(pool: list[int], required: int, room: float, least: int = 0) -> Iterator[int]:
        free = [b for b in pool if not b & required]
        for r in range(least, min(len(free), room - required.bit_count()) + 1):
            for extra in combinations(free, r):
                yield sum(extra, required)

    def live(chain: tuple[int, ...], unseen: int, left: float) -> bool:
        """Whether a node short of tau layers can finish: the last toggle must
        afford every unseen edge and one edge at least, and find one in its
        pool (an unseen edge when growing, an edge of the last layer when
        shrinking, any edge otherwise)."""
        return max(1, unseen.bit_count()) <= left and bool(
            unseen if monotonicity == "growing" else chain[-1] if shrinking else universe
        )

    def children(chain: tuple[int, ...], unseen: int, left: float):
        prev, last = chain[-1], len(chain) == tau - 1
        pool = bits if monotonicity == "any" else [b for b in bits if bool(b & prev) == shrinking]
        for toggle in toggles(pool, unseen if last else 0, left, int(last and not unseen)):
            yield chain + (prev ^ toggle,), unseen & ~toggle, left - toggle.bit_count()

    # depth-first with an explicit stack: lifetimes may exceed the recursion limit
    left = float("inf") if budget is None else budget
    first = toggles([] if shrinking or tau == 1 else bits, 0, left)
    stack = [(((universe ^ dropped,), dropped, left) for dropped in first)]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(node[0]) == tau:
            yield node[0]
        elif live(*node):
            stack.append(children(*node))


def _is_cycle_canonical(n: int, chain: tuple[int, ...]) -> bool:
    """Whether no rotation or reflection of the labels gives smaller layers.

    ``chain`` holds edge masks over the sorted edges (1, 2), (1, n), (2, 3),
    ..., (n - 1, n), and a mask's bits are its edges' ranks, so masks
    compare as the sorted layers do: where two masks first differ, at their
    lowest differing bit r, the mask holding r is smaller exactly when the
    other has a bit above r. Edge i of ``_cycle_edges(n)`` joins vertices
    i + 1 and i + 2 (mod n), at rank 0 for i = 0, 1 for i = n - 1 and i + 1
    otherwise. In that index order, rotating the labels by k rotates a mask
    by k bits, and reflecting them (edge i to edge k - i) reverses its n bits
    and rotates them by k + 1. Each image is compared with the chain's
    layers one by one and dropped at the first layer that differs, so most
    images cost one layer.
    """
    full = (1 << n) - 1
    turns = [m & 1 | (m >> 2) << 1 | (m >> 1 & 1) << (n - 1) for m in chain]  # rank -> index
    mirrors = [int(f"{m:0{n}b}"[::-1], 2) for m in turns]
    for k in range(n):
        for masks, shift in ((turns, k), (mirrors, (k + 1) % n)):
            for m, key in zip(masks, chain):
                m = (m << shift | m >> (n - shift)) & full
                image = m & 1 | (m >> 1 << 2) & full | (m >> (n - 1)) << 1  # index -> rank
                if image != key:
                    low = (image ^ key) & -(image ^ key)
                    if (key > low) if image & low else (image < low):
                        return False
                    break
    return True


def _family_runs(
    spec: FamilySpec,
) -> Iterator[tuple[int, tuple[Edge, ...], Iterator[tuple[int, ...]]]]:
    """(n, edges, chains) for each edge set of the family in stream order: the
    checked, sorted edges and a lazy stream of the family's masks over them."""
    _check_spec(spec)
    for n in range(spec.n_range[0], spec.n_range[1] + 1):
        for edge_set in _underlying_edge_sets(spec.base_class, n):
            # the one check: every layer of a chain is a subset of these edges
            (edges,) = TemporalGraph(n, (edge_set,)).layers
            yield n, edges, _kept_chains(spec, n, edges)


def _kept_chains(spec: FamilySpec, n: int, edges: tuple[Edge, ...]) -> Iterator[tuple[int, ...]]:
    t_lo, t_hi = spec.tau_range
    # past tau = 1 a minimal instance changes an edge: it needs one and a budget
    top = t_hi if edges and spec.max_edge_changes != 0 else 1
    for tau in range(t_lo, top + 1):
        for chain in _layer_chains(edges, tau, spec.monotonicity, spec.max_edge_changes):
            if spec.base_class != "cycle" or _is_cycle_canonical(n, chain):
                yield chain


def generate_family(spec: FamilySpec) -> Iterator[TemporalGraph]:
    """Lazy, deterministic stream of every instance in the described family."""
    for n, edges, chains in _family_runs(spec):
        layers = _Layers(edges)
        for chain in chains:
            yield layers.graph(n, chain)


# --- sweeping -----------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    """The decided runs of a sweep in stream order, each (n, edges, chains,
    witnesses, reports): the instances' layer masks over ``edges`` and, per
    chain, its witness and class report. No instance becomes a graph here:
    :func:`write_outcome` frames each record from the masks, and only the
    summary's counterexamples are made graphs, when it is built."""

    spec: FamilySpec
    kind: GameKind
    runs: tuple[tuple, ...]

    @property
    def total(self) -> int:
        return sum(len(run[2]) for run in self.runs)

    @property
    def without_nash(self) -> int:
        return sum(run[3].count(None) for run in self.runs)

    def summary_obj(self) -> dict:
        min_n = min((run[0] for run in self.runs if None in run[3]), default=None)
        without_nash = self.without_nash
        minimal = [
            to_json_obj(layers.graph(n, chain))
            for n, edges, chains, witnesses, _ in self.runs
            if n == min_n
            for layers in (_Layers(edges),)
            for chain, witness in zip(chains, witnesses)
            if witness is None
        ]
        return {
            "spec": self.spec.to_json_obj(),
            "game": self.kind,
            "instances": self.total,
            "with_nash": self.total - without_nash,
            "without_nash": without_nash,
            "min_counterexample_n": min_n,
            "minimal_counterexamples": minimal,
        }


def sweep(
    spec: FamilySpec, kind: GameKind, limit: int = DEFAULT_INSTANCE_LIMIT
) -> SearchOutcome:
    """Decide equilibrium existence for every instance of the family.

    Raises ``ValueError`` when ``limit`` is not an int (a bool included) or
    ``kind`` is not a game kind, before any instance is generated, and
    :class:`FamilyBudgetError` when the family has more than ``limit``
    instances, before any instance is decided; a partial sweep is never
    returned. Every stored verdict is reproducible by re-running the
    equilibrium enumeration on the stored graph, and every report equals
    :func:`~tempvor.classify.build_class_report` on it; the class labels in
    the reports are decided once per underlying graph.
    """
    if type(limit) is not int:  # exact type: bool is rejected too
        raise ValueError(f"instance limit {limit!r} is not an integer")
    _check_kind(kind)
    left = max(limit, 0) + 1  # chains the guard may still take
    walked = []
    for n, edges, chains in _family_runs(spec):
        chains = tuple(islice(chains, left))
        left -= len(chains)
        if not left:
            raise FamilyBudgetError(limit)
        if chains:
            walked.append((n, edges, chains))
    runs = []
    for n, edges, chains in walked:
        labels = tuple(sorted(classify_underlying(StaticGraph(n, edges))))
        reports: dict[tuple[bool, bool, bool], ClassReport] = {}  # one per distinct report
        witnesses, run_reports = [], []
        for chain, (connected, witness) in zip(chains, _decide_run(n, edges, chains, kind)):
            lost = gained = 0  # the edges some step drops and adds
            for a, b in pairwise(chain):
                lost |= a & ~b
                gained |= b & ~a
            flags = (connected, not lost, not gained)
            report = reports.get(flags)
            if report is None:
                report = reports[flags] = ClassReport(*flags, labels)
            witnesses.append(witness)
            run_reports.append(report)
        runs.append((n, edges, chains, tuple(witnesses), tuple(run_reports)))
    return SearchOutcome(spec, kind, tuple(runs))


_FRAGMENTS = 1024  # layer fragments held while writing: about 130 KB


def _record_lines(outcome: SearchOutcome) -> Iterator[str]:
    """One JSON line per instance, framed in sorted key order:
    ``{"game":..,"graph":{"layers":..,"n":..},"has_nash":..,"n":..,
    "report":{..},"tau":..,"witness":..}``. The compact encoder, keys sorted,
    encodes the game once per sweep and each distinct report once. Each edge's
    text is made once per run, and each distinct layer of a run once, as the
    texts of the edges its mask holds joined in brackets; a record's layers
    join those fragments. Fragments are keyed by mask within a run, dropped
    when the run ends and whenever ``_FRAGMENTS`` of them are held.
    """
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True, check_circular=False).encode
    head = '{"game":' + encode(outcome.kind) + ',"graph":{"layers":['
    reports: dict[ClassReport, str] = {}
    for n, edges, chains, witnesses, run_reports in outcome.runs:
        texts = list(enumerate(f"[{u},{v}]" for u, v in edges))  # edge i's JSON text
        layers: dict[int, str] = {}  # mask -> its JSON text
        for chain, w, r in zip(chains, witnesses, run_reports):
            fragments = []
            for mask in chain:
                fragment = layers.get(mask)
                if fragment is None:
                    if len(layers) == _FRAGMENTS:
                        layers.clear()
                    held = [text for i, text in texts if mask >> i & 1]
                    fragment = layers[mask] = "[" + ",".join(held) + "]"
                fragments.append(fragment)
            report = reports.get(r)
            if report is None:
                report = reports[r] = encode(r.to_json_obj())
            yield (
                f'{head}{",".join(fragments)}],"n":{n}}},'
                f'"has_nash":{"false" if w is None else "true"},"n":{n},'
                f'"report":{report},"tau":{len(chain)},'
                f'"witness":{"null" if w is None else f"[{w[0]},{w[1]}]"}}}\n'
            )


def write_outcome(outcome: SearchOutcome, outdir: str | Path) -> tuple[Path, Path]:
    """Write one JSON-lines record per instance, streamed line by line from
    :func:`_record_lines`, plus a summary JSON."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records_path = outdir / "instances.jsonl"
    summary_path = outdir / "summary.json"
    with records_path.open("w", encoding="utf-8") as fh:
        fh.writelines(_record_lines(outcome))
    with summary_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(outcome.summary_obj(), sort_keys=True, indent=2))
        fh.write("\n")
    return records_path, summary_path
