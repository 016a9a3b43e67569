"""Temporal graph data model: layered edge sets with repeat-last semantics."""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

Edge = tuple[int, int]


class GraphValidationError(ValueError):
    """A graph that breaks a construction rule; the message lists every problem."""


# Largest accepted vertex count. Every request builds the n x n distance matrix:
# on a one-layer path (Python 3.11, 2-vCPU Xeon VM) 1.0-1.4 s and a peak of
# +10 MB at n = 1,024, 5-8 s and +41 MB at n = 2,048, about 6-7x the time and 4x
# the memory per doubling. The peak is the sweep's per-source lists; the matrix
# keeps 2 bytes per entry (2 MB and 8 MB).
_MAX_VERTICES = 2048


def _vertex_count_problem(n) -> str | None:
    """What is wrong with ``n`` as a vertex count (an int in 0.._MAX_VERTICES), or None."""
    if type(n) is not int:  # exact type: bool is rejected too
        return f"vertex count {n!r} is not an integer"
    if n < 0:
        return f"vertex count {n} is negative"
    if n > _MAX_VERTICES:
        return f"vertex count {n} exceeds the limit of {_MAX_VERTICES}"
    return None


def _check_vertex(n: int, v, what: str) -> None:
    """Raise ``ValueError`` unless ``v`` names a vertex: an int in 1..n."""
    if type(v) is not int:  # exact type: bool is rejected too
        raise ValueError(f"{what} {v!r} is not an integer")
    if not 1 <= v <= n:
        raise ValueError(f"{what} {v} out of range 1..{n}")


def _reject(u, v) -> None:
    raise GraphValidationError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")


def _normalised(edges: Iterable[Sequence[int]]) -> list[Edge]:
    """Each edge as (small, large); raises GraphValidationError naming the first edge
    that is not a pair or has an endpoint that is not an int (exact type: bool too)."""
    try:
        return [
            (u, v) if u <= v else (v, u)
            for u, v in edges
            if type(u) is int is type(v) or _reject(u, v)
        ]
    except GraphValidationError:
        raise
    except (TypeError, ValueError):  # from unpacking: walk the edges again to name the culprit
        for e in edges if isinstance(edges, Iterable) else ():
            if not isinstance(e, Iterable) or len(tuple(e)) != 2:
                raise GraphValidationError(f"edge {e!r} is not a pair of vertices") from None
        raise GraphValidationError(f"edges {edges!r} are not pairs of vertices") from None


@dataclass(frozen=True)
class TemporalGraph:
    """Vertices 1..n plus an ordered, finite sequence of edge layers.

    Layer t (1-indexed) is ``layers[t-1]`` for t <= tau; every later step
    repeats the last stored layer, so the graph is defined for all times.
    Construction normalises each edge to (small, large) order and sorts the
    edges of each layer, then raises :class:`GraphValidationError` with the
    problems :func:`validate` reports, so every instance has tau >= 1 and
    endpoints in 1..n. Instances are immutable and hashable.

    The private :meth:`_of` takes layers as they are, with no normalisation,
    sort or check; family generation uses it for layers that are subsets of
    one edge set checked by this constructor.
    """

    n: int
    layers: tuple[tuple[Edge, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.layers, Iterable):
            raise GraphValidationError(f"layers {self.layers!r} are not a collection of edge sets")
        norm = []
        for layer in self.layers:
            layer = tuple(sorted(_normalised(layer)))
            # a repeated layer reuses its predecessor's tuple, so long
            # lifetimes of few changes hold each distinct layer once
            norm.append(norm[-1] if norm and norm[-1] == layer else layer)
        object.__setattr__(self, "layers", tuple(norm))
        problems = validate(self)
        if problems:
            raise GraphValidationError("; ".join(problems))

    @classmethod
    def _of(cls, n: int, layers: tuple[tuple[Edge, ...], ...]) -> TemporalGraph:
        """The graph on ``layers`` taken as they are. The caller guarantees what
        construction would ensure: sorted (small, large) edges that
        :func:`validate` accepts, and a repeated layer held as one tuple."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "layers", layers)
        return g

    @property
    def tau(self) -> int:
        """Number of stored layers (the lifetime of the stored sequence)."""
        return len(self.layers)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def layer(self, t: int) -> tuple[Edge, ...]:
        """Edges active at time step t >= 1; repeats the last layer past tau.
        Raises ``ValueError`` unless t is an int >= 1."""
        if type(t) is not int or t < 1:  # exact type: bool is rejected too
            raise ValueError(f"time step must be an int >= 1, got {t!r}")
        return self.layers[min(t, self.tau) - 1]


class _Layers(dict):
    """Edge mask -> the one tuple of the checked, sorted ``edges``' own edge
    tuples that its bits hold (bit i holds ``edges[i]``), made on first use."""

    def __init__(self, edges: tuple[Edge, ...]):
        super().__init__()
        self.edges = edges

    def __missing__(self, mask: int) -> tuple[Edge, ...]:
        layer = self[mask] = tuple([e for i, e in enumerate(self.edges) if mask >> i & 1])
        return layer

    def graph(self, n: int, chain: Sequence[int]) -> TemporalGraph:
        """The instance on 1..n whose layer t is mask ``chain[t-1]``."""
        return TemporalGraph._of(n, tuple([self[m] for m in chain]))


@dataclass(frozen=True)
class StaticGraph:
    """Simple undirected graph; the time-collapsed view of a temporal graph.

    Construction raises GraphValidationError on a vertex count :func:`validate`
    rejects, a self-loop or an endpoint that is not an int in 1..n, so ``m``
    always counts edges of the adjacency.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if problem := _vertex_count_problem(self.n):
            raise GraphValidationError(problem)
        object.__setattr__(self, "edges", frozenset(_normalised(self.edges)))
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise GraphValidationError(f"edge ({u},{v}) has an endpoint outside 1..{self.n}")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in adj.items()})

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj.get(v, frozenset())  # type: ignore[attr-defined]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return _normalised([(u, v)])[0] in self.edges


def validate(g: TemporalGraph) -> list[str]:
    """The rules of a temporal graph: every one g breaks, in one pass.

    Rules: n is an int in 0.._MAX_VERTICES (2048), at least one layer,
    endpoints in 1..n, no self-loops, no duplicate edges within a layer.
    Construction raises on any violation, so every constructed graph gives [].
    Never raises itself.
    """
    n = g.n
    problems = [p] if (p := _vertex_count_problem(n)) else []
    if type(n) is not int:
        return problems
    if not g.layers:
        problems.append("layer sequence is empty")
    for t, layer in enumerate(g.layers, start=1):
        prev = None
        for u, v in layer:
            if u == v:
                problems.append(f"layer {t}: self-loop at vertex {u}")
            if u < 1 or v > n:  # edges are normalised: u <= v
                problems.append(f"layer {t}: edge ({u},{v}) has endpoint outside 1..{n}")
            if (u, v) == prev:
                problems.append(f"layer {t}: duplicate edge ({u},{v})")
            prev = (u, v)
    return problems


def underlying(g: TemporalGraph) -> StaticGraph:
    """The static graph whose edge set is the union of all layers."""
    return StaticGraph(g.n, frozenset().union(*g.layers))


def is_monotone(g: TemporalGraph) -> tuple[bool, bool]:
    """(growing, shrinking): whether layers only gain / only lose edges.

    A single-layer graph is vacuously both. Empty layers count: an all-empty
    graph is monotonically growing and shrinking.
    """
    # Layers hold no duplicate edges, so a <= b iff they share len(a) edges.
    sizes = [
        (len(a), len(set(a).intersection(b)), len(b)) for a, b in zip(g.layers, g.layers[1:])
    ]
    return all(a == common for a, common, _ in sizes), all(b == common for _, common, b in sizes)


# --- standard edge sets on 1..n ----------------------------------------------


def _path_edges(n: int) -> tuple[Edge, ...]:
    return tuple((i, i + 1) for i in range(1, n))


def _cycle_edges(n: int) -> tuple[Edge, ...]:
    return _path_edges(n) + ((1, n),)


def _clique_edges(vertices: Iterable[int]) -> tuple[Edge, ...]:
    """Every pair of ``vertices`` (given in increasing order), lexicographically."""
    return tuple(combinations(vertices, 2))


def _kpartite_edges(part: Sequence[int]) -> tuple[Edge, ...]:
    """Complete multipartite graph on 1..len(part); vertex v lies in ``part[v - 1]``."""
    return tuple(
        (u, w)
        for u, w in combinations(range(1, len(part) + 1), 2)
        if part[u - 1] != part[w - 1]
    )


def _threshold_edges(bits: Sequence[int]) -> tuple[Edge, ...]:
    """Threshold graph on 1..len(bits)+1 from its creation sequence.

    ``bits[v - 2]`` says whether vertex v arrives dominating 1..v-1 (else
    isolated). Edges come in creation order: by v, then by the older endpoint.
    """
    return tuple(
        (u, v) for v, bit in enumerate(bits, start=2) if bit for u in range(1, v)
    )


def _split_edges(c: int, picks: Sequence[Iterable[int]]) -> tuple[Edge, ...]:
    """Split graph: a clique on 1..c plus independent vertices c+1, c+2, ...

    Independent vertex c+1+i is joined to the clique vertices ``picks[i]``.
    Edges come in creation order: the clique, then each independent vertex.
    """
    return _clique_edges(range(1, c + 1)) + tuple(
        (u, v) for v, nbrs in enumerate(picks, start=c + 1) for u in nbrs
    )


def _grid_edges(rows: int, cols: int) -> tuple[Edge, ...]:
    # vertex at row r, column c (0-based) is r*cols + c + 1
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return tuple(edges)


def _pruefer_edges(seq: Sequence[int], n: int) -> list[Edge]:
    """Edges of the labeled tree on 1..n with Pruefer code ``seq`` (length n - 2).

    Edges come in decode order: each code entry is joined to the smallest
    remaining leaf, and the last two leaves form the final edge.
    """
    if n < 2:
        return []
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return edges


# --- JSON interchange -------------------------------------------------------
#
# Canonical form: {"n": <int>, "layers": [[[u, v], ...], ...]} with u < v in
# every pair, edges sorted lexicographically within a layer, layers in
# temporal order, compact separators. Serialising a valid graph and parsing
# it back is byte-exact.


def to_json_obj(g: TemporalGraph) -> dict:
    return {"n": g.n, "layers": [[list(e) for e in layer] for layer in g.layers]}


def to_canonical_json(g: TemporalGraph) -> str:
    return json.dumps(to_json_obj(g), separators=(",", ":"))


def graph_from_obj(obj) -> TemporalGraph:
    """Build a TemporalGraph from parsed JSON; the constructor checks every value."""
    if not isinstance(obj, dict):
        raise ValueError("temporal graph JSON must be an object")
    if set(obj) != {"n", "layers"}:
        raise ValueError('temporal graph JSON must have exactly the keys "n" and "layers"')
    layers = obj["layers"]
    if not isinstance(layers, list):
        raise ValueError('"layers" must be an array')
    for t, layer in enumerate(layers, start=1):
        if not isinstance(layer, list):
            raise ValueError(f"layer {t} must be an array of edges")
        if not all(isinstance(e, list) and len(e) == 2 for e in layer):
            raise ValueError(f"layer {t}: each edge must be a 2-element array")
    return TemporalGraph(obj["n"], layers)


def from_json(text: str) -> TemporalGraph:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"invalid JSON: {exc}") from exc
    return graph_from_obj(obj)
