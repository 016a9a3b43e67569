"""Recognition of temporal properties and underlying-graph classes.

Every label is decided by an exact characterisation of its class: breadth-
first hop distances (one helper) for connectivity, trees, paths, cycles and
grids; equal-neighbourhood classes and an edge count for complete
multipartite graphs; and degree-sequence equalities for split graphs (Hammer & Simeone, "The splittance of a graph", Combinatorica 1(3),
1981) and threshold graphs (Hammer, Ibaraki & Simeone, "Threshold
sequences", SIAM J. Algebraic Discrete Methods 2(1), 1981). A graph may
legitimately carry several labels at once (a clique is also split and
threshold), and consumers are expected to filter. A 1 x m grid is reported
as a path, never as a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .graph import StaticGraph, TemporalGraph, is_monotone, underlying
from .reach import DistanceMatrix


def _distances(s: StaticGraph, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every vertex it reaches (BFS)."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for w in s.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_connected(s: StaticGraph) -> bool:
    return s.n <= 1 or len(_distances(s, 1)) == s.n


def is_tree(s: StaticGraph) -> bool:
    return s.n >= 1 and s.m == s.n - 1 and is_connected(s)


def is_path(s: StaticGraph) -> bool:
    return is_tree(s) and all(s.degree(v) <= 2 for v in s.vertices)


def is_cycle(s: StaticGraph) -> bool:
    return s.n >= 3 and is_connected(s) and all(s.degree(v) == 2 for v in s.vertices)


def is_clique(s: StaticGraph) -> bool:
    return s.m == s.n * (s.n - 1) // 2


def grid_dims(s: StaticGraph) -> tuple[int, int] | None:
    """(a, b) with a <= b if s is an a x b grid with a, b >= 2, else None.

    An a x b grid has 2ab - a - b edges, which singles out at most one
    factorisation n = ab. Hop distance in a grid is Manhattan distance, so
    BFS from a corner c (a degree-2 vertex) and from a corner c' at distance
    b - 1 from it puts v in cell i = (d(c,v) + d(c',v) - b + 1) / 2,
    j = d(c,v) - i. s is the grid iff these cells are a bijection onto the
    a x b cells. That suffices: along an edge each distance changes by at
    most 1 and 2i, 2j (their sum and difference) by an even amount, so both
    change by 1 (both 0 would put the ends in one cell) and the edge is a
    unit step. Every edge is then a grid edge, and s has as many as the grid.
    """
    n = s.n
    dims = [
        (a, n // a) for a in range(2, isqrt(n) + 1) if n % a == 0 and s.m == 2 * n - a - n // a
    ]
    corners = [v for v in s.vertices if s.degree(v) == 2]
    if not dims or not corners:
        return None
    a, b = dims[0]
    d1 = _distances(s, corners[0])
    far = [v for v in corners if d1.get(v) == b - 1]
    if len(d1) < n or not far:
        return None
    d2 = _distances(s, far[0])
    # twice the cell (i, j) of every vertex
    cells = {(d1[v] + d2[v] - b + 1, d1[v] - d2[v] + b - 1) for v in s.vertices}
    return (a, b) if cells == {(2 * i, 2 * j) for i in range(a) for j in range(b)} else None


def kpartite_parts(s: StaticGraph) -> tuple[frozenset[int], ...] | None:
    """The unique partition into parts if s is complete multipartite, else None.

    Vertices with equal neighbourhoods are never adjacent (neither is its own
    neighbour), so every such class is independent and s has at most
    C(n,2) - sum C(|class|,2) edges, with equality iff every pair from
    different classes is an edge. In a complete multipartite graph the
    classes are exactly the parts. Parts are ordered by smallest member.
    """
    if s.n == 0:
        return None
    classes: dict[frozenset[int], list[int]] = {}
    for v in s.vertices:
        classes.setdefault(s.neighbors(v), []).append(v)
    if s.m != comb(s.n, 2) - sum(comb(len(c), 2) for c in classes.values()):
        return None
    return tuple(frozenset(c) for c in classes.values())


def _by_degree(s: StaticGraph) -> tuple[list[int], list[int], int]:
    """Vertices by decreasing degree (ties by id), their degrees d_1..d_n, and
    m = max{i : d_i >= i - 1}; d_i - i decreases, so those i are 1..m."""
    order = sorted(s.vertices, key=lambda v: (-s.degree(v), v))
    degs = [s.degree(v) for v in order]
    return order, degs, sum(d >= i for i, d in enumerate(degs))


def split_partition(s: StaticGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A (clique, independent set) partition if s is split, else None.

    By Hammer & Simeone, s is split iff its m highest-degree vertices form a
    clique and the rest an independent set. Their degrees sum to
    2 e(top) + e(across) and the rest's to 2 e(rest) + e(across), so
    sum(top) == m(m-1) + sum(rest) holds exactly when e(top) = C(m,2) and
    e(rest) = 0: the one comparison is the verification.
    """
    order, degs, m = _by_degree(s)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    return frozenset(order[:m]), frozenset(order[m:])


def is_threshold(s: StaticGraph) -> bool:
    """True iff s is a threshold graph.

    By Hammer, Ibaraki & Simeone, exactly the threshold graphs meet the first
    m Erdos-Gallai inequalities with equality:
    d_1 + ... + d_k == k(k-1) + sum over i > k of min(d_i, k) for k = 1..m.
    """
    _, degs, m = _by_degree(s)
    return all(
        sum(degs[:k]) == k * (k - 1) + sum(min(d, k) for d in degs[k:])
        for k in range(1, m + 1)
    )


def classify_underlying(s: StaticGraph) -> frozenset[str]:
    """All class labels the graph satisfies, each decided by an exact test."""
    if s.n == 0:
        return frozenset()
    labels = set()
    if is_path(s):
        labels.add("path")
    if is_cycle(s):
        labels.add("cycle")
    if is_tree(s):
        labels.add("tree")
    dims = grid_dims(s)
    if dims:
        labels.add(f"grid({dims[0]},{dims[1]})")
    if is_clique(s):
        labels.add("clique")
    parts = kpartite_parts(s)
    if parts:
        labels.add(f"complete_k_partite({len(parts)})")
    if split_partition(s) is not None:
        labels.add("split")
    if is_threshold(s):
        labels.add("threshold")
    return frozenset(labels)


@dataclass(frozen=True)
class ClassReport:
    temporally_connected: bool
    monotone_growing: bool
    monotone_shrinking: bool
    underlying_class: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "temporally_connected": self.temporally_connected,
            "monotone_growing": self.monotone_growing,
            "monotone_shrinking": self.monotone_shrinking,
            "underlying_class": list(self.underlying_class),
        }


def build_class_report(g: TemporalGraph, d: DistanceMatrix) -> ClassReport:
    if d.n != g.n:
        raise ValueError("distance matrix does not match graph size")
    labels = tuple(sorted(classify_underlying(underlying(g))))
    return ClassReport(d.all_finite(), *is_monotone(g), labels)
