"""Foremost temporal walks: earliest arrival times and all-pairs distances.

A temporal walk uses at most one edge per time step and its time labels
strictly increase, so arrival times can exceed the number of stored layers
(walks keep moving through the repeated last layer). Unreachable pairs get
the ``INF`` sentinel, which compares strictly greater than every finite
time and never beats itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graph import TemporalGraph

INF = math.inf


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs foremost arrival times; rows[u-1][v-1] = td(u, v)."""

    rows: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def td(self, u: int, v: int) -> float:
        return self.rows[u - 1][v - 1]

    def row(self, u: int) -> tuple[float, ...]:
        return self.rows[u - 1]

    def all_finite(self) -> bool:
        return all(x != INF for row in self.rows for x in row)

    def max_finite(self) -> int:
        """Largest finite entry; 0 for the empty matrix."""
        best = 0
        for row in self.rows:
            for x in row:
                if x != INF and x > best:
                    best = int(x)
        return best

    def to_json_obj(self) -> list[list]:
        return [["inf" if x == INF else int(x) for x in row] for row in self.rows]


def _horizon(g: TemporalGraph) -> int:
    # Past tau the layer sequence is constant, so each further round of
    # propagation settles at least one new vertex or nothing at all; tau + n
    # steps therefore suffice to reach the fixpoint.
    return g.tau + g.n


def earliest_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Foremost arrival time from ``source`` to every vertex.

    Layer sweep: at step t a vertex w becomes reachable at time t when some
    edge {x, w} is active at t and x arrived strictly before t (one edge per
    step, strictly increasing labels). Arrivals found at step t never feed
    other step-t updates: a new arrival carries the value t, which fails the
    strict a[x] < t test. Iterates past tau on the repeated last layer until
    no entry improves, hard-bounded at tau + n steps. Graphs are checked when
    constructed, so only a source outside 1..n raises ``ValueError``.
    """
    if not 1 <= source <= g.n:
        raise ValueError(f"source {source} out of range 1..{g.n}")
    a = [INF] * g.n
    a[source - 1] = 0
    for t in range(1, _horizon(g) + 1):
        improved = False
        for u, v in g.layer(t):
            if a[u - 1] < t and t < a[v - 1]:
                a[v - 1] = t
                improved = True
            elif a[v - 1] < t and t < a[u - 1]:
                a[u - 1] = t
                improved = True
        if t >= g.tau and not improved:
            break
    return tuple(a)


def all_pairs(g: TemporalGraph) -> DistanceMatrix:
    """All-pairs temporal distances as n independent single-source sweeps.

    Temporal reachability is not transitive, so there is no closure shortcut;
    every row is computed from scratch. Never raises on a constructed graph.
    """
    return DistanceMatrix(tuple(earliest_arrivals(g, u) for u in g.vertices))


def oracle_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Arrival times by explicit search of the time-expanded graph.

    Builds the state graph on (vertex, time) pairs for time 0..tau+n, with a
    wait transition (v, t) -> (v, t+1) and a traversal transition
    (u, t) -> (w, t+1) for every edge {u, w} active at step t+1, then runs a
    plain BFS from (source, 0). The arrival time of v is the smallest t with
    (v, t) reachable. An independent cross-check for :func:`earliest_arrivals`
    on small instances; raises ``ValueError`` on the same sources.
    """
    if not 1 <= source <= g.n:
        raise ValueError(f"source {source} out of range 1..{g.n}")
    horizon = _horizon(g)
    succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t in range(horizon):
        for v in g.vertices:
            succ[(v, t)] = [(v, t + 1)]
        for u, w in g.layer(t + 1):
            succ[(u, t)].append((w, t + 1))
            succ[(w, t)].append((u, t + 1))
    arrival = [INF] * g.n
    start = (source, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        v, t = queue.popleft()
        if t < arrival[v - 1]:
            arrival[v - 1] = t
        for nxt in succ.get((v, t), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(arrival)
