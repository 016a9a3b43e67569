"""Foremost temporal walks: earliest arrival times and all-pairs distances.

A temporal walk uses at most one edge per time step and its time labels
strictly increase, so arrival times can exceed the number of stored layers
(walks keep moving through the repeated last layer). Unreachable pairs get
the ``INF`` sentinel, which compares strictly greater than every finite
time and never beats itself.

One kernel computes every distance: a multi-source layer sweep in the style
of MS-BFS (Then et al., PVLDB 8(4), 2014) applied to foremost journeys (Wu
et al., PVLDB 7(9), 2014). Each vertex carries an int bitset of the sources
that have reached it, so one pass over the layers advances all sources at
once; ``all_pairs`` sweeps from every vertex, ``earliest_arrivals`` from one.

The independent check, ``oracle_arrivals``, searches the time-expanded graph
instead: one state graph per instance on integer ids for (vertex, time)
pairs, searched by plain BFS from each source, with no bitsets.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .graph import TemporalGraph

INF = math.inf


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs foremost arrival times; rows[u-1][v-1] = td(u, v).

    The private ``_tables`` holds the game module's payoff tables for this
    matrix, one per game kind, filled as queries read them. It is excluded
    from equality, hashing and ``repr``: two matrices with equal rows are
    equal whatever has been asked of either.
    """

    rows: tuple[tuple[float, ...], ...]
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.rows)

    def td(self, u: int, v: int) -> float:
        return self.rows[u - 1][v - 1]

    def row(self, u: int) -> tuple[float, ...]:
        return self.rows[u - 1]

    def all_finite(self) -> bool:
        return all(INF not in row for row in self.rows)

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
    # propagation settles, for each source, at least one new vertex or nothing
    # at all; tau + n steps therefore suffice to reach the fixpoint.
    return g.tau + g.n


def _sweep(g: TemporalGraph, sources: Sequence[int]) -> list[list[float]]:
    """Arrival times from each of ``sources``, one list per source, in order.

    reached[v] has bit i set once sources[i] has reached v. At step t each
    edge of layer t whose endpoints hold different sets offers each endpoint
    the other's pre-step set; the gains of the whole layer are applied after
    it, so a step-t arrival never spreads within step t (one edge per step,
    strictly increasing labels). Every newly set bit records arrival time t.
    Endpoints that differ give at least one of them a new bit, so a step
    with offers always gains. Past tau the last layer repeats, so the sweep
    stops at the first step >= tau without offers, hard-bounded at tau + n.
    """
    arrival = [[INF] * g.n for _ in sources]
    reached = [0] * (g.n + 1)
    for i, s in enumerate(sources):
        reached[s] |= 1 << i
        arrival[i][s - 1] = 0
    for t in range(1, _horizon(g) + 1):
        gains = []
        for u, v in g.layer(t):
            ru, rv = reached[u], reached[v]
            if ru != rv:
                gains.append((v, ru))
                gains.append((u, rv))
        for w, bits in gains:
            new = bits & ~reached[w]
            reached[w] |= new
            while new:
                low = new & -new
                arrival[low.bit_length() - 1][w - 1] = t
                new ^= low
        if t >= g.tau and not gains:
            break
    return arrival


def earliest_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Foremost arrival time from ``source`` to every vertex.

    The multi-source sweep run from one source: at step t a vertex w becomes
    reachable at time t when some edge {x, w} is active at t and x arrived
    strictly before t. Graphs are checked when constructed, so only a source
    outside 1..n raises ``ValueError``.
    """
    if not 1 <= source <= g.n:
        raise ValueError(f"source {source} out of range 1..{g.n}")
    return tuple(_sweep(g, (source,))[0])


def all_pairs(g: TemporalGraph) -> DistanceMatrix:
    """All-pairs temporal distances from one multi-source sweep.

    Temporal reachability is not transitive, so there is no closure shortcut;
    instead every vertex is a source of the same sweep, and row u holds the
    arrival times of the journeys that start at u. Never raises on a
    constructed graph.
    """
    return DistanceMatrix(tuple(map(tuple, _sweep(g, g.vertices))))


def _expanded_search(g: TemporalGraph, sources: Sequence[int]) -> list[tuple[float, ...]]:
    """Arrival times from each of ``sources`` by BFS of the time-expanded graph.

    The state graph on (vertex, time) pairs for time 0..tau+n is built once;
    state (v, t) has the id (v-1)*(tau+n+1) + t, so each vertex owns a
    contiguous run of ids. Its successor list holds the wait move
    (v, t) -> (v, t+1) and a traversal (u, t) -> (w, t+1) for every edge
    {u, w} active at step t+1. Each source gets a plain BFS from
    (source, 0); the arrival time of v is the smallest t with (v, t)
    reached. Shares only the tau+n horizon with the layer sweep it checks.
    """
    width = _horizon(g) + 1
    succ = [[i + 1] if (i + 1) % width else [] for i in range(g.n * width)]
    for t in range(width - 1):
        for u, w in g.layer(t + 1):
            succ[(u - 1) * width + t].append((w - 1) * width + t + 1)
            succ[(w - 1) * width + t].append((u - 1) * width + t + 1)
    result = []
    for source in sources:
        start = (source - 1) * width
        seen = bytearray(len(succ))
        seen[start] = 1
        queue = [start]
        for state in queue:
            for nxt in succ[state]:
                if not seen[nxt]:
                    seen[nxt] = 1
                    queue.append(nxt)
        arrival = [INF] * g.n
        for v in range(g.n):
            first = seen.find(1, v * width, (v + 1) * width)
            if first >= 0:
                arrival[v] = first - v * width
        result.append(tuple(arrival))
    return result


def oracle_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Arrival times by explicit search of the time-expanded graph.

    One source's row of :func:`_expanded_search`, which builds the state
    graph on (vertex, time) pairs once per call and runs a plain BFS from
    (source, 0). An independent cross-check for :func:`earliest_arrivals`
    on small instances; raises ``ValueError`` on the same sources.
    """
    if not 1 <= source <= g.n:
        raise ValueError(f"source {source} out of range 1..{g.n}")
    return _expanded_search(g, (source,))[0]
