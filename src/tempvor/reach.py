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
The sweep writes into one Python list per source; ``all_pairs`` marks
unreached vertices with the int sentinel tau+n+1 and copies the lists once
into the ``DistanceMatrix``'s flat array of unsigned ints, which the game
module packs straight from its bytes. ``earliest_arrivals`` returns ``INF``
itself.

Sweeps decide many small instances over one edge set, and there the
interpreter's per-call and per-bit work costs more than the bit operations.
``_all_pairs_run`` cuts such a run, the edge set's sorted edges and each
instance's chain of layer masks (bit j holds edge j), into chunks by bytes,
and the private ``_all_pairs_batch`` runs the same sweep once per chunk,
lifetimes mixed, with no graph object: each vertex holds one int with a
lane per (instance, source), as wide as an item of the chunk's flat array;
an edge that only some instances hold at a step is masked by their lanes;
and arrival times are lane counters that become the columns of the chunk's
matrices, in a row in that array. It spends a lane where ``all_pairs``
spends a bit, which pays for two or more instances.

The independent check, ``oracle_arrivals``, searches the time-expanded graph
instead: one state graph per instance on integer ids for (vertex, time)
pairs, searched by plain BFS from each source, with no bitsets.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import starmap
from struct import Struct

from .graph import Edge, TemporalGraph, _check_vertex

INF = math.inf


# Unsigned array typecodes with their exclusive upper bounds, smallest first.
_STORAGE = [(code, 1 << 8 * array(code).itemsize) for code in "BHILQ"]


def _storage(sentinel: int) -> array:
    """An empty array of the smallest unsigned typecode that holds ``sentinel``."""
    for code, bound in _STORAGE:
        if sentinel < bound:
            return array(code)
    raise ValueError(f"distance {sentinel - 1} does not fit in 64 bits")


class DistanceMatrix:
    """All-pairs foremost arrival times; ``td(u, v)`` = ``rows[u-1][v-1]``.

    The times live in one row-major ``array`` of unsigned ints, td(u, v) at
    index (u-1)*n + v-1, in the smallest typecode that holds the sentinel: an
    int above every finite time that stands for ``INF``. ``all_pairs`` uses
    tau+n+1, one past the sweep's horizon; ``DistanceMatrix(rows)`` takes
    square rows of non-negative ints and ``INF``, raises ``ValueError`` on
    any other entry and uses one past the largest finite time. ``rows``, the
    tuples of ints and ``INF``, is derived on request, and equality, hashing
    and ``repr`` read it, so two matrices with equal rows are equal whatever
    their sentinels. Treat a matrix as immutable.

    The private ``_tables`` holds the game module's payoff tables for this
    matrix, one per game kind; it stays empty until the first game query.
    """

    __slots__ = ("n", "_flat", "_sentinel", "_tables")

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"distance rows do not form a {n} x {n} matrix")
        finite = [x for row in rows for x in row if x != INF]
        for x in finite:
            if type(x) is not int or x < 0:  # exact type: bool is rejected too
                raise ValueError(f"distance {x!r} is neither a non-negative int nor INF")
        sentinel = max(finite, default=-1) + 1
        flat = _storage(sentinel)
        for row in rows:
            flat.fromlist([sentinel if x == INF else x for x in row])
        self._set(n, flat, sentinel)

    def _set(self, n: int, flat: array, sentinel: int) -> None:
        self.n, self._flat, self._sentinel, self._tables = n, flat, sentinel, {}

    @classmethod
    def _of(cls, n: int, flat: array, sentinel: int) -> DistanceMatrix:
        """The matrix stored in ``flat``, taken as is."""
        d = cls.__new__(cls)
        d._set(n, flat, sentinel)
        return d

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(self.row(u) for u in range(1, self.n + 1))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rows={self.rows!r})"

    def td(self, u: int, v: int) -> float:
        n = self.n
        if not (1 <= u <= n and 1 <= v <= n):
            raise IndexError(f"pair ({u}, {v}) out of range 1..{n}")
        x = self._flat[(u - 1) * n + v - 1]
        return INF if x == self._sentinel else x

    def row(self, u: int) -> tuple[float, ...]:
        n, sentinel = self.n, self._sentinel
        if not 1 <= u <= n:
            raise IndexError(f"vertex {u} out of range 1..{n}")
        return tuple([INF if x == sentinel else x for x in self._flat[(u - 1) * n : u * n]])

    def all_finite(self) -> bool:
        return self._sentinel not in self._flat

    def max_finite(self) -> int:
        """Largest finite entry; 0 for the empty matrix."""
        return max(set(self._flat) - {self._sentinel}, default=0)

    def to_json_obj(self) -> list[list]:
        # Each entry refers to the one object of its distinct time, as the
        # sweep's rows do, rather than to a fresh int read from the array.
        names = {x: x for x in set(self._flat)}
        names[self._sentinel] = "inf"
        name, flat, n = names.__getitem__, self._flat, self.n
        return [list(map(name, flat[u * n : u * n + n])) for u in range(n)]


def _horizon(g: TemporalGraph) -> int:
    # Past tau the layer sequence is constant, so each further round of
    # propagation settles, for each source, at least one new vertex or nothing
    # at all; tau + n steps therefore suffice to reach the fixpoint.
    return g.tau + g.n


def _sweep(g: TemporalGraph, sources: Sequence[int], unreached: float) -> list[list[float]]:
    """Arrival times from each of ``sources``, one list per source, in order;
    ``unreached`` marks the vertices a source never reaches.

    reached[v] has bit i set once sources[i] has reached v. At step t each
    edge of layer t whose endpoints hold different sets offers each endpoint
    the other's pre-step set; the gains of the whole layer are applied after
    it, so a step-t arrival never spreads within step t (one edge per step,
    strictly increasing labels). Every newly set bit records arrival time t.
    Endpoints that differ give at least one of them a new bit, so a step
    with offers always gains. Past tau the last layer repeats, so the sweep
    stops at the first step >= tau without offers, hard-bounded at tau + n.
    """
    arrival = [[unreached] * g.n for _ in sources]
    reached = [0] * (g.n + 1)
    for i, s in enumerate(sources):
        reached[s] |= 1 << i
        arrival[i][s - 1] = 0
    layers, tau = g.layers, g.tau
    for t in range(1, _horizon(g) + 1):
        gains = []
        for u, v in layers[min(t, tau) - 1]:
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
        if t >= tau and not gains:
            break
    return arrival


def earliest_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Foremost arrival time from ``source`` to every vertex.

    The multi-source sweep run from one source: at step t a vertex w becomes
    reachable at time t when some edge {x, w} is active at t and x arrived
    strictly before t. Graphs are checked when constructed, so only a source
    that is not an int in 1..n raises ``ValueError``.
    """
    _check_vertex(g.n, source, "source")
    return tuple(_sweep(g, (source,), INF)[0])


def all_pairs(g: TemporalGraph) -> DistanceMatrix:
    """All-pairs temporal distances from one multi-source sweep.

    Temporal reachability is not transitive, so there is no closure shortcut;
    instead every vertex is a source of the same sweep, and row u holds the
    arrival times of the journeys that start at u. The sweep fills one list
    per source with the sentinel tau+n+1 for unreached vertices, and the
    lists are copied once into the matrix's flat array. Never raises on a
    constructed graph.
    """
    sentinel = _horizon(g) + 1
    flat = _storage(sentinel)
    rows = _sweep(g, g.vertices, sentinel)
    # Struct.pack converts a row in C about twice as fast as array.fromlist,
    # which parses every item on its own. Appending row by row keeps one
    # converted row alive at a time.
    for row in starmap(Struct(f"{g.n}{flat.typecode}").pack, rows):
        flat.frombytes(row)
    return DistanceMatrix._of(g.n, flat, sentinel)


# Bytes of lane ints one batch sweep may hold; it alone sizes a chunk.
# Traced peaks of full chunks, with Python's int and tuple overheads, are
# 5.0-7.5 MiB at n = 64..250 and 8.7-10.1 MiB for runs of 59,048 instances
# at n = 5 and 11 (11.9-15.6 MiB before the gains were counted); one
# ``all_pairs`` of a graph with n = 1,024 peaks at 10 MiB.
_BATCH_BYTES = 8 << 20


def _all_pairs_run(
    n: int, edges: tuple[Edge, ...], chains: Iterable[tuple[int, ...]]
) -> Iterator[list[tuple[int, ...]]]:
    """Consecutive chunks of ``chains``, the layer masks over ``edges`` of
    instances on 1..n in ascending tau, whose lane ints fit in
    ``_BATCH_BYTES``, lifetimes mixed: an instance adds n lanes of
    ``_storage(tau + n + 1).itemsize`` bytes, tau being the chunk's largest,
    to each of the n reached sets, the n counters, the n matrix columns, at
    most tau*|E| edge masks and the 2|E| gains of one step."""
    chunk: list[tuple[int, ...]] = []
    tau = 0
    for chain in chains:
        if len(chain) != tau:
            tau = len(chain)
            lane_bytes = _storage(tau + n + 1).itemsize * n * (3 * n + (tau + 2) * len(edges))
        if chunk and (len(chunk) + 1) * lane_bytes > _BATCH_BYTES:
            yield chunk
            chunk = []
        chunk.append(chain)
    if chunk:
        yield chunk


def _all_pairs_batch(
    n: int, edges: tuple[Edge, ...], chains: Sequence[tuple[int, ...]]
) -> tuple[array, int]:
    """(flat, sentinel): the ``all_pairs`` matrices of the instances on 1..n
    whose layer masks over ``edges`` are ``chains``, in a row in one array
    from one layer sweep; tau + n + 1 is the sentinel for their largest tau,
    and ``flat`` has the typecode ``all_pairs`` gives that sentinel.

    Lane (k, s), as wide as an item of ``flat`` and at item k*n + s-1,
    belongs to source s of instance k, which holds the edges of its mask
    min(t, tau_k) at step t: bit j of the mask holds ``edges[j]``.
    reached[v] holds the lanes that have reached v, as a 1 in each lane's
    low bit. An edge every instance holds is swept as ``_sweep`` sweeps it;
    any other edge offers only the lanes of the instances that hold it
    (``mask``). Arrival times build up lazily as lane counters: when
    reached[w] changes at step t, every lane still outside it has been
    unreached through steps last[w]+1..t, so cnt[w] += (t - last[w]) *
    (lanes ^ old) makes a lane reached at step t read t. Unreached lanes end
    at the sentinel, which fits in a lane, so lanes never carry into each
    other. Counter w is column w of every instance: its lanes fill a strided
    slice of one array that holds the flat matrices of all the instances in
    a row.
    """
    count, tau, width = len(chains), max(map(len, chains)), len(edges)
    sentinel = tau + n + 1
    typecode = _storage(sentinel).typecode
    size = array(typecode).itemsize
    lane = b"\1".ljust(size, b"\0")  # a 1 in a lane's low bit
    lanes = int.from_bytes(lane * (count * n), "little")
    instance0 = int.from_bytes(lane * n, "little")  # the lanes of instance 0
    # Row k of a step's held matrix spreads the bits of instance k's mask
    # over |E| bytes; column j, a strided slice, marks the instances that
    # hold edges[j]. Steps whose masks are equal share one layer.
    rows: dict[int, bytes] = {}
    layer_by_held: dict[tuple[int, ...], tuple[list[Edge], list[tuple[int, int, int]]]] = {}
    layers = []
    for t in range(tau):
        held = tuple([chain[t] if t < len(chain) else chain[-1] for chain in chains])
        layer = layer_by_held.get(held)
        if layer is None:
            plain, masked = layer = layer_by_held[held] = [], []
            for m in set(held).difference(rows):
                rows[m] = bytes([m >> j & 1 for j in range(width)])
            matrix = b"".join([rows[m] for m in held])
            for j, (u, v) in enumerate(edges):
                column = matrix[j::width]
                if 0 not in column:
                    plain.append((u, v))
                elif 1 in column:
                    spread = bytearray(count * n * size)
                    spread[:: n * size] = column
                    masked.append((u, v, int.from_bytes(spread, "little") * instance0))
        layers.append(layer)
    source1 = int.from_bytes(lane.ljust(n * size, b"\0") * count, "little")  # lanes (k, 1)
    reached = [0] + [source1 << (8 * size * s) for s in range(n)]
    cnt, last = [0] * (n + 1), [0] * (n + 1)
    for t in range(1, tau + n + 1):
        plain, masked = layers[min(t, tau) - 1]
        gains = []
        for u, v in plain:
            ru, rv = reached[u], reached[v]
            if ru != rv:
                gains.append((v, ru))
                gains.append((u, rv))
        for u, v, mask in masked:
            ru, rv = reached[u] & mask, reached[v] & mask
            if ru != rv:
                gains.append((v, ru))
                gains.append((u, rv))
        for w, new in gains:
            old = reached[w]
            merged = old | new
            if merged != old:
                if last[w] != t:
                    cnt[w] += (t - last[w]) * (lanes ^ old)
                    last[w] = t
                reached[w] = merged
        if t >= tau and not gains:
            break
    flat = array(typecode, [0]) * (count * n * n)  # sized in place: no buffer to copy
    for w in range(1, n + 1):
        cnt[w] += (sentinel - last[w]) * (lanes ^ reached[w])
        flat[w - 1 :: n] = array(typecode, cnt[w].to_bytes(count * n * size, "little"))
    if sys.byteorder == "big":  # the lanes were read as little-endian items
        flat.byteswap()
    return flat, sentinel


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
    _check_vertex(g.n, source, "source")
    return _expanded_search(g, (source,))[0]
