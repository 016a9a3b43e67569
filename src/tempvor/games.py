"""Two-player Voronoi games on temporal graphs.

Two variants share one payoff machinery:

* ``"vor"`` -- a player wins the vertices she reaches strictly earlier than
  the opponent: v goes to player i when td(p_i, v) < td(p_j, v).
* ``"rvor"`` -- a player wins the vertices that reach her strictly earlier:
  v goes to player i when td(v, p_i) < td(v, p_j).

The variants differ only in which distances they compare, so every query
reads the matrix's flat row-major array (with its int sentinel for ``INF``)
through one view, ``_lines(data, n, kind, ps)``: row p holds the times a
player at p is compared on -- row p of the matrix for ``"vor"``, the strided
slice ``flat[p::n]`` (column p) for ``"rvor"``. Only the sweep's batch kernel
(below) builds the view another way. Every payoff count of a query comes
from one helper, ``_column(view, fixed)``: the payoff of a player at each
vertex against an opponent at ``fixed``. It reads the packed view of
``_packed(d, kind)``, which packs each view row into one int with a spare
guard bit atop every field, so one subtraction, one AND and one
``bit_count`` compare two whole rows (SWAR: Lamport, CACM 18(8), 1975;
Fisher & Dietz, LCPC 1998). One-byte storage whose sentinel leaves the top
bit spare is packed as it stands, one ``int.from_bytes`` per row; otherwise
each time is replaced by its rank among the matrix's distinct times.

Every query reads the matrix's payoff table for its game. The tables live in
the matrix's private ``_tables`` dict, empty until the first game query, and
each is made on the first query of its kind. A table holds the packed view
and, for each column computed so far, one entry made once: the column, its
maximisers and its maximum (``_table_entry``). Columns are stored as 16-bit
unsigned ints (a payoff is at most n <= 2048), so all n columns take 2n^2
bytes rather than n^2 int objects. A matrix therefore packs each view once
and computes each column at most once, however many queries read it, and a
query computes only the columns it reads.

A sweep asks only ``first_nash``, of many small instances over one edge set,
where the interpreter's per-query work costs more than the bit operations. The
private ``_decide_run`` takes such a run as the edge set's edges and each
instance's chain of layer masks, and sends each of the distance module's
chunks that pays to ``_first_nash_batch``, which decides it in one SWAR pass
over the chunk's flat array, widened to fields with a spare guard bit, and
gives the witness ``first_nash`` gives, with no graph, matrix object or
payoff table. Other instances get one graph and one matrix at a time.

Ties (including infinity vs infinity) claim nothing, so every profile splits
the vertex set into U_1, U_2 and an unclaimed rest. Both players may pick the
same vertex; then both payoffs are 0. All searches are exhaustive: instances
are desk-scale by design.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

from . import reach
from .graph import Edge, TemporalGraph, _check_vertex, _Layers
from .reach import DistanceMatrix

GameKind = Literal["vor", "rvor"]
Profile = tuple[int, int]

GAME_KINDS: tuple[GameKind, ...] = ("vor", "rvor")


def _check_kind(kind: str) -> None:
    if kind not in GAME_KINDS:
        raise ValueError(f"unknown game kind {kind!r}; expected one of {GAME_KINDS}")


def _check_inputs(g: TemporalGraph, d: DistanceMatrix, kind: str) -> None:
    _check_kind(kind)
    if d.n != g.n:
        raise ValueError("distance matrix does not match graph size")


def _check_profile(g: TemporalGraph, d: DistanceMatrix, kind: str, s: Profile) -> Profile:
    """``_check_inputs``, then both vertices of the profile ``s``, returned as (p1, p2)."""
    _check_inputs(g, d, kind)
    p1, p2 = s
    _check_vertex(g.n, p1, "p1")
    _check_vertex(g.n, p2, "p2")
    return p1, p2


def _lines(data, n: int, kind: str, ps) -> list:
    """Rows ``ps`` (from 0) of the game's view of the row-major n x n ``data``:
    row p holds the times a player at vertex p+1 is compared on, row p of the
    matrix for ``"vor"`` and column p, the strided slice ``data[p::n]``, for
    ``"rvor"``."""
    if kind == "vor":
        return [data[p * n : (p + 1) * n] for p in ps]
    return [data[p::n] for p in ps]


@dataclass(frozen=True)
class PayoffResult:
    """The partition induced by a profile: won sets and the unclaimed rest."""

    u1_set: frozenset[int]
    u2_set: frozenset[int]
    unclaimed: frozenset[int]

    @property
    def u1(self) -> int:
        return len(self.u1_set)

    @property
    def u2(self) -> int:
        return len(self.u2_set)

    def to_json_obj(self) -> dict:
        return {
            "u1_set": sorted(self.u1_set),
            "u2_set": sorted(self.u2_set),
            "unclaimed": sorted(self.unclaimed),
            "u1": self.u1,
            "u2": self.u2,
        }


def payoff(g: TemporalGraph, d: DistanceMatrix, kind: GameKind, s: Profile) -> PayoffResult:
    """Evaluate a strategy profile.

    With k players a vertex would go to the player strictly closer (in the
    chosen direction) than every rival; only the k=2 case is exposed here.
    """
    p1, p2 = _check_profile(g, d, kind, s)
    # The sentinel sorts above every finite time and ties with itself, as INF does.
    mine, theirs = _lines(d._flat, g.n, kind, (p1 - 1, p2 - 1))
    pairs = tuple(zip(g.vertices, mine, theirs))
    u1 = frozenset(v for v, a, b in pairs if a < b)
    u2 = frozenset(v for v, a, b in pairs if b < a)
    return PayoffResult(u1, u2, frozenset(g.vertices) - u1 - u2)


def _packed(d: DistanceMatrix, kind: str) -> tuple[list[int], int, int]:
    """The game view packed for ``_column``: (one int per row, G, U).

    Payoffs depend only on the order of the times, and the sentinel sorts
    last as ``INF`` does. Field v of row p's int holds entry v of view row p
    (see ``_lines``), as a time or as its rank among the matrix's distinct
    times, in ``size`` little-endian bytes, the fewest that leave the top bit
    of every field spare above the largest value. G holds that guard bit in
    every field and U a 1 in every field.

    One-byte storage whose sentinel leaves the top bit spare (a one-byte
    ``reach._storage(2 * sentinel)``) already is that packing, so each row is
    one ``int.from_bytes`` of a slice of the array's bytes. Other one-byte
    storage with one-byte ranks turns into them by one ``bytes.translate``.
    Otherwise each row's times map through a dict to their rank fields.
    """
    n, flat = d.n, d._flat
    if reach._storage(2 * d._sentinel).itemsize == flat.itemsize == 1:
        size, lines = 1, _lines(flat.tobytes(), n, kind, range(n))
    else:
        times = sorted(set(flat))
        size = (len(times) - 1).bit_length() // 8 + 1
        if flat.itemsize == 1 and size == 1:
            ranks = bytearray(256)
            for r, t in enumerate(times):
                ranks[t] = r
            lines = _lines(flat.tobytes().translate(ranks), n, kind, range(n))
        else:
            field = dict(zip(times, [r.to_bytes(size, "little") for r in range(len(times))])).__getitem__
            lines = (b"".join(map(field, line)) for line in _lines(flat, n, kind, range(n)))
    ones = int.from_bytes((1).to_bytes(size, "little") * n, "little")
    packed = [int.from_bytes(line, "little") for line in lines]
    return packed, ones << (8 * size - 1), ones


def _column(view: tuple[list[int], int, int], fixed: int) -> list[int]:
    """Entry a-1 is the payoff of the player at a against the opponent at ``fixed``.

    With P_b the packed row of b and g the guard bit's value in one field,
    each field of ``top = (P_b | G) - U`` holds g + r_b - 1, so the same
    field of ``top - P_a`` holds g + r_b - 1 - r_a, which lies in [0, 2g): it
    keeps its guard bit iff r_a < r_b, and no borrow crosses into the next
    field. Ties, ``INF`` against ``INF`` included, claim nothing. Symmetric in
    roles: player 1 at a vs player 2 at b scores the same as player 2 at a vs
    player 1 at b.
    """
    packed, guard, ones = view
    top = (packed[fixed - 1] | guard) - ones
    return [((top - mine) & guard).bit_count() for mine in packed]


def _replies(values: Sequence[int], choices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The maximisers among the ascending ``choices``, ``values[i]`` being the
    payoff of ``choices[i]``, and the maximum.

    Every tie-break in this module takes the first reply: the smallest maximiser."""
    best = max(values)
    return tuple([c for c, value in zip(choices, values) if value == best]), best


def _table_entry(d: DistanceMatrix, kind: str, fixed: int) -> tuple[array, tuple[int, ...], int]:
    """(column, replies, best) against an opponent at ``fixed`` from ``d``'s
    table of the game: the payoff column, its maximisers (``_replies`` over
    every vertex) and its maximum. The table and the entry are made on first
    read."""
    table = d._tables.get(kind)
    if table is None:
        table = d._tables[kind] = (_packed(d, kind), [None] * d.n)
    view, entries = table
    entry = entries[fixed - 1]
    if entry is None:
        col = array("H", _column(view, fixed))
        entry = entries[fixed - 1] = (col, *_replies(col, range(1, d.n + 1)))
    return entry


def best_responses(
    g: TemporalGraph, d: DistanceMatrix, kind: GameKind, role: int, fixed: int
) -> tuple[tuple[int, ...], int]:
    """All payoff-maximising replies for ``role`` against an opponent at ``fixed``.

    Returns (responses in ascending vertex order, best payoff). The reply set
    does not depend on which role responds.
    """
    _check_inputs(g, d, kind)
    if role not in (1, 2):
        raise ValueError(f"role must be 1 or 2, got {role}")
    _check_vertex(g.n, fixed, "fixed vertex")
    return _table_entry(d, kind, fixed)[1:]


@dataclass(frozen=True)
class Deviation:
    player: int
    vertex: int
    old_payoff: int
    new_payoff: int

    def to_json_obj(self) -> dict:
        return {
            "player": self.player,
            "vertex": self.vertex,
            "old_payoff": self.old_payoff,
            "new_payoff": self.new_payoff,
        }


@dataclass(frozen=True)
class NashCheck:
    ok: bool
    deviation: Deviation | None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_obj(self) -> dict:
        return {
            "is_nash": self.ok,
            "deviation": self.deviation.to_json_obj() if self.deviation else None,
        }


def is_nash(g: TemporalGraph, d: DistanceMatrix, kind: GameKind, s: Profile) -> NashCheck:
    """Check both players play best responses; certify failure with a deviation."""
    p1, p2 = _check_profile(g, d, kind, s)
    for player, mine, theirs in ((1, p1, p2), (2, p2, p1)):
        col, replies, best = _table_entry(d, kind, theirs)
        if best > col[mine - 1]:
            return NashCheck(False, Deviation(player, replies[0], col[mine - 1], best))
    return NashCheck(True, None)


def _equilibria(g: TemporalGraph, d: DistanceMatrix, kind: str) -> Iterator[Profile]:
    """Nash profiles in lexicographic order: p2 is a best reply to p1 and p1 to p2.

    Walks p1 in order and p2 through p1's ascending replies, so only the
    columns of the p1 reached and of their replies are computed.
    """
    _check_inputs(g, d, kind)
    for p1 in g.vertices:
        for p2 in _table_entry(d, kind, p1)[1]:
            col, _, best = _table_entry(d, kind, p2)
            if col[p1 - 1] == best:
                yield (p1, p2)


def enumerate_nash(g: TemporalGraph, d: DistanceMatrix, kind: GameKind) -> list[Profile]:
    """All Nash equilibria over the n^2 profiles, in lexicographic order."""
    return list(_equilibria(g, d, kind))


def first_nash(g: TemporalGraph, d: DistanceMatrix, kind: GameKind) -> Profile | None:
    """Lexicographically first equilibrium, or None; short-circuits the scan."""
    return next(_equilibria(g, d, kind), None)


def _decide_run(
    n: int, edges: tuple[Edge, ...], chains: Iterable[tuple[int, ...]], kind: str
) -> Iterator[tuple[bool, Profile | None]]:
    """(connected, witness) for each of ``chains``, the layer masks over
    ``edges`` of instances on 1..n in ascending tau, in order: whether all of
    the instance's distances are finite, and its ``first_nash``. An unknown
    ``kind`` raises ValueError before any distance is computed.

    A lone chunk of ``reach._all_pairs_run`` gets one graph and one matrix
    from ``all_pairs``. Other chunks get their distances from
    ``reach._all_pairs_batch``; with n <= 20 and more than n instances,
    ``_first_nash_batch`` (peak: about 4n^2 fields per instance) decides
    them, and otherwise each instance gets a graph for ``first_nash``.

    Time, batch over ``all_pairs``, per instance of runs of paths, cycles,
    trees, grids and cliques: 0.10-0.54 at tau = 2 and n = 9..250, 0.49-0.93
    at tau = 100..200, 0.31-0.50 in two-byte lanes (tau = 240..256). For a
    lone instance: 0.6-1.0 on random graphs with n = 150..220 and tau <= 8,
    1.8-2.2 on random graphs with n <= 9 and trees with n <= 5, 25-53 on
    sparse random graphs with n = 60..90 and tau = 100..150, and both
    batches over both kernels 1.5-1.7 on trees with n <= 7. Time, batch over
    ``first_nash``, on the longest run of each base class x monotonicity,
    both games, worst case per n: 0.64-0.98 for chunks of n instances and
    0.40-0.74 for chunks of 2n at n = 2..22, 0.12-0.15 in two-byte fields
    (paths, tau = 120..126), but 1.8-7.9 for a lone instance and 1.05-4.0
    for chunks of two at n = 3..16, where the chunk's fixed costs are not
    paid back. Past n = 20 the gain goes: 0.88-0.98 at n = 24 and 2.3-2.5
    at n = 32 on growing cycles; 1.2-4.5 on paths, cycles and cliques at
    n = 64..120.
    """
    _check_kind(kind)
    layers, size, batched = _Layers(edges), n * n, n <= 20
    for chunk in reach._all_pairs_run(n, edges, chains):
        count = len(chunk)
        if count == 1:
            g = layers.graph(n, chunk[0])
            d = reach.all_pairs(g)
            yield d.all_finite(), first_nash(g, d, kind)
            continue
        flat, sentinel = reach._all_pairs_batch(n, edges, chunk)
        batch = _first_nash_batch(flat, sentinel, n, count, kind) if batched and count > n else None
        for k, chain in enumerate(chunk):
            times = flat[k * size : (k + 1) * size]
            if batch is None:
                d = DistanceMatrix._of(n, times, sentinel)
                witness = first_nash(layers.graph(n, chain), d, kind)
            else:
                witness = batch[k]
            yield sentinel not in times, witness


def _first_nash_batch(
    flat: array, sentinel: int, n: int, count: int, kind: str
) -> list[Profile | None]:
    """``first_nash`` of each of the ``count`` n x n matrices that lie in a
    row in ``flat`` with ``sentinel`` for ``INF``, from one SWAR pass over
    all of them; payoffs, at most n, must fit in 7 bits.

    View row p becomes one int whose field k*n + v-1 holds entry v of row p
    of matrix k's view, in ``reach._storage(2 * sentinel)``'s ``size``
    bytes, the fewest that leave a guard bit spare above the sentinel. As in
    ``_column``, one subtraction and one AND against the row of b leave the
    guard bit in each field a player at a wins against b. Shifted to the
    field's low bit and multiplied by ``window``, a 1 in each of n fields,
    the won fields of each instance sum into its last field, and a strided
    slice of their low bytes gives ``pays[a]``: one byte per instance, its
    lane. A lane-wise max and a guard-bit compare against it give
    ``replies[b][a]``, whose lane k keeps its guard bit iff a+1 is a best
    reply to b+1 in matrix k. The walk visits the profiles in lexicographic
    order and gives each lane still ``undecided`` the first profile of
    mutual best replies, as ``_equilibria`` does, adding its two vertices
    into the lane's byte of ``first`` and ``second``; it computes the
    replies to b on first need.
    """
    view = flat
    if kind == "vor":
        # rvor's view of the transposed matrices is vor's view
        view = array(flat.typecode, [0]) * len(flat)
        for p in range(n):
            for v in range(n):
                view[v * n + p :: n * n] = flat[p * n + v :: n * n]
    view = array(reach._storage(2 * sentinel).typecode, view)  # a copy, in the fields' width
    if sys.byteorder == "big":  # fields are read as little-endian ints
        view.byteswap()
    packed = [int.from_bytes(view[p::n], "little") for p in range(n)]
    width, size, top_bit = count * n, view.itemsize, 8 * view.itemsize - 1
    del view
    ones = int.from_bytes((1).to_bytes(size, "little") * width, "little")
    guard = ones << top_bit
    window = int.from_bytes((1).to_bytes(size, "little") * n, "little")
    lane_guard = int.from_bytes(b"\x80" * count, "little")
    replies: list[list[int] | None] = [None] * n

    def replies_to(b: int) -> list[int]:
        if replies[b] is None:
            top = (packed[b] | guard) - ones
            pays = []
            for mine in packed:
                won = ((top - mine) & guard) >> top_bit
                sums = (won * window).to_bytes((width + n) * size, "little")
                pays.append(int.from_bytes(sums[(n - 1) * size :: n * size], "little"))
            best = pays[0]
            for pay in pays[1:]:
                keep = ((best | lane_guard) - pay) & lane_guard  # lanes where best >= pay
                best = pay ^ ((best ^ pay) & (keep - (keep >> 7)))
            replies[b] = [((pay | lane_guard) - best) & lane_guard for pay in pays]
        return replies[b]

    undecided, first, second = lane_guard, 0, 0
    for p1 in range(n):
        for p2, hit in enumerate(replies_to(p1)):
            hit &= undecided
            if hit:
                hit &= replies_to(p2)[p1]
                undecided ^= hit
                hit >>= 7
                first += hit * (p1 + 1)
                second += hit * (p2 + 1)
        if not undecided:
            break
    return [
        (a, b) if a else None
        for a, b in zip(first.to_bytes(count, "little"), second.to_bytes(count, "little"))
    ]


@dataclass(frozen=True)
class BestResponseGraph:
    """Directed relation: each vertex points to the opponent's best replies.

    By role symmetry the reply set attached to v answers both "player 1 sits
    at v" and "player 2 sits at v". Every vertex has at least one outgoing
    arc since the strategy space is never empty.
    """

    responses: dict[int, tuple[int, ...]]
    values: dict[int, int]

    def to_json_obj(self) -> dict:
        return {
            "responses": {str(v): list(ws) for v, ws in sorted(self.responses.items())},
            "values": {str(v): val for v, val in sorted(self.values.items())},
        }


def best_response_graph(g: TemporalGraph, d: DistanceMatrix, kind: GameKind) -> BestResponseGraph:
    _check_inputs(g, d, kind)
    responses: dict[int, tuple[int, ...]] = {}
    values: dict[int, int] = {}
    for fixed in g.vertices:
        _, responses[fixed], values[fixed] = _table_entry(d, kind, fixed)
    return BestResponseGraph(responses, values)


@dataclass(frozen=True)
class DynamicsStep:
    mover: int
    profile: Profile
    payoffs: tuple[int, int]

    def to_json_obj(self) -> dict:
        return {"mover": self.mover, "profile": list(self.profile), "payoffs": list(self.payoffs)}


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of alternating best-response dynamics.

    ``status`` is "nash" (neither player can improve), "cycle" (a profile
    repeated with the same player to move; ``cycle`` holds the repeating
    block of moves) or "max_steps" (another improving move was due after
    ``max_steps`` moves).
    """

    status: str
    profile: Profile
    trace: tuple[DynamicsStep, ...]
    cycle: tuple[DynamicsStep, ...]

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "profile": list(self.profile),
            "trace": [s.to_json_obj() for s in self.trace],
            "cycle": [s.to_json_obj() for s in self.cycle],
        }


def best_response_dynamics(
    g: TemporalGraph,
    d: DistanceMatrix,
    kind: GameKind,
    start: Profile,
    max_steps: int = 10_000,
    allowed: frozenset[int] | None = None,
) -> DynamicsResult:
    """Alternate best-response moves from ``start``; player 1 moves first.

    A player moves only when that strictly improves her payoff, to the
    smallest vertex among the maximisers; two consecutive non-moves mean the
    profile is a Nash equilibrium (an equilibrium start yields an empty
    trace). Cycle detection keys on (profile, player to move): the same
    profile with a different mover is a different dynamics state, so the run
    ends within 2n^2 turns. ``allowed`` restricts both players' choices to a
    vertex subset. ``max_steps`` bounds the number of moves and must be
    positive; a turn without a move costs nothing. Only the payoff columns of
    the opponents met are read.
    """
    p1, p2 = _check_profile(g, d, kind, start)
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    if allowed is None:
        choices = tuple(g.vertices)
    else:
        for v in allowed:
            _check_vertex(g.n, v, "allowed vertex")
        choices = tuple(sorted(allowed))
        if p1 not in allowed or p2 not in allowed:
            raise ValueError("start profile must lie inside the allowed set")

    def column(fixed: int) -> array:
        return _table_entry(d, kind, fixed)[0]

    profile = [p1, p2]
    mover = 1
    trace: list[DynamicsStep] = []
    seen: dict[tuple[int, int, int], int] = {}
    passes = 0
    while passes < 2:
        state = (profile[0], profile[1], mover)
        if state in seen:
            block = tuple(trace[seen[state] :])
            return DynamicsResult("cycle", (profile[0], profile[1]), tuple(trace), block)
        seen[state] = len(trace)
        col = column(profile[2 - mover])
        replies, best = _replies([col[c - 1] for c in choices], choices)
        if best > col[profile[mover - 1] - 1]:
            if len(trace) == max_steps:
                return DynamicsResult("max_steps", (profile[0], profile[1]), tuple(trace), ())
            profile[mover - 1] = replies[0]
            a, b = profile
            trace.append(DynamicsStep(mover, (a, b), (column(b)[a - 1], column(a)[b - 1])))
            passes = 0
        else:
            passes += 1
        mover = 3 - mover
    return DynamicsResult("nash", (profile[0], profile[1]), tuple(trace), ())
