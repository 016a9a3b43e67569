"""Two-player Voronoi games on temporal graphs.

Two variants share one payoff machinery:

* ``"vor"`` -- a player wins the vertices she reaches strictly earlier than
  the opponent: v goes to player i when td(p_i, v) < td(p_j, v).
* ``"rvor"`` -- a player wins the vertices that reach her strictly earlier:
  v goes to player i when td(v, p_i) < td(v, p_j).

The variants differ only in which distances they compare, so every query
reads the distance matrix through one view, ``_rows(d, kind)``: row p holds
the times a player at p is compared on -- row p of the matrix for ``"vor"``,
column p for ``"rvor"``. Nothing else looks at the game kind.

Ties (including infinity vs infinity) claim nothing, so every profile splits
the vertex set into U_1, U_2 and an unclaimed rest. Both players may pick the
same vertex; then both payoffs are 0. All searches are exhaustive: instances
are desk-scale by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterator, Literal

from .graph import TemporalGraph
from .reach import DistanceMatrix

GameKind = Literal["vor", "rvor"]
Profile = tuple[int, int]

GAME_KINDS: tuple[GameKind, ...] = ("vor", "rvor")


def _check_kind(kind: str) -> None:
    if kind not in GAME_KINDS:
        raise ValueError(f"unknown game kind {kind!r}; expected one of {GAME_KINDS}")


def _check_vertex(g: TemporalGraph, v: int, what: str = "vertex") -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"{what} {v} out of range 1..{g.n}")


def _check_inputs(g: TemporalGraph, d: DistanceMatrix, kind: str) -> None:
    _check_kind(kind)
    if d.n != g.n:
        raise ValueError("distance matrix does not match graph size")


def _rows(d: DistanceMatrix, kind: str) -> tuple[tuple[float, ...], ...]:
    """The game's view of ``d``: row p holds the times a player at p is compared on."""
    return d.rows if kind == "vor" else tuple(zip(*d.rows))


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
    _check_inputs(g, d, kind)
    p1, p2 = s
    _check_vertex(g, p1, "p1")
    _check_vertex(g, p2, "p2")
    rows = _rows(d, kind)
    pairs = tuple(zip(g.vertices, rows[p1 - 1], rows[p2 - 1]))
    u1 = frozenset(v for v, a, b in pairs if a < b)
    u2 = frozenset(v for v, a, b in pairs if b < a)
    return PayoffResult(u1, u2, frozenset(g.vertices) - u1 - u2)


def _wins(rows: tuple[tuple[float, ...], ...], mine: int, theirs: int) -> int:
    """Payoff of the player at ``mine`` against the opponent at ``theirs``.

    Symmetric in roles: player 1 at a vs player 2 at b scores the same as
    player 2 at a vs player 1 at b.
    """
    return sum(map(lt, rows[mine - 1], rows[theirs - 1]))


def _win_table(rows: tuple[tuple[float, ...], ...]) -> list[list[int]]:
    """W[a-1][b-1] = payoff of the player at a against the opponent at b."""
    n = len(rows)
    table = [[0] * n for _ in range(n)]
    for dist in zip(*rows):
        for a in range(n):
            da = dist[a]
            row = table[a]
            for b in range(n):
                if da < dist[b]:
                    row[b] += 1
    return table


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
    _check_vertex(g, fixed, "fixed vertex")
    rows = _rows(d, kind)
    col = [_wins(rows, cand, fixed) for cand in g.vertices]
    best = max(col)
    return tuple(v for v, val in zip(g.vertices, col) if val == best), best


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
    _check_inputs(g, d, kind)
    p1, p2 = s
    _check_vertex(g, p1, "p1")
    _check_vertex(g, p2, "p2")
    rows = _rows(d, kind)
    for player, mine, theirs in ((1, p1, p2), (2, p2, p1)):
        col = [_wins(rows, cand, theirs) for cand in g.vertices]
        current, best = col[mine - 1], max(col)
        if best > current:
            # the certificate is the smallest strictly better vertex
            return NashCheck(False, Deviation(player, col.index(best) + 1, current, best))
    return NashCheck(True, None)


def _equilibria(g: TemporalGraph, d: DistanceMatrix, kind: str) -> Iterator[Profile]:
    """Nash profiles in lexicographic order: both players earn their column maximum."""
    _check_inputs(g, d, kind)
    table = _win_table(_rows(d, kind))
    col_max = [max(col) for col in zip(*table)]
    for p1 in g.vertices:
        for p2 in g.vertices:
            if table[p1 - 1][p2 - 1] == col_max[p2 - 1] and table[p2 - 1][p1 - 1] == col_max[p1 - 1]:
                yield (p1, p2)


def enumerate_nash(g: TemporalGraph, d: DistanceMatrix, kind: GameKind) -> list[Profile]:
    """All Nash equilibria over the n^2 profiles, in lexicographic order."""
    return list(_equilibria(g, d, kind))


def first_nash(g: TemporalGraph, d: DistanceMatrix, kind: GameKind) -> Profile | None:
    """Lexicographically first equilibrium, or None; short-circuits the scan."""
    return next(_equilibria(g, d, kind), None)


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
    table = _win_table(_rows(d, kind))
    responses: dict[int, tuple[int, ...]] = {}
    values: dict[int, int] = {}
    for fixed, col in zip(g.vertices, zip(*table)):
        best = max(col)
        responses[fixed] = tuple(a for a, val in zip(g.vertices, col) if val == best)
        values[fixed] = best
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
    block of moves) or "max_steps".
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
    profile with a different mover is a different dynamics state. ``allowed``
    restricts both players' choices to a vertex subset. ``max_steps`` must be
    positive.
    """
    _check_inputs(g, d, kind)
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    p1, p2 = start
    _check_vertex(g, p1, "p1")
    _check_vertex(g, p2, "p2")
    if allowed is None:
        choices = tuple(g.vertices)
    else:
        choices = tuple(sorted(allowed))
        for v in choices:
            _check_vertex(g, v, "allowed vertex")
        if p1 not in allowed or p2 not in allowed:
            raise ValueError("start profile must lie inside the allowed set")

    table = _win_table(_rows(d, kind))
    profile = [p1, p2]
    mover = 1
    trace: list[DynamicsStep] = []
    seen: dict[tuple[int, int, int], int] = {}
    passes = 0
    for _ in range(max_steps):
        state = (profile[0], profile[1], mover)
        if state in seen:
            block = tuple(trace[seen[state] :])
            return DynamicsResult("cycle", (profile[0], profile[1]), tuple(trace), block)
        seen[state] = len(trace)
        opponent = profile[2 - mover]
        current = table[profile[mover - 1] - 1][opponent - 1]
        best = max(table[c - 1][opponent - 1] for c in choices)
        if best > current:
            choice = min(c for c in choices if table[c - 1][opponent - 1] == best)
            profile[mover - 1] = choice
            new = (profile[0], profile[1])
            payoffs = (table[new[0] - 1][new[1] - 1], table[new[1] - 1][new[0] - 1])
            trace.append(DynamicsStep(mover, new, payoffs))
            passes = 0
        else:
            passes += 1
            if passes >= 2:
                return DynamicsResult("nash", (profile[0], profile[1]), tuple(trace), ())
        mover = 3 - mover
    return DynamicsResult("max_steps", (profile[0], profile[1]), tuple(trace), ())
