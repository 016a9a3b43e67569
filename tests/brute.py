"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here is deliberately written against the definitions rather than
reusing library algorithms: temporal distances come from literal enumeration
of temporal walks or from a layer sweep run one source at a time, equilibria
from a double loop over profiles and deviations, payoff columns from one
comparison per entry, and class recognition from exhaustive search over
partitions, subsets and vertex bijections, and sweep records from a dict
encoded with sorted keys. Apart from the sweep, the columns and the records,
only usable on small instances.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations, product
from operator import lt

from tempvor import INF, StaticGraph, TemporalGraph, to_json_obj


def enumerate_walk_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Foremost arrivals by enumerating temporal walks edge sequence by edge
    sequence (strictly increasing time labels, each edge present in its
    layer). A foremost walk never needs to revisit a vertex -- cutting the
    loop keeps the labels strictly increasing -- so the enumeration ranges
    over simple walks only. From vertex v at time t each edge vw is crossed
    at the first step after t at which it is present: a later crossing
    reaches w later with the same visited set, so every walk it continues
    into is also a continuation of the earliest one.
    """
    horizon = g.tau + g.n
    # first[t][v][w]: the first step after t at which edge vw is present
    first = [{v: {} for v in g.vertices} for _ in range(horizon + 1)]
    for t in range(horizon - 1, -1, -1):
        first[t] = {v: dict(ws) for v, ws in first[t + 1].items()}
        for a, b in g.layer(t + 1):
            first[t][a][b] = first[t][b][a] = t + 1
    best: dict[int, float] = {v: INF for v in g.vertices}
    best[source] = 0

    def extend(v: int, t: int, visited: frozenset[int]) -> None:
        for w, t2 in first[t][v].items():
            if w in visited:
                continue
            if t2 < best[w]:
                best[w] = t2
            extend(w, t2, visited | {w})

    extend(source, 0, frozenset({source}))
    return tuple(best[v] for v in g.vertices)


def sweep_arrivals(g: TemporalGraph, source: int) -> tuple[float, ...]:
    """Foremost arrivals by a single-source layer sweep, one source at a time.

    At step t a vertex w becomes reachable at time t when some edge {x, w} is
    active at t and x arrived strictly before t (one edge per step, strictly
    increasing labels). Arrivals found at step t never feed other step-t
    updates: a new arrival carries the value t, which fails the strict
    a[x] < t test. Iterates past tau on the repeated last layer until no
    entry improves, hard-bounded at tau + n steps. The reference for
    ``tempvor.reach``, which applies the same rule to all sources in one pass.
    """
    if not 1 <= source <= g.n:
        raise ValueError(f"source {source} out of range 1..{g.n}")
    a = [INF] * g.n
    a[source - 1] = 0
    for t in range(1, g.tau + g.n + 1):
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


def walk_distances(g: TemporalGraph) -> list[tuple[float, ...]]:
    return [enumerate_walk_arrivals(g, u) for u in g.vertices]


def brute_payoff_sets(
    td: list[tuple[float, ...]], kind: str, p1: int, p2: int, n: int
) -> tuple[set[int], set[int]]:
    u1, u2 = set(), set()
    for v in range(1, n + 1):
        if kind == "vor":
            a, b = td[p1 - 1][v - 1], td[p2 - 1][v - 1]
        else:
            a, b = td[v - 1][p1 - 1], td[v - 1][p2 - 1]
        if a < b:
            u1.add(v)
        elif b < a:
            u2.add(v)
    return u1, u2


def oracle_column(rows, fixed: int) -> list[int]:
    """Entry a-1 is the payoff of a player at a against an opponent at ``fixed``
    in a game view whose row p holds the times a player at p is compared on:
    the count of entries where row a is strictly below row ``fixed``, compared
    one pair at a time. The reference for the packed ``tempvor.games._column``.
    """
    theirs = rows[fixed - 1]
    return [sum(map(lt, mine, theirs)) for mine in rows]


def brute_nash_profiles(td: list[tuple[float, ...]], kind: str, n: int) -> list[tuple[int, int]]:
    """Double loop over profiles and unilateral deviations."""
    def score(mine: int, theirs: int) -> int:
        return len(brute_payoff_sets(td, kind, mine, theirs, n)[0])

    out = []
    for p1 in range(1, n + 1):
        for p2 in range(1, n + 1):
            u1, u2 = score(p1, p2), score(p2, p1)
            if any(score(q, p2) > u1 for q in range(1, n + 1)):
                continue
            if any(score(q, p1) > u2 for q in range(1, n + 1)):
                continue
            out.append((p1, p2))
    return out


def brute_dynamics(
    td: list[tuple[float, ...]],
    kind: str,
    n: int,
    start: tuple[int, int],
    allowed: list[int],
    max_steps: int,
) -> tuple:
    """Alternating best-response dynamics by the definition.

    Player 1 moves first. On a turn the mover scores every vertex of
    ``allowed`` in her own role against the opponent's vertex and moves to the
    smallest maximiser, but only when it beats her current payoff. Two turns
    in a row without a move end in "nash"; a repeated (profile, mover) state
    ends in "cycle" with the moves made since its first visit; a move due
    after ``max_steps`` moves ends in "max_steps". Returns (status, profile,
    trace, cycle), each step as (mover, profile, payoffs).
    """
    def payoffs(p1: int, p2: int) -> tuple[int, int]:
        u1, u2 = brute_payoff_sets(td, kind, p1, p2, n)
        return len(u1), len(u2)

    def with_move(profile: tuple[int, int], mover: int, v: int) -> tuple[int, int]:
        return (v, profile[1]) if mover == 1 else (profile[0], v)

    profile, mover, idle = start, 1, 0
    trace: list[tuple] = []
    states: list[tuple] = []  # every (profile, mover) visited, in order
    moved_in: list[bool] = []  # whether the mover moved on that visit
    while idle < 2:
        if (profile, mover) in states:
            first = states.index((profile, mover))
            return "cycle", profile, trace, trace[sum(moved_in[:first]) :]
        score = {v: payoffs(*with_move(profile, mover, v))[mover - 1] for v in allowed}
        best = max(score.values())
        moved = best > payoffs(*profile)[mover - 1]
        if moved and len(trace) == max_steps:
            return "max_steps", profile, trace, []
        states.append((profile, mover))
        moved_in.append(moved)
        if moved:
            profile = with_move(profile, mover, min(v for v in allowed if score[v] == best))
            trace.append((mover, profile, payoffs(*profile)))
        idle = 0 if moved else idle + 1
        mover = 3 - mover
    return "nash", profile, trace, []


# --- exhaustive family enumeration -------------------------------------------


def oracle_layer_chains(edge_set, tau: int, monotonicity: str, budget: int | None):
    """Every minimal-lifetime layer sequence over ``edge_set``, by filtering all
    tau-tuples of edge subsets with the definition: the union is the edge set,
    consecutive layers only gain (growing) or only lose (shrinking) edges, the
    summed symmetric differences fit the budget, and E_tau != E_{tau-1}. The
    survivors are sorted by their per-step toggles, (size, sorted edges) each,
    where the first toggle is the edge set minus E_1.
    """
    universe = frozenset(edge_set)
    subsets = [
        frozenset(c) for r in range(len(universe) + 1) for c in combinations(sorted(universe), r)
    ]
    out = []
    for chain in product(subsets, repeat=tau):
        steps = list(zip(chain, chain[1:]))
        if frozenset().union(*chain) != universe:
            continue
        if monotonicity == "growing" and not all(a <= b for a, b in steps):
            continue
        if monotonicity == "shrinking" and not all(a >= b for a, b in steps):
            continue
        if budget is not None and sum(len(a ^ b) for a, b in steps) > budget:
            continue
        if tau >= 2 and chain[-1] == chain[-2]:
            continue
        out.append(chain)

    def toggle_keys(chain):
        toggles = [universe ^ chain[0]] + [a ^ b for a, b in zip(chain, chain[1:])]
        return [(len(t), sorted(t)) for t in toggles]

    return sorted(out, key=toggle_keys)


def _dihedral_maps(n: int) -> list[dict[int, int]]:
    maps = []
    for k in range(n):
        maps.append({v: (v - 1 + k) % n + 1 for v in range(1, n + 1)})
        maps.append({v: (k - (v - 1)) % n + 1 for v in range(1, n + 1)})
    return maps


def _cycle_orbit(g: TemporalGraph) -> set[tuple]:
    """The layer tuples of all 2n rotations and reflections of g."""
    edges = set().union(*g.layers)
    orbit = set()
    for perm in _dihedral_maps(g.n):
        image = {(u, v): tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        orbit.add(tuple(tuple(sorted([image[e] for e in layer])) for layer in g.layers))
    return orbit


def _cycle_canonical_key(g: TemporalGraph) -> tuple:
    """The smallest layer tuple among all 2n rotations and reflections of g."""
    return min(_cycle_orbit(g))


# --- exhaustive class recognition -------------------------------------------


def oracle_connected(s: StaticGraph) -> bool:
    """Union-find over the edge list: one component (the empty graph counts)."""
    root = {v: v for v in s.vertices}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in s.edges:
        root[find(u)] = find(v)
    return len({find(v) for v in s.vertices}) <= 1


def oracle_split(s: StaticGraph) -> bool:
    verts = list(s.vertices)
    for r in range(len(verts) + 1):
        for clique in combinations(verts, r):
            cs = set(clique)
            if any(not s.has_edge(u, v) for u, v in combinations(clique, 2)):
                continue
            rest = [v for v in verts if v not in cs]
            if all(not s.has_edge(u, v) for u, v in combinations(rest, 2)):
                return True
    return False


def oracle_threshold(s: StaticGraph) -> bool:
    """Threshold = no induced path on 4 vertices, 4-cycle, or pair of disjoint edges."""
    for quad in combinations(s.vertices, 4):
        edges = [(u, v) for u, v in combinations(quad, 2) if s.has_edge(u, v)]
        m = len(edges)
        if m == 2 and len({x for e in edges for x in e}) == 4:
            return False  # 2K2
        deg = {v: sum(v in e for e in edges) for v in quad}
        counts = sorted(deg.values())
        if m == 4 and counts == [2, 2, 2, 2]:
            return False  # C4
        if m == 3 and counts == [1, 1, 2, 2]:
            return False  # P4
    return True


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield partition + [[first]]


def oracle_kpartite_k(s: StaticGraph) -> int | None:
    """k of the unique complete multipartite partition, or None."""
    found = set()
    for partition in _set_partitions(list(s.vertices)):
        ok = True
        for part in partition:
            if any(s.has_edge(u, v) for u, v in combinations(part, 2)):
                ok = False
                break
        if ok:
            for pa, pb in combinations(partition, 2):
                if any(not s.has_edge(u, v) for u in pa for v in pb):
                    ok = False
                    break
        if ok:
            found.add(len(partition))
    assert len(found) <= 1, f"non-unique multipartite structure: {found}"
    return found.pop() if found else None


def oracle_grid_dims(s: StaticGraph) -> tuple[int, int] | None:
    """Grid recognition by trying every vertex bijection (n <= 8)."""
    n = s.n
    for a in range(2, n + 1):
        if n % a or a * a > n:
            continue
        b = n // a
        target = set()
        for r in range(a):
            for c in range(b):
                v = r * b + c + 1
                if c + 1 < b:
                    target.add((v, v + 1))
                if r + 1 < a:
                    target.add((v, v + b))
        if len(target) != s.m:
            continue
        for perm in permutations(range(1, n + 1)):
            mapped = {
                (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
                for u, v in target
            }
            if mapped == set(s.edges):
                return (a, b)
    return None


# --- constructive oracles ----------------------------------------------------


def oracle_tree_profile(s: StaticGraph) -> tuple[int, int]:
    """The profile tree_ne must return on the tree s, by one search per branch.

    For every vertex v and neighbor w, a depth-first search from w that never
    enters v measures w's component in s - v. Player 1 is the smallest v whose
    largest component is smallest; player 2 the smallest neighbor of player 1
    in a largest component.
    """
    if s.n == 1:
        return (1, 1)

    def branch_sizes(v: int) -> dict[int, int]:
        sizes = {}
        for start in s.neighbors(v):
            seen = {v, start}
            stack = [start]
            while stack:
                for y in s.neighbors(stack.pop()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            sizes[start] = len(seen) - 1
        return sizes

    loads = {v: max(branch_sizes(v).values()) for v in s.vertices}
    p1 = min(s.vertices, key=loads.__getitem__)
    return p1, min(w for w, size in branch_sizes(p1).items() if size == loads[p1])


def mask_run(graphs):
    """(n, edges, chains) of instances on one vertex set, as the sweep's
    kernels take them: the sorted union of their edges, and each instance's
    layers as masks over it, bit i holding edges[i]."""
    edges = tuple(sorted({e for g in graphs for layer in g.layers for e in layer}))
    bit = {e: 1 << i for i, e in enumerate(edges)}
    chains = [tuple(sum(bit[e] for e in layer) for layer in g.layers) for g in graphs]
    return graphs[0].n, edges, chains


def lifetime_run(n: int, sentinels) -> list[TemporalGraph]:
    """Five instances on the path 1..n per sentinel in ``sentinels``, all over
    the path's edges: empty steps, then part of the path, then all of it.
    Each instance's ``all_pairs`` sentinel, tau + n + 1, is its entry of
    ``sentinels``, and their edge set is one sweep run."""
    path = tuple((v, v + 1) for v in range(1, n))
    firsts = ((), path[:1], path[:-1], path[1:], path[-1:])
    return [
        TemporalGraph(n, ((),) * (s - n - 3) + (first, path))
        for s in sentinels
        for first in firsts
    ]


def oracle_record_line(o, kind: str) -> str:
    """The record line of one sweep instance (an ``InstanceOutcome``) without
    its newline: the record as a dict, encoded by ``json.dumps`` with sorted
    keys and compact separators. The reference for ``write_outcome``, which
    frames the same bytes from pieces."""
    record = {
        "graph": to_json_obj(o.graph),
        "n": o.graph.n,
        "tau": o.graph.tau,
        "report": o.report.to_json_obj(),
        "game": kind,
        "has_nash": o.has_nash,
        "witness": list(o.witness) if o.witness else None,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
