"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here is deliberately written against the definitions rather than
reusing library algorithms: temporal distances come from literal enumeration
of temporal walks, equilibria from a double loop over profiles and
deviations, and class recognition from exhaustive search over partitions,
subsets and vertex bijections. Only usable on small instances.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from tempvor import INF, StaticGraph, TemporalGraph


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
