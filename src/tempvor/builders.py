"""Constructive equilibrium builders and distance-preserving completions.

The builders return a concrete equilibrium profile for graph classes where
one is guaranteed; every builder re-checks its output with
:func:`tempvor.games.is_nash` before returning, so a violated guarantee
surfaces as an error instead of a wrong answer. The completions extend a
temporally connected instance with late layers that cannot change any
original distance (a walk finishing after the saturation time is never
foremost).
"""

from __future__ import annotations

from .classify import _distances, is_threshold, is_tree, kpartite_parts, split_partition
from .games import DynamicsResult, Profile, best_response_dynamics, enumerate_nash, is_nash
from .graph import StaticGraph, TemporalGraph, _clique_edges, is_monotone, underlying
from .instances import build_instance
from .reach import DistanceMatrix, all_pairs


def _verified(g: TemporalGraph, d: DistanceMatrix, kind: str, profile: Profile) -> Profile:
    check = is_nash(g, d, kind, profile)
    if not check:
        raise RuntimeError(
            f"constructed profile {profile} is not an equilibrium for {kind}: "
            f"{check.deviation}"
        )
    return profile


def _require_shrinking(g: TemporalGraph) -> None:
    if not is_monotone(g)[1]:
        raise ValueError("graph is not monotonically shrinking")


def tree_ne(g: TemporalGraph) -> Profile:
    """Equilibrium for the reverse game on a temporally connected tree.

    Player 1 takes a centroid (smallest id on ties); player 2 takes the
    smallest-id neighbor lying in a maximum-size component of the tree minus
    the centroid. Every vertex outside that component reaches player 1
    strictly first, everything inside reaches player 2 first, which pins the
    payoffs at u1 >= n/2 >= u2.
    """
    s = underlying(g)
    if not is_tree(s):
        raise ValueError("underlying graph is not a tree")
    d = all_pairs(g)
    if not d.all_finite():
        raise ValueError("graph is not temporally connected")
    if g.n == 1:
        return _verified(g, d, "rvor", (1, 1))
    # subtree sizes below vertex 1, children before parents (reverse BFS order)
    depth = _distances(s, 1)
    size = dict.fromkeys(depth, 1)
    for v in reversed(depth):
        for w in s.neighbors(v):
            if depth[w] < depth[v]:
                size[w] += size[v]

    def branch(v: int, w: int) -> int:
        """Size of the component of neighbor w in the tree minus v."""
        return size[w] if depth[w] > depth[v] else g.n - size[v]

    p1 = min(g.vertices, key=lambda v: max(branch(v, w) for w in s.neighbors(v)))
    load = max(branch(p1, w) for w in s.neighbors(p1))
    p2 = min(w for w in s.neighbors(p1) if branch(p1, w) == load)
    return _verified(g, d, "rvor", (p1, p2))


def kpartite_shrink_ne(g: TemporalGraph) -> Profile:
    """Equilibrium for the reverse game on a shrinking complete k-partite graph.

    Shrinking forces layer 1 to equal the underlying graph, so the whole game
    is decided by first-layer adjacency: picking the smallest vertices of the
    first two parts (parts ordered by smallest member) leaves neither player
    a profitable move.
    """
    parts = kpartite_parts(underlying(g))
    if parts is None or len(parts) < 2:
        raise ValueError("underlying graph is not complete k-partite with k >= 2")
    _require_shrinking(g)
    d = all_pairs(g)
    return _verified(g, d, "rvor", (min(parts[0]), min(parts[1])))


def threshold_shrink_ne(g: TemporalGraph) -> Profile:
    """Equilibrium for the reverse game on a shrinking threshold graph.

    If the first layer is edgeless any profile works and (1,2) is returned;
    otherwise player 1 takes the smallest vertex dominating all non-isolated
    first-layer vertices (one always exists in a threshold graph) and player 2
    the smallest other vertex.
    """
    s = underlying(g)
    if not is_threshold(s):
        raise ValueError("underlying graph is not a threshold graph")
    _require_shrinking(g)
    d = all_pairs(g)
    if g.n == 1:
        return _verified(g, d, "rvor", (1, 1))
    non_isolated = {v for v in s.vertices if s.degree(v) > 0}
    if not non_isolated:
        return _verified(g, d, "rvor", (1, 2))
    dominating = [
        v for v in sorted(non_isolated) if non_isolated - {v} <= s.neighbors(v)
    ]
    if not dominating:
        raise RuntimeError("threshold graph without a dominating vertex")
    p1 = dominating[0]
    p2 = 1 if p1 != 1 else 2
    return _verified(g, d, "rvor", (p1, p2))


def split_potential(s: StaticGraph, independent: frozenset[int], v: int, w: int) -> int:
    """|N_I(v)| + |N_I(w)| - |N_I(v) & N_I(w)| for clique vertices v, w.

    Strictly increases along every strictly improving best-response move of
    the classic game when both players sit in the clique of a shrinking split
    graph, which bounds the length of any improving sequence.
    """
    ni_v = s.neighbors(v) & independent
    ni_w = s.neighbors(w) & independent
    return len(ni_v) + len(ni_w) - len(ni_v & ni_w)


def split_clique_partition(s: StaticGraph) -> tuple[frozenset[int], frozenset[int]]:
    """Split partition with every fully-clique-adjacent vertex moved into the clique.

    Moving such a vertex keeps the clique a clique; after one move no other
    independent vertex can dominate the enlarged clique (independent vertices
    are pairwise non-adjacent), so at most the smallest one moves.
    """
    part = split_partition(s)
    if part is None:
        raise ValueError("underlying graph is not a split graph")
    clique, indep = part
    v = min((v for v in indep if clique <= s.neighbors(v)), default=None)
    if v is None:
        return clique, indep
    return clique | {v}, indep - {v}


def clique_dynamics(
    g: TemporalGraph, d: DistanceMatrix, clique: frozenset[int], start: Profile
) -> DynamicsResult:
    """Classic-game best-response dynamics from ``start`` with both players in ``clique``."""
    return best_response_dynamics(g, d, "vor", start, max_steps=8 * (g.n + 2) ** 2, allowed=clique)


def vor_split_shrink_ne(g: TemporalGraph) -> Profile:
    """Equilibrium for the classic game on a shrinking split graph.

    Runs best-response dynamics restricted to the clique, starting from the
    two smallest clique vertices. Each improving move raises the potential of
    :func:`split_potential`, so the dynamics terminate; deviations into the
    independent set pay exactly 1 and never beat a clique position.
    """
    _require_shrinking(g)
    clique, _ = split_clique_partition(underlying(g))
    if len(clique) < 2:
        raise ValueError("split graph has no two clique vertices to place players on")
    d = all_pairs(g)
    result = clique_dynamics(g, d, clique, tuple(sorted(clique)[:2]))
    if result.status != "nash":
        raise RuntimeError(f"clique-restricted dynamics did not settle: {result.status}")
    return _verified(g, d, "vor", result.profile)


def changed_distance(d: DistanceMatrix, d_new: DistanceMatrix) -> tuple[int, int] | None:
    """The first pair (u, v) of d's vertices whose distance differs in ``d_new``, or None."""
    pairs = ((u, v) for u in range(1, d.n + 1) for v in range(1, d.n + 1))
    return next(((u, v) for u, v in pairs if d_new.td(u, v) != d.td(u, v)), None)


def _complete(
    g: TemporalGraph, d: DistanceMatrix, n: int, final: tuple
) -> tuple[TemporalGraph, DistanceMatrix]:
    """g on ``n`` vertices, its last layer repeated up to the saturation time, then
    ``final``; returns it with its distances and raises if one of g's changed."""
    layers = g.layers + (g.layers[-1],) * (max(d.max_finite(), g.tau) - g.tau) + (final,)
    completed = TemporalGraph(n, layers)
    d_new = all_pairs(completed)
    if changed := changed_distance(d, d_new):
        u, v = changed
        raise RuntimeError(f"completion changed td({u},{v}): {d.td(u, v)} -> {d_new.td(u, v)}")
    return completed, d_new


def clique_completion(g: TemporalGraph) -> TemporalGraph:
    """Append a complete layer after all distances have settled.

    With d the largest finite temporal distance of g, every pair already
    meets by time d, so a layer added at max(d, tau) + 1 cannot create a
    faster walk between original vertices: the underlying graph becomes a
    clique, monotone growth is preserved, and the distance matrix is
    unchanged (re-checked before returning). Requires temporal connectivity.
    """
    d = all_pairs(g)
    if not d.all_finite():
        raise ValueError("graph is not temporally connected")
    return _complete(g, d, g.n, _clique_edges(g.vertices))[0]


def kpartite_completion(g: TemporalGraph, k: int) -> TemporalGraph:
    """Complete k-partite extension of the bundled growing 2x3 grid.

    Adds the two missing cross edges of the grid's bipartition plus k - 2 new
    universal vertices, all in a single layer placed after the saturation
    time, so distances among the six original vertices are untouched and the
    reverse game still has no equilibrium (both facts re-checked). Only the
    ``grow_grid_6`` instance is supported; the added edges are specific to
    its bipartition.
    """
    base = build_instance("grow_grid_6").graph
    if g != base:
        raise ValueError("only the bundled grow_grid_6 instance can be completed")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n_new = 4 + k
    final = set(g.layers[-1])
    final.update([(1, 6), (3, 4)])
    for j in range(7, n_new + 1):
        final.update((i, j) for i in range(1, j))
    completed, d_new = _complete(g, all_pairs(g), n_new, tuple(sorted(final)))
    if enumerate_nash(completed, d_new, "rvor"):
        raise RuntimeError("k-partite completion unexpectedly gained an equilibrium")
    return completed
