"""Seeded random instance generators for property suites and reproduction runs."""

from __future__ import annotations

import random
from typing import Sequence

from .graph import (
    Edge,
    TemporalGraph,
    _clique_edges,
    _kpartite_edges,
    _pruefer_edges,
    _split_edges,
    _threshold_edges,
)
from .reach import all_pairs

# Vertex-count and lifetime bounds of the tree and shrinking generators.
_N_MAX, _TAU_MAX = 12, 4


def random_tree_edges(rng: random.Random, n: int) -> list[Edge]:
    """Uniform labeled tree on 1..n (Pruefer decode), edges in decode order."""
    return _pruefer_edges([rng.randint(1, n) for _ in range(n - 2)], n)


def _growing_layers(rng: random.Random, edges: Sequence[Edge], tau: int) -> list[tuple[Edge, ...]]:
    birth = {e: rng.randint(1, tau) for e in edges}
    return [tuple(e for e in edges if birth[e] <= t) for t in range(1, tau + 1)]


def _shrinking_layers(rng: random.Random, edges: Sequence[Edge], tau: int) -> list[tuple[Edge, ...]]:
    # an edge dying at time t is absent from layer t onward; tau + 1 = survives
    death = {}
    for e in edges:
        death[e] = rng.randint(2, tau) if tau >= 2 and rng.random() < 0.4 else tau + 1
    return [tuple(e for e in edges if death[e] > t) for t in range(1, tau + 1)]


def random_temporal_tree(rng: random.Random, n_max: int = _N_MAX) -> TemporalGraph:
    """Temporally connected temporal tree, n <= n_max, tau <= _TAU_MAX.

    Tries a few arbitrary layer patterns (accepted only when all pairs stay
    reachable) and falls back to a growing pattern, which is always
    temporally connected on a connected underlying graph.
    """
    n = rng.randint(1, n_max)
    tau = rng.randint(1, _TAU_MAX)
    edges = random_tree_edges(rng, n)
    for _ in range(8):
        if not edges or rng.random() < 0.5:
            break
        layers = []
        for _t in range(tau):
            layers.append(tuple(e for e in edges if rng.random() < 0.7))
        anchor = rng.randrange(tau)
        layers[anchor] = tuple(edges)
        g = TemporalGraph(n, tuple(layers))
        if all_pairs(g).all_finite():
            return g
    return TemporalGraph(n, tuple(_growing_layers(rng, edges, tau)))


def random_shrinking_kpartite(rng: random.Random, k: int) -> TemporalGraph:
    """Monotonically shrinking complete k-partite instance."""
    n = rng.randint(max(k, 2), _N_MAX)
    part = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(k + 1, n + 1)]
    edges = _kpartite_edges(part)
    tau = rng.randint(1, _TAU_MAX)
    return TemporalGraph(n, tuple(_shrinking_layers(rng, edges, tau)))


def random_shrinking_threshold(rng: random.Random) -> TemporalGraph:
    """Monotonically shrinking threshold instance built from a creation sequence."""
    n = rng.randint(1, _N_MAX)
    edges = _threshold_edges([rng.random() < 0.5 for _ in range(2, n + 1)])
    tau = rng.randint(1, _TAU_MAX)
    return TemporalGraph(n, tuple(_shrinking_layers(rng, edges, tau)))


def random_shrinking_split(rng: random.Random) -> TemporalGraph:
    """Monotonically shrinking split instance with a clique of size >= 2."""
    c = rng.randint(2, _N_MAX - 2)
    i = rng.randint(0, _N_MAX - c)
    n = c + i
    picks = [[u for u in range(1, c + 1) if rng.random() < 0.45] for _ in range(i)]
    edges = _split_edges(c, picks)
    tau = rng.randint(1, _TAU_MAX)
    return TemporalGraph(n, tuple(_shrinking_layers(rng, edges, tau)))


def random_temporal_graph(
    rng: random.Random, n_max: int = 9, tau_max: int = 3
) -> TemporalGraph:
    """Arbitrary temporal graph with independently sampled layers."""
    n = rng.randint(1, n_max)
    tau = rng.randint(1, tau_max)
    p = rng.uniform(0.05, 0.5)
    pairs = _clique_edges(range(1, n + 1))
    return TemporalGraph(n, tuple(tuple(e for e in pairs if rng.random() < p) for _ in range(tau)))
