"""Byte pins of the generator streams that no output pin sees in order.

`reproduce` prints fixed detail strings and the sweep pins stop at small n,
so a change in the RNG draw order of a `randgen` generator, or in the order of
the underlying edge sets a family enumerates, could pass both. These tests
hash the canonical JSON of seeded draws from every public `randgen`
generator and of `_underlying_edge_sets(base, n)` for every base class at
n <= 7, order included, against digests recorded when the test was written.
The `all_pairs` matrices of seeded random graphs are pinned the same way, so
a distance kernel must reproduce every entry, not only the game verdicts.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from tempvor import TemporalGraph, all_pairs, randgen, to_canonical_json
from tempvor.explorer import BASE_CLASSES, _underlying_edge_sets

SEEDS = range(300)

GENERATORS = {
    "random_tree_edges": lambda rng: randgen.random_tree_edges(rng, rng.randint(1, 12)),
    "random_temporal_tree": randgen.random_temporal_tree,
    "random_shrinking_kpartite_2": lambda rng: randgen.random_shrinking_kpartite(rng, 2),
    "random_shrinking_kpartite_4": lambda rng: randgen.random_shrinking_kpartite(rng, 4),
    "random_shrinking_threshold": randgen.random_shrinking_threshold,
    "random_shrinking_split": randgen.random_shrinking_split,
    "random_temporal_graph": randgen.random_temporal_graph,
}

# sha256 over one canonical JSON line per seed
RANDGEN_SHA256 = {
    "random_shrinking_kpartite_2": "e50cb0cac781b09527d5c6adbc95a816103302fa98a886ad689a3be827b7a15c",
    "random_shrinking_kpartite_4": "4bd2b0ae6a810f6cf6f33bb4eb08682cb3d0c8e500442077a5c83e6fd499fa25",
    "random_shrinking_split": "fd6eb859216d7deac578b2e1ad2ec75388aaac71c981af24836c74e3b8d78404",
    "random_shrinking_threshold": "f6425ebc6bae236be8faa9e05afe99a78c1ac1226bfecae4b78077cb96893024",
    "random_temporal_graph": "7c494b850c3e6db35149167e96b5af97d4ca180af049aa277e74cfbed5e58575",
    "random_temporal_tree": "a5d3663548438e4d2133fc927871a0805efc274f94d0f7d02a46ba7858e77207",
    "random_tree_edges": "6765df74278c60d5c0089e9abd2de9e5fd19bdde9f031967ff3c943d310361e5",
}

# sha256 over json.dumps of the edge-set stream for n = 1..7
EDGE_SET_SHA256 = {
    "path": "79a0c744edfd94eb03860a43f41c4ba068be338acd46adf52baf36377e6ab8cd",
    "cycle": "03473d20b6597c4a1151f00072975892ad29206d682123d038552d60820e9cab",
    "tree": "7cb9bdde38963691ed4f233d926e793d85db33cb93f4502d634b1cb785d1de8b",
    "grid": "59183bbaa0758a453a5910d46bb8fbd8f00163776e014913f75b246ff1958a02",
    "clique": "306a0c4cd7f0108dbaffe2991b7b9197e55f4c7669e25f9459164b042ce8322d",
    "complete_k_partite": "4a47f90d540d6542f4704a9e5fb39e07910751dedb7fcbbff05ba041e82d210c",
    "split": "27ae63752b4622b5cd22b4e403cf2af5f24c172f753a7b7a333aac3f5e60c85d",
    "threshold": "b6bba6b3cfc8c04ba3c1bfcc0342fa5f6239f1299a5306cd80b3be89faffe114",
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_randgen_draws_are_pinned(name):
    h = hashlib.sha256()
    for seed in SEEDS:
        draw = GENERATORS[name](random.Random(seed))
        line = to_canonical_json(draw) if isinstance(draw, TemporalGraph) else json.dumps(draw)
        h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == RANDGEN_SHA256[name]


@pytest.mark.parametrize("base", BASE_CLASSES)
def test_underlying_edge_sets_are_pinned(base):
    h = hashlib.sha256()
    for n in range(1, 8):
        h.update(json.dumps(list(_underlying_edge_sets(base, n))).encode("utf-8") + b"\n")
    assert h.hexdigest() == EDGE_SET_SHA256[base]


def _long_sparse_graph(rng: random.Random) -> TemporalGraph:
    """About 100 vertices, a lifetime of n to 3n steps and at most n // 8
    random edges per layer, so distances reach past 100."""
    n = rng.randint(90, 110)
    layers = []
    for _ in range(rng.randint(n, 3 * n)):
        size = rng.randint(0, n // 8)
        layers.append(tuple({tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(size)}))
    return TemporalGraph(n, tuple(layers))


DISTANCE_GRAPHS = {
    "random_temporal_graph": lambda: (
        randgen.random_temporal_graph(random.Random(seed)) for seed in SEEDS
    ),
    "long_sparse": lambda: (
        _long_sparse_graph(random.Random(f"long_sparse:{seed}")) for seed in range(4)
    ),
}

# sha256 over json.dumps of all_pairs(g).to_json_obj(), one line per graph
DISTANCE_SHA256 = {
    "long_sparse": "a422b15946255906f186f8a5b6af3c94941fd47c5b955dfc49538893c3f3f1ae",
    "random_temporal_graph": "11bb04bdf17efcb314e69ee2e6d267abaa7c15c027c8e7c4d3c4dd5d4f0b00a1",
}


@pytest.mark.parametrize("name", sorted(DISTANCE_GRAPHS))
def test_all_pairs_matrices_are_pinned(name):
    h = hashlib.sha256()
    for g in DISTANCE_GRAPHS[name]():
        h.update(json.dumps(all_pairs(g).to_json_obj()).encode("utf-8") + b"\n")
    assert h.hexdigest() == DISTANCE_SHA256[name]
