"""Class recognition against exhaustive brute-force definition checks."""

from __future__ import annotations

import random
from itertools import combinations
from math import isqrt

from brute import (
    oracle_connected,
    oracle_grid_dims,
    oracle_kpartite_k,
    oracle_split,
    oracle_threshold,
)

from tempvor import (
    StaticGraph,
    TemporalGraph,
    all_pairs,
    build_class_report,
    build_instance,
    classify_underlying,
    underlying,
)
from tempvor.classify import grid_dims, is_threshold, kpartite_parts, split_partition
from tempvor.randgen import random_tree_edges


def _static(n, edges):
    return StaticGraph(n, frozenset(edges))


def _all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield _static(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_complete_graph_carries_all_expected_labels():
    k4 = _static(4, combinations(range(1, 5), 2))
    labels = classify_underlying(k4)
    assert {"clique", "complete_k_partite(4)", "split", "threshold"} <= labels
    assert not any(label.startswith("grid") for label in labels)


def test_grid_labels_on_bundled_instances():
    assert "grid(2,3)" in classify_underlying(underlying(build_instance("grow_grid_6").graph))
    assert "grid(3,4)" in classify_underlying(underlying(build_instance("vor_grow_grid_12").graph))


def test_split_instance_is_split_but_not_threshold():
    s = underlying(build_instance("shrink_split_8").graph)
    labels = classify_underlying(s)
    assert "split" in labels
    assert "threshold" not in labels
    assert not is_threshold(s)
    assert oracle_split(s) and not oracle_threshold(s)


def test_one_by_m_shape_is_a_path_not_a_grid():
    path4 = _static(4, [(1, 2), (2, 3), (3, 4)])
    labels = classify_underlying(path4)
    assert "path" in labels
    assert not any(label.startswith("grid") for label in labels)


def test_two_by_two_grid_is_also_a_cycle():
    c4 = _static(4, [(1, 2), (2, 4), (3, 4), (1, 3)])
    labels = classify_underlying(c4)
    assert "cycle" in labels and "grid(2,2)" in labels


def test_kpartite_parts_on_known_shapes():
    k23 = _static(5, [(a, b) for a in (1, 2) for b in (3, 4, 5)])
    assert kpartite_parts(k23) == (frozenset({1, 2}), frozenset({3, 4, 5}))
    edgeless = _static(3, [])
    assert kpartite_parts(edgeless) == (frozenset({1, 2, 3}),)
    # a 3-path is complete bipartite; a 4-path is not multipartite at all
    path3 = _static(3, [(1, 2), (2, 3)])
    assert kpartite_parts(path3) == (frozenset({1, 3}), frozenset({2}))
    path4 = _static(4, [(1, 2), (2, 3), (3, 4)])
    assert kpartite_parts(path4) is None


def test_exhaustive_agreement_up_to_five_vertices():
    for n in range(1, 6):
        for s in _all_graphs(n):
            labels = classify_underlying(s)
            assert ("split" in labels) == oracle_split(s), s.edges
            assert ("threshold" in labels) == oracle_threshold(s), s.edges
            k = oracle_kpartite_k(s)
            got = {int(l.split("(")[1][:-1]) for l in labels if l.startswith("complete_k_partite")}
            assert got == ({k} if k is not None else set()), s.edges
            dims = grid_dims(s)
            assert dims == oracle_grid_dims(s), s.edges
            if "threshold" in labels:
                assert "split" in labels
            degrees = [sum(v in e for e in s.edges) for v in s.vertices]
            tree = s.m == n - 1 and oracle_connected(s)
            assert ("tree" in labels) == tree, s.edges
            assert ("path" in labels) == (tree and max(degrees) <= 2), s.edges
            cycle = n >= 3 and oracle_connected(s) and set(degrees) == {2}
            assert ("cycle" in labels) == cycle, s.edges


def test_randomized_agreement_on_larger_graphs():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(6, 8)
        p = rng.uniform(0.2, 0.8)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
        s = _static(n, edges)
        labels = classify_underlying(s)
        assert ("split" in labels) == oracle_split(s), s.edges
        assert ("threshold" in labels) == oracle_threshold(s), s.edges
        if n <= 7:
            k = oracle_kpartite_k(s)
            got = {int(l.split("(")[1][:-1]) for l in labels if l.startswith("complete_k_partite")}
            assert got == ({k} if k is not None else set()), s.edges


def test_grid_recognition_on_relabeled_grids():
    rng = random.Random(99)
    for a, b in [(2, 3), (2, 4), (3, 3), (3, 4), (2, 2)]:
        n = a * b
        base = []
        for r in range(a):
            for c in range(b):
                v = r * b + c + 1
                if c + 1 < b:
                    base.append((v, v + 1))
                if r + 1 < a:
                    base.append((v, v + b))
        for _ in range(10):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            edges = [(perm[u - 1], perm[v - 1]) for u, v in base]
            assert grid_dims(_static(n, edges)) == (a, b)
        # one edge off is never a grid
        broken = base[:-1]
        assert grid_dims(_static(n, broken)) is None


def _constructions(rng, n):
    """(class, edges, answer) for one member of each class on n vertices, with
    the answer the classifier must give: True, k parts, or grid dims."""
    yield "threshold", [(u, v) for v in range(2, n + 1) if rng.random() < 0.5 for u in range(1, v)], True
    c = rng.randint(1, n - 1)
    cross = [(u, v) for v in range(c + 1, n + 1) for u in range(1, c + 1) if rng.random() < 0.5]
    yield "split", list(combinations(range(1, c + 1), 2)) + cross, True
    part = {v: rng.randrange(rng.randint(2, n)) for v in range(1, n + 1)}
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if part[u] != part[v]]
    yield "kpartite", edges, len(set(part.values()))
    for a in range(2, isqrt(n) + 1):
        if n % a == 0:
            b = n // a
            edges = [(v, v + 1) for v in range(1, n + 1) if v % b]
            yield "grid", edges + [(v, v + b) for v in range(1, n - b + 1)], (a, b)


def _answers(s):
    labels = classify_underlying(s)
    k = [int(l.split("(")[1][:-1]) for l in labels if l.startswith("complete_k_partite")]
    return {
        "threshold": "threshold" in labels,
        "split": "split" in labels,
        "kpartite": k[0] if k else None,
        "grid": grid_dims(s),
    }


def test_relabelled_constructions_and_one_edge_perturbations():
    """Positives at n = 6..12, where random graphs almost never land in these
    classes, plus each with one edge toggled, against the oracles (k-partite
    and grid only up to n = 8, where their searches stay tractable)."""
    rng = random.Random(2024)
    for n in range(6, 13):
        for _ in range(3):
            for name, edges, answer in _constructions(rng, n):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                base = {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges}
                s = _static(n, base)
                assert _answers(s)[name] == answer, (name, s.edges)
                flip = tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for t in (s, _static(n, base ^ {flip})):
                    got = _answers(t)
                    assert got["split"] == oracle_split(t), t.edges
                    assert got["threshold"] == oracle_threshold(t), t.edges
                    if n <= 8:
                        assert got["kpartite"] == oracle_kpartite_k(t), t.edges
                        assert got["grid"] == oracle_grid_dims(t), t.edges


def test_split_partition_is_verified():
    s = underlying(build_instance("shrink_split_8").graph)
    clique, indep = split_partition(s)
    assert clique == {4, 5, 6, 7} and indep == {1, 2, 3, 8}
    assert split_partition(_static(4, [(1, 2), (3, 4)])) is None  # 2K2


def test_growing_connected_implies_temporally_connected():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 9)
        tau = rng.randint(1, 4)
        edges = random_tree_edges(rng, n)
        extra = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.2]
        all_edges = sorted(set(edges) | set(extra))
        birth = {e: rng.randint(1, tau) for e in all_edges}
        layers = tuple(
            tuple(e for e in all_edges if birth[e] <= t) for t in range(1, tau + 1)
        )
        g = TemporalGraph(n, layers)
        # underlying contains a spanning tree, so it is connected
        assert all_pairs(g).all_finite()


def test_class_report_shape():
    g = build_instance("grow_cycle_7").graph
    rep = build_class_report(g, all_pairs(g))
    assert rep.temporally_connected and rep.monotone_growing and not rep.monotone_shrinking
    assert rep.underlying_class == ("cycle",)
    obj = rep.to_json_obj()
    assert obj["underlying_class"] == ["cycle"]
