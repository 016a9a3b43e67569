"""Constructive equilibrium builders and the completion transformations."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from brute import brute_nash_profiles, oracle_tree_profile, walk_distances

from tempvor import (
    DistanceMatrix,
    TemporalGraph,
    all_pairs,
    build_instance,
    classify_underlying,
    clique_completion,
    enumerate_nash,
    is_monotone,
    is_nash,
    kpartite_completion,
    kpartite_shrink_ne,
    payoff,
    split_potential,
    threshold_shrink_ne,
    tree_ne,
    underlying,
    vor_split_shrink_ne,
)
import tempvor.builders
from tempvor.builders import split_clique_partition
from tempvor.games import DynamicsResult, PayoffResult
from tempvor.explorer import FamilySpec, generate_family
from tempvor.randgen import (
    random_shrinking_kpartite,
    random_shrinking_split,
    random_shrinking_threshold,
    random_temporal_tree,
)

STAR = TemporalGraph(5, (((1, 2), (1, 3), (1, 4), (1, 5)),))
GROWING_C4 = TemporalGraph(4, (((1, 3),), ((1, 3), (1, 4), (2, 3), (2, 4))))
PATH3 = TemporalGraph(3, (((1, 2), (2, 3)),))


def test_tree_ne_on_star():
    assert tree_ne(STAR) == (1, 2)
    d = all_pairs(STAR)
    r = payoff(STAR, d, "rvor", (1, 2))
    assert (r.u1, r.u2) == (4, 1)
    assert (1, 2) in brute_nash_profiles(walk_distances(STAR), "rvor", 5)


def test_tree_ne_on_path_breaks_tie_to_smallest():
    assert tree_ne(PATH3) == (2, 1)


def test_tree_ne_raises_when_the_payoff_bound_fails(monkeypatch):
    no_win = PayoffResult(frozenset(), frozenset({1}), frozenset({2, 3, 4, 5}))
    monkeypatch.setattr(tempvor.builders, "payoff", lambda g, d, kind, profile: no_win)
    with pytest.raises(RuntimeError, match="payoff bound violated on n=5: u1=0, u2=1"):
        tree_ne(STAR)


def test_tree_ne_single_vertex():
    assert tree_ne(TemporalGraph(1, ((),))) == (1, 1)


def test_tree_ne_rejects_non_trees_and_disconnected():
    with pytest.raises(ValueError):
        tree_ne(build_instance("grow_cycle_7").graph)
    # a tree whose missing edge breaks temporal connectivity
    with pytest.raises(ValueError):
        tree_ne(build_instance("shrink_path_9").graph)


def test_tree_ne_randomized():
    rng = random.Random(8)
    for _ in range(60):
        g = random_temporal_tree(rng)
        profile = tree_ne(g)
        d = all_pairs(g)
        assert is_nash(g, d, "rvor", profile).ok
        r = payoff(g, d, "rvor", profile)
        if g.n >= 2:
            assert 2 * r.u1 >= g.n >= 2 * r.u2


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("tree", (1, 6), (1, 1)),
        FamilySpec("tree", (1, 6), (2, 2), "growing", max_edge_changes=1),
    ],
    ids=["tau1", "growing_tau2"],
)
def test_tree_ne_matches_oracle_on_every_small_tree(spec):
    # every labelled tree on n <= 6 vertices, as one layer and with one late edge
    for g in generate_family(spec):
        assert tree_ne(g) == oracle_tree_profile(underlying(g)), g


def test_tree_ne_matches_oracle_on_random_trees():
    rng = random.Random(40)
    for _ in range(200):
        g = random_temporal_tree(rng, n_max=40)
        assert tree_ne(g) == oracle_tree_profile(underlying(g)), g


def test_kpartite_builder_on_k23():
    g = TemporalGraph(5, (tuple((a, b) for a in (1, 2) for b in (3, 4, 5)),))
    assert kpartite_shrink_ne(g) == (1, 3)
    r = payoff(g, all_pairs(g), "rvor", (1, 3))
    assert (r.u1, r.u2) == (3, 2)


def test_kpartite_builder_on_k2():
    assert kpartite_shrink_ne(TemporalGraph(2, (((1, 2),),))) == (1, 2)


def test_kpartite_builder_on_shrinking_k33():
    full = tuple((a, b) for a in (1, 2, 3) for b in (4, 5, 6))
    g = TemporalGraph(6, (full, full[2:]))
    profile = kpartite_shrink_ne(g)
    assert is_nash(g, all_pairs(g), "rvor", profile).ok


def test_kpartite_builder_rejects_bad_inputs():
    path4 = TemporalGraph(4, (((1, 2), (2, 3), (3, 4)),))
    with pytest.raises(ValueError):
        kpartite_shrink_ne(path4)  # not complete multipartite
    edgeless = TemporalGraph(3, ((),))
    with pytest.raises(ValueError):
        kpartite_shrink_ne(edgeless)  # k = 1


@pytest.mark.parametrize(
    "build, growing",
    [
        (kpartite_shrink_ne, GROWING_C4),
        (threshold_shrink_ne, TemporalGraph(3, (((1, 2),), ((1, 2), (1, 3))))),
        (vor_split_shrink_ne, TemporalGraph(3, (((1, 2),), ((1, 2), (1, 3), (2, 3))))),
    ],
    ids=["kpartite", "threshold", "split"],
)
def test_shrinking_builders_reject_growing_instances(build, growing):
    with pytest.raises(ValueError, match="not monotonically shrinking"):
        build(growing)


def test_kpartite_builder_randomized():
    rng = random.Random(9)
    for i in range(60):
        g = random_shrinking_kpartite(rng, k=2 + i % 3)
        assert is_nash(g, all_pairs(g), "rvor", kpartite_shrink_ne(g)).ok


def test_threshold_builder_on_star_and_edgeless():
    assert threshold_shrink_ne(STAR) == (1, 2)
    assert threshold_shrink_ne(TemporalGraph(3, ((),))) == (1, 2)
    assert threshold_shrink_ne(TemporalGraph(1, ((),))) == (1, 1)


def test_threshold_builder_prefers_smallest_dominating_vertex():
    # 3 dominates the only non-isolated vertices {2, 3}; p2 falls back to 1
    g = TemporalGraph(3, (((2, 3),),))
    assert threshold_shrink_ne(g) == (2, 1)


def test_threshold_builder_rejects_non_threshold():
    with pytest.raises(ValueError):
        threshold_shrink_ne(build_instance("shrink_split_8").graph)


def test_threshold_builder_randomized():
    rng = random.Random(10)
    for _ in range(60):
        g = random_shrinking_threshold(rng)
        assert is_nash(g, all_pairs(g), "rvor", threshold_shrink_ne(g)).ok


def test_vor_split_builder_on_bundled_instance():
    g = build_instance("shrink_split_8").graph
    profile = vor_split_shrink_ne(g)
    assert profile == (4, 5)
    assert is_nash(g, all_pairs(g), "vor", profile).ok


def test_vor_split_builder_small_cases():
    tiny = TemporalGraph(3, (((1, 2), (1, 3)),))
    assert vor_split_shrink_ne(tiny) == (1, 2)
    r = payoff(tiny, all_pairs(tiny), "vor", (1, 2))
    assert (r.u1, r.u2) == (2, 1)
    k3 = TemporalGraph(3, (((1, 2), (1, 3), (2, 3)),))
    assert vor_split_shrink_ne(k3) == (1, 2)


def test_vor_split_builder_rejects_degenerate_cliques():
    with pytest.raises(ValueError):
        vor_split_shrink_ne(TemporalGraph(3, ((),)))  # clique would be a single vertex
    growing = build_instance("grow_cycle_7").graph
    with pytest.raises(ValueError):
        vor_split_shrink_ne(growing)  # not shrinking, not split


def test_vor_split_builder_randomized_with_potential():
    rng = random.Random(11)
    for _ in range(60):
        g = random_shrinking_split(rng)
        profile = vor_split_shrink_ne(g)
        d = all_pairs(g)
        assert is_nash(g, d, "vor", profile).ok
        s = underlying(g)
        clique, indep = split_clique_partition(s)
        assert set(profile) <= clique


# A shrinking split graph whose dynamics from the two smallest clique
# vertices take one move, (1, 2) -> (4, 2).
SPLIT6 = TemporalGraph(
    6,
    (
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5)),
        ((2, 4), (2, 6), (3, 4), (3, 6), (4, 5)),
        ((2, 4), (3, 4), (3, 6), (4, 5)),
        ((2, 4), (3, 4), (3, 6), (4, 5)),
    ),
)


def test_vor_split_builder_raises_when_the_potential_does_not_rise(monkeypatch):
    assert vor_split_shrink_ne(SPLIT6) == (4, 2)
    monkeypatch.setattr(tempvor.builders, "split_potential", lambda s, independent, v, w: 0)
    with pytest.raises(RuntimeError) as excinfo:
        vor_split_shrink_ne(SPLIT6)
    assert str(excinfo.value) == "split potential [0, 0] does not rise strictly along [(1, 2), (4, 2)]"


def test_vor_split_builder_raises_when_the_dynamics_do_not_settle(monkeypatch):
    cycling = DynamicsResult("cycle", (1, 2), (), ())
    monkeypatch.setattr(tempvor.builders, "best_response_dynamics", lambda *a, **k: cycling)
    with pytest.raises(RuntimeError, match=r"clique dynamics from \(1, 2\) did not settle: cycle"):
        vor_split_shrink_ne(SPLIT6)


def test_split_potential_values():
    s = underlying(build_instance("shrink_split_8").graph)
    _, indep = split_clique_partition(s)
    assert indep == {1, 2, 3, 8}
    assert split_potential(s, indep, 4, 5) == 3  # {1,2} + {2,3} sharing {2}
    assert split_potential(s, indep, 6, 7) == 1  # both see only vertex 8


def test_clique_completion_of_growing_cycle():
    g = build_instance("grow_cycle_7").graph
    d = all_pairs(g)
    q = clique_completion(g)
    assert "clique" in classify_underlying(underlying(q))
    assert is_monotone(q)[0]
    assert q.tau == d.max_finite() + 1
    dq = all_pairs(q)
    for u in g.vertices:
        for v in g.vertices:
            assert dq.td(u, v) == d.td(u, v)
    assert enumerate_nash(q, dq, "rvor") == []


def test_clique_completion_of_complete_graph_changes_nothing():
    full = tuple(combinations(range(1, 5), 2))
    g = TemporalGraph(4, (full,))
    q = clique_completion(g)
    assert all_pairs(q).rows == all_pairs(g).rows


def test_clique_completion_of_growing_grid_preserves_distances():
    g = build_instance("grow_grid_6").graph
    d = all_pairs(g)
    q = clique_completion(g)
    dq = all_pairs(q)
    assert [dq.row(u)[: g.n] for u in g.vertices] == [d.row(u) for u in g.vertices]
    assert "clique" in classify_underlying(underlying(q))


def test_clique_completion_rejects_a_layer_before_saturation(monkeypatch):
    # with the saturation time misread as 0 the clique layer comes too early
    monkeypatch.setattr(DistanceMatrix, "max_finite", lambda self: 0)
    with pytest.raises(RuntimeError, match=r"completion changed td\(1,5\): 4 -> 3"):
        clique_completion(build_instance("grow_cycle_7").graph)


def test_clique_completion_requires_temporal_connectivity():
    with pytest.raises(ValueError):
        clique_completion(build_instance("shrink_path_9").graph)


def test_kpartite_completion_for_small_k():
    base = build_instance("grow_grid_6").graph
    d = all_pairs(base)
    for k in (2, 3, 4):
        kp = kpartite_completion(base, k)
        assert kp.n == 4 + k
        assert f"complete_k_partite({k})" in classify_underlying(underlying(kp))
        assert is_monotone(kp)[0]
        dk = all_pairs(kp)
        for u in base.vertices:
            for v in base.vertices:
                assert dk.td(u, v) == d.td(u, v)
        assert enumerate_nash(kp, dk, "rvor") == []


def test_kpartite_completion_new_vertex_wins_only_itself():
    base = build_instance("grow_grid_6").graph
    kp = kpartite_completion(base, 3)
    d = all_pairs(kp)
    for p2 in range(1, 7):
        assert payoff(kp, d, "rvor", (7, p2)).u1_set == {7}


def test_kpartite_completion_rejects_other_inputs():
    with pytest.raises(ValueError):
        kpartite_completion(build_instance("grow_cycle_7").graph, 2)
    with pytest.raises(ValueError):
        kpartite_completion(build_instance("grow_grid_6").graph, 1)


@pytest.mark.parametrize("k", [2.5, 3.0, "3", True, None], ids=repr)
def test_kpartite_completion_rejects_a_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match=f"k must be an int >= 2, got {k!r}"):
        kpartite_completion(build_instance("grow_grid_6").graph, k)
