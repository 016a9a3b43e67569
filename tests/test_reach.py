"""Foremost-arrival computation against the time-expanded and walk oracles."""

from __future__ import annotations

import random

import pytest

from brute import enumerate_walk_arrivals

from tempvor import (
    INF,
    TemporalGraph,
    all_pairs,
    build_instance,
    earliest_arrivals,
    from_json,
    oracle_arrivals,
    to_canonical_json,
)
from tempvor.randgen import random_temporal_graph


def test_growing_cycle_arrivals_from_vertex_5():
    # frozen from the walk-enumeration oracle: the missing {2,3} edge at t=1
    # forces 5-4-3-2 with arrival 3, and 1 is reached through 7 at t=3
    g = build_instance("grow_cycle_7").graph
    assert earliest_arrivals(g, 5) == (3, 3, 2, 1, 0, 1, 2)


def test_split_instance_arrivals_from_vertex_8():
    # frozen from the walk-enumeration oracle; vertices 1 and 3 hang on
    # first-layer-only edges, hence unreachable from 8
    g = build_instance("shrink_split_8").graph
    assert earliest_arrivals(g, 8) == (INF, 3, INF, 2, 2, 1, 1, 0)


def test_source_arrival_is_zero():
    for name in ("grow_cycle_7", "shrink_split_8"):
        g = build_instance(name).graph
        for v in g.vertices:
            assert earliest_arrivals(g, v)[v - 1] == 0


def test_static_path_forces_one_edge_per_step():
    g = TemporalGraph(9, (tuple((i, i + 1) for i in range(1, 9)),))
    assert earliest_arrivals(g, 1)[8] == 8


def test_shrinking_path_distances():
    g = build_instance("shrink_path_9").graph
    d = all_pairs(g)
    assert d.td(4, 3) == 1  # the vanishing edge is usable at t=1 only
    assert d.td(5, 3) == INF
    assert d.td(9, 1) == INF
    assert not d.all_finite()


def test_growing_grid_is_temporally_connected():
    d = all_pairs(build_instance("grow_grid_6").graph)
    assert d.all_finite()
    assert d.max_finite() == 3


def test_edgeless_graph_all_infinite_off_diagonal():
    d = all_pairs(TemporalGraph(3, ((),)))
    for u in range(1, 4):
        for v in range(1, 4):
            assert d.td(u, v) == (0 if u == v else INF)


def test_invalid_source_raises():
    g = build_instance("grow_cycle_7").graph
    with pytest.raises(ValueError):
        earliest_arrivals(g, 0)
    with pytest.raises(ValueError):
        oracle_arrivals(g, 8)


@pytest.mark.parametrize(
    "layer",
    [
        ((0, 2), (1, 2)),  # index -1 used to wrap to vertex 3: td(2, 3) read 1
        ((1, 2), (2, 4)),  # used to raise a bare IndexError
    ],
)
def test_out_of_range_endpoints_raise(layer):
    g = TemporalGraph(3, (layer,))
    with pytest.raises(ValueError, match="outside 1..3"):
        all_pairs(g)
    for query in (earliest_arrivals, oracle_arrivals):
        for source in g.vertices:
            with pytest.raises(ValueError, match="outside 1..3"):
                query(g, source)


def test_sweep_matches_time_expanded_oracle_on_randoms():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_temporal_graph(rng)
        for source in g.vertices:
            assert earliest_arrivals(g, source) == oracle_arrivals(g, source)


def test_sweep_matches_walk_enumeration_on_small_randoms():
    rng = random.Random(55)
    checked = 0
    while checked < 40:
        g = random_temporal_graph(rng, n_max=6, tau_max=2)
        if sum(len(l) for l in g.layers) > 10:
            continue
        checked += 1
        for source in g.vertices:
            assert earliest_arrivals(g, source) == enumerate_walk_arrivals(g, source)


def test_all_fixture_rows_match_oracle():
    for name in ("grow_cycle_7", "grow_grid_6", "shrink_path_9", "shrink_cycle_10", "shrink_split_8", "vor_grow_grid_12"):
        g = build_instance(name).graph
        d = all_pairs(g)
        for u in g.vertices:
            assert d.row(u) == oracle_arrivals(g, u)


def test_superset_tail_layer_never_increases_distances():
    rng = random.Random(77)
    for _ in range(100):
        g = random_temporal_graph(rng, n_max=7, tau_max=3)
        d = all_pairs(g)
        last = set(g.layer(g.tau))
        extra = [
            (u, v)
            for u in g.vertices
            for v in g.vertices
            if u < v and rng.random() < 0.3
        ]
        g2 = TemporalGraph(g.n, g.layers + (tuple(sorted(last | set(extra))),))
        d2 = all_pairs(g2)
        for u in g.vertices:
            for v in g.vertices:
                assert d2.td(u, v) <= d.td(u, v)


def test_entries_bounded_by_horizon_or_infinite():
    rng = random.Random(31)
    for _ in range(150):
        g = random_temporal_graph(rng)
        d = all_pairs(g)
        bound = g.tau + g.n
        for u in g.vertices:
            for v in g.vertices:
                assert d.td(u, v) == INF or d.td(u, v) <= bound


def test_distances_stable_under_serialization_round_trip():
    g = build_instance("grow_grid_6").graph
    g2 = from_json(to_canonical_json(g))
    assert all_pairs(g2).rows == all_pairs(g).rows


def test_distance_matrix_json_uses_inf_string():
    d = all_pairs(build_instance("shrink_path_9").graph)
    obj = d.to_json_obj()
    assert obj[8][0] == "inf"
    assert obj[0][0] == 0
