"""Data model: validation, normalization, underlying graph, JSON round trips."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tempvor import (
    StaticGraph,
    TemporalGraph,
    build_instance,
    from_json,
    is_monotone,
    normalize_lifetime,
    to_canonical_json,
    underlying,
    validate,
)


@st.composite
def temporal_graphs(draw, max_n: int = 8, max_tau: int = 3):
    n = draw(st.integers(1, max_n))
    tau = draw(st.integers(1, max_tau))
    pairs = list(combinations(range(1, n + 1), 2))
    layers = []
    for _ in range(tau):
        if pairs:
            chosen = draw(st.frozensets(st.sampled_from(pairs)))
        else:
            chosen = frozenset()
        layers.append(tuple(sorted(chosen)))
    return TemporalGraph(n, tuple(layers))


def test_validate_accepts_bundled_instance():
    assert validate(build_instance("grow_cycle_7").graph) == []


def test_validate_accepts_single_vertex_no_edges():
    assert validate(TemporalGraph(1, ((),))) == []


def test_validate_rejects_self_loop():
    problems = validate(TemporalGraph(2, (((1, 1),),)))
    assert any("self-loop" in p for p in problems)


def test_validate_rejects_out_of_range_duplicates_and_empty():
    assert any("out" in p for p in validate(TemporalGraph(2, (((1, 3),),))))
    assert any("duplicate" in p for p in validate(TemporalGraph(3, (((1, 2), (2, 1)),))))
    assert any("empty" in p for p in validate(TemporalGraph(3, ())))


def test_edge_normalisation_is_order_insensitive():
    assert TemporalGraph(3, (((2, 1), (3, 2)),)) == TemporalGraph(3, (((1, 2), (2, 3)),))


def test_normalize_drops_trailing_repeats():
    a, b = ((1, 2),), ((1, 2), (2, 3))
    g = TemporalGraph(3, (a, b, b, b))
    assert normalize_lifetime(g).layers == (a, b)
    assert normalize_lifetime(TemporalGraph(3, (a,))).layers == (a,)


def test_normalize_path_fixture_with_repeated_tail():
    fx = build_instance("shrink_path_9").graph
    padded = TemporalGraph(9, fx.layers + (fx.layers[-1],))
    assert normalize_lifetime(padded) == fx


@given(temporal_graphs())
def test_normalize_idempotent_and_preserves_layers(g):
    norm = normalize_lifetime(g)
    assert normalize_lifetime(norm) == norm
    for t in range(1, g.tau + 3):
        assert norm.layer(t) == g.layer(t)


def test_underlying_of_growing_cycle_is_the_full_cycle():
    s = underlying(build_instance("grow_cycle_7").graph)
    assert s.edges == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)}


def test_underlying_of_empty_layers_is_edgeless():
    assert underlying(TemporalGraph(4, ((), ()))).edges == frozenset()


def test_static_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        StaticGraph(3, frozenset({(1, 2), (1, 1)}))


def test_static_graph_rejects_out_of_range_endpoints():
    # m has to count adjacency edges only: the class tests compare it with degree sums
    for bad in [(2, 5), (0, 1), (-1, 2)]:
        with pytest.raises(ValueError, match="outside 1..3"):
            StaticGraph(3, frozenset({(1, 2), bad}))


def test_underlying_split_instance_partition():
    s = underlying(build_instance("shrink_split_8").graph)
    clique = {4, 5, 6, 7}
    for u, v in combinations(sorted(clique), 2):
        assert s.has_edge(u, v)
    for u, v in combinations(sorted({1, 2, 3, 8}), 2):
        assert not s.has_edge(u, v)


def test_is_monotone_on_fixtures():
    assert is_monotone(build_instance("grow_cycle_7").graph) == (True, False)
    assert is_monotone(build_instance("shrink_path_9").graph) == (False, True)
    assert is_monotone(TemporalGraph(3, (((1, 2),),))) == (True, True)
    assert is_monotone(TemporalGraph(3, ((), ()))) == (True, True)


def test_layer_repeats_past_tau():
    g = build_instance("grow_cycle_7").graph
    assert g.layer(2) == g.layer(5) == g.layer(100)
    with pytest.raises(ValueError):
        g.layer(0)


def test_canonical_json_round_trip_is_bit_exact():
    for name in ("grow_cycle_7", "shrink_split_8", "vor_grow_grid_12"):
        g = build_instance(name).graph
        text = to_canonical_json(g)
        assert from_json(text) == g
        assert to_canonical_json(from_json(text)) == text


@given(temporal_graphs())
def test_json_round_trip(g):
    assert from_json(to_canonical_json(g)) == g


def test_canonical_json_shape():
    g = TemporalGraph(3, (((3, 1),), ((1, 2), (2, 3))))
    obj = json.loads(to_canonical_json(g))
    assert obj == {"n": 3, "layers": [[[1, 3]], [[1, 2], [2, 3]]]}


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"n": 2}',
        '{"n": 2, "layers": [[]], "extra": 1}',
        '{"n": "2", "layers": [[]]}',
        '{"n": 2, "layers": [[[1]]]}',
        '{"n": 2, "layers": [[[1, 2, 3]]]}',
        '{"n": 2, "layers": "oops"}',
    ],
)
def test_from_json_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        from_json(text)


def test_graphs_are_hashable_and_comparable():
    g1 = build_instance("grow_cycle_7").graph
    g2 = build_instance("grow_cycle_7").graph
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != build_instance("grow_grid_6").graph
