"""Data model: validation, underlying graph, JSON round trips."""

from __future__ import annotations

import json
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from tempvor import (
    GraphValidationError,
    StaticGraph,
    TemporalGraph,
    all_pairs,
    build_instance,
    from_json,
    is_monotone,
    to_canonical_json,
    underlying,
    validate,
)
from tempvor.reach import _expanded_search


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
    with pytest.raises(GraphValidationError, match="self-loop"):
        TemporalGraph(2, (((1, 1),),))


def test_validate_rejects_out_of_range_duplicates_and_empty():
    with pytest.raises(GraphValidationError, match="out"):
        TemporalGraph(2, (((1, 3),),))
    with pytest.raises(GraphValidationError, match="duplicate"):
        TemporalGraph(3, (((1, 2), (2, 1)),))
    with pytest.raises(GraphValidationError, match="empty"):
        TemporalGraph(3, ())


@pytest.mark.parametrize(
    "n, layers, message",
    [
        (2, (((1, 1),),), "layer 1: self-loop at vertex 1"),
        (3, (((0, 2),),), "layer 1: edge (0,2) has endpoint outside 1..3"),
        (3, (((4, 1),),), "layer 1: edge (1,4) has endpoint outside 1..3"),
        (3, ((), ((1, 2), (1, 2))), "layer 2: duplicate edge (1,2)"),
        (3, (((2, 1), (1, 2)),), "layer 1: duplicate edge (1,2)"),
        (3, (), "layer sequence is empty"),
        (-1, ((),), "vertex count -1 is negative"),
        (True, ((),), "vertex count True is not an integer"),
        (2.0, ((),), "vertex count 2.0 is not an integer"),
        ("2", ((),), "vertex count '2' is not an integer"),
        (2, (((True, 2),),), "edge (True,2) has an endpoint that is not an int"),
        (2, (((1, 2.0),),), "edge (1,2.0) has an endpoint that is not an int"),
        (2, ((("1", 2),),), "edge ('1',2) has an endpoint that is not an int"),
    ],
)
def test_construction_raises_on_each_rule(n, layers, message):
    with pytest.raises(GraphValidationError) as excinfo:
        TemporalGraph(n, layers)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", [10**20, 2049])
def test_vertex_count_above_the_cap_is_rejected_before_any_work(n):
    with pytest.raises(GraphValidationError) as excinfo:
        TemporalGraph(n, ((),))
    assert str(excinfo.value) == f"vertex count {n} exceeds the limit of 2048"
    assert TemporalGraph(2048, ((),)).n == 2048


@pytest.mark.parametrize(
    "n, message",
    [
        (-1, "vertex count -1 is negative"),
        ("3", "vertex count '3' is not an integer"),
        (3.0, "vertex count 3.0 is not an integer"),
        (True, "vertex count True is not an integer"),
        (2049, "vertex count 2049 exceeds the limit of 2048"),
        (10**20, "vertex count 100000000000000000000 exceeds the limit of 2048"),
    ],
)
def test_static_graph_applies_the_vertex_count_rule(n, message):
    with pytest.raises(GraphValidationError) as excinfo:
        StaticGraph(n, frozenset())
    assert str(excinfo.value) == message


def test_static_graph_rejects_bool_endpoint():
    with pytest.raises(GraphValidationError, match="not an int"):
        StaticGraph(3, frozenset({(True, 2)}))


@st.composite
def raw_graph_inputs(draw):
    n = draw(st.integers(-1, 5) | st.booleans())
    endpoint = st.integers(-1, n + 1)
    layers = draw(st.lists(st.lists(st.tuples(endpoint, endpoint), max_size=4), max_size=3))
    return n, tuple(tuple(layer) for layer in layers)


def _breaks_a_rule(n, layers) -> bool:
    if type(n) is not int or n < 0 or not layers:
        return True
    for layer in layers:
        edges = [tuple(sorted(e)) for e in layer]
        if len(set(edges)) < len(edges):
            return True
        if any(u == v or u < 1 or v > n for u, v in edges):
            return True
    return False


@given(raw_graph_inputs())
def test_construction_either_raises_or_gives_a_working_graph(raw):
    n, layers = raw
    try:
        g = TemporalGraph(n, layers)
    except GraphValidationError:
        assert _breaks_a_rule(n, layers)
        return
    assert not _breaks_a_rule(n, layers)
    assert validate(g) == []
    assert _expanded_search(g, g.vertices) == list(all_pairs(g).rows)


def test_edge_normalisation_is_order_insensitive():
    assert TemporalGraph(3, (((2, 1), (3, 2)),)) == TemporalGraph(3, (((1, 2), (2, 3)),))


def test_reversed_tuples_and_lists_normalise_to_sorted_pairs():
    for layer in ([(3, 1), (2, 1)], [[3, 1], [2, 1]], [[3, 1], (1, 2)]):
        g = TemporalGraph(3, [layer, [[3, 2]]])
        assert g.layers == (((1, 2), (1, 3)), ((2, 3),))
        assert all(type(e) is tuple for layer in g.layers for e in layer)


def test_equal_consecutive_layers_share_one_tuple():
    g = TemporalGraph(3, ([(1, 2)], [(2, 1)], [(2, 3)]))
    assert g.layers == (((1, 2),), ((1, 2),), ((2, 3),))
    assert g.layers[0] is g.layers[1]


@pytest.mark.parametrize(
    "layers, message",
    [
        # several bad edges in one layer: the first one in layer order is named
        ((((1, 2), (True, 2), (1, 2.0), ("3", 1)),), "edge (True,2)"),
        ((((2, 1), (2, False), (1.5, 2)),), "edge (2,False)"),
        ((((3, "1"), (None, 2)),), "edge (3,'1')"),
        # across layers: an earlier layer's bad edge comes first, wherever it sits
        ((((1, 2),), ((2, 3), (3, 1.0)), ((True, 1),)), "edge (3,1.0)"),
        ((((1, 3), (2.0, 1)), (("2", 3),)), "edge (2.0,1)"),
        # a bad endpoint is reported even when the edge also breaks a later rule
        ((((1, 1),), ((9, 9.0),)), "edge (9,9.0)"),
    ],
)
def test_construction_names_the_first_non_int_edge(layers, message):
    with pytest.raises(GraphValidationError) as excinfo:
        TemporalGraph(3, layers)
    assert str(excinfo.value) == f"{message} has an endpoint that is not an int"


@pytest.mark.parametrize("edge", [(1, 2, 3), (1,), [1, 2, 3], ()])
def test_an_edge_without_two_endpoints_is_a_plain_value_error(edge):
    with pytest.raises(ValueError) as excinfo:
        TemporalGraph(3, (((1, 2), edge),))
    assert type(excinfo.value) is ValueError


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


def test_is_monotone_matches_the_subset_definition():
    """Every sequence of one to three layers over the triangle's edges,
    empty layers included, against layer-by-layer edge containment."""
    edges = [(1, 2), (1, 3), (2, 3)]
    layers = [tuple(e for i, e in enumerate(edges) if mask >> i & 1) for mask in range(8)]
    for tau in (1, 2, 3):
        for seq in product(layers, repeat=tau):
            pairs = list(zip(seq, seq[1:]))
            growing = all(all(e in b for e in a) for a, b in pairs)
            shrinking = all(all(e in a for e in b) for a, b in pairs)
            assert is_monotone(TemporalGraph(3, seq)) == (growing, shrinking), seq


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
