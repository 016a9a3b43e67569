"""Foremost-arrival computation against the time-expanded and walk oracles."""

from __future__ import annotations

import random

import pytest

from brute import enumerate_walk_arrivals, lifetime_run, mask_run, sweep_arrivals

from tempvor import (
    INF,
    DistanceMatrix,
    GraphValidationError,
    TemporalGraph,
    all_pairs,
    build_instance,
    earliest_arrivals,
    first_nash,
    from_json,
    oracle_arrivals,
    to_canonical_json,
)
from tempvor import FamilySpec, generate_family, reproduce
from tempvor.explorer import MONOTONICITY, _family_runs
from tempvor.games import _decide_run
from tempvor.graph import _Layers
from tempvor.randgen import random_temporal_graph
import tempvor.reach
from tempvor.reach import _all_pairs_batch, _all_pairs_run, _expanded_search, _storage


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
    with pytest.raises(GraphValidationError, match="outside 1..3"):
        TemporalGraph(3, (layer,))


def _assert_kernel_matches(g, oracle_sources):
    """Every all_pairs row and every single-source call against the per-source
    sweep of tests/brute.py, and the rows of ``oracle_sources`` against one
    time-expanded search of the graph; finite entries must be ints."""
    d = all_pairs(g)
    assert d.n == g.n
    for source in g.vertices:
        expected = sweep_arrivals(g, source)
        assert d.row(source) == expected, source
        assert earliest_arrivals(g, source) == expected, source
        assert all(type(x) is int or x == INF for x in d.row(source))
    for source, slow in zip(oracle_sources, _expanded_search(g, oracle_sources)):
        assert d.row(source) == slow, source


def _random_sparse_graph(rng, n, tau):
    """tau layers of at most n // 4 random edges each; about one in five is empty."""
    layers = []
    for _ in range(tau):
        size = 0 if rng.random() < 0.2 else rng.randint(1, n // 4)
        layers.append({tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(size)})
    return TemporalGraph(n, tuple(tuple(layer) for layer in layers))


def test_sweep_matches_time_expanded_oracle_on_randoms():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_temporal_graph(rng)
        _assert_kernel_matches(g, g.vertices)


@pytest.mark.parametrize(
    "n, layers",
    [
        (0, ((),)),
        (0, ((), (), ())),
        (1, ((),)),
        (1, ((), ())),
        (2, ((), (), ((1, 2),))),  # tau > n, gain only after empty layers
        (3, ((), ((1, 2),), (), ((2, 3),), ())),  # gain-free steps before tau
        (3, (((1, 2), (2, 3)),)),  # a step-t arrival must not spread within step t
        (4, (((1, 2), (2, 3), (3, 4)), ((1, 2),), (), ((1, 4),))),
        (5, ((), (), (), (), (), (), ((4, 5),), ((3, 4),), ((2, 3), (1, 2)))),
    ],
)
def test_kernel_on_edge_shapes(n, layers):
    g = TemporalGraph(n, layers)
    _assert_kernel_matches(g, g.vertices)
    rows = _expanded_search(g, g.vertices)
    assert rows == [enumerate_walk_arrivals(g, s) for s in g.vertices]
    assert [oracle_arrivals(g, s) for s in g.vertices] == rows


@pytest.mark.parametrize("n", [63, 64, 65, 129, 140])
def test_kernel_past_machine_word_width(n):
    # the source bitsets are wider than 64 bits, so bits 63, 64 and above
    # carry sources; a static path as the last layer keeps arrivals coming
    # until about tau + n. The time-expanded search is slow at this size and
    # checks only the row of the highest bit.
    rng = random.Random(f"wide:{n}")
    path = tuple((v, v + 1) for v in range(1, n))
    graphs = [_random_sparse_graph(rng, n, tau) for tau in (1, rng.randint(2, n), 2 * n)]
    tail = _random_sparse_graph(rng, n, rng.randint(1, n))
    graphs.append(TemporalGraph(n, tail.layers + (path,)))
    for g in graphs:
        _assert_kernel_matches(g, (n,))


def test_sweep_matches_walk_enumeration_on_small_randoms():
    rng = random.Random(55)
    checked = 0
    while checked < 40:
        g = random_temporal_graph(rng, n_max=6, tau_max=2)
        if sum(len(l) for l in g.layers) > 10:
            continue
        checked += 1
        walks = [enumerate_walk_arrivals(g, source) for source in g.vertices]
        assert [earliest_arrivals(g, source) for source in g.vertices] == walks
        assert _expanded_search(g, g.vertices) == walks


def test_all_fixture_rows_match_oracle():
    for name in ("grow_cycle_7", "grow_grid_6", "shrink_path_9", "shrink_cycle_10", "shrink_split_8", "vor_grow_grid_12"):
        g = build_instance(name).graph
        assert _expanded_search(g, g.vertices) == list(all_pairs(g).rows), name


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


def test_matrices_built_from_rows_compare_by_their_rows():
    g = build_instance("shrink_split_8").graph
    d = all_pairs(g)
    e = DistanceMatrix(d.rows)
    # rows mark INF with one past their largest finite time, the kernel with tau+n+1
    assert e._sentinel == d.max_finite() + 1 < d._sentinel == g.tau + g.n + 1
    assert e == d and hash(e) == hash(d) == hash((d.rows,))
    assert repr(e) == repr(d) == f"DistanceMatrix(rows={d.rows!r})"
    assert e.to_json_obj() == d.to_json_obj()
    shifted = DistanceMatrix(tuple(tuple(x + 1 for x in row) for row in d.rows))
    assert shifted != d and shifted == DistanceMatrix(shifted.rows)
    assert hash(shifted) == hash((shifted.rows,))
    assert shifted.to_json_obj() == [[x if x == "inf" else x + 1 for x in row] for row in d.to_json_obj()]
    for u in g.vertices:
        assert shifted.row(u) == tuple(x + 1 for x in d.row(u))
        assert [shifted.td(u, v) for v in g.vertices] == [d.td(u, v) + 1 for v in g.vertices]
    assert repr(all_pairs(TemporalGraph(2, ((),)))) == "DistanceMatrix(rows=((0, inf), (inf, 0)))"


def test_matrix_rejects_ragged_rows_and_out_of_range_pairs():
    with pytest.raises(ValueError, match="2 x 2"):
        DistanceMatrix(((0, 1), (1,)))
    with pytest.raises(IndexError):
        all_pairs(TemporalGraph(2, ((),))).td(1, 3)


@pytest.mark.parametrize("bad", [-1, 1.0, 0.5, "1", True, None, -INF, float("nan")], ids=repr)
def test_matrix_rejects_entries_that_are_not_times(bad):
    with pytest.raises(ValueError, match="neither a non-negative int nor INF"):
        DistanceMatrix(((0, bad), (INF, 0)))


def test_matrix_takes_any_infinite_float_as_inf():
    d = DistanceMatrix(((0, float("inf")), (1, 0)))
    assert d.rows == ((0, INF), (1, 0)) and d._sentinel == 2


def test_payoff_tables_are_made_on_the_first_game_query():
    g = build_instance("grow_cycle_7").graph
    d = all_pairs(g)
    assert d._tables == {}
    first_nash(g, d, "rvor")
    assert list(d._tables) == ["rvor"]


def test_distance_json_shares_one_object_per_distinct_time():
    # arrivals past 256 are not interned by the interpreter
    path = tuple((v, v + 1) for v in range(1, 5))
    d = all_pairs(TemporalGraph(6, ((),) * 300 + (path,)))
    obj = d.to_json_obj()
    entries = [x for row in obj for x in row]
    assert {301, 304, "inf"} <= set(entries)
    assert len({id(x) for x in entries}) == len(set(entries))
    assert d.max_finite() == 304


def test_all_pairs_stores_four_byte_times_as_the_sweep_rows():
    # one- and two-byte storage are checked against the oracle in test_games
    path = tuple((v, v + 1) for v in range(1, 5))
    g = TemporalGraph(6, ((),) * 65_530 + (path,))
    d = all_pairs(g)
    assert (d._sentinel, d._flat.typecode) == (65_538, "I")
    assert d.rows == tuple(earliest_arrivals(g, u) for u in g.vertices)


def test_distance_matrix_json_uses_inf_string():
    d = all_pairs(build_instance("shrink_path_9").graph)
    obj = d.to_json_obj()
    assert obj[8][0] == "inf"
    assert obj[0][0] == 0


def test_empty_distance_matrix_json_is_an_empty_list():
    assert all_pairs(TemporalGraph(0, ((),))).to_json_obj() == []
    assert DistanceMatrix(()).to_json_obj() == []


def _chunk_matrices(n, chunk, flat, sentinel):
    """The matrices that lie in a row in ``flat``, one per chain of ``chunk``."""
    size = n * n
    return [DistanceMatrix._of(n, flat[k * size : (k + 1) * size], sentinel) for k in range(len(chunk))]


def _assert_batch_matches(n, edges, chains):
    """The batch kernel on ``chains`` against all_pairs of each instance and,
    with n <= 5, against one time-expanded search of each instance. The
    batch's sentinel is one past the horizon of the chunk's largest
    lifetime, so an instance of that lifetime matches ``all_pairs`` byte for
    byte, typecode included."""
    flat, sentinel = _all_pairs_batch(n, edges, chains)
    graphs = [_Layers(edges).graph(n, chain) for chain in chains]
    tau = max(g.tau for g in graphs)
    assert (len(flat), sentinel) == (len(graphs) * n * n, tau + n + 1)
    assert flat.typecode == _storage(sentinel).typecode
    for g, d in zip(graphs, _chunk_matrices(n, chains, flat, sentinel), strict=True):
        single = all_pairs(g)
        assert d.rows == single.rows
        if n <= 5:
            assert list(d.rows) == _expanded_search(g, g.vertices)
        if g.tau == tau:
            assert d._flat.tobytes() == single._flat.tobytes()


# Vertex ranges that keep every base class x monotonicity family with
# tau <= 3 small enough to check each instance against the oracle.
_ORACLE_N = {
    "path": (1, 4),
    "cycle": (3, 4),
    "tree": (1, 3),
    "grid": (4, 4),
    "clique": (1, 3),
    "complete_k_partite": (1, 3),
    "split": (1, 3),
    "threshold": (1, 3),
}


@pytest.mark.parametrize("base", sorted(_ORACLE_N))
def test_batch_kernel_matches_all_pairs_on_every_run(base):
    # each (n, edge set) run in one batch, its lifetimes mixed
    mixed = False
    for mono in MONOTONICITY:
        spec = FamilySpec(base, _ORACLE_N[base], (1, 3), mono)
        for n, edges, chains in _family_runs(spec):
            chains = list(chains)
            _assert_batch_matches(n, edges, chains)
            mixed |= len(chains[0]) < len(chains[-1])
    assert mixed


def test_batch_kernel_mixes_lifetimes_in_one_run():
    # one run of growing 4-vertex paths over lifetimes 1..3 in one batch:
    # an instance past its own lifetime keeps its last layer
    run = list(generate_family(FamilySpec("path", (4, 4), (1, 3), "growing")))
    assert [g.tau for g in run] == [1] + [2] * 7 + [3] * 19
    _assert_batch_matches(*mask_run(run))
    _assert_batch_matches(*mask_run(run[::-1]))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_batch_kernel_on_empty_edge_sets(n):
    # the stream emits an empty edge set only with tau = 1, as a run of one
    for tau in (1, 3):
        _assert_batch_matches(*mask_run([TemporalGraph(n, ((),) * tau)] * 3))


def test_batch_kernel_runs_past_gain_free_steps_before_tau():
    # no instance gains at steps 1 and 2, yet both gain at step 3
    a, b = (1, 2), (2, 3)
    _assert_batch_matches(
        *mask_run(
            [TemporalGraph(3, ((), (), (a,), (a, b))), TemporalGraph(3, ((), (), (a, b), (b,)))]
        )
    )


@pytest.mark.parametrize("sentinels", [range(126, 130), range(254, 259)], ids=["128", "256"])
def test_batch_kernel_matches_all_pairs_across_lane_widths(sentinels):
    # one-byte lanes up to a sentinel of 255, two bytes from 256, alone and mixed
    graphs = lifetime_run(4, sentinels)
    _assert_batch_matches(*mask_run(graphs))
    _assert_batch_matches(*mask_run(graphs[::-1]))
    for k in range(0, len(graphs), 5):
        _assert_batch_matches(*mask_run(graphs[k : k + 5]))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", (3, 4), (122, 125), "any", 1),
        FamilySpec("path", (3, 3), (251, 254), "any", 1),
        FamilySpec("tree", (4, 4), (122, 125), "any", 1),
        FamilySpec("clique", (8, 8), (247, 249), "growing", 1),
    ],
    ids=["path-128", "path-256", "tree-128", "clique-256"],
)
def test_batch_kernel_matches_all_pairs_on_runs_across_lane_widths(spec):
    for n, edges, chains in _family_runs(spec):
        _assert_batch_matches(n, edges, list(chains))


def _kernel_calls(monkeypatch, graphs):
    """Decide one run of ``graphs`` with both distance kernels recorded;
    return the chunk sizes the batch kernel got and the count of all_pairs
    calls."""
    chunks, singles, single, batch = [], [], all_pairs, _all_pairs_batch
    monkeypatch.setattr(tempvor.reach, "all_pairs", lambda g: singles.append(g) or single(g))
    monkeypatch.setattr(
        tempvor.reach,
        "_all_pairs_batch",
        lambda n, edges, chunk: chunks.append(len(chunk)) or batch(n, edges, chunk),
    )
    decided = list(_decide_run(*mask_run(graphs), "vor"))
    assert [c for c, _ in decided] == [single(g).all_finite() for g in graphs]
    return chunks, len(singles)


def test_run_sends_a_lone_instance_to_all_pairs(monkeypatch):
    assert _kernel_calls(monkeypatch, [TemporalGraph(3, (((1, 2),),))]) == ([], 1)
    two = [TemporalGraph(3, (((1, 2),),)), TemporalGraph(3, ((), ((1, 2),)))]
    assert _kernel_calls(monkeypatch, two) == ([2], 0)


def test_run_caps_chunks_by_lane_bytes_at_large_n():
    # 199 growing paths with n = 200: each instance's lane ints take
    # 200 * (3 * 200 + (2 + 2) * 199) bytes, so 30 of them fit in the budget
    spec = FamilySpec("path", (200, 200), (2, 2), "growing", 1)
    [(n, edges, chains)] = _family_runs(spec)
    lane_bytes = 200 * (3 * 200 + (2 + 2) * 199)
    assert 30 * lane_bytes <= tempvor.reach._BATCH_BYTES < 31 * lane_bytes
    assert [len(chunk) for chunk in _all_pairs_run(n, edges, chains)] == [30] * 6 + [19]
    # one 1,024-vertex path passes the budget on its own, so each goes alone
    path = tuple((v, v + 1) for v in range(1, 1024))
    graphs = [TemporalGraph(1024, (path[:k], path)) for k in (0, 1, 2)]
    assert [len(chunk) for chunk in _all_pairs_run(*mask_run(graphs))] == [1, 1, 1]


def test_run_counts_two_byte_lanes_twice(monkeypatch):
    # Five 4-vertex paths with tau = 250, then five with tau = 251, whose
    # times need two-byte lanes: 2 * 4 * (3 * 4 + (251 + 2) * 3) = 6,168
    # bytes each. A budget one byte short of seven such instances cuts the
    # run after six; counted at one byte, all ten would fit.
    graphs = lifetime_run(4, [255, 256])
    monkeypatch.setattr(tempvor.reach, "_BATCH_BYTES", 7 * 6168 - 1)
    assert [len(chunk) for chunk in _all_pairs_run(*mask_run(graphs))] == [6, 4]


# Claim 13 must still name a kernel that disagrees with the time-expanded
# search: each test shifts the last row of one instance by one step.
_FAULTY_INSTANCE = 17


def _shifted(row):
    """``row`` with its last finite entry one step later."""
    j = max(i for i, x in enumerate(row) if x != INF)
    return row[:j] + (row[j] + 1,) + row[j + 1 :]


def _run_oracle_claim():
    [result] = reproduce.run_claims("reachability.oracle_equivalence", reproduce.DEFAULT_SEED)
    return result


def test_oracle_claim_catches_a_faulty_all_pairs_row(monkeypatch):
    graphs = []

    def faulty(g):
        graphs.append(g)
        d = all_pairs(g)
        if len(graphs) - 1 != _FAULTY_INSTANCE:
            return d
        return DistanceMatrix(d.rows[:-1] + (_shifted(d.rows[-1]),))

    monkeypatch.setattr(reproduce, "all_pairs", faulty)
    result = _run_oracle_claim()
    source = graphs[_FAULTY_INSTANCE].n
    assert not result.ok
    assert result.detail.startswith(f"instance {_FAULTY_INSTANCE}, source {source}, all_pairs: ")


def test_oracle_claim_catches_a_faulty_single_source_row(monkeypatch):
    graphs = []

    def faulty(g, source):
        if not graphs or graphs[-1] is not g:
            graphs.append(g)
        row = earliest_arrivals(g, source)
        if len(graphs) - 1 != _FAULTY_INSTANCE or source != g.n:
            return row
        return _shifted(row)

    monkeypatch.setattr(reproduce, "earliest_arrivals", faulty)
    result = _run_oracle_claim()
    source = graphs[_FAULTY_INSTANCE].n
    assert not result.ok
    assert result.detail.startswith(
        f"instance {_FAULTY_INSTANCE}, source {source}, earliest_arrivals: "
    )
