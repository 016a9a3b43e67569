"""Payoffs, best responses, equilibrium search and dynamics."""

from __future__ import annotations

import hashlib
import json
import random
import re
import tracemalloc
from itertools import combinations, groupby, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from brute import (
    brute_dynamics,
    brute_nash_profiles,
    brute_payoff_sets,
    lifetime_run,
    mask_run,
    oracle_column,
    walk_distances,
)

import tempvor.games
import tempvor.reach
from tempvor import (
    INF,
    DistanceMatrix,
    FamilySpec,
    TemporalGraph,
    all_pairs,
    best_response_dynamics,
    best_response_graph,
    best_responses,
    build_instance,
    earliest_arrivals,
    enumerate_nash,
    first_nash,
    generate_family,
    is_nash,
    oracle_arrivals,
    payoff,
    underlying,
)
from tempvor.builders import split_clique_partition
from tempvor.explorer import BASE_CLASSES, MONOTONICITY, _family_runs
from tempvor.games import GAME_KINDS, _column, _decide_run, _first_nash_batch, _packed
from tempvor.graph import _Layers
from tempvor.instances import INSTANCE_NAMES
from tempvor.randgen import random_temporal_graph
from tempvor.reach import _all_pairs_batch, _all_pairs_run, _expanded_search


@st.composite
def graph_and_profile(draw, max_n: int = 7, max_tau: int = 3):
    n = draw(st.integers(1, max_n))
    tau = draw(st.integers(1, max_tau))
    pairs = list(combinations(range(1, n + 1), 2))
    layers = []
    for _ in range(tau):
        chosen = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
        layers.append(tuple(sorted(chosen)))
    profile = (draw(st.integers(1, n)), draw(st.integers(1, n)))
    return TemporalGraph(n, tuple(layers)), profile


def _ctx(name):
    g = build_instance(name).graph
    return g, all_pairs(g)


def test_reverse_payoff_sets_on_growing_grid():
    g, d = _ctx("grow_grid_6")
    r = payoff(g, d, "rvor", (1, 2))
    assert r.u1_set == {1, 4}
    assert r.u2_set == {2, 3, 5, 6}
    assert r.unclaimed == set()


def test_reverse_payoff_sets_on_split_instance():
    g, d = _ctx("shrink_split_8")
    assert payoff(g, d, "rvor", (7, 4)).u1_set == {3, 7, 8}
    assert payoff(g, d, "rvor", (4, 7)).u1_set == {1, 2, 4}


def test_classic_payoff_on_growing_cycle():
    g, d = _ctx("grow_cycle_7")
    r = payoff(g, d, "vor", (5, 4))
    assert r.u1 == 3 and r.u2 == 3 and len(r.unclaimed) == 1


def test_same_vertex_profile_claims_nothing():
    for name in ("grow_cycle_7", "shrink_split_8"):
        g, d = _ctx(name)
        for kind in ("vor", "rvor"):
            r = payoff(g, d, kind, (3, 3))
            assert r.u1_set == r.u2_set == frozenset()
            assert r.unclaimed == set(g.vertices)


def test_infinite_tie_is_unclaimed():
    # vertices 1 and 3 never reach anyone: both players' distances are inf
    g = TemporalGraph(4, (((2, 4),),))
    d = all_pairs(g)
    r = payoff(g, d, "rvor", (2, 4))
    assert 1 in r.unclaimed and 3 in r.unclaimed


def test_finite_tie_is_unclaimed():
    g = TemporalGraph(3, (((1, 2), (2, 3)),))
    d = all_pairs(g)
    r = payoff(g, d, "rvor", (1, 3))
    assert r.unclaimed == {2}


@given(graph_and_profile())
def test_partition_occupancy_and_swap_symmetry(gp):
    g, (p1, p2) = gp
    d = all_pairs(g)
    for kind in ("vor", "rvor"):
        r = payoff(g, d, kind, (p1, p2))
        assert r.u1_set | r.u2_set | r.unclaimed == set(g.vertices)
        assert not r.u1_set & r.u2_set
        assert not r.u1_set & r.unclaimed
        if p1 != p2:
            assert p1 in r.u1_set and p2 in r.u2_set
        swapped = payoff(g, d, kind, (p2, p1))
        assert swapped.u1_set == r.u2_set and swapped.u2_set == r.u1_set


def _as_brute(result) -> tuple:
    """A DynamicsResult in the shape ``brute_dynamics`` returns."""
    def steps(block):
        return [(s.mover, s.profile, s.payoffs) for s in block]

    return result.status, result.profile, steps(result.trace), steps(result.cycle)


@given(graph_and_profile(max_n=6, max_tau=2), st.frozensets(st.integers(1, 6)), st.integers(1, 4))
def test_every_game_query_matches_brute_force(gp, extra, budget):
    g, (p1, p2) = gp
    d = all_pairs(g)
    td = walk_distances(g)
    n = g.n
    allowed = frozenset(v for v in extra if v <= n) | {p1, p2}

    for kind in ("vor", "rvor"):
        def sets(a, b):
            return brute_payoff_sets(td, kind, a, b, n)

        def replies(scores):
            best = max(scores.values())
            return tuple(v for v in g.vertices if scores[v] == best), best

        u1, u2 = sets(p1, p2)
        r = payoff(g, d, kind, (p1, p2))
        assert (r.u1_set, r.u2_set) == (u1, u2)
        assert r.unclaimed == set(g.vertices) - u1 - u2

        # player 1 answering player 2 at p2, and player 2 answering player 1 at p1
        as_p1 = {q: len(sets(q, p2)[0]) for q in g.vertices}
        as_p2 = {q: len(sets(p1, q)[1]) for q in g.vertices}
        assert best_responses(g, d, kind, 1, p2) == replies(as_p1)
        assert best_responses(g, d, kind, 2, p1) == replies(as_p2)

        brg = best_response_graph(g, d, kind)
        for v in g.vertices:
            expected = replies({q: len(sets(q, v)[0]) for q in g.vertices})
            assert (brg.responses[v], brg.values[v]) == expected

        equilibria = brute_nash_profiles(td, kind, n)
        check = is_nash(g, d, kind, (p1, p2))
        assert check.ok == ((p1, p2) in equilibria)
        expected_dev = None
        for player, old, scores in ((1, len(u1), as_p1), (2, len(u2), as_p2)):
            best = max(scores.values())
            if best > old:
                vertex = min(v for v in g.vertices if scores[v] == best)
                expected_dev = (player, vertex, old, best)
                break
        dev = check.deviation
        got_dev = dev and (dev.player, dev.vertex, dev.old_payoff, dev.new_payoff)
        assert got_dev == expected_dev

        assert enumerate_nash(g, d, kind) == equilibria
        assert first_nash(g, d, kind) == (equilibria or [None])[0]

        for step in best_response_dynamics(g, d, kind, (p1, p2)).trace:
            r = payoff(g, d, kind, step.profile)
            assert (r.u1, r.u2) == step.payoffs

        got = best_response_dynamics(g, d, kind, (p1, p2), budget, allowed)
        expected = brute_dynamics(td, kind, n, (p1, p2), sorted(allowed), budget)
        assert _as_brute(got) == expected


def test_payoff_rejects_bad_inputs():
    g, d = _ctx("grow_cycle_7")
    with pytest.raises(ValueError):
        payoff(g, d, "vor", (0, 3))
    with pytest.raises(ValueError):
        payoff(g, d, "voronoi", (1, 2))


# Every vertex argument of the public game queries and single-source functions.
_VERTEX_SLOTS = {
    "payoff p1": lambda g, d, v: payoff(g, d, "vor", (v, 2)),
    "payoff p2": lambda g, d, v: payoff(g, d, "rvor", (1, v)),
    "is_nash p1": lambda g, d, v: is_nash(g, d, "vor", (v, 3)),
    "is_nash p2": lambda g, d, v: is_nash(g, d, "rvor", (2, v)),
    "best_responses": lambda g, d, v: best_responses(g, d, "vor", 1, v),
    "dynamics p1": lambda g, d, v: best_response_dynamics(g, d, "vor", (v, 2)),
    "dynamics p2": lambda g, d, v: best_response_dynamics(g, d, "rvor", (1, v)),
    "dynamics allowed": lambda g, d, v: best_response_dynamics(
        g, d, "vor", (4, 5), allowed=frozenset({4, 5, v})
    ),
    "earliest_arrivals": lambda g, d, v: earliest_arrivals(g, v),
    "oracle_arrivals": lambda g, d, v: oracle_arrivals(g, v),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None, 0, -1, 8], ids=repr)
@pytest.mark.parametrize("slot", sorted(_VERTEX_SLOTS))
def test_every_vertex_argument_must_be_an_int_in_range(slot, bad):
    g, d = _ctx("grow_cycle_7")
    if type(bad) is int:
        message = f"{bad} out of range 1..7"
    else:
        message = f"{bad!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        _VERTEX_SLOTS[slot](g, d, bad)


# Every profile argument of the public game queries.
_PROFILE_SLOTS = {
    "payoff": lambda g, d, s: payoff(g, d, "vor", s),
    "is_nash": lambda g, d, s: is_nash(g, d, "rvor", s),
    "dynamics": lambda g, d, s: best_response_dynamics(g, d, "vor", s),
}


@pytest.mark.parametrize("bad", [5, None, (1,), (1, 2, 3), [], "1"], ids=repr)
@pytest.mark.parametrize("slot", sorted(_PROFILE_SLOTS))
def test_every_profile_argument_must_be_a_pair(slot, bad):
    g, d = _ctx("grow_cycle_7")
    message = f"profile {bad!r} is not a pair of vertices"
    with pytest.raises(ValueError, match=re.escape(message)):
        _PROFILE_SLOTS[slot](g, d, bad)


@pytest.mark.parametrize("role", [True, False, 1.0, 2.0, "1", None, 0, 3], ids=repr)
def test_best_responses_role_must_be_the_int_1_or_2(role):
    g, d = _ctx("vor_grow_grid_12")
    with pytest.raises(ValueError, match=re.escape(f"role must be 1 or 2, got {role!r}")):
        best_responses(g, d, "vor", role, 1)


def test_best_responses_on_large_grid_rows():
    g, d = _ctx("vor_grow_grid_12")
    assert best_responses(g, d, "vor", 2, 1) == ((6,), 10)
    assert best_responses(g, d, "vor", 2, 6) == ((8,), 3)
    assert best_responses(g, d, "vor", 2, 7) == ((2, 6, 10), 6)
    # role symmetry: replying as player 1 gives the same set and value
    assert best_responses(g, d, "vor", 1, 6) == ((8,), 3)


@pytest.mark.parametrize("kind", GAME_KINDS)
def test_every_query_on_zero_and_one_vertex_graphs(kind):
    g0 = TemporalGraph(0, ((),))
    d0 = all_pairs(g0)
    assert enumerate_nash(g0, d0, kind) == []
    assert first_nash(g0, d0, kind) is None
    assert best_response_graph(g0, d0, kind).to_json_obj() == {"responses": {}, "values": {}}
    for query in (payoff, is_nash, best_response_dynamics):
        with pytest.raises(ValueError):
            query(g0, d0, kind, (1, 1))
    with pytest.raises(ValueError):
        best_responses(g0, d0, kind, 1, 1)

    g1 = TemporalGraph(1, ((),))
    d1 = all_pairs(g1)
    assert payoff(g1, d1, kind, (1, 1)).to_json_obj() == {
        "u1_set": [], "u2_set": [], "unclaimed": [1], "u1": 0, "u2": 0
    }
    assert best_responses(g1, d1, kind, 1, 1) == best_responses(g1, d1, kind, 2, 1) == ((1,), 0)
    assert is_nash(g1, d1, kind, (1, 1)).to_json_obj() == {"is_nash": True, "deviation": None}
    assert enumerate_nash(g1, d1, kind) == [(1, 1)]
    assert first_nash(g1, d1, kind) == (1, 1)
    brg = best_response_graph(g1, d1, kind)
    assert brg.to_json_obj() == {"responses": {"1": [1]}, "values": {"1": 0}}
    assert best_response_dynamics(g1, d1, kind, (1, 1)).to_json_obj() == {
        "status": "nash", "profile": [1, 1], "trace": [], "cycle": []
    }


def _views(d: DistanceMatrix) -> dict:
    """Both game views of ``d``, built here rather than by ``games._rows``."""
    return {"vor": d.rows, "rvor": tuple(zip(*d.rows))}


def _assert_columns_match_oracle(d: DistanceMatrix, fixed=None) -> None:
    for kind, rows in _views(d).items():
        view = _packed(d, kind)
        for b in fixed or range(1, d.n + 1):
            assert _column(view, b) == oracle_column(rows, b)


def _field_bytes(d: DistanceMatrix) -> int:
    """The field width ``_packed`` chose, read off its guard mask."""
    return _packed(d, "vor")[1].bit_length() // (8 * d.n)


@st.composite
def tied_matrix(draw):
    """Zero diagonal; off it, entries from a small pool that is often INF alone
    or two values, and some rows INF everywhere off the diagonal."""
    n = draw(st.integers(0, 9))
    pool = draw(st.sampled_from([(INF,), (0, 1), (1, INF), (2, INF, INF, INF), (0, 1, 2, INF)]))
    dead = draw(st.frozensets(st.integers(0, max(n - 1, 0))))
    entry = st.sampled_from(pool)
    return DistanceMatrix(tuple(
        tuple(0 if u == v else INF if u in dead else draw(entry) for v in range(n))
        for u in range(n)
    ))


@given(tied_matrix())
def test_packed_columns_match_oracle_on_inf_heavy_and_tied_matrices(d):
    _assert_columns_match_oracle(d)


def _shuffled_matrix(n: int, distinct: int, rnd: random.Random) -> DistanceMatrix:
    """An n x n matrix holding exactly ``distinct`` values, INF among them."""
    times = [*range(distinct - 1), INF]
    cells = times + [rnd.choice(times) for _ in range(n * n - distinct)]
    rnd.shuffle(cells)
    return DistanceMatrix(tuple(tuple(cells[u * n : (u + 1) * n]) for u in range(n)))


@pytest.mark.parametrize("distinct", [127, 128, 129, 130])
@settings(max_examples=25)
@given(st.randoms(use_true_random=False))
def test_packed_columns_match_oracle_across_the_one_byte_boundary(distinct, rnd):
    d = _shuffled_matrix(12, distinct, rnd)
    # ranks 0..127 leave the top bit of a byte spare; rank 128 needs a second byte
    assert _field_bytes(d) == (1 if distinct <= 128 else 2)
    _assert_columns_match_oracle(d)


def test_packed_columns_match_oracle_with_three_byte_fields():
    n = 182  # 33,124 distinct times: rank 2**15 needs a third byte
    rnd = random.Random(12)
    d = _shuffled_matrix(n, n * n, rnd)
    assert _field_bytes(d) == 3
    _assert_columns_match_oracle(d, [1, n, *rnd.sample(range(2, n), 6)])


def _graph_with_sentinel(sentinel: int) -> TemporalGraph:
    """Sparse random layers on vertices 1..10 plus the isolated vertex 11, with
    tau = sentinel - 12 layers, so ``all_pairs`` marks INF with ``sentinel``."""
    rng = random.Random(f"sentinel:{sentinel}")
    layers = []
    for _ in range(sentinel - 12):
        size = 0 if rng.random() < 0.2 else rng.randint(1, 2)
        layers.append({tuple(sorted(rng.sample(range(1, 11), 2))) for _ in range(size)})
    return TemporalGraph(11, tuple(tuple(layer) for layer in layers))


@pytest.mark.parametrize(
    "sentinel, typecode",
    [(127, "B"), (128, "B"), (255, "B"), (256, "H")],
    ids=["raw-bytes", "translated-128", "translated-255", "ranked-dict"],
)
def test_every_packing_path_matches_the_oracles(sentinel, typecode):
    g = _graph_with_sentinel(sentinel)
    d = all_pairs(g)
    # storage, sentinel and at most 128 distinct times select _packed's path
    assert (d._sentinel, d._flat.typecode) == (sentinel, typecode)
    assert len(set(d._flat)) <= 128 and not d.all_finite()
    assert list(d.rows) == _expanded_search(g, g.vertices)
    for u in g.vertices:
        assert all(type(x) is int or x is INF for x in d.row(u))
        assert all(type(x) is int or x is INF for x in map(d.td, [u] * g.n, g.vertices))
    assert _field_bytes(d) == 1
    _assert_columns_match_oracle(d)


def test_translated_ranks_fill_all_seven_value_bits():
    # 128 distinct times, the largest finite one 200: one-byte storage packed
    # through the translate table, where INF takes rank 127, the top value
    # below the guard bit
    d = _shuffled_matrix(12, 128, random.Random(3))
    d = DistanceMatrix(tuple(tuple(200 if x == 126 else x for x in row) for row in d.rows))
    assert (d._sentinel, d._flat.typecode, _field_bytes(d)) == (201, "B", 1)
    _assert_columns_match_oracle(d)


def test_two_byte_fields_through_the_public_api():
    n = 140  # one-layer path: td(u, v) = |u - v|, 140 distinct times
    g = TemporalGraph(n, (tuple((v, v + 1) for v in range(1, n)),))
    d = all_pairs(g)
    assert _field_bytes(d) == 2
    for kind, rows in _views(d).items():
        cols = [oracle_column(rows, b) for b in g.vertices]
        best = [max(col) for col in cols]
        assert enumerate_nash(g, d, kind) == [
            (a, b)
            for a in g.vertices
            for b in g.vertices
            if cols[b - 1][a - 1] == best[b - 1] and cols[a - 1][b - 1] == best[a - 1]
        ]
        brg = best_response_graph(g, d, kind)
        assert brg.values == dict(zip(g.vertices, best))
        assert brg.responses == {
            b: tuple(a for a in g.vertices if cols[b - 1][a - 1] == best[b - 1]) for b in g.vertices
        }


def test_is_nash_verdicts_and_certificates():
    g, d = _ctx("shrink_split_8")
    assert is_nash(g, d, "vor", (4, 5)).ok
    g1, d1 = _ctx("grow_cycle_7")
    for p1 in g1.vertices:
        for p2 in g1.vertices:
            check = is_nash(g1, d1, "rvor", (p1, p2))
            assert not check.ok
            dev = check.deviation
            # the certificate must itself be a strict improvement
            profile = (dev.vertex, p2) if dev.player == 1 else (p1, dev.vertex)
            r_old = payoff(g1, d1, "rvor", (p1, p2))
            r_new = payoff(g1, d1, "rvor", profile)
            old = r_old.u1 if dev.player == 1 else r_old.u2
            new = r_new.u1 if dev.player == 1 else r_new.u2
            assert (old, new) == (dev.old_payoff, dev.new_payoff)
            assert new > old


def test_enumerate_matches_double_loop_oracle_on_fixtures():
    for name in ("grow_cycle_7", "grow_grid_6", "shrink_split_8"):
        g = build_instance(name).graph
        td = walk_distances(g)
        d = all_pairs(g)
        for kind in ("vor", "rvor"):
            assert enumerate_nash(g, d, kind) == brute_nash_profiles(td, kind, g.n)


def test_enumerate_matches_double_loop_oracle_on_randoms():
    rng = random.Random(12)
    checked = 0
    while checked < 30:
        g = random_temporal_graph(rng, n_max=6, tau_max=2)
        if sum(len(l) for l in g.layers) > 9:
            continue
        checked += 1
        td = walk_distances(g)
        d = all_pairs(g)
        for kind in ("vor", "rvor"):
            got = enumerate_nash(g, d, kind)
            assert got == brute_nash_profiles(td, kind, g.n)
            assert got == sorted(got)
            assert first_nash(g, d, kind) == (got[0] if got else None)
            for profile in got:
                assert is_nash(g, d, kind, profile).ok


def test_enumeration_is_consistent_with_is_nash():
    g, d = _ctx("grow_grid_6")
    hits = {p for p in enumerate_nash(g, d, "vor")}
    for p1 in g.vertices:
        for p2 in g.vertices:
            assert ((p1, p2) in hits) == is_nash(g, d, "vor", (p1, p2)).ok


def _count_table_work(monkeypatch) -> tuple[list[str], list[int]]:
    """Record every ``_packed`` call (by kind) and ``_column`` call (by fixed vertex)."""
    packed, columns = [], []
    real_packed, real_column = _packed, _column

    def counting_packed(d, kind):
        packed.append(kind)
        return real_packed(d, kind)

    def counting_column(view, fixed):
        columns.append(fixed)
        return real_column(view, fixed)

    monkeypatch.setattr("tempvor.games._packed", counting_packed)
    monkeypatch.setattr("tempvor.games._column", counting_column)
    return packed, columns


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_each_matrix_packs_each_view_once_and_computes_each_column_once(monkeypatch, name):
    g, d = _ctx(name)
    packed, columns = _count_table_work(monkeypatch)
    for kind in GAME_KINDS:
        packed.clear()
        columns.clear()
        enumerate_nash(g, d, kind)
        best_response_graph(g, d, kind)
        best_response_dynamics(g, d, kind, (1, g.n))
        is_nash(g, d, kind, (2, 1))
        best_responses(g, d, kind, 2, 3)
        first_nash(g, d, kind)
        assert packed == [kind]
        assert sorted(columns) == list(g.vertices)


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_first_nash_computes_only_the_columns_it_reaches(monkeypatch, name):
    g, d = _ctx(name)
    packed, columns = _count_table_work(monkeypatch)
    for kind, rows in _views(d).items():
        packed.clear()
        columns.clear()
        first = first_nash(g, d, kind)
        reached = set()
        for p1 in g.vertices[: first[0] if first else g.n]:
            col = oracle_column(rows, p1)
            reached |= {p1, *(v for v in g.vertices if col[v - 1] == max(col))}
        assert packed == [kind]
        assert len(columns) == len(set(columns))
        assert set(columns) <= reached


def _queries(g, d, kind, start, allowed):
    """Every public game query on ``d``, point queries first."""
    return [
        ("payoff", lambda: payoff(g, d, kind, start)),
        ("best_responses", lambda: best_responses(g, d, kind, 1, start[1])),
        ("is_nash", lambda: is_nash(g, d, kind, start)),
        ("dynamics", lambda: best_response_dynamics(g, d, kind, start, 6, allowed)),
        ("unrestricted dynamics", lambda: best_response_dynamics(g, d, kind, start, 6)),
        ("first_nash", lambda: first_nash(g, d, kind)),
        ("enumerate_nash", lambda: enumerate_nash(g, d, kind)),
        ("best_response_graph", lambda: best_response_graph(g, d, kind)),
    ]


def _brute_answer(query, g, td, kind, start, allowed, result):
    """Check one query's ``result`` against ``tests/brute.py``."""
    n = g.n
    rows = td if kind == "vor" else tuple(zip(*td))
    equilibria = brute_nash_profiles(td, kind, n)

    def replies(fixed):
        col = oracle_column(rows, fixed)
        return tuple(v for v in g.vertices if col[v - 1] == max(col)), max(col)

    if query == "payoff":
        assert (result.u1_set, result.u2_set) == brute_payoff_sets(td, kind, *start, n)
    elif query == "best_responses":
        assert result == replies(start[1])
    elif query == "is_nash":
        assert result.ok == (start in equilibria)
        if not result.ok:
            dev = result.deviation
            mine, theirs = start if dev.player == 1 else start[::-1]
            assert (dev.vertex, dev.new_payoff) == (replies(theirs)[0][0], replies(theirs)[1])
            assert dev.old_payoff == oracle_column(rows, theirs)[mine - 1]
    elif query == "dynamics":
        assert _as_brute(result) == brute_dynamics(td, kind, n, start, sorted(allowed), 6)
    elif query == "unrestricted dynamics":
        assert _as_brute(result) == brute_dynamics(td, kind, n, start, list(g.vertices), 6)
    elif query == "first_nash":
        assert result == (equilibria or [None])[0]
    elif query == "enumerate_nash":
        assert result == equilibria
    else:
        assert result.responses == {v: replies(v)[0] for v in g.vertices}
        assert result.values == {v: replies(v)[1] for v in g.vertices}


@pytest.mark.parametrize("kinds", [("vor", "rvor"), ("rvor", "vor")])
@pytest.mark.parametrize("point_first", [True, False])
def test_game_queries_in_any_order_on_one_matrix_match_brute_force(kinds, point_first):
    rng = random.Random(15)
    graphs = [build_instance("grow_grid_6").graph, build_instance("shrink_split_8").graph]
    while len(graphs) < 6:
        g = random_temporal_graph(rng, n_max=6, tau_max=2)
        if sum(len(l) for l in g.layers) <= 9:
            graphs.append(g)
    for g in graphs:
        td = walk_distances(g)
        d = all_pairs(g)
        fresh = DistanceMatrix(d.rows)
        start = (rng.randint(1, g.n), rng.randint(1, g.n))
        allowed = frozenset(rng.sample(g.vertices, rng.randint(1, g.n))) | set(start)
        for kind in kinds:
            queries = _queries(g, d, kind, start, allowed)
            for query, run in queries if point_first else queries[::-1]:
                _brute_answer(query, g, td, kind, start, allowed, run())
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        assert d.rows == fresh.rows


def test_best_response_graph_on_large_grid():
    g, d = _ctx("vor_grow_grid_12")
    brg = best_response_graph(g, d, "vor")
    arcs = {(v, w) for v, ws in brg.responses.items() for w in ws}
    assert {(1, 6), (4, 3), (6, 8), (8, 7)} <= arcs
    assert brg.responses[7] == (2, 6, 10)
    assert all(brg.responses[v] for v in g.vertices)


def test_best_response_graph_two_vertex_complete():
    g = TemporalGraph(2, (((1, 2),), ((1, 2),)))
    d = all_pairs(g)
    brg = best_response_graph(g, d, "vor")
    assert brg.responses == {1: (2,), 2: (1,)}


def test_dynamics_cycles_on_large_grid():
    g, d = _ctx("vor_grow_grid_12")
    result = best_response_dynamics(g, d, "vor", (1, 1))
    assert result.status == "cycle"
    moves = [step.profile[step.mover - 1] for step in result.cycle]
    doubled = moves + moves
    assert any(tuple(doubled[i : i + 3]) == (6, 8, 7) for i in range(len(moves)))


def test_dynamics_from_equilibrium_has_empty_trace():
    g, d = _ctx("shrink_split_8")
    result = best_response_dynamics(g, d, "vor", (4, 5))
    assert result.status == "nash"
    assert result.profile == (4, 5)
    assert result.trace == ()


def test_dynamics_from_clique_start_terminates_at_equilibrium():
    g, d = _ctx("shrink_split_8")
    for start in ((6, 7), (7, 6), (4, 6)):
        result = best_response_dynamics(g, d, "vor", start)
        assert result.status == "nash"
        assert is_nash(g, d, "vor", result.profile).ok


def test_dynamics_respects_max_steps():
    g, d = _ctx("vor_grow_grid_12")
    result = best_response_dynamics(g, d, "vor", (1, 1), max_steps=2)
    assert result.status == "max_steps"


def test_dynamics_matches_brute_force_on_fixtures():
    # random small graphs almost never cycle; the fixtures cycle from most starts
    for name in INSTANCE_NAMES:
        g, d = _ctx(name)
        td = walk_distances(g)
        starts = list(product(g.vertices, repeat=2))
        for kind, start, budget in product(("vor", "rvor"), starts, (1, 3, 10_000)):
            got = best_response_dynamics(g, d, kind, start, budget)
            expected = brute_dynamics(td, kind, g.n, start, g.vertices, budget)
            assert _as_brute(got) == expected


def test_dynamics_budget_counts_moves_not_turns():
    # (1, 2) is an equilibrium: no move is due, so one step of budget suffices
    g = TemporalGraph(2, (((1, 2),),))
    result = best_response_dynamics(g, all_pairs(g), "vor", (1, 2), max_steps=1)
    assert (result.status, result.profile, result.trace) == ("nash", (1, 2), ())


@pytest.mark.parametrize("steps", [0, -1])
def test_dynamics_rejects_non_positive_budget(steps):
    g = TemporalGraph(2, (((1, 2),),))
    with pytest.raises(ValueError, match="max_steps must be positive"):
        best_response_dynamics(g, all_pairs(g), "vor", (1, 2), max_steps=steps)


@pytest.mark.parametrize("steps", [2.5, 2.0, True, "2", None], ids=repr)
def test_dynamics_rejects_a_budget_that_is_not_an_int(steps):
    # a move count never equals 2.5, so from (1, 1) it would make all 6 moves to its cycle
    g, d = _ctx("vor_grow_grid_12")
    with pytest.raises(ValueError, match=re.escape(f"max_steps {steps!r} is not an integer")):
        best_response_dynamics(g, d, "vor", (1, 1), max_steps=steps)


@pytest.mark.parametrize(
    "allowed", [5, 4.5, (v for v in (4, 5))], ids=["int", "float", "generator"]
)
def test_dynamics_rejects_an_allowed_set_that_is_not_a_collection(allowed):
    g, d = _ctx("shrink_split_8")
    with pytest.raises(ValueError, match="is not a collection of vertices"):
        best_response_dynamics(g, d, "vor", (4, 5), allowed=allowed)


def test_dynamics_restricted_to_allowed_set():
    g, d = _ctx("shrink_split_8")
    result = best_response_dynamics(g, d, "vor", (6, 7), allowed=frozenset({4, 5, 6, 7}))
    assert result.status == "nash"
    assert set(result.profile) <= {4, 5, 6, 7}
    with pytest.raises(ValueError):
        best_response_dynamics(g, d, "vor", (1, 7), allowed=frozenset({4, 5, 6, 7}))


def test_dynamics_trace_records_movers_and_payoffs():
    g, d = _ctx("vor_grow_grid_12")
    result = best_response_dynamics(g, d, "vor", (1, 1))
    movers = [s.mover for s in result.trace]
    assert movers[0] == 1
    for step in result.trace:
        r = payoff(g, d, "vor", step.profile)
        assert (r.u1, r.u2) == step.payoffs


# sha256 over one JSON line per dynamics run at the default budget: "vor" then
# "rvor", each from every start profile in lexicographic order
_DYNAMICS_SHA256 = {
    "grow_cycle_7": "5988141485a5a7a03d9c22ad758c62e72b17d35773e9a51dd30277c89db67f55",
    "grow_grid_6": "b62ad7ff553b4d9dfd3fe7f9d4348d62a7290561a7e570f1103860b8dfda5d14",
    "shrink_path_9": "28e41d18bd72ca0b983452bcde1c93afb7201266f927b7704de30f31a0d60848",
    "shrink_cycle_10": "4cbb62c59cebe9709e7d022f3b13f029e0f76d7e70b471d52dcaeebb0281522e",
    "shrink_split_8": "f6e726d209d1c48f9caa64675814f4ae8630788533cd6b599d39894a44adfb2e",
    "vor_grow_grid_12": "e87fc3c3ec1fbdcfeeaa6c10d6b9e5b98b5e8a5b38bbb131231c989faa002bb3",
}

# the same digest for shrink_split_8 with both players kept inside its clique
_CLIQUE_DYNAMICS_SHA256 = "42e3e8cc87e92963e6835a529c181db80f30f52fb295f465cd79e738d6accb58"


def _dynamics_digest(g, d, allowed=None) -> str:
    h = hashlib.sha256()
    for kind in ("vor", "rvor"):
        for start in product(sorted(allowed or g.vertices), repeat=2):
            result = best_response_dynamics(g, d, kind, start, allowed=allowed)
            h.update(json.dumps(result.to_json_obj()).encode("utf-8") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_dynamics_from_every_start_is_pinned(name):
    assert _dynamics_digest(*_ctx(name)) == _DYNAMICS_SHA256[name]


def test_clique_dynamics_on_split_instance_is_pinned():
    g, d = _ctx("shrink_split_8")
    clique, _ = split_clique_partition(underlying(g))
    assert _dynamics_digest(g, d, clique) == _CLIQUE_DYNAMICS_SHA256


# With any layer pattern the dense classes pass 5 * 10^4 instances at n = 5,
# so there they stop at n = 4.
_DENSE = ("clique", "complete_k_partite", "split", "threshold")


def _gate_chunks(base):
    """The chunks a sweep's distance module cuts, as (graphs, flat, sentinel)
    from the distance batch, for every (n, edge set) run of ``base`` x each
    monotonicity with n <= 5 and tau <= 2."""
    for mono in MONOTONICITY:
        top = 4 if base in _DENSE and mono == "any" else 5
        for n, edges, chains in _family_runs(FamilySpec(base, (1, top), (1, 2), mono)):
            for chunk in _all_pairs_run(n, edges, chains):
                graphs = [_Layers(edges).graph(n, chain) for chain in chunk]
                yield (graphs, *_all_pairs_batch(n, edges, chunk))


@pytest.mark.parametrize("base", BASE_CLASSES)
def test_batch_equilibria_match_first_nash_on_every_run(base):
    # and, on one chunk in 20, one instance against the brute-force profiles
    rng, mixed = random.Random(base), False
    for chunk, flat, sentinel in _gate_chunks(base):
        n, count = chunk[0].n, len(chunk)
        ds = [all_pairs(g) for g in chunk]
        for kind in GAME_KINDS:
            witnesses = _first_nash_batch(flat, sentinel, n, count, kind)
            assert witnesses == [first_nash(g, d, kind) for g, d in zip(chunk, ds)]
            if rng.random() < 0.05:
                k = rng.randrange(count)
                equilibria = brute_nash_profiles(ds[k].rows, kind, n)
                assert witnesses[k] == (equilibria or [None])[0]
        mixed |= chunk[0].tau < chunk[-1].tau
    assert mixed


@pytest.mark.parametrize("kind", GAME_KINDS)
def test_batch_equilibria_of_one_vertex_and_lone_matrices(kind):
    one = all_pairs(TemporalGraph(1, ((),)))
    assert _first_nash_batch(one._flat, one._sentinel, 1, 1, kind) == [(1, 1)]
    assert _first_nash_batch(one._flat * 2, one._sentinel, 1, 2, kind) == [(1, 1)] * 2
    for name in INSTANCE_NAMES:
        g, d = _ctx(name)
        assert _first_nash_batch(d._flat, d._sentinel, d.n, 1, kind) == [first_nash(g, d, kind)]


def batch_sizes(monkeypatch) -> list[int]:
    """The size of each chunk the equilibrium batch kernel decides, recorded
    as the kernel is called."""
    sizes, batch = [], tempvor.games._first_nash_batch

    def recording(flat, sentinel, n, count, kind):
        sizes.append(count)
        return batch(flat, sentinel, n, count, kind)

    monkeypatch.setattr(tempvor.games, "_first_nash_batch", recording)
    return sizes


def _nash_routes(monkeypatch, graphs):
    """Drain ``_decide_run`` over the masks of each (n, edge set) run of
    ``graphs`` for each game, with both deciders recorded; check every
    witness against ``first_nash`` and every connectivity flag against
    ``all_pairs``, and return, for one game, the chunk sizes the batch got
    and the ``first_nash`` calls, which must each get the graph decided."""
    chunks, singles, single = batch_sizes(monkeypatch), [], first_nash
    monkeypatch.setattr(
        tempvor.games, "first_nash", lambda g, d, kind: singles.append(g) or single(g, d, kind)
    )
    runs = [mask_run(list(run)) for _, run in groupby(graphs, _edge_set)]
    for kind in GAME_KINDS:
        singles.clear()
        decided = [x for run in runs for x in _decide_run(*run, kind)]
        assert [c for c, _ in decided] == [all_pairs(g).all_finite() for g in graphs]
        assert [w for _, w in decided] == [single(g, all_pairs(g), kind) for g in graphs]
        assert all(g in graphs for g in singles)
    return chunks[: len(chunks) // 2], len(singles)


def _edge_set(g):
    """(n, edge set): what the instances of one sweep run share."""
    return g.n, frozenset().union(*g.layers)


@pytest.mark.parametrize("kind", ["foo", "VOR"])
def test_nash_run_rejects_an_unknown_game_kind(monkeypatch, kind):
    # every instance of this run goes to the batch kernels
    n, edges, chains = next(_family_runs(FamilySpec("tree", (4, 4), (1, 2), "any")))
    chains = list(chains)
    chunks, distances = batch_sizes(monkeypatch), []
    monkeypatch.setattr(
        tempvor.reach, "_all_pairs_run", lambda n, edges, run: distances.append(run) or ()
    )
    with pytest.raises(ValueError, match="unknown game kind"):
        list(_decide_run(n, edges, chains, kind))
    assert chunks == distances == []
    monkeypatch.undo()
    chunks = batch_sizes(monkeypatch)
    decided = list(_decide_run(n, edges, chains, "vor"))
    assert len(decided) == sum(chunks) == len(chains)


_PATHS_3 = list(generate_family(FamilySpec("path", (3, 3), (1, 2), "any")))


def test_run_batches_chunks_of_more_than_n_instances(monkeypatch):
    assert len(_PATHS_3) == 9
    assert _nash_routes(monkeypatch, _PATHS_3[:1]) == ([], 1)
    assert _nash_routes(monkeypatch, _PATHS_3[:3]) == ([], 3)
    assert _nash_routes(monkeypatch, _PATHS_3[:4]) == ([4], 0)


# Sentinels across the widths of the batches' fields: from 128 a time's top
# bit is no longer spare in one byte, and from 256 a time needs two bytes.
_WIDTHS = {"128": range(126, 130), "256": range(254, 259)}


@pytest.mark.parametrize("width", sorted(_WIDTHS))
def test_run_batches_every_lane_width(monkeypatch, width):
    # one run of five instances per sentinel, in one chunk for both batches
    graphs = lifetime_run(4, _WIDTHS[width])
    assert [all_pairs(g)._sentinel for g in graphs] == [s for s in _WIDTHS[width] for _ in range(5)]
    assert len({_edge_set(g) for g in graphs}) == 1
    assert _nash_routes(monkeypatch, graphs) == ([len(graphs)], 0)
    for s in _WIDTHS[width]:
        alone = [g for g in graphs if g.tau + g.n + 1 == s]
        assert _nash_routes(monkeypatch, alone) == ([5], 0)


@pytest.mark.parametrize(
    "spec,chunks",
    [
        (FamilySpec("path", (3, 4), (122, 125), "any", 1), [16, 24]),
        (FamilySpec("path", (3, 3), (251, 254), "any", 1), [16]),
        (FamilySpec("tree", (4, 4), (122, 125), "any", 1), [24] * 16),
    ],
    ids=["path-128", "path-256", "tree-128"],
)
def test_run_witnesses_match_first_nash_across_lane_widths(monkeypatch, spec, chunks):
    assert _nash_routes(monkeypatch, list(generate_family(spec))) == (chunks, 0)


def test_run_sends_more_than_20_vertices_to_first_nash(monkeypatch):
    graphs = list(generate_family(FamilySpec("path", (20, 21), (2, 2), "any", 1)))
    assert [g.n for g in graphs] == [20] * 38 + [21] * 40
    assert _nash_routes(monkeypatch, graphs) == ([38], 40)


def test_run_cuts_chunks_by_the_byte_budget(monkeypatch):
    # the distance module's budget is the only one: a 3-vertex path with
    # tau = 2 counts 3 * (3 * 3 + (2 + 2) * 2) = 51 lane bytes, so four fit
    # and the nine paths make two chunks of four and a lone ninth
    monkeypatch.setattr(tempvor.reach, "_BATCH_BYTES", 5 * 51 - 1)
    assert _nash_routes(monkeypatch, _PATHS_3) == ([4, 4], 1)


def _full_chunk_peaks(monkeypatch, budget, spec, count, kind):
    """Decide the first ``count`` instances of ``spec``'s first run under
    ``budget``; return the traced bytes the distance batch held at its
    peak, and the peak of the equilibrium batch on the chunk. The run must
    make one chunk, which the equilibrium batch takes."""
    monkeypatch.setattr(tempvor.reach, "_BATCH_BYTES", budget)
    n, edges, chains = next(_family_runs(spec))
    chains = list(islice(chains, count))
    chunks, peaks = batch_sizes(monkeypatch), []
    decide = tempvor.games._first_nash_batch

    def measured(flat, sentinel, n, count, kind):
        held, distances = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        witnesses = decide(flat, sentinel, n, count, kind)
        peaks.append((distances, tracemalloc.get_traced_memory()[1] - held))
        return witnesses

    monkeypatch.setattr(tempvor.games, "_first_nash_batch", measured)
    tracemalloc.start()
    try:
        for _ in _decide_run(n, edges, chains, kind):
            pass
    finally:
        tracemalloc.stop()
    assert chunks == [count]
    [(distances, equilibria)] = peaks
    return distances, equilibria


@pytest.mark.parametrize("kind", GAME_KINDS)
def test_a_full_batch_chunk_stays_within_the_byte_budget(monkeypatch, kind):
    # Growing 3 x 3 grids count 9 * (3 * 9 + (2 + 2) * 12) = 675 lane bytes
    # each, so a 512 KiB budget takes them 776 at a time. The distance
    # kernel's traced peak, with Python's int overheads, passes the budget
    # by less than a tenth (1.08-1.09 times it, measured with the gains
    # counted; see reach._BATCH_BYTES); the equilibrium batch of the same
    # chunk, over the chunk's array, stays within it.
    budget = 1 << 19
    grids = FamilySpec("grid", (9, 9), (2, 2), "growing")
    distances, equilibria = _full_chunk_peaks(monkeypatch, budget, grids, 776, kind)
    assert budget / 2 < distances < 1.1 * budget
    assert budget / 4 < equilibria < budget
    # Growing 4-vertex paths with tau = 252 need two-byte lanes and count
    # 2 * 4 * (3 * 4 + (252 + 2) * 3) = 6,192 lane bytes each, so 84 fit.
    # Their steps share most edge masks: the distance kernel's traced peak
    # is 0.27-0.29 times the budget, the equilibrium batch's about 0.02.
    paths = FamilySpec("path", (4, 4), (252, 252), "growing", 2)
    distances, equilibria = _full_chunk_peaks(monkeypatch, budget, paths, 84, kind)
    assert budget / 5 < distances < budget / 2
    assert budget / 64 < equilibria < budget / 32
