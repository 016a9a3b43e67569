"""Family generation and exhaustive sweeps: counts, determinism, soundness."""

from __future__ import annotations

import json
from itertools import combinations

import pytest

from brute import oracle_layer_chains

from tempvor import (
    FamilyBudgetError,
    FamilySpec,
    FamilySpecError,
    TemporalGraph,
    all_pairs,
    build_instance,
    classify_underlying,
    enumerate_nash,
    generate_family,
    graph_from_obj,
    is_monotone,
    sweep,
    underlying,
    validate,
    write_outcome,
)
from tempvor.explorer import (
    BASE_CLASSES,
    MONOTONICITY,
    _cycle_canonical_key,
    _layer_chains,
    _underlying_edge_sets,
)


def _changes(g):
    return sum(
        len(g.layer_set(t) ^ g.layer_set(t + 1)) for t in range(1, g.tau)
    )


def test_static_path_family_is_a_single_instance():
    fam = list(generate_family(FamilySpec("path", (3, 3), (1, 1))))
    assert len(fam) == 1
    assert fam[0].layers == (((1, 2), (2, 3)),)


def test_shrinking_cycle_family_n5_one_change():
    fam = list(generate_family(FamilySpec("cycle", (5, 5), (2, 2), "shrinking", 1)))
    # independent enumeration: all layer pairs, quotient by the 10 symmetries
    edges = sorted({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
    universe = frozenset(edges)
    subsets = [frozenset(c) for r in range(6) for c in combinations(edges, r)]
    classes = set()
    for e2 in subsets:
        if e2 <= universe and len(universe ^ e2) == 1:
            g = TemporalGraph(5, (tuple(edges), tuple(sorted(e2))))
            classes.add(_cycle_canonical_key(g))
    assert len(fam) == len(classes) == 1


def test_growing_cycle_family_contains_the_bundled_instance():
    fam = list(generate_family(FamilySpec("cycle", (7, 7), (2, 2), "growing", 2)))
    assert len(fam) == 4  # one edge late, or two at cyclic gap 1, 2 or 3
    key = _cycle_canonical_key(build_instance("grow_cycle_7").graph)
    assert any(tuple(g.layers) == key for g in fam)


@pytest.mark.parametrize("base", BASE_CLASSES)
def test_layer_chains_match_the_definition_in_order(base):
    # the first edge set of each size m that the class has on n <= 4
    # vertices, as long as the oracle's 2^(m * tau) layer tuples stay small
    edge_sets = {}
    for n in range(1, 5):
        for es in _underlying_edge_sets(base, n):
            edge_sets.setdefault(len(es), es)
    checked = 0
    for edge_set in edge_sets.values():
        for tau in (1, 2, 3):
            if len(edge_set) * tau > 12:
                continue
            for mono in MONOTONICITY:
                for budget in (None, 0, 1, 2, 3):
                    got = list(_layer_chains(edge_set, tau, mono, budget))
                    assert got == oracle_layer_chains(edge_set, tau, mono, budget), (
                        edge_set, tau, mono, budget,
                    )
                    checked += len(got)
    assert checked


def test_emitted_instances_satisfy_the_spec():
    spec = FamilySpec("tree", (4, 4), (1, 2), "growing", 2)
    fam = list(generate_family(spec))
    assert fam
    for g in fam:
        assert validate(g) == []
        labels = classify_underlying(underlying(g))
        assert "tree" in labels
        assert is_monotone(g)[0]
        assert _changes(g) <= 2
        # minimal lifetime: the last stored layer differs from its predecessor
        if g.tau >= 2:
            assert g.layer_set(g.tau) != g.layer_set(g.tau - 1)


def test_every_base_class_generates_valid_members():
    for base in ("path", "cycle", "tree", "grid", "clique", "complete_k_partite", "split", "threshold"):
        n = 4 if base != "grid" else 4
        fam = list(generate_family(FamilySpec(base, (n, n), (1, 1))))
        assert fam, base
        for g in fam:
            labels = classify_underlying(underlying(g))
            if base == "grid":
                assert any(l.startswith("grid") for l in labels)
            elif base == "complete_k_partite":
                assert any(l.startswith("complete_k_partite") for l in labels)
            else:
                assert base in labels, (base, g.layers, labels)


def test_cycle_stream_is_deduplicated_up_to_symmetry():
    fam = list(generate_family(FamilySpec("cycle", (6, 6), (2, 2), "shrinking", 2)))
    keys = {_cycle_canonical_key(g) for g in fam}
    assert len(keys) == len(fam)
    for g in fam:
        assert tuple(g.layers) == _cycle_canonical_key(g)


def test_cycle_stream_covers_every_labeled_orbit_exactly_once():
    # brute-force the labeled instances, quotient by the dihedral action, and
    # compare orbit representatives with the generated stream
    n, budget = 5, 2
    edges = sorted({(i, i + 1) for i in range(1, n)} | {(1, n)})
    universe = frozenset(edges)
    subsets = [frozenset(c) for r in range(len(edges) + 1) for c in combinations(edges, r)]
    labeled_keys = set()
    for e1 in subsets:
        for e2 in subsets:
            if e1 | e2 != universe or e1 == e2 or len(e1 ^ e2) > budget:
                continue
            g = TemporalGraph(n, (tuple(sorted(e1)), tuple(sorted(e2))))
            labeled_keys.add(_cycle_canonical_key(g))
    fam = list(generate_family(FamilySpec("cycle", (n, n), (2, 2), "any", budget)))
    assert {tuple(g.layers) for g in fam} == labeled_keys
    assert len(fam) == len(labeled_keys)


def test_spec_validation():
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("blob", (3, 3), (1, 1))))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 2), (1, 1))))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 3), (0, 1))))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 3), (1, 1), "sideways")))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 3), (1, 1), "any", -1)))


def test_sweep_budget_guard_raises():
    spec = FamilySpec("cycle", (6, 8), (1, 2), "any", 2)
    with pytest.raises(FamilyBudgetError):
        sweep(spec, "rvor", limit=3)


def test_one_change_cycles_all_have_reverse_equilibria():
    outcome = sweep(FamilySpec("cycle", (3, 9), (1, 3), "any", 1), "rvor")
    assert outcome.total == 35
    assert outcome.without_nash == 0
    assert outcome.min_counterexample_n() is None


def test_growing_grid_family_has_a_counterexample():
    outcome = sweep(FamilySpec("grid", (6, 6), (1, 2), "growing"), "rvor")
    assert outcome.without_nash >= 1
    key = build_instance("grow_grid_6").graph
    assert any(o.graph == key and not o.has_nash for o in outcome.outcomes)


def test_growing_cycle_family_has_a_counterexample():
    outcome = sweep(FamilySpec("cycle", (7, 7), (2, 2), "growing", 2), "rvor")
    assert outcome.without_nash >= 1
    assert outcome.min_counterexample_n() == 7
    key = _cycle_canonical_key(build_instance("grow_cycle_7").graph)
    hits = [o for o in outcome.outcomes if tuple(o.graph.layers) == key]
    assert len(hits) == 1 and not hits[0].has_nash


def test_shrinking_path_family_contains_the_bundled_counterexample():
    outcome = sweep(FamilySpec("path", (9, 9), (2, 2), "shrinking", 1), "rvor")
    target = build_instance("shrink_path_9").graph
    hits = [o for o in outcome.outcomes if o.graph == target]
    assert len(hits) == 1 and not hits[0].has_nash


def test_sweep_records_are_sound():
    outcome = sweep(FamilySpec("cycle", (5, 7), (1, 2), "any", 2), "rvor")
    assert outcome.total > 0
    for o in outcome.outcomes:
        d = all_pairs(o.graph)
        found = enumerate_nash(o.graph, d, "rvor")
        assert bool(found) == o.has_nash
        if o.witness is not None:
            assert o.witness == found[0]


def test_written_output_is_deterministic(tmp_path):
    spec = FamilySpec("cycle", (5, 6), (1, 2), "any", 1)
    outcome = sweep(spec, "rvor")
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    write_outcome(outcome, d1)
    write_outcome(sweep(spec, "rvor"), d2)
    assert (d1 / "instances.jsonl").read_bytes() == (d2 / "instances.jsonl").read_bytes()
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()
    lines = (d1 / "instances.jsonl").read_text().splitlines()
    assert len(lines) == outcome.total
    record = json.loads(lines[0])
    g = graph_from_obj(record["graph"])
    assert validate(g) == []
    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["instances"] == outcome.total
