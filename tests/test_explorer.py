"""Family generation and exhaustive sweeps: counts, determinism, soundness."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from itertools import combinations, groupby, islice, product

import pytest

from brute import (
    _cycle_canonical_key,
    _cycle_orbit,
    oracle_layer_chains,
    oracle_record_line,
    parse_record_line,
    record_line,
)
from test_games import batch_sizes
from test_sweep_pins import FAMILIES

import tempvor.explorer
import tempvor.games
import tempvor.reach
from tempvor import (
    FamilyBudgetError,
    FamilySpec,
    FamilySpecError,
    GraphValidationError,
    TemporalGraph,
    all_pairs,
    build_class_report,
    build_instance,
    classify_underlying,
    enumerate_nash,
    first_nash,
    generate_family,
    graph_from_obj,
    is_monotone,
    sweep,
    to_json_obj,
    underlying,
    validate,
    write_outcome,
)
from tempvor.explorer import (
    BASE_CLASSES,
    MONOTONICITY,
    _family_runs,
    _layer_chains,
    _Layers,
    _underlying_edge_sets,
)
from tempvor.graph import _clique_edges, _cycle_edges
from tempvor.reach import _expanded_search


def _records(outcome, outdir):
    """(graph, report, witness) of each line that ``write_outcome`` writes."""
    records, _ = write_outcome(outcome, outdir)
    return [parse_record_line(line) for line in records.read_text(encoding="utf-8").splitlines()]


def _changes(g):
    return sum(
        len(frozenset(g.layer(t)) ^ frozenset(g.layer(t + 1))) for t in range(1, g.tau)
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


def _decoded(edge_set, chain):
    """A chain of edge masks as the frozensets of the sorted edges they hold."""
    ordered = sorted(edge_set)
    return tuple(frozenset(e for i, e in enumerate(ordered) if mask >> i & 1) for mask in chain)


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
                    got = [_decoded(edge_set, chain) for chain in _layer_chains(edge_set, tau, mono, budget)]
                    assert got == oracle_layer_chains(edge_set, tau, mono, budget), (
                        edge_set, tau, mono, budget,
                    )
                    checked += len(got)
    assert checked


@pytest.mark.parametrize("mono,chains", [("any", 132), ("growing", 66), ("shrinking", 66)])
def test_layer_chains_past_64_edges(mono, chains):
    # the 66 edges of the 12-clique, one change: each chain toggles one edge,
    # the highest bits included, and the family adds the one-layer instance
    edges = tuple(sorted(_clique_edges(range(1, 13))))
    universe = frozenset(edges)
    # both layers full, then one dropped, in (size, sorted edges) order
    late = [(universe, universe - {e}) for e in edges] if mono != "growing" else []
    early = [(universe - {e}, universe) for e in edges] if mono != "shrinking" else []
    got = [_decoded(edges, chain) for chain in _layer_chains(edges, 2, mono, 1)]
    assert got == late + early
    assert len(got) == chains
    spec = FamilySpec("clique", (12, 12), (1, 2), mono, 1)
    assert sum(1 for _ in generate_family(spec)) == chains + 1


def test_layer_chains_enter_only_branches_that_finish(monkeypatch):
    # growing paths on 4 vertices with two late edges over 80 layers: the
    # walk calls combinations once per toggle size at each node it enters,
    # and stays within 2 calls per instance and layer
    calls, combinations = [], tempvor.explorer.combinations

    def counting(*args):
        calls.append(args)
        return combinations(*args)

    monkeypatch.setattr(tempvor.explorer, "combinations", counting)
    tau = 80
    chains = list(_layer_chains(((1, 2), (2, 3), (3, 4)), tau, "growing", 2))
    assert len(chains) == 474
    assert len(calls) <= 2 * len(chains) * tau


@pytest.mark.parametrize(
    "spec,walks",
    [
        # path n = 1 has no edge, and a zero budget allows no change
        (FamilySpec("path", (1, 1), (1, 10**6)), 1),
        (FamilySpec("threshold", (1, 6), (1, 10**4), "any", 0), 63),
        (FamilySpec("threshold", (1, 6), (2, 10**4), "any", 0), 0),
    ],
)
def test_lifetimes_past_one_are_skipped_when_no_edge_can_change(monkeypatch, spec, walks):
    # one walk per edge set at tau = 1, each yielding its one instance
    calls, layer_chains = [], tempvor.explorer._layer_chains

    def counting(edge_set, tau, *args):
        calls.append(tau)
        return layer_chains(edge_set, tau, *args)

    monkeypatch.setattr(tempvor.explorer, "_layer_chains", counting)
    assert len(list(generate_family(spec))) == walks
    assert calls == [1] * walks


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
            assert frozenset(g.layer(g.tau)) != frozenset(g.layer(g.tau - 1))


# n ranges whose edge sets keep the budget-free tau = 3 families small
_BUILD_N = {
    "path": (1, 4),
    "cycle": (3, 4),
    "tree": (1, 4),
    "grid": (4, 4),
    "clique": (1, 3),
    "complete_k_partite": (2, 3),
    "split": (1, 3),
    "threshold": (1, 3),
}


@pytest.mark.parametrize("base", BASE_CLASSES)
def test_generated_instances_equal_the_checked_construction(base):
    # every instance of every monotonicity and budget, built without the
    # per-instance check, is the graph the checked constructor makes of its
    # layers; within one edge set each distinct layer and edge is one object
    count = 0
    for mono, budget in product(MONOTONICITY, (None, 0, 1, 2)):
        fam = generate_family(FamilySpec(base, _BUILD_N[base], (1, 3), mono, budget))
        for _, run in groupby(fam, lambda g: (g.n, frozenset().union(*g.layers))):
            layers, edges = {}, {}
            for g in run:
                assert g == TemporalGraph(g.n, g.layers)
                assert validate(g) == []
                count += 1
                for layer in g.layers:
                    assert layers.setdefault(layer, layer) is layer
                    for e in layer:
                        assert edges.setdefault(e, e) is e
    assert count > 100


@pytest.mark.parametrize(
    "edge_set",
    [((1, 1),), ((0, 1),), ((1, 4),), ((1, 2), (2, 1)), ((1, True),), ((1, 2.0),)],
    ids=repr,
)
def test_a_bad_edge_set_is_rejected_before_any_instance(monkeypatch, edge_set):
    monkeypatch.setattr(tempvor.explorer, "_underlying_edge_sets", lambda base, n: iter([edge_set]))
    with pytest.raises(GraphValidationError):
        next(generate_family(FamilySpec("path", (3, 3), (1, 2))))


def test_each_layer_is_the_sorted_edges_of_its_mask():
    # every mask over the 4-clique's edges, highest bit first so that the
    # cache fills out of order: a sorted tuple of the edge set's own edge
    # tuples, one tuple per mask
    edges = tuple(sorted(_clique_edges(range(1, 5))))
    layers = _Layers(edges)
    for mask in reversed(range(1 << len(edges))):
        layer = layers[mask]
        assert layer == tuple(sorted(e for i, e in enumerate(edges) if mask >> i & 1))
        assert all(any(e is own for own in edges) for e in layer)
        assert layers[mask] is layer


@pytest.mark.parametrize("base", BASE_CLASSES)
def test_generated_layers_decode_the_walk_in_order(base):
    # one instance per walked chain (every kept one, for cycles), with the
    # sorted edges of each mask as its layers
    spec = FamilySpec(base, _BUILD_N[base], (1, 3), "any", 2)
    expected = []
    for n in range(spec.n_range[0], spec.n_range[1] + 1):
        for edge_set in _underlying_edge_sets(base, n):
            edges = tuple(sorted(edge_set))
            for tau in range(1, 4 if edges else 2):
                for chain in _layer_chains(edges, tau, "any", 2):
                    layers = tuple(tuple(sorted(layer)) for layer in _decoded(edges, chain))
                    g = TemporalGraph(n, layers)
                    if base != "cycle" or layers == _cycle_canonical_key(g):
                        expected.append(g)
    assert list(generate_family(spec)) == expected


def _held_bytes_per_graph(stream, count):
    """Traced bytes per graph of holding ``count`` graphs taken from ``stream``,
    with the stream, and any cache it keeps, still alive."""
    tracemalloc.start()
    try:
        held = list(islice(stream, count))
        assert len(held) == count
        return tracemalloc.get_traced_memory()[0] / count
    finally:
        tracemalloc.stop()


def test_held_instances_share_their_edge_and_layer_tuples():
    # The 10,587 trees with n = 2..5 hold about 165 bytes each when
    # instances share layers (the graph, its layer tuple and a list slot);
    # about 275 with a layer tuple per instance and 565 with edge tuples too.
    tree = FamilySpec("tree", (2, 5), (1, 2), "any")
    assert _held_bytes_per_graph(generate_family(tree), 10_587) < 220
    # The first 5,000 of the ten-edge clique's 59,049 instances: about
    # 180 bytes each, with the edge set's layer cache alive.
    clique = FamilySpec("clique", (5, 5), (1, 2), "any")
    assert _held_bytes_per_graph(generate_family(clique), 5_000) < 250


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


_LABELED_CAP = 10**5


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_stream_is_deduplicated_up_to_symmetry(n):
    # every kept instance is the least image of its orbit under rotation and
    # reflection, and the orbits of the kept instances are disjoint and cover
    # the labelled chains, so every labelled orbit keeps its representative;
    # a case whose labelled walk passes _LABELED_CAP chains is skipped
    edges = tuple(sorted(_cycle_edges(n)))
    bit = {e: 1 << i for i, e in enumerate(edges)}
    checked = skipped = 0
    for mono, tau, budget in product(MONOTONICITY, (1, 2, 3), (None, 1, 2)):
        labeled = set(islice(_layer_chains(edges, tau, mono, budget), _LABELED_CAP + 1))
        if len(labeled) > _LABELED_CAP:
            skipped += 1
            continue
        covered = set()
        for g in generate_family(FamilySpec("cycle", (n, n), (tau, tau), mono, budget)):
            orbit = _cycle_orbit(g)
            assert tuple(g.layers) == min(orbit)
            masks = {tuple(sum(bit[e] for e in layer) for layer in image) for image in orbit}
            assert covered.isdisjoint(masks), (g, mono, budget)
            covered |= masks
        assert covered == labeled, (mono, tau, budget)
        checked += len(labeled)
    assert checked and skipped == {6: 1, 7: 1, 8: 1, 9: 1, 10: 1}.get(n, 0)


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
    with pytest.raises(FamilySpecError, match=r"n is 1\.\.2048"):
        list(generate_family(FamilySpec("path", (3, 2049), (1, 1))))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 3), (0, 1))))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 3), (1, 1), "sideways")))
    with pytest.raises(FamilySpecError):
        list(generate_family(FamilySpec("path", (3, 3), (1, 1), "any", -1)))
    # a list is a pair too
    assert len(list(generate_family(FamilySpec("path", [3, 3], [1, 1])))) == 1


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", (True, 2), (1, 1)),
        FamilySpec("path", (1.0, 3), (1, 1)),
        FamilySpec("path", (1, 3), (1, 2.0)),
        FamilySpec("path", (1, 3), (False, 1)),
        FamilySpec("path", (1, 3), (1, 2), "any", 1.5),
        FamilySpec("path", (1, 3), (1, 2), "any", True),
    ],
    ids=repr,
)
def test_spec_bounds_and_budget_must_be_exact_ints(spec):
    with pytest.raises(FamilySpecError, match="must be ints"):
        list(generate_family(spec))
    with pytest.raises(FamilySpecError, match="must be ints"):
        sweep(spec, "vor")


@pytest.mark.parametrize(
    "spec,field",
    [
        (FamilySpec("path", 5), "n_range"),
        (FamilySpec("path", (1, 2, 3)), "n_range"),
        (FamilySpec("path", (1,)), "n_range"),
        (FamilySpec("path", "13"), "n_range"),
        (FamilySpec("path", (1, 3), 2), "tau_range"),
        (FamilySpec("path", (1, 3), (1, 2, 3)), "tau_range"),
        (FamilySpec("path", (1, 3), ()), "tau_range"),
    ],
    ids=repr,
)
def test_spec_ranges_must_be_pairs(spec, field):
    with pytest.raises(FamilySpecError, match=f"{field} must be a pair of ints"):
        list(generate_family(spec))
    with pytest.raises(FamilySpecError, match=f"{field} must be a pair of ints"):
        sweep(spec, "vor")


@pytest.mark.parametrize("limit", [2.5, 3.0, True, False, "3", None], ids=repr)
def test_sweep_limit_must_be_an_exact_int(monkeypatch, limit):
    generated = _count_calls(monkeypatch, "_family_runs")
    with pytest.raises(ValueError, match="instance limit .* is not an integer"):
        sweep(FamilySpec("path", (3, 3), (1, 1)), "vor", limit=limit)
    assert generated == []


def test_sweep_budget_guard_raises():
    spec = FamilySpec("cycle", (6, 8), (1, 2), "any", 2)
    with pytest.raises(FamilyBudgetError):
        sweep(spec, "rvor", limit=3)


# The guard past 20,000 six-vertex cliques with tau <= 2, in a fresh process:
# prints how far ru_maxrss (KiB on Linux, bytes on macOS) rose above its value
# after the import.
_GUARD_SCRIPT = """
import resource, sys
from tempvor import FamilyBudgetError, FamilySpec, sweep
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    sweep(FamilySpec("clique", (6, 6), (1, 2)), "rvor", limit=20_000)
except FamilyBudgetError:
    rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
    print(rise // 1024 if sys.platform == "darwin" else rise)
"""


def test_sweep_budget_guard_holds_masks_not_graphs():
    # 20,001 instances held as graphs took 6.3 MB; as mask chains, 1.8 MB
    pytest.importorskip("resource")
    src = str(Path(tempvor.explorer.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 4 * 1024


def _count_calls(monkeypatch, name):
    """Record the arguments of every call ``explorer`` makes to ``name``."""
    calls, fn = [], getattr(tempvor.explorer, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(tempvor.explorer, name, counting)
    return calls


def test_sweep_budget_guard_fires_before_any_distance(monkeypatch):
    runs = _count_calls(monkeypatch, "_decide_run")
    labels = _count_calls(monkeypatch, "classify_underlying")
    spec = FamilySpec("cycle", (6, 8), (1, 2), "any", 2)
    for limit in (3, -2):
        with pytest.raises(FamilyBudgetError):
            sweep(spec, "rvor", limit=limit)
    assert runs == labels == []
    assert sweep(FamilySpec("path", (3, 3), (1, 1)), "rvor", limit=1).total == 1
    assert len(runs) == len(labels) == 1


def _recorded_chunks(monkeypatch):
    """Each chunk the distance batch kernel gets, as its graphs, with the
    (flat, sentinel) it returns, recorded as the kernel is called."""
    batch, chunks = tempvor.reach._all_pairs_batch, []

    def recording(n, edges, chunk):
        graphs = [_Layers(edges).graph(n, chain) for chain in chunk]
        chunks.append((graphs, *batch(n, edges, chunk)))
        return chunks[-1][1:]

    monkeypatch.setattr(tempvor.reach, "_all_pairs_batch", recording)
    return chunks


def test_sweep_passes_long_runs_in_chunks(monkeypatch):
    # 4,095 growing 3 x 3 grids share one edge set and tau: one run. Each
    # instance's lane ints take 9 * (3 * 9 + (2 + 2) * 12) = 675 bytes, so a
    # budget one byte short of 1,001 instances cuts the run into four chunks
    # of 1,000 and one of 95.
    spec = FamilySpec("grid", (9, 9), (2, 2), "growing")
    monkeypatch.setattr(tempvor.reach, "_BATCH_BYTES", 1000 * 675 + 674)
    chunks = _recorded_chunks(monkeypatch)
    outcome = sweep(spec, "vor")
    assert [len(chunk) for chunk, _, _ in chunks] == [1000] * 4 + [95]
    graphs = [g for chunk, _, _ in chunks for g in chunk]
    assert outcome.total == len(graphs)
    assert graphs == list(generate_family(spec))
    for chunk, flat, sentinel in chunks:
        assert sentinel == 2 + 9 + 1
        for k, g in enumerate(chunk):
            d = all_pairs(g)
            assert flat[k * 81 : (k + 1) * 81] == d._flat
            assert list(d.rows) == _expanded_search(g, g.vertices)


@pytest.mark.parametrize("kind", ["foo", "VOR"])
def test_sweep_rejects_an_unknown_game_kind(monkeypatch, kind):
    # every run of this family goes to the batch kernel
    chunks = batch_sizes(monkeypatch)
    with pytest.raises(ValueError, match="unknown game kind"):
        sweep(FamilySpec("tree", (2, 4), (1, 2), "any"), kind)
    assert sweep(FamilySpec("tree", (2, 4), (1, 2), "any"), "vor").total == sum(chunks) > 0


@pytest.mark.parametrize(
    "spec",
    [
        # no instance at all, and a family past the guard
        FamilySpec("cycle", (1, 2), (1, 1)),
        FamilySpec("cycle", (6, 8), (1, 2), "any", 2),
    ],
    ids=["empty", "past-the-guard"],
)
def test_sweep_checks_the_game_kind_before_generating(monkeypatch, spec):
    generated = _count_calls(monkeypatch, "_family_runs")
    with pytest.raises(ValueError, match="unknown game kind 'xx'"):
        sweep(spec, "xx", limit=3)
    assert generated == []


def test_a_bad_spec_with_a_good_kind_is_a_spec_error():
    with pytest.raises(FamilySpecError, match="unknown base class"):
        sweep(FamilySpec("blob", (3, 3), (1, 1)), "vor")


def test_sweep_decides_long_runs_in_chunks(monkeypatch, tmp_path):
    # The equilibrium batch decides the distance module's chunks: a budget
    # one byte short of 1,001 growing 3 x 3 grids at 675 lane bytes each cuts
    # their run of 4,095 into four chunks of 1,000 and one of 95, for both.
    spec = FamilySpec("grid", (9, 9), (2, 2), "growing")
    monkeypatch.setattr(tempvor.reach, "_BATCH_BYTES", 1000 * 675 + 674)
    distances, chunks = _recorded_chunks(monkeypatch), batch_sizes(monkeypatch)
    outcome = sweep(spec, "rvor")
    assert chunks == [len(chunk) for chunk, _, _ in distances] == [1000] * 4 + [95]
    records = _records(outcome, tmp_path)
    assert [g for g, _, _ in records] == list(generate_family(spec))
    for g, _, witness in records:
        assert witness == first_nash(g, all_pairs(g), "rvor")


def test_sweep_calls_the_per_instance_kernels_only_for_short_runs(monkeypatch):
    # A small benchmark family of 14 (n, edge set) runs: 3 hold one instance
    # (the empty edge sets, with tau = 1) and 2 more hold at most n. Only
    # their instances reach first_nash, and only the lone ones all_pairs;
    # every other run, its tau = 1 instance included, goes to the batches.
    # Only the graphs first_nash takes are made, each once.
    spec = FamilySpec("threshold", (2, 4), (1, 2), "any")
    runs = [[_Layers(edges).graph(n, c) for c in chains] for n, edges, chains in _family_runs(spec)]
    lone = [g for run in runs if len(run) == 1 for g in run]
    short = [g for run in runs if len(run) <= run[0].n for g in run]
    assert (len(runs), len(lone), len(short), sum(map(len, runs))) == (14, 3, 9, 1164)
    singles, nash = [], []
    all_pairs_, first_nash_ = tempvor.reach.all_pairs, tempvor.games.first_nash
    monkeypatch.setattr(tempvor.reach, "all_pairs", lambda g: singles.append(g) or all_pairs_(g))
    monkeypatch.setattr(
        tempvor.games, "first_nash", lambda g, d, kind: nash.append(g) or first_nash_(g, d, kind)
    )
    built, of = [], TemporalGraph._of
    monkeypatch.setattr(TemporalGraph, "_of", staticmethod(lambda *a: built.append(a) or of(*a)))
    for kind in ("vor", "rvor"):
        singles.clear()
        nash.clear()
        built.clear()
        outcome = sweep(spec, kind)
        assert outcome.total == 1164
        assert (singles, nash) == (lone, short)
        assert len(built) == len(short)


def _distance_bytes() -> int:
    """Traced bytes still held that ``tempvor.reach`` or ``tempvor.games``
    allocated: the chunks' arrays and the matrices sliced from them."""
    held = tracemalloc.take_snapshot().filter_traces(
        [
            tracemalloc.Filter(True, tempvor.reach.__file__),
            tracemalloc.Filter(True, tempvor.games.__file__),
        ]
    )
    return sum(stat.size for stat in held.statistics("filename"))


def test_sweep_makes_per_instance_matrices_on_request(monkeypatch):
    # The 64 one-change paths with n = 33 form one run, which first_nash
    # decides one instance at a time; a small budget keeps the distance
    # module's chunks at 4 instances. When the run's last matrix is decided,
    # the earlier chunks and matrices must be gone.
    spec = FamilySpec("path", (33, 33), (2, 2), "any", 1)
    graphs = list(generate_family(spec))
    [(n, edges, chains)] = [(n, edges, list(chains)) for n, edges, chains in _family_runs(spec)]
    monkeypatch.setattr(tempvor.reach, "_BATCH_BYTES", 4 * 33 * (3 * 33 + (2 + 2) * 32))
    single, held = tempvor.games.first_nash, []

    def reporting(g, d, kind):
        held.append(_distance_bytes() if len(held) == len(graphs) - 1 else None)
        return single(g, d, kind)

    try:
        tracemalloc.start()
        chunks = list(tempvor.reach._all_pairs_run(n, edges, chains))
        assert [len(chunk) for chunk in chunks] == [4] * 16
        chunks = [tempvor.reach._all_pairs_batch(n, edges, chunk) for chunk in chunks]
        together = _distance_bytes()
        del chunks
        tracemalloc.stop()
        monkeypatch.setattr(tempvor.games, "first_nash", reporting)
        tracemalloc.start()
        assert sweep(spec, "vor").total == len(graphs) == 64
    finally:
        tracemalloc.stop()
    assert len(held) == len(graphs)
    assert held[-1] < together / 4


@pytest.mark.parametrize(
    "spec,edge_sets",
    [
        (FamilySpec("tree", (2, 5), (1, 2)), 145),
        # the empty edge set at n = 1 and again at n = 2, with other labels
        (FamilySpec("threshold", (1, 4), (1, 2)), 15),
    ],
    ids=["tree", "threshold"],
)
def test_sweep_classifies_each_underlying_graph_once(monkeypatch, spec, edge_sets):
    calls = _count_calls(monkeypatch, "classify_underlying")
    sweep(spec, "vor")
    keys = [(g.n, frozenset().union(*g.layers)) for g in generate_family(spec)]
    assert len(calls) == len(set(keys)) == edge_sets
    assert [(s.n, s.edges) for (s,) in calls] == list(dict.fromkeys(keys))


@pytest.mark.parametrize("game", ["vor", "rvor"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_reports_match_the_per_instance_report(tmp_path, family, game):
    records = _records(sweep(FAMILIES[family], game), tmp_path)
    assert [g for g, _, _ in records] == list(generate_family(FAMILIES[family]))
    for g, report, _ in records:
        assert report == build_class_report(g, all_pairs(g))


def test_sweep_shares_one_report_per_distinct_report_of_a_run():
    outcome = sweep(FamilySpec("tree", (2, 5), (1, 2), "any"), "vor")
    shared = 0
    for *_, run_reports in outcome.runs:
        reports = {}
        for report in run_reports:
            assert reports.setdefault(report, report) is report
        shared += len(reports)
    assert shared < outcome.total / 10


def test_cycle_family_builds_only_the_graphs_it_keeps(monkeypatch):
    built, of = [], TemporalGraph._of

    def counting(n, layers):
        built.append(n)
        return of(n, layers)

    monkeypatch.setattr(TemporalGraph, "_of", staticmethod(counting))
    fam = list(generate_family(FamilySpec("cycle", (3, 7), (1, 2))))
    assert len(built) == len(fam) == 360


def test_lifetimes_past_the_recursion_limit():
    # one vertex has no edge to change, so no lifetime past 1 is minimal
    assert list(generate_family(FamilySpec("path", (1, 1), (1200, 1200)))) == []
    with pytest.raises(FamilyBudgetError):
        sweep(FamilySpec("path", (2, 2), (1200, 1200)), "vor", limit=5)


def test_one_change_cycles_all_have_reverse_equilibria():
    outcome = sweep(FamilySpec("cycle", (3, 9), (1, 3), "any", 1), "rvor")
    assert outcome.total == 35
    assert outcome.without_nash == 0
    assert outcome.summary_obj()["min_counterexample_n"] is None


def test_growing_grid_family_has_a_counterexample(tmp_path):
    outcome = sweep(FamilySpec("grid", (6, 6), (1, 2), "growing"), "rvor")
    assert outcome.without_nash >= 1
    key = build_instance("grow_grid_6").graph
    assert (key, None) in [(g, witness) for g, _, witness in _records(outcome, tmp_path)]


def test_growing_cycle_family_has_a_counterexample(tmp_path):
    outcome = sweep(FamilySpec("cycle", (7, 7), (2, 2), "growing", 2), "rvor")
    assert outcome.without_nash >= 1
    assert outcome.summary_obj()["min_counterexample_n"] == 7
    key = _cycle_canonical_key(build_instance("grow_cycle_7").graph)
    hits = [witness for g, _, witness in _records(outcome, tmp_path) if g.layers == key]
    assert hits == [None]


def test_shrinking_path_family_contains_the_bundled_counterexample(tmp_path):
    outcome = sweep(FamilySpec("path", (9, 9), (2, 2), "shrinking", 1), "rvor")
    target = build_instance("shrink_path_9").graph
    hits = [witness for g, _, witness in _records(outcome, tmp_path) if g == target]
    assert hits == [None]


def test_sweep_records_are_sound(tmp_path):
    outcome = sweep(FamilySpec("cycle", (5, 7), (1, 2), "any", 2), "rvor")
    records = _records(outcome, tmp_path)
    assert len(records) == outcome.total > 0
    for g, _, witness in records:
        found = enumerate_nash(g, all_pairs(g), "rvor")
        assert witness == (found[0] if found else None)


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


# every base class and monotonicity at small n, then growing grids with
# reverse-game counterexamples, the n >= 10 grids, a budgeted three-layer
# family and a family with no instance
RECORD_FAMILIES = [
    *(FamilySpec(base, (1, 4), (1, 2), mono) for base in BASE_CLASSES for mono in MONOTONICITY),
    FamilySpec("grid", (6, 6), (1, 2), "growing"),
    FAMILIES["grid"],
    FAMILIES["tree_growing_budget2"],
    FamilySpec("path", (1, 1), (2, 2)),
]


def _record_cases(spec, lines):
    """The edge cases of the framing that a family's record lines contain."""
    cases = set()
    for g, _, witness in map(parse_record_line, lines):
        cases |= {
            "n=1" if g.layers == ((),) else None,
            "one-edge layer" if any(len(layer) == 1 for layer in g.layers) else None,
            "no witness" if witness is None else None,
            "n>=10" if g.n >= 10 else None,
            "budgeted tau=3" if g.tau == 3 and spec.max_edge_changes else None,
        }
    return cases - {None} if lines else {"empty"}


def test_written_records_equal_the_oracle_encoding(tmp_path):
    # every line is the record that the per-instance kernels decide for the
    # instance generate_family yields at its place
    cases = set()
    for i, (spec, game) in enumerate(product(RECORD_FAMILIES, ("vor", "rvor"))):
        records, _ = write_outcome(sweep(spec, game), tmp_path / str(i))
        lines = records.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert lines == [oracle_record_line(g, game) for g in generate_family(spec)], spec
        cases |= _record_cases(spec, lines)
    assert cases == {"n=1", "one-edge layer", "no witness", "n>=10", "budgeted tau=3", "empty"}


_DENSE = ("clique", "complete_k_partite", "split", "threshold")


@pytest.mark.parametrize("base", BASE_CLASSES)
def test_mask_flags_and_records_match_the_instances(tmp_path, base):
    # every monotonicity and budget at tau <= 3: each record's monotone flags
    # are those of the instance generate_family makes, and each written line
    # is the encoding of that instance with the sweep's own report and witness
    for mono, budget in product(MONOTONICITY, (None, 0, 1, 2)):
        top = 4 if base in _DENSE else 5
        if (mono, budget) == ("any", None) and (base == "tree" or base in _DENSE):
            top -= 1  # past 10^5 instances at tau = 3 otherwise
        spec = FamilySpec(base, (1, top), (1, 3), mono, budget)
        outcome = sweep(spec, "vor")
        records, _ = write_outcome(outcome, tmp_path / f"{mono}.{budget}")
        lines = records.read_text(encoding="utf-8").splitlines()
        graphs = list(generate_family(spec))
        flags = [parse_record_line(line)[1] for line in lines]
        assert [(r.monotone_growing, r.monotone_shrinking) for r in flags] == [
            is_monotone(g) for g in graphs
        ], spec
        decided = [(r, w) for *_, ws, rs in outcome.runs for w, r in zip(ws, rs)]
        assert lines == [
            record_line(g, r, w, "vor") for g, (r, w) in zip(graphs, decided, strict=True)
        ], spec


def test_writing_streams_the_records(tmp_path):
    cases = [
        (FamilySpec("tree", (2, 5), (1, 2), "any"), 10_587, 2_500_000),
        # one run of 4,096 distinct layers: the fragments must be dropped
        (FamilySpec("grid", (9, 9), (1, 2), "growing"), 4_096, 1_250_000),
    ]
    for spec, total, size in cases:
        outcome = sweep(spec, "rvor")
        assert outcome.total == total
        tracemalloc.start()
        try:
            records, _ = write_outcome(outcome, tmp_path / spec.base_class)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.stat().st_size > size
        # one line and at most _FRAGMENTS layers at a time: the file is five
        # or ten times this bound
        assert peak < 256 * 1024, spec


def test_summary_counts_agree_with_the_outcomes(tmp_path):
    outcome = sweep(FamilySpec("grid", (4, 8), (1, 2), "growing"), "rvor")
    records = _records(outcome, tmp_path)
    failed = [g for g, _, witness in records if witness is None]
    min_n = min(g.n for g in failed)
    summary = outcome.summary_obj()
    assert summary["instances"] == outcome.total == len(records)
    assert summary["with_nash"] == len(records) - len(failed)
    assert outcome.without_nash == summary["without_nash"] == len(failed) > 0
    assert summary["min_counterexample_n"] == min_n
    assert summary["minimal_counterexamples"] == [to_json_obj(g) for g in failed if g.n == min_n]
