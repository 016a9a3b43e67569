"""Bundled instances: exact edge sets and the expected verdict matrix."""

from __future__ import annotations

from itertools import combinations

import pytest

from tempvor import (
    INSTANCE_NAMES,
    all_pairs,
    build_instance,
    enumerate_nash,
    is_nash,
    validate,
)


def test_known_names():
    assert INSTANCE_NAMES == (
        "grow_cycle_7",
        "grow_grid_6",
        "shrink_path_9",
        "shrink_cycle_10",
        "shrink_split_8",
        "vor_grow_grid_12",
    )
    with pytest.raises(ValueError):
        build_instance("nope")


def test_every_instance_validates():
    for fx in map(build_instance, INSTANCE_NAMES):
        assert validate(fx.graph) == [], fx.name


def test_grow_cycle_7_layers():
    g = build_instance("grow_cycle_7").graph
    assert g.n == 7 and g.tau == 2
    assert set(g.layer(1)) == {(1, 2), (3, 4), (4, 5), (5, 6), (6, 7)}
    assert set(g.layer(2)) == set(g.layer(1)) | {(2, 3), (1, 7)}


def test_grow_grid_6_layers():
    g = build_instance("grow_grid_6").graph
    assert g.n == 6 and g.tau == 2
    assert set(g.layer(1)) == {(1, 2), (1, 4), (3, 6), (5, 6)}
    assert set(g.layer(2)) - set(g.layer(1)) == {(2, 3), (2, 5), (4, 5)}


def test_shrink_path_9_layers():
    g = build_instance("shrink_path_9").graph
    assert len(g.layer(1)) == 8 and len(g.layer(2)) == 7
    assert set(g.layer(1)) - set(g.layer(2)) == {(3, 4)}


def test_shrink_cycle_10_layers():
    g = build_instance("shrink_cycle_10").graph
    assert len(g.layer(1)) == 10 and len(g.layer(2)) == 8
    assert set(g.layer(1)) - set(g.layer(2)) == {(3, 4), (1, 10)}


def test_shrink_split_8_layers():
    g = build_instance("shrink_split_8").graph
    assert set(g.layer(2)) == {(2, 4), (2, 5), (4, 6), (5, 7)}
    clique = {tuple(sorted(e)) for e in combinations(range(4, 8), 2)}
    assert clique <= set(g.layer(1))
    assert len(g.layer(1)) == 12


def test_vor_grow_grid_12_layers():
    g = build_instance("vor_grow_grid_12").graph
    assert g.n == 12
    assert set(g.layer(1)) == {(2, 6), (6, 10)}
    assert len(g.layer(2)) == 17  # full 3x4 grid


def test_verdict_matrix_matches_enumeration():
    for fx in map(build_instance, INSTANCE_NAMES):
        d = all_pairs(fx.graph)
        for kind, expected in fx.ne_exists.items():
            found = enumerate_nash(fx.graph, d, kind)
            assert bool(found) == expected, (fx.name, kind)
        for kind, witnesses in fx.witnesses.items():
            for profile in witnesses:
                assert is_nash(fx.graph, d, kind, profile).ok, (fx.name, kind, profile)


def test_each_build_returns_fresh_verdicts():
    fx = build_instance("grow_cycle_7")
    fx.ne_exists["vor"] = False
    fx.witnesses["vor"] = ((1, 1),)
    fx.witnesses["rvor"] = ((2, 2),)
    again = build_instance("grow_cycle_7")
    assert again.ne_exists == {"rvor": False, "vor": True}
    assert again.witnesses == {"vor": ((5, 4),)}
