"""Bundled temporal-graph instances with known equilibrium verdicts.

Each fixture is a small, hand-built two-layer instance that witnesses an
existence or non-existence result. ``_FIXTURES`` holds one row per fixture,
under a comment that says what it witnesses; :func:`build_instance` is the one
constructor, and every call returns a new graph and new verdict dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .games import GameKind, Profile
from .graph import TemporalGraph, _clique_edges, _cycle_edges, _grid_edges, _path_edges


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: TemporalGraph
    ne_exists: dict[GameKind, bool] = field(default_factory=dict)
    witnesses: dict[GameKind, tuple[Profile, ...]] = field(default_factory=dict)


_C7, _P9, _C10 = _cycle_edges(7), _path_edges(9), _cycle_edges(10)
_G6 = ((1, 2), (1, 4), (3, 6), (5, 6))  # the first layer of the growing 2x3 grid

# name: (n, layer 1, layer 2, ne_exists, witnesses)
_FIXTURES = {
    # growing 7-cycle; no equilibrium in the reverse game, while (5,4) is one
    # in the classic game
    "grow_cycle_7": (
        7, [e for e in _C7 if e not in ((2, 3), (1, 7))], _C7,
        {"rvor": False, "vor": True}, {"vor": ((5, 4),)},
    ),
    # growing 2x3 grid; no reverse equilibrium, (1,6) is a classic one
    "grow_grid_6": (
        6, _G6, _G6 + ((2, 3), (2, 5), (4, 5)), {"rvor": False, "vor": True}, {"vor": ((1, 6),)},
    ),
    # shrinking 9-path (one edge vanishes); no reverse equilibrium
    "shrink_path_9": (9, _P9, [e for e in _P9 if e != (3, 4)], {"rvor": False}, {}),
    # shrinking 10-cycle (two edges vanish); no reverse equilibrium
    "shrink_cycle_10": (
        10, _C10, [e for e in _C10 if e not in ((3, 4), (1, 10))], {"rvor": False}, {},
    ),
    # shrinking split graph on 8 vertices; no reverse equilibrium, (4,5) is a
    # classic one
    "shrink_split_8": (
        8, _clique_edges(range(4, 8)) + ((1, 4), (2, 4), (2, 5), (3, 5), (6, 8), (7, 8)),
        ((2, 4), (2, 5), (4, 6), (5, 7)), {"rvor": False, "vor": True}, {"vor": ((4, 5),)},
    ),
    # growing 3x4 grid whose first layer is the middle column; no classic
    # equilibrium, best responses cycle
    "vor_grow_grid_12": (12, ((2, 6), (6, 10)), _grid_edges(3, 4), {"vor": False}, {}),
}

INSTANCE_NAMES: tuple[str, ...] = tuple(_FIXTURES)


def build_instance(name: str) -> Fixture:
    """The named bundled instance; raises ValueError for any other name,
    a name that is not a str included."""
    if name not in INSTANCE_NAMES:  # a tuple: an unhashable name is not found either
        raise ValueError(f"unknown instance {name!r}; known: {', '.join(INSTANCE_NAMES)}")
    n, first, second, ne_exists, witnesses = _FIXTURES[name]
    return Fixture(name, TemporalGraph(n, (first, second)), dict(ne_exists), dict(witnesses))
