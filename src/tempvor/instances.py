"""Bundled temporal-graph instances with known equilibrium verdicts.

Each fixture is a small, hand-built instance that witnesses an existence or
non-existence result:

* ``grow_cycle_7``     growing 7-cycle; no equilibrium in the reverse game,
                       while (5,4) is one in the classic game.
* ``grow_grid_6``      growing 2x3 grid; no reverse equilibrium, (1,6) is a
                       classic one.
* ``shrink_path_9``    shrinking 9-path (one edge vanishes); no reverse
                       equilibrium.
* ``shrink_cycle_10``  shrinking 10-cycle (two edges vanish); no reverse
                       equilibrium.
* ``shrink_split_8``   shrinking split graph on 8 vertices; no reverse
                       equilibrium, (4,5) is a classic one.
* ``vor_grow_grid_12`` growing 3x4 grid whose first layer is the middle
                       column; no classic equilibrium, best responses cycle.
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


def _grow_cycle_7() -> Fixture:
    e1 = [e for e in _cycle_edges(7) if e not in ((2, 3), (1, 7))]
    e2 = _cycle_edges(7)
    return Fixture(
        "grow_cycle_7",
        TemporalGraph(7, (tuple(e1), tuple(e2))),
        ne_exists={"rvor": False, "vor": True},
        witnesses={"vor": ((5, 4),)},
    )


def _grow_grid_6() -> Fixture:
    e1 = [(1, 2), (1, 4), (3, 6), (5, 6)]
    e2 = e1 + [(2, 3), (2, 5), (4, 5)]
    return Fixture(
        "grow_grid_6",
        TemporalGraph(6, (tuple(e1), tuple(e2))),
        ne_exists={"rvor": False, "vor": True},
        witnesses={"vor": ((1, 6),)},
    )


def _shrink_path_9() -> Fixture:
    e1 = _path_edges(9)
    e2 = [e for e in e1 if e != (3, 4)]
    return Fixture(
        "shrink_path_9",
        TemporalGraph(9, (tuple(e1), tuple(e2))),
        ne_exists={"rvor": False},
    )


def _shrink_cycle_10() -> Fixture:
    e1 = _cycle_edges(10)
    e2 = [e for e in e1 if e not in ((3, 4), (1, 10))]
    return Fixture(
        "shrink_cycle_10",
        TemporalGraph(10, (tuple(e1), tuple(e2))),
        ne_exists={"rvor": False},
    )


def _shrink_split_8() -> Fixture:
    e1 = _clique_edges(range(4, 8)) + ((1, 4), (2, 4), (2, 5), (3, 5), (6, 8), (7, 8))
    e2 = [(2, 4), (2, 5), (4, 6), (5, 7)]
    return Fixture(
        "shrink_split_8",
        TemporalGraph(8, (tuple(e1), tuple(e2))),
        ne_exists={"rvor": False, "vor": True},
        witnesses={"vor": ((4, 5),)},
    )


def _vor_grow_grid_12() -> Fixture:
    e1 = [(2, 6), (6, 10)]
    e2 = _grid_edges(3, 4)
    return Fixture(
        "vor_grow_grid_12",
        TemporalGraph(12, (tuple(e1), tuple(e2))),
        ne_exists={"vor": False},
    )


_BUILDERS = {
    "grow_cycle_7": _grow_cycle_7,
    "grow_grid_6": _grow_grid_6,
    "shrink_path_9": _shrink_path_9,
    "shrink_cycle_10": _shrink_cycle_10,
    "shrink_split_8": _shrink_split_8,
    "vor_grow_grid_12": _vor_grow_grid_12,
}

INSTANCE_NAMES: tuple[str, ...] = tuple(_BUILDERS)


def build_instance(name: str) -> Fixture:
    """The named bundled instance; raises ValueError for unknown names."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown instance {name!r}; known: {', '.join(INSTANCE_NAMES)}"
        ) from None
    return builder()
