"""Reproduction harness: every bundled result as a named, checkable claim.

Each claim re-derives one headline fact from scratch -- equilibrium
existence or absence on a bundled instance, the stated payoff sets and
best-reply rows, the behaviour of the constructive builders on randomized
families, oracle equivalence for reachability, and the one-edge-change cycle
sweep. Randomized claims draw from a fixed default seed so reruns are
deterministic; pass a different seed to re-roll them. A claim backed by a
builder fails through the builder's own checks (its ``RuntimeError``) and
checks only what no builder does, so each random instance is solved once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from operator import eq, le
from typing import Callable

from .builders import (
    _settled_clique_dynamics,
    clique_completion,
    kpartite_completion,
    kpartite_shrink_ne,
    split_clique_partition,
    threshold_shrink_ne,
    tree_ne,
    vor_split_shrink_ne,
)
from .classify import classify_underlying
from .explorer import FamilySpec, sweep
from .games import (
    GameKind,
    Profile,
    best_response_dynamics,
    best_response_graph,
    best_responses,
    enumerate_nash,
    is_nash,
    payoff,
)
from .graph import TemporalGraph, is_monotone, underlying
from .instances import build_instance
from .randgen import (
    random_shrinking_kpartite,
    random_shrinking_split,
    random_shrinking_threshold,
    random_temporal_graph,
    random_temporal_tree,
)
from .reach import DistanceMatrix, _expanded_search, all_pairs, earliest_arrivals

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    ok: bool
    detail: str


class _ClaimFailed(Exception):
    """A claim's check found the stated fact false."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise _ClaimFailed(msg)


# (profile, payoff field, relation, value): the claim holds iff
# relation(value, getattr(payoff(profile), field)).
_Expectation = tuple[Profile, str, Callable[[object, object], bool], object]

# The fixture claims. A claim id reads <instance>.<game>.<statement>; the
# checker takes the equilibrium verdict and witnesses of that game from the
# instance's Fixture and adds the payoff expectations of the row.
_FIXTURE_CLAIMS: tuple[tuple[str, tuple[_Expectation, ...], str], ...] = (
    (
        "grow_cycle_7.rvor.no_equilibrium",
        (
            ((2, 5), "u2_set", le, {4, 5, 6, 7}),
            ((3, 4), "u2_set", le, {4, 5, 6, 7}),
            ((4, 7), "u2_set", le, {1, 2, 6, 7}),
            ((5, 4), "u2_set", le, {1, 2, 3, 4}),
        ),
        "no equilibrium among 49 profiles; 4 dominance rows verified",
    ),
    (
        "grow_cycle_7.vor.equilibrium_5_4",
        (((5, 4), "u1", eq, 3), ((5, 4), "u2", eq, 3)),
        "(5,4) is an equilibrium with payoffs 3/3",
    ),
    (
        "grow_grid_6.rvor.no_equilibrium",
        (
            ((1, 2), "u1_set", eq, {1, 4}),
            ((1, 2), "u2_set", eq, {2, 3, 5, 6}),
            ((6, 2), "u1_set", eq, {3, 5, 6}),
            ((2, 6), "u1_set", eq, {1, 2, 4}),
            ((5, 6), "u1_set", eq, {1, 2, 4, 5}),
        ),
        "no equilibrium among 36 profiles; 5 payoff sets match",
    ),
    ("grow_grid_6.vor.equilibrium_1_6", (), "(1,6) is an equilibrium"),
    (
        "shrink_path_9.rvor.no_equilibrium",
        (((4, 5), "u1", eq, 2), ((6, 5), "u1", eq, 4)),
        "no equilibrium among 81 profiles; u1(4,5)=2, u1(6,5)=4",
    ),
    (
        "shrink_cycle_10.rvor.no_equilibrium",
        (((6, 7), "u1", eq, 4), ((2, 7), "u1", eq, 5)),
        "no equilibrium among 100 profiles; u1(6,7)=4, u1(2,7)=5",
    ),
    (
        "shrink_split_8.rvor.no_equilibrium",
        (
            ((7, 4), "u1_set", eq, {3, 7, 8}),
            ((4, 7), "u1_set", eq, {1, 2, 4}),
            ((5, 7), "u1_set", eq, {1, 2, 3, 5}),
            ((5, 6), "u1_set", eq, {2, 3, 5}),
        ),
        "no equilibrium among 64 profiles; 4 payoff sets match",
    ),
)


def _checked_fixture(name: str, game: GameKind) -> tuple[TemporalGraph, DistanceMatrix]:
    """The fixture's graph and distances, after checking its stated verdict
    and witnesses for ``game`` against the full equilibrium enumeration."""
    fx = build_instance(name)
    g, d = fx.graph, all_pairs(fx.graph)
    found = enumerate_nash(g, d, game)
    _expect(
        bool(found) == fx.ne_exists[game],
        f"{game} equilibria {found}, expected ne_exists={fx.ne_exists[game]}",
    )
    for profile in fx.witnesses.get(game, ()):
        _expect(
            bool(is_nash(g, d, game, profile)) and profile in found,
            f"{profile} should be an equilibrium",
        )
    return g, d


def _fixture_claim(claim_id: str, expectations: tuple[_Expectation, ...], detail: str, seed: int) -> str:
    name, game, _ = claim_id.split(".")
    g, d = _checked_fixture(name, game)
    for profile, field, relation, value in expectations:
        got = getattr(payoff(g, d, game, profile), field)
        _expect(
            relation(value, got),
            f"{field}{profile} = {got}, expected {relation.__name__} {value}",
        )
    return detail


def _build_random(seed: int, *families: tuple) -> None:
    """Build 200 instances of each (name, draw(rng, i), builder) from ``Random(f"{seed}:{name}")``."""
    for family, draw, build in families:
        rng = random.Random(f"{seed}:{family}")
        for i in range(200):
            build(draw(rng, i))


def _claim_split_dynamics(seed: int) -> str:
    g, d = _checked_fixture("shrink_split_8", "vor")
    profile = vor_split_shrink_ne(g)
    s = underlying(g)
    clique, indep = split_clique_partition(s)
    for start in permutations(sorted(clique), 2):
        _settled_clique_dynamics(g, d, s, clique, indep, start)
    _build_random(seed, ("split", lambda rng, i: random_shrinking_split(rng), vor_split_shrink_ne))
    return (
        f"(4,5) verified; builder returned {profile}; potential strictly increases on "
        "all clique starts and 200 random shrinking split instances"
    )


_GRID12_BEST_REPLIES = {
    1: ((6,), 10),
    2: ((6,), 5),
    3: ((6, 7), 8),
    4: ((3,), 9),
    5: ((2, 6, 10), 9),
    6: ((8,), 3),
    7: ((2, 6, 10), 6),
    8: ((7,), 9),
    9: ((6,), 10),
    10: ((6,), 5),
    11: ((6, 7), 8),
    12: ((11,), 9),
}


def _contains_cyclic_run(moves: list[int], run: tuple[int, ...]) -> bool:
    if len(moves) < len(run):
        return False
    doubled = moves + moves
    return any(
        tuple(doubled[i : i + len(run)]) == run for i in range(len(moves))
    )


def _claim_grid_12_cycle(seed: int) -> str:
    g, d = _checked_fixture("vor_grow_grid_12", "vor")
    for fixed, (want_set, want_val) in _GRID12_BEST_REPLIES.items():
        got_set, got_val = best_responses(g, d, "vor", 2, fixed)
        _expect(
            got_set == want_set and got_val == want_val,
            f"replies to {fixed}: expected {want_set}/{want_val}, got {got_set}/{got_val}",
        )
    brg = best_response_graph(g, d, "vor")
    _expect(
        brg.responses == {v: rs for v, (rs, _) in _GRID12_BEST_REPLIES.items()},
        "best-response graph deviates from the expected arc sets",
    )
    for start in product(g.vertices, repeat=2):
        result = best_response_dynamics(g, d, "vor", start)
        _expect(result.status == "cycle", f"dynamics from {start} did not cycle")
        moves = [step.profile[step.mover - 1] for step in result.cycle]
        _expect(
            _contains_cyclic_run(moves, (6, 8, 7)),
            f"cycle from {start} misses the 6->8->7 run: {moves}",
        )
    return (
        "no equilibrium among 144 profiles; all 12 best-reply rows match; dynamics "
        "from every start cycles through 6->8->7"
    )


def _claim_trees(seed: int) -> str:
    _build_random(seed, ("trees", lambda rng, i: random_temporal_tree(rng), tree_ne))
    return (
        "200 random temporally connected trees: centroid profile is an equilibrium "
        "with u1 >= n/2 >= u2"
    )


def _claim_kpartite_threshold(seed: int) -> str:
    _build_random(
        seed,
        ("kpartite", lambda rng, i: random_shrinking_kpartite(rng, k=2 + i % 3), kpartite_shrink_ne),
        ("threshold", lambda rng, i: random_shrinking_threshold(rng), threshold_shrink_ne),
    )
    return (
        "200 random shrinking complete k-partite (k in 2..4) and 200 threshold "
        "instances: builders return verified equilibria"
    )


def _claim_completions(seed: int) -> str:
    # kpartite_completion checks that its completions stay equilibrium-free;
    # clique_completion states no such thing, so the claim checks it here
    clique = clique_completion(build_instance("grow_cycle_7").graph)
    found = enumerate_nash(clique, all_pairs(clique), "rvor")
    _expect(found == [], "clique completion gained an equilibrium")
    grid6 = build_instance("grow_grid_6").graph
    cases = [("clique", clique)]
    cases += [(f"complete_k_partite({k})", kpartite_completion(grid6, k)) for k in (2, 3, 4)]
    for label, q in cases:
        _expect(is_monotone(q)[0], f"{label} completion lost monotone growth")
        _expect(label in classify_underlying(underlying(q)), f"{label} completion has another class")
    return (
        "clique completion of the growing 7-cycle and k-partite completions "
        "(k=2,3,4) of the growing grid keep distances and stay equilibrium-free"
    )


def _claim_oracle(seed: int) -> str:
    rng = random.Random(f"{seed}:oracle")
    for i in range(1000):
        g = random_temporal_graph(rng)
        rows = all_pairs(g).rows
        for source, slow in zip(g.vertices, _expanded_search(g, g.vertices)):
            for kernel, fast in (
                ("all_pairs", rows[source - 1]),
                ("earliest_arrivals", earliest_arrivals(g, source)),
            ):
                if fast != slow:
                    raise _ClaimFailed(f"instance {i}, source {source}, {kernel}: {fast} != {slow}")
    return "layer sweep matches time-expanded search on 1000 random instances, all sources"


def _claim_cycle_one_change(seed: int) -> str:
    outcome = sweep(FamilySpec("cycle", (3, 9), (1, 3), "any", 1), "rvor")
    _expect(outcome.total == 35, f"expected 35 instances, generated {outcome.total}")
    _expect(outcome.without_nash == 0, f"{outcome.without_nash} instances without an equilibrium")
    return (
        f"all {outcome.total} cycles (n=3..9, lifetime <= 3, at most one edge change) "
        "have a reverse equilibrium"
    )


# Every claim by id, in report order. A check returns its detail line when the
# claim holds and raises _ClaimFailed otherwise.
CLAIMS: dict[str, Callable[[int], str]] = {
    **{
        claim_id: partial(_fixture_claim, claim_id, expectations, detail)
        for claim_id, expectations, detail in _FIXTURE_CLAIMS
    },
    "shrink_split_8.vor.clique_dynamics": _claim_split_dynamics,
    "vor_grow_grid_12.vor.best_response_cycle": _claim_grid_12_cycle,
    "trees.rvor.centroid_equilibrium": _claim_trees,
    "shrinking.rvor.kpartite_threshold_equilibrium": _claim_kpartite_threshold,
    "completions.rvor.no_equilibrium": _claim_completions,
    "reachability.oracle_equivalence": _claim_oracle,
    "cycles.one_change.rvor.equilibrium_exists": _claim_cycle_one_change,
}

CLAIM_IDS: tuple[str, ...] = tuple(CLAIMS)


def run_claim(claim_id: str, seed: int = DEFAULT_SEED) -> ClaimResult:
    """Run one claim; raises ``ValueError`` for any name not in ``CLAIM_IDS``."""
    if claim_id not in CLAIM_IDS:  # a tuple: an unhashable name is not found either
        raise ValueError(f"unknown claim {claim_id!r}")
    try:
        return ClaimResult(claim_id, True, CLAIMS[claim_id](seed))
    except _ClaimFailed as exc:
        return ClaimResult(claim_id, False, str(exc))
    except Exception as exc:  # builder/internal errors count as failures
        return ClaimResult(claim_id, False, f"raised {type(exc).__name__}: {exc}")


def run_claims(target: str = "all", seed: int = DEFAULT_SEED) -> list[ClaimResult]:
    """Run the claims selected by ``target``: "all", a claim id, or a prefix.

    A bundled instance name like ``grow_cycle_7`` selects every claim about
    that instance. A target that selects nothing, a non-str one included,
    raises ``ValueError``.
    """
    names = CLAIM_IDS if isinstance(target, str) else ()
    selected = [c for c in names if target in ("all", c) or c.startswith(target + ".")]
    if not selected:
        raise ValueError(f"no claims match {target!r}")
    return [run_claim(cid, seed) for cid in selected]
