"""Command-line front end.

The six single-instance commands (analyze, distances, payoff, best-response,
nash, dynamics) share one request path: read and parse the input file (the
graph constructor checks it), hash it, compute all-pairs distances once, and
open the report with the command, the input's sha256 and, for the four game
commands, the game. Each command's handler adds only its own fields.

Exit codes are a stable contract: 0 success, 1 claim failure, 2 parse error,
3 validation error, 4 bad profile, 5 bad request argument (family spec,
unknown instance or claim, non-positive --max-steps, unwritable output
directory), 6 family budget exceeded, 141 (128 + SIGPIPE) stdout closed by
its reader before the output was written. Reports are pure functions of the
input bytes and flags: no timestamps, hostnames or other machine state
appear in any output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from collections.abc import Callable
from itertools import repeat
from pathlib import Path

from .classify import build_class_report
from .explorer import (
    BASE_CLASSES,
    DEFAULT_INSTANCE_LIMIT,
    FamilyBudgetError,
    FamilySpec,
    FamilySpecError,
    sweep,
    write_outcome,
)
from .games import (
    GAME_KINDS,
    best_response_dynamics,
    best_response_graph,
    best_responses,
    enumerate_nash,
    is_nash,
    payoff,
)
from .graph import GraphValidationError, TemporalGraph, from_json, to_canonical_json, to_json_obj
from .instances import INSTANCE_NAMES, build_instance
from .reach import DistanceMatrix, all_pairs
from .reproduce import DEFAULT_SEED, run_claims

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PROFILE = 4
EXIT_SPEC = 5
EXIT_BUDGET = 6


class _CliError(Exception):
    """A request that cannot be answered; ``code`` is its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_profile(text: str, n: int) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(EXIT_PROFILE, f"profile must be two comma-separated vertices, got {text!r}")
    try:
        p1, p2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _CliError(EXIT_PROFILE, f"profile must be two integers, got {text!r}") from exc
    for p in (p1, p2):
        if not 1 <= p <= n:
            raise _CliError(EXIT_PROFILE, f"profile vertex {p} out of range 1..{n}")
    return p1, p2


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise FamilySpecError(f"bad range {text!r}; expected N or A..B") from exc


@functools.cache
def _encoder(pad: str) -> Callable[[object], str]:
    """The C JSON encoder, with a newline and ``pad`` after each item separator."""
    return json.JSONEncoder(separators=(",\n" + pad, ": ")).encode


_CONTAINERS = (dict, list, tuple)


def _indented(obj, pad: str = "") -> str:
    """The text ``json.dumps`` gives with ``indent=2``, for a JSON tree whose keys are all str.

    CPython's encoder drops to pure Python whenever ``indent`` is set. Here
    Python frames only the dicts and the lists of containers; each list of
    scalars (a distance row, a response list) is one call to the C encoder,
    whose item separator already holds the line break and the indent.
    """
    if not isinstance(obj, _CONTAINERS):
        return _encoder(pad)(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{_encoder(inner)(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if any(map(isinstance, obj, repeat(_CONTAINERS))):
        body = (",\n" + inner).join([_indented(x, inner) for x in obj])
    else:
        body = _encoder(inner)(obj)[1:-1]
    return "[\n" + inner + body + "\n" + pad + "]"


def _emit(obj: dict) -> None:
    print(_indented(obj))


def _request(args) -> int:
    """Answer one single-instance command; ``args.handler`` adds its fields."""
    try:
        raw = Path(args.input).read_bytes()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {args.input}: {exc}") from exc
    try:
        g = from_json(raw.decode("utf-8"))
    except GraphValidationError as exc:
        raise _CliError(EXIT_VALIDATION, f"{args.input}: {exc}") from exc
    except (ValueError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"{args.input}: {exc}") from exc
    d = all_pairs(g)
    out = {"command": args.command, "input_sha256": hashlib.sha256(raw).hexdigest()}
    if "game" in args:
        out["game"] = args.game
    out.update(args.handler(args, g, d))
    _emit(out)
    return EXIT_OK


def _analyze(args, g: TemporalGraph, d: DistanceMatrix) -> dict:
    return {
        "n": g.n,
        "tau": g.tau,
        "class_report": build_class_report(g, d).to_json_obj(),
        "distances": d.to_json_obj(),
    }


def _distances(args, g: TemporalGraph, d: DistanceMatrix) -> dict:
    return {"distances": d.to_json_obj()}


def _payoff(args, g: TemporalGraph, d: DistanceMatrix) -> dict:
    profile = _parse_profile(args.profile, g.n)
    return {"profile": list(profile), "payoff": payoff(g, d, args.game, profile).to_json_obj()}


def _best_response(args, g: TemporalGraph, d: DistanceMatrix) -> dict:
    if args.fixed is None:
        return {"best_response_graph": best_response_graph(g, d, args.game).to_json_obj()}
    if not 1 <= args.fixed <= g.n:
        raise _CliError(EXIT_PROFILE, f"fixed vertex {args.fixed} out of range 1..{g.n}")
    responses, value = best_responses(g, d, args.game, args.role, args.fixed)
    return {"fixed": args.fixed, "role": args.role, "responses": list(responses), "value": value}


def _nash(args, g: TemporalGraph, d: DistanceMatrix) -> dict:
    if args.profile:
        profile = _parse_profile(args.profile, g.n)
        return {"profile": list(profile), "result": is_nash(g, d, args.game, profile).to_json_obj()}
    equilibria = enumerate_nash(g, d, args.game)
    return {"equilibria": [list(p) for p in equilibria], "count": len(equilibria)}


def _dynamics(args, g: TemporalGraph, d: DistanceMatrix) -> dict:
    if args.max_steps < 1:
        raise _CliError(EXIT_SPEC, f"--max-steps must be positive, got {args.max_steps}")
    profile = _parse_profile(args.profile, g.n)
    result = best_response_dynamics(g, d, args.game, profile, max_steps=args.max_steps)
    return {"start": list(profile), "result": result.to_json_obj()}


def _cmd_reproduce(args) -> int:
    try:
        target = args.claim if args.claim is not None else args.instance
        results = run_claims("all" if target is None else target, seed=args.seed)
    except ValueError as exc:
        raise FamilySpecError(str(exc)) from exc
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.claim}: {res.detail}")
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} claims passed")
    return EXIT_OK if passed == len(results) else EXIT_CLAIM_FAILURE


def _cmd_sweep(args) -> int:
    if args.growing and args.shrinking:
        raise FamilySpecError("--growing and --shrinking are mutually exclusive")
    monotonicity = "growing" if args.growing else "shrinking" if args.shrinking else "any"
    spec = FamilySpec(
        base_class=args.family,
        n_range=_parse_range(args.n),
        tau_range=_parse_range(args.tau),
        monotonicity=monotonicity,
        max_edge_changes=args.changes,
    )
    outcome = sweep(spec, args.game, limit=args.limit)
    try:
        records_path, summary_path = write_outcome(outcome, args.out)
    except OSError as exc:
        raise _CliError(EXIT_SPEC, f"cannot write {args.out}: {exc}") from exc
    _emit(
        {
            "command": "sweep",
            "records": str(records_path),
            "summary": str(summary_path),
            "result": outcome.summary_obj(),
        }
    )
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    names = [args.instance] if args.instance is not None else list(INSTANCE_NAMES)
    try:
        fixtures = [build_instance(name) for name in names]
    except ValueError as exc:
        raise FamilySpecError(str(exc)) from exc
    if args.out:
        outdir = Path(args.out)
        written = []
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for fx in fixtures:
                path = outdir / f"{fx.name}.json"
                path.write_text(to_canonical_json(fx.graph) + "\n", encoding="utf-8")
                written.append(str(path))
        except OSError as exc:
            raise _CliError(EXIT_SPEC, f"cannot write {args.out}: {exc}") from exc
        _emit({"command": "fixtures", "written": written})
    else:
        _emit(
            {
                "command": "fixtures",
                "fixtures": [
                    {
                        "name": fx.name,
                        "graph": to_json_obj(fx.graph),
                        "ne_exists": dict(sorted(fx.ne_exists.items())),
                        "witnesses": {
                            kind: [list(p) for p in profs]
                            for kind, profs in sorted(fx.witnesses.items())
                        },
                    }
                    for fx in fixtures
                ],
            }
        )
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="tempvor",
        description="Two-player Voronoi games on temporal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game(p):
        p.add_argument("--game", choices=GAME_KINDS, required=True,
                       help="classic (vor) or reverse (rvor) game")

    def add_request(name, handler, summary, game=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help="temporal graph JSON file")
        if game:
            add_game(p)
        p.set_defaults(fn=_request, handler=handler)
        return p

    add_request("analyze", _analyze, "class report plus all-pairs distances", game=False)
    add_request("distances", _distances, "all-pairs temporal distances", game=False)

    p = add_request("payoff", _payoff, "evaluate a strategy profile")
    p.add_argument("--profile", required=True, metavar="P1,P2")

    p = add_request("best-response", _best_response,
                    "best replies to a fixed vertex, or the full graph")
    p.add_argument("--fixed", type=int, help="opponent vertex; omit for the whole graph")
    p.add_argument("--role", type=int, choices=(1, 2), default=2, help="responding player")

    p = add_request("nash", _nash, "check a profile or enumerate all equilibria")
    p.add_argument("--profile", metavar="P1,P2")

    p = add_request("dynamics", _dynamics, "alternating best-response dynamics")
    p.add_argument("--profile", required=True, metavar="P1,P2", help="start profile")
    p.add_argument("--max-steps", type=int, default=10_000, help="maximum number of moves")

    p = sub.add_parser("reproduce", help="re-check the bundled results")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--instance", help="restrict to claims about one bundled instance")
    group.add_argument("--claim", help="run a single claim by id")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("sweep", help="exhaustive equilibrium sweep over a family")
    p.add_argument("--class", dest="family", required=True,
                   help=f"base class ({', '.join(BASE_CLASSES)})")
    p.add_argument("--n", required=True, metavar="A..B", help="vertex count or range")
    p.add_argument("--tau", default="1..3", metavar="A..B", help="lifetime or range (default 1..3)")
    p.add_argument("--growing", action="store_true")
    p.add_argument("--shrinking", action="store_true")
    p.add_argument("--changes", type=int, help="total edge-change budget across the lifetime")
    add_game(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--limit", type=int, default=DEFAULT_INSTANCE_LIMIT,
                   help="instance guard (error 6 when exceeded)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("fixtures", help="dump the bundled instances")
    p.add_argument("--instance", help="a single instance name")
    p.add_argument("--out", help="write one canonical JSON file per instance")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (_CliError, FamilySpecError, FamilyBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return EXIT_SPEC if isinstance(exc, FamilySpecError) else EXIT_BUDGET


def run() -> None:
    """``main()`` as a process; stdout closed by its reader exits 141."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    run()
