"""Self-tests of the benchmark itself, on reduced inputs of every workload.

    python3 perfbench/selftest.py

Checks that tracing changes no output, that per-layer counts repeat exactly
across two runs of one seed, that self times plus the unattributed time add
up to the traced wall time, that a corrupted answer is counted as failed,
and that the benchmark refuses to run without the program's sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

# Count metrics that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "explorer.instances",
    "games.tables_per_graph",
    "classify.underlying_distinct_ratio",
    "randgen.all_pairs_per_call",
    "reach.pairs",
    "reach.all_pairs.calls",
    "games.table_cells",
    "graph.bytes_parsed",
    "explorer.bytes_written",
)

SMALL = {
    "sweep_small": lambda T, seed, wd: W.SweepSmall(
        T, seed, wd, families=(("tree", (2, 4), (1, 2), "any"), ("cycle", (3, 6), (1, 2), "any"))
    ),
    "nash_large": lambda T, seed, wd: W.NashLarge(
        T, seed, wd, slots=((40, 3, 3.0, 2), (50, 4, 3.5, 0))
    ),
    "cli_requests": lambda T, seed, wd: W.CliRequests(
        T, seed, wd, files=((20, 30), (30, 40))
    ),
    "reproduce": lambda T, seed, wd: W.Reproduce(T, seed, wd, seeds=2),
}


def traced_once(factory, workdir: Path, seed: int = 7):
    """One untraced and one traced pass 0; returns digests, metrics and the runner."""
    runner = run.Runner(factory, seed, workdir)
    plain = runner.run_pass(0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(1, tracer)
    finally:
        tracer.uninstall()
    wall = sum(raw for raw, _, _ in traced.values())
    digests = lambda r: {key: digest for key, (_, _, digest) in r.items()}  # noqa: E731
    return digests(plain), digests(traced), tracer.layer_metrics(wall), runner


def check(cond: bool, msg: str) -> None:
    if not cond:
        print(f"FAIL {msg}")
        sys.exit(1)
    print(f"ok   {msg}")


def corrupt(name: str, T) -> None:
    """Make the program give a wrong answer on the given workload."""
    if name == "sweep_small":
        T.explorer.first_nash = lambda g, d, kind: None  # every witness dropped
    elif name == "nash_large":
        real = T.games.enumerate_nash
        T.games.enumerate_nash = lambda g, d, kind: sorted(set(real(g, d, kind)) | {(1, 1)})
    elif name == "cli_requests":
        real = T.cli.all_pairs

        def shifted(g):
            d = real(g)
            return type(d)(tuple(tuple(x + 1 for x in row) for row in d.rows))

        T.cli.all_pairs = shifted
    elif name == "reproduce":
        T.reproduce.enumerate_nash = lambda g, d, kind: [(1, 2)]


def main() -> int:
    out = HERE / "out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for name, factory in SMALL.items():
        wd = out / name
        wd.mkdir()
        plain, traced, first, runner = traced_once(factory, wd)
        check(runner.failed_ops == 0, f"{name}: every op passes its check ({runner.problems[:3]})")
        check(
            plain == traced and None not in plain.values(),
            f"{name}: traced output digests equal untraced",
        )
        _, _, second, _ = traced_once(factory, wd)
        for key in EXACT_COUNTS:
            check(first[key] == second[key], f"{name}: {key} repeats exactly ({first[key]})")
        parts = sum(v for k, v in first.items() if k.endswith(".self_s")) + first["trace.unattributed_s"]
        check(
            abs(parts - first["trace.wall_s"]) <= 1e-9 * max(1.0, first["trace.wall_s"]),
            f"{name}: self times + unattributed = traced wall",
        )
        runner = run.Runner(factory, 7, wd)
        corrupt(name, runner.T)
        runner.run_pass(0)
        check(
            runner.failed_ops > 0 and runner.failed_ops <= runner.attempted,
            f"{name}: corrupted answers counted as failed "
            f"(fail_ratio {runner.failed_ops}/{runner.attempted})",
        )

    stripped = out / "stripped"
    (stripped / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", stripped / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, stripped / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=180,
    )
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"no sources: exits {proc.returncode} without a result",
    )
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
