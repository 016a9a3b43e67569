"""Benchmark for tempvor: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload in turn, each in its own
child process so that peak RSS belongs to one workload. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes over the same inputs and reports per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a table with sample
counts is printed above it, and a result file with provenance is written to
``perfbench/out/``. The program is imported from ``src/`` of the checkout;
without it the run exits with status 2 and prints no result.

End-to-end times are in reference seconds: each measured interval is scaled
by ``CAL_REF_S`` over the time of a fixed pure-Python calibration loop run
before, during and after it. On a shared machine other tenants change the
interpreter's speed by 20-50% for tens of seconds at a time; the scaling
removes most of that, and no change to tempvor can move the loop. The raw
wall-clock values are kept in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
CAL_ITERATIONS = 20000
CAL_REF_S = 0.002  # time of CAL_ITERATIONS loop steps on an unloaded 2.0 GHz 2-vCPU VM
PROBE_INTERVAL_S = 0.025

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _loop_s(iterations: int) -> float:
    """Time of a fixed dict-update loop that runs no tempvor code."""
    t0 = time.perf_counter()
    x: dict[int, int] = {}
    for i in range(iterations):
        k = i % 97
        x[k] = x.get(k, 0) + i
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Best of three 20,000-iteration loops, about 2 ms each."""
    return min(_loop_s(CAL_ITERATIONS) for _ in range(3))


class _SpeedProbe:
    """Samples the loop's speed every PROBE_INTERVAL_S while an op runs.

    Ops run for up to a few seconds, longer than the machine keeps one
    speed, so samples taken only before and after an op would miss most of
    what it went through. A sample costs about 0.2 ms; the time spent in
    the probe is taken out of the op's latency.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(_loop_s(CAL_ITERATIONS // 10) * 10)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(fn, *args, sample: bool = True):
    """Run fn(*args); returns (result or exception, raw seconds, reference seconds).

    Reference seconds scale the raw time by CAL_REF_S over the mean loop time
    measured before and after the call and, when ``sample`` is set, during
    it. A traced call is not sampled, so that no probe time lands in a span.
    """
    before = calibration_s()
    probe = _SpeedProbe()
    with probe if sample else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # reported by the caller as a failed op
            result = exc
        raw = time.perf_counter() - t0 - probe.spent
    speeds = [before, calibration_s(), *probe.samples]
    return result, raw, raw * CAL_REF_S / statistics.fmean(speeds)


def import_tempvor():
    """Import tempvor from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "tempvor" or m.startswith("tempvor.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    T = importlib.import_module("tempvor")
    for sub in ("cli", "explorer", "games", "graph", "reach", "classify", "reproduce"):
        importlib.import_module(f"tempvor.{sub}")
    if Path(T.__file__).resolve().parent != SRC / "tempvor":
        raise ImportError(f"tempvor imported from {T.__file__}, not from {SRC}")
    return T


def provenance(seed: int, inputs_sha256: str) -> dict:
    return {
        "revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "inputs_sha256": inputs_sha256,
    }


def git_revision() -> str:
    """HEAD of the checkout's own .git, read as files; "none" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tempvor").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Sets up one workload, runs timed passes and checks every op."""

    def __init__(self, factory, seed: int, workdir: Path):
        """Set up SETUP_REPEATS times: import, make the inputs, warm up."""
        self.seed = seed
        self.setup_raw, self.setup_ref = [], []

        def setup():
            self.T = import_tempvor()
            self.workload = factory(self.T, seed, workdir)
            self.workload.warm_up()

        for _ in range(SETUP_REPEATS):
            error, raw, ref = timed(setup)
            if error is not None:
                raise error
            self.setup_raw.append(raw)
            self.setup_ref.append(ref)
        self.attempted = 0
        self.failed_ops = 0
        self.problems: list[str] = []
        self._checked: dict[str, str] = {}  # key -> digest of an output that passed its check

    def run_pass(self, pass_index: int, tracer=None) -> dict[str, tuple[float, float, str | None]]:
        """Run every op once, in an order shuffled per pass.

        Returns key -> (raw seconds, reference seconds, output digest). Each
        op starts on a collected heap and is checked right after it returns,
        outside the timed region and with tracing paused: in full the first
        time, and afterwards by comparing its output digest with the one that
        passed, since the program's output is a function of its input.
        """
        wl = self.workload
        ops = wl.ops()
        random.Random(f"order:{self.seed}:{pass_index}").shuffle(ops)
        results = {}
        for op_index, (key, payload) in enumerate(ops):
            self.attempted += 1
            gc.collect()
            if tracer is not None:
                tracer.op = op_index
                tracer.active = True
            output, raw, ref = timed(wl.run, payload, sample=tracer is None)
            if tracer is not None:
                tracer.active = False
            digest = None
            if isinstance(output, Exception):
                problems = [f"{key}: raised {type(output).__name__}: {output}"]
            else:
                try:
                    digest = wl.digest(output)
                    if key in self._checked:
                        problems = []
                        if digest != self._checked[key]:
                            problems = [f"{key}: output differs from an earlier, checked run"]
                    else:
                        problems = wl.check(key, payload, output)
                        if not problems:
                            self._checked[key] = digest
                except Exception as exc:
                    problems = [f"{key}: check raised {type(exc).__name__}: {exc}"]
            del output
            self.failed_ops += bool(problems)
            self.problems.extend(problems)
            results[key] = (raw, ref, digest)
        return results

    def measure(self, seconds: float) -> tuple[dict, dict, dict]:
        """Untraced passes until ``seconds`` of op time: end-to-end metrics.

        Every pass runs the same ops; an op's latency is its median over the
        passes. Returns the metrics, their sample counts and the same values
        in raw wall-clock time.
        """
        per_op: dict[str, list[tuple[float, float]]] = {}
        total, passes = 0.0, 0
        while not passes or total < seconds:
            for key, (raw, ref, _) in self.run_pass(passes).items():
                per_op.setdefault(key, []).append((raw, ref))
                total += raw
            passes += 1
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def summary(i: int, setup: list[float]) -> dict[str, float]:
            lat = sorted(statistics.median(t[i] for t in ts) for ts in per_op.values())
            wall = sum(lat)
            return {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "ops_per_s": len(lat) / wall,
                "op_p50_ms": 1000 * statistics.median(lat),
                "op_p90_ms": 1000 * (
                    statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
                ),
                "peak_rss_mb": rss,
            }

        values = summary(1, self.setup_ref)
        timed_ops = f"{len(per_op)} ops x median of {passes} passes"
        samples = {name: timed_ops for name, _ in END_TO_END}
        samples["setup_s"] = f"median of {len(self.setup_ref)} set-ups"
        samples["peak_rss_mb"] = "1 process"
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return metrics, samples, summary(0, self.setup_raw)

    def measure_traced(self, seconds: float, spans_path: Path) -> tuple[dict, dict, bool]:
        """Alternate untraced and traced passes until ``seconds`` of op time.

        Per-layer values are means over the traced passes, in raw seconds.
        Returns the metrics, their sample counts, and whether every traced
        output digest equals the untraced one.
        """
        tracer = Tracer()
        plain_ref, traced_ref, rows = [], [], []
        total, same = 0.0, True
        spans_path.unlink(missing_ok=True)
        while not rows or total < seconds:
            plain = self.run_pass(2 * len(rows))
            tracer.reset()
            tracer.install()
            try:
                traced = self.run_pass(2 * len(rows) + 1, tracer)
            finally:
                tracer.uninstall()
            same = same and {k: v[2] for k, v in plain.items()} == {k: v[2] for k, v in traced.items()}
            tracer.write_spans(spans_path, len(rows))
            traced_raw = sum(v[0] for v in traced.values())
            total += traced_raw + sum(v[0] for v in plain.values())
            plain_ref.append(sum(v[1] for v in plain.values()))
            traced_ref.append(sum(v[1] for v in traced.values()))
            rows.append(tracer.layer_metrics(traced_raw))
        values = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
        values["trace.overhead_ratio"] = statistics.median(traced_ref) / statistics.median(plain_ref) - 1
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        samples = {k: f"mean of {len(rows)} traced passes" for k in values}
        samples["trace.overhead_ratio"] = f"{len(rows)} traced and {len(rows)} untraced passes"
        return metrics, samples, same


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_call", "per_graph")):
        return "1"
    if name.startswith(("explorer.bytes", "graph.bytes")):
        return "bytes"
    return "count"


def run_one(args) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, workdir)
        stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
        same, raw = True, None
        if args.trace:
            metrics, samples, same = runner.measure_traced(args.seconds, OUT / f"{stem}.spans.jsonl")
        else:
            metrics, samples, raw = runner.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = runner.failed_ops
    result = {
        "correct": failed == 0 and same,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, runner.workload.inputs_sha256),
        "fail_ratio": failed / runner.attempted,
        "traced_equals_untraced": same if args.trace else None,
        "samples": samples,
        "raw_wall_clock": raw,
        "calibration_s": calibration_s(),
        "problems": runner.problems[:50],
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {'fail_ratio':36} {failed / runner.attempted:14.6g} {'1':6} {runner.attempted} ops")
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:14.6g} {m['unit']:6} {samples[name]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tempvor" / "__init__.py").is_file():
        print(f"error: no tempvor sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
