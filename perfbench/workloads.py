"""The four benchmark workloads: seeded inputs, the timed ops, and their checks.

Inputs are made here from the workload seed with the standard library's
``random`` and written as canonical JSON by this file, never by
``tempvor.randgen`` or ``tempvor.graph.to_canonical_json``, so a change to
those modules cannot change what the benchmark feeds the program.

Every workload exposes the same interface to ``run.py``:

* ``inputs_sha256`` -- digest of everything the seed produced;
* ``warm_up()`` -- one small untimed op of the same kind;
* ``ops()`` -- the ops of one pass, as ``(key, payload)`` pairs; every
  pass runs the same ops, in an order the runner shuffles per pass;
* ``run(payload)`` -- the timed call into the program;
* ``check(key, payload, output)`` -- problems found in the output (empty
  when correct), run outside the timed region;
* ``digest(output)`` -- a digest of the output, used to show that tracing
  changes no result.

Library functions are looked up through their modules at call time, so the
traced pass sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GAMES = ("vor", "rvor")
INF = math.inf


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(n: int, layers) -> str:
    """{"n":..,"layers":[[[u,v],..],..]} with u < v and edges sorted per layer."""
    return json.dumps(
        {"n": n, "layers": [[[u, v] for u, v in sorted(layer)] for layer in layers]},
        separators=(",", ":"),
    )


def random_layers(rng: random.Random, vertices: list[int], tau: int, per_layer: int) -> list[set]:
    """tau layers of ``per_layer`` distinct uniform random edges on ``vertices``."""
    layers = []
    for _ in range(tau):
        edges: set[tuple[int, int]] = set()
        while len(edges) < per_layer:
            u, v = rng.choice(vertices), rng.choice(vertices)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        layers.append(edges)
    return layers


def foremost_arrivals(n: int, layers, source: int) -> list[float]:
    """Earliest arrival from ``source`` by the definition of a temporal walk.

    At step t a vertex is reached when an edge active at t joins it to a
    vertex reached strictly before t. Past the stored layers the last one
    repeats, and tau + n steps reach the fixpoint. This is the benchmark's
    own oracle: it needs O(n) memory, where ``tempvor.reach.oracle_arrivals``
    builds the whole time-expanded graph and would set the process's peak
    RSS on the large inputs.
    """
    a = [INF] * (n + 1)
    a[source] = 0
    tau = len(layers)
    for t in range(1, tau + n + 1):
        reached = [
            w
            for u, v in layers[min(t, tau) - 1]
            for x, w in ((u, v), (v, u))
            if a[x] < t and a[w] > t
        ]
        for w in reached:
            a[w] = t
    return a[1:]


def brute_equilibria(td: list[list[float]], kind: str, n: int) -> list[tuple[int, int]]:
    """All equilibria by a double loop over profiles and unilateral deviations."""

    def wins(mine: int, theirs: int) -> int:
        if kind == "vor":
            return sum(td[mine - 1][v] < td[theirs - 1][v] for v in range(n))
        return sum(td[v][mine - 1] < td[v][theirs - 1] for v in range(n))

    score = [[wins(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)]
    best = [max(score[q][b] for q in range(n)) for b in range(n)]
    return [
        (p1, p2)
        for p1 in range(1, n + 1)
        for p2 in range(1, n + 1)
        if score[p1 - 1][p2 - 1] == best[p2 - 1] and score[p2 - 1][p1 - 1] == best[p1 - 1]
    ]


# --- sweep_small --------------------------------------------------------------

# (base class, n range, lifetime range, monotonicity). The tree family is the
# 10,587-instance baseline; the growing grid has reverse-game counterexamples,
# so the minimal-counterexample path of the summary runs.
SWEEP_FAMILIES = (
    ("tree", (2, 5), (1, 2), "any"),
    ("grid", (4, 9), (1, 2), "growing"),
    ("clique", (2, 4), (1, 2), "any"),
    ("threshold", (2, 4), (1, 2), "any"),
    ("cycle", (3, 7), (1, 2), "any"),
)
SWEEP_RECHECKS = 8  # records per op rechecked by brute force, plus counterexamples


class SweepSmall:
    """One op = ``explorer.sweep`` of one (family, game) plus ``write_outcome``."""

    def __init__(self, T, seed: int, workdir: Path, families=SWEEP_FAMILIES):
        self.T = T
        self.seed = seed
        self.workdir = workdir
        self.families = tuple(families)
        self.inputs_sha256 = sha256_text(json.dumps([seed, self.families]))

    def warm_up(self) -> None:
        self.run((("path", (2, 4), (1, 2), "any"), "vor", str(self.workdir / "warm")))

    def ops(self):
        return [
            (f"{fam[0]}.{game}", (fam, game, str(self.workdir / f"{fam[0]}.{game}")))
            for fam in self.families
            for game in GAMES
        ]

    def run(self, payload):
        (base, n_range, tau_range, mono), game, outdir = payload
        explorer = self.T.explorer
        outcome = explorer.sweep(explorer.FamilySpec(base, n_range, tau_range, mono), game)
        return outcome.total, explorer.write_outcome(outcome, outdir)

    def digest(self, output) -> str:
        h = hashlib.sha256()
        for path in output[1]:
            h.update(Path(path).read_bytes())
        return h.hexdigest()

    def check(self, key, payload, output) -> list[str]:
        """Summary against the records, and a seeded sample of records
        rechecked by brute force. The records are streamed, so the check adds
        little to the process's peak RSS."""
        (base, n_range, tau_range, mono), game, _ = payload
        total, (records_path, summary_path) = output
        summary = json.loads(Path(summary_path).read_text())
        problems = []

        def expect(cond, msg):
            if not cond:
                problems.append(f"{key}: {msg}")

        rng = random.Random(f"sweep_small:check:{self.seed}:{key}")
        sampled = set(rng.sample(range(total), min(SWEEP_RECHECKS, total)))
        count = with_nash = counterexamples = 0
        min_n, minimal = None, []
        with open(records_path, encoding="utf-8") as fh:
            for index, line in enumerate(fh):
                r = json.loads(line)
                count += 1
                with_nash += r["has_nash"]
                if not r["has_nash"]:
                    counterexamples += 1
                    if min_n is None or r["n"] < min_n:
                        min_n, minimal = r["n"], []
                    if r["n"] == min_n:
                        minimal.append(r["graph"])
                if index in sampled or (not r["has_nash"] and counterexamples <= SWEEP_RECHECKS):
                    self._recheck(r, game, expect)
        expect(summary["instances"] == count == total, "instance counts disagree")
        expect(summary["with_nash"] == with_nash, "with_nash disagrees with the records")
        expect(summary["without_nash"] == count - with_nash, "without_nash disagrees")
        expect(summary["min_counterexample_n"] == min_n, "min_counterexample_n disagrees")
        expect(summary["minimal_counterexamples"] == minimal, "minimal_counterexamples disagree")
        expect(summary["game"] == game, "summary game")
        expect(
            summary["spec"]
            == {
                "base_class": base,
                "n_range": list(n_range),
                "tau_range": list(tau_range),
                "monotonicity": mono,
                "max_edge_changes": None,
            },
            "summary spec",
        )
        return problems

    @staticmethod
    def _recheck(r, game, expect) -> None:
        n, layers = r["n"], [[tuple(e) for e in layer] for layer in r["graph"]["layers"]]
        td = [foremost_arrivals(n, layers, s) for s in range(1, n + 1)]
        eqs = brute_equilibria(td, game, n)
        expect(r["game"] == game and r["tau"] == len(layers), "record header")
        expect(r["has_nash"] == bool(eqs), f"has_nash wrong for {r['graph']}")
        expect(r["witness"] == (list(eqs[0]) if eqs else None), f"witness wrong for {r['graph']}")
        expect(
            r["report"]["temporally_connected"] == all(x != INF for row in td for x in row),
            f"temporally_connected wrong for {r['graph']}",
        )


# --- nash_large ---------------------------------------------------------------

# (n, lifetime, average degree per layer, isolated vertices). The last layer
# also carries a path through every vertex that is not isolated, so exactly
# the graphs without isolated vertices are temporally connected, and the
# share of unreachable pairs -- which changes the cost of every comparison
# against infinity -- is the same for every seed.
NASH_SLOTS = ((150, 5, 3.0, 8), (185, 8, 3.5, 0), (220, 4, 4.0, 12))


class NashLarge:
    """One op = one graph: parse, validate, distances, class report, and per
    game the equilibria, the best-response graph and seeded dynamics."""

    def __init__(self, T, seed: int, workdir: Path, slots=NASH_SLOTS):
        self.T = T
        rng = random.Random(f"nash_large:{seed}")
        self.graphs = [self._graph(rng, *slot) for slot in slots]
        self.inputs_sha256 = sha256_text(json.dumps(self.graphs))
        self._warm = self._graph(rng, 30, 3, 3.0, 2)

    @staticmethod
    def _graph(rng, n, tau, degree, isolated):
        live = sorted(rng.sample(range(1, n + 1), n - isolated))
        layers = random_layers(rng, live, tau, round(len(live) * degree / 2))
        rng.shuffle(live)
        layers[-1].update((min(u, v), max(u, v)) for u, v in zip(live, live[1:]))
        return {
            "text": canonical_json(n, layers),
            "n": n,
            "tau": tau,
            "connected": isolated == 0,
            "start": rng.sample(range(1, n + 1), 2),
            "probe_seed": rng.randrange(2**32),
        }

    def warm_up(self) -> None:
        self.run(self._warm)

    def ops(self):
        return [(f"n{g['n']}", g) for g in self.graphs]

    def run(self, item):
        T = self.T
        g = T.graph.from_json(item["text"])
        problems = T.graph.validate(g)
        d = T.reach.all_pairs(g)
        report = T.classify.build_class_report(g, d)
        games = {}
        for kind in GAMES:
            games[kind] = (
                T.games.enumerate_nash(g, d, kind),
                T.games.best_response_graph(g, d, kind),
                T.games.best_response_dynamics(g, d, kind, tuple(item["start"])),
            )
        return g, d, problems, report, games

    def digest(self, output) -> str:
        _, d, problems, report, games = output
        obj = [
            problems,
            d.to_json_obj(),
            report.to_json_obj(),
            {k: [eq, brg.to_json_obj(), dyn.to_json_obj()] for k, (eq, brg, dyn) in games.items()},
        ]
        return sha256_text(json.dumps(obj, separators=(",", ":")))

    def check(self, key, item, output) -> list[str]:
        T = self.T
        g, d, validation, report, games = output
        problems = []

        def expect(cond, msg):
            if not cond:
                problems.append(f"{key}: {msg}")

        n = item["n"]
        expect(validation == [] and g.n == n and g.tau == item["tau"], "parsed graph differs")
        rng = random.Random(item["probe_seed"])
        source = rng.randint(1, n)
        expect(
            list(d.row(source)) == foremost_arrivals(n, g.layers, source), f"distances from {source}"
        )
        expect(report.temporally_connected == item["connected"], "temporally_connected")
        for kind, (eqs, brg, dyn) in games.items():
            expect(eqs == sorted(set(eqs)), f"{kind}: equilibria not sorted and distinct")
            for p1, p2 in eqs:
                expect(bool(T.games.is_nash(g, d, kind, (p1, p2))), f"{kind}: {(p1, p2)} not Nash")
                expect(
                    p1 in brg.responses[p2] and p2 in brg.responses[p1],
                    f"{kind}: {(p1, p2)} missing from the best-response graph",
                )
            if dyn.status == "nash":
                expect(bool(T.games.is_nash(g, d, kind, dyn.profile)), f"{kind}: dynamics endpoint")
            fixed = rng.randint(1, n)
            expect(
                T.games.best_responses(g, d, kind, 2, fixed)
                == (brg.responses[fixed], brg.values[fixed]),
                f"{kind}: best-response graph row {fixed}",
            )
            eq_set = set(eqs)
            for _ in range(3):
                profile = (rng.randint(1, n), rng.randint(1, n))
                if profile not in eq_set:
                    expect(
                        not T.games.is_nash(g, d, kind, profile),
                        f"{kind}: {profile} is Nash but was not reported",
                    )
        return problems


# --- cli_requests -------------------------------------------------------------

# Nine long-lifetime sparse files, n from 60 to 120 and lifetime from 100 to
# 200, n/2 edges per layer. Sizes are spread evenly so op latencies form a
# continuum and the percentiles do not sit on a gap between two sizes.
CLI_FILES = tuple((60 + round(60 * k / 8), 100 + round(100 * k / 8)) for k in range(9))
CLI_COMMANDS = ("distances", "payoff", "best-response", "nash", "analyze")


class CliRequests:
    """Closed loop with one client: one op = one in-process ``cli.main(argv)``."""

    def __init__(self, T, seed: int, workdir: Path, files=CLI_FILES):
        self.T = T
        rng = random.Random(f"cli_requests:{seed}")
        self.files = []
        digest = hashlib.sha256()
        for k, (n, tau) in enumerate(files):
            text = canonical_json(n, random_layers(rng, list(range(1, n + 1)), tau, n // 2)) + "\n"
            path = workdir / f"cli_{k}.json"
            path.write_text(text, encoding="utf-8")
            digest.update(text.encode("utf-8"))
            self.files.append((str(path), n))
        warm = canonical_json(20, random_layers(rng, list(range(1, 21)), 20, 10)) + "\n"
        self._warm_path = workdir / "cli_warm.json"
        self._warm_path.write_text(warm, encoding="utf-8")
        self.requests = self._requests(rng, self.files)
        digest.update(json.dumps(self.requests).encode("utf-8"))
        self.inputs_sha256 = digest.hexdigest()
        self._library: dict[str, tuple] = {}

    @staticmethod
    def _requests(rng, files):
        """Every (file, command) pair once, with seeded arguments."""
        requests = []
        for path, n in files:
            for command in CLI_COMMANDS:
                argv = [command, path]
                if command != "distances" and command != "analyze":
                    argv += ["--game", rng.choice(GAMES)]
                if command in ("payoff", "nash"):
                    argv += ["--profile", f"{rng.randint(1, n)},{rng.randint(1, n)}"]
                elif command == "best-response":
                    argv += ["--fixed", str(rng.randint(1, n)), "--role", str(rng.randint(1, 2))]
                requests.append(argv)
        return requests

    def warm_up(self) -> None:
        path = str(self._warm_path)
        for argv in self._requests(random.Random(0), [(path, 20)]):
            self.run(argv)

    def ops(self):
        return [
            (" ".join([argv[0], Path(argv[1]).name, *argv[2:]]), argv) for argv in self.requests
        ]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.T.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def digest(self, output) -> str:
        return sha256_text(json.dumps(output))

    def _answer_base(self, path: str):
        """The library's graph, and its distances and class report computed once.

        Only the small per-file results are cached; the graph is parsed again
        for every check, so the checker adds little to the peak RSS.
        """
        T = self.T
        raw = Path(path).read_bytes()
        g = T.graph.from_json(raw.decode("utf-8"))
        if path not in self._library:
            d = T.reach.all_pairs(g)
            source = random.Random(path).randint(1, g.n)
            oracle_ok = list(d.row(source)) == foremost_arrivals(g.n, g.layers, source)
            report = T.classify.build_class_report(g, d).to_json_obj()
            self._library[path] = (d, hashlib.sha256(raw).hexdigest(), oracle_ok, report)
        return (g, *self._library[path])

    def _expected(self, argv) -> tuple[dict, bool]:
        T = self.T
        command, path = argv[0], argv[1]
        g, d, sha, oracle_ok, report = self._answer_base(path)
        opts = dict(zip(argv[2::2], argv[3::2]))
        out = {"command": command, "input_sha256": sha}
        if command == "distances":
            out["distances"] = d.to_json_obj()
        elif command == "analyze":
            out.update(n=g.n, tau=g.tau, class_report=report, distances=d.to_json_obj())
        else:
            game = opts["--game"]
            out["game"] = game
            if command == "best-response":
                fixed, role = int(opts["--fixed"]), int(opts["--role"])
                responses, value = T.games.best_responses(g, d, game, role, fixed)
                out.update(fixed=fixed, role=role, responses=list(responses), value=value)
            else:
                profile = tuple(int(x) for x in opts["--profile"].split(","))
                out["profile"] = list(profile)
                if command == "payoff":
                    out["payoff"] = T.games.payoff(g, d, game, profile).to_json_obj()
                else:
                    out["result"] = T.games.is_nash(g, d, game, profile).to_json_obj()
        return out, oracle_ok

    def check(self, key, argv, output) -> list[str]:
        code, stdout, stderr = output
        if code != 0:
            return [f"{key}: exit code {code}: {stderr.strip()}"]
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"{key}: output is not JSON: {exc}"]
        expected, oracle_ok = self._expected(argv)
        problems = []
        if got != expected:
            problems.append(f"{key}: output differs from the library answer")
        if not oracle_ok:
            problems.append(f"{key}: library distances disagree with foremost_arrivals")
        return problems


# --- reproduce ----------------------------------------------------------------

REPRODUCE_SEEDS = 4


class Reproduce:
    """One op = ``reproduce.run_claims("all", seed)`` for one derived seed.

    A single claim is not the op: half of the 14 claims take well under a
    millisecond and the rest tens to hundreds, so the median of per-claim
    latencies would sit on the gap between the two groups.
    """

    def __init__(self, T, seed: int, workdir: Path, seeds=REPRODUCE_SEEDS):
        self.T = T
        rng = random.Random(f"reproduce:{seed}")
        self.seeds = [rng.randrange(2**31) for _ in range(seeds)]
        self.inputs_sha256 = sha256_text(json.dumps(self.seeds))

    def warm_up(self) -> None:
        self.T.reproduce.run_claims("grow_cycle_7", self.seeds[0])

    def ops(self):
        return [(f"seed{s}", s) for s in self.seeds]

    def run(self, seed):
        return self.T.reproduce.run_claims("all", seed)

    def digest(self, output) -> str:
        return sha256_text(json.dumps([[r.claim, r.ok, r.detail] for r in output]))

    def check(self, key, seed, output) -> list[str]:
        problems = []
        if [r.claim for r in output] != list(self.T.reproduce.CLAIM_IDS):
            problems.append(f"{key}: claim list differs")
        problems += [f"{key}: FAIL {r.claim}: {r.detail}" for r in output if not r.ok]
        return problems


WORKLOADS = {
    "sweep_small": SweepSmall,
    "nash_large": NashLarge,
    "cli_requests": CliRequests,
    "reproduce": Reproduce,
}
