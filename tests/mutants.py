"""Source mutants of the fast kernels and the test files that must kill each one.

Usage, from any directory::

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME...      # only the named mutants

An unknown name exits 2 and lists the known names. Each mutant is one exact
text replacement in one file under ``src/``. For each, the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies the replacement there and runs the listed test files with
``pytest -x`` in one subprocess; the checkout itself is never written. A
mutant is killed when a test fails (pytest exit code 1). The script prints
one line per mutant and exits 1 when a mutant survives, when a run ends any
other way (a collection error, a timeout), or when an ``old`` text does not
occur exactly once in its file, so a refactor of a listed kernel has to
update this list on purpose.

It stays outside tier-1 because every mutant reruns whole test files;
``tests/test_mutant_list.py`` checks in milliseconds that every ``old``
still matches exactly once, and how names select mutants. Standard library
only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the repository root


_SWEEP_OFFERS = """\
                gains.append((u, rv))
        for w, bits in gains:
"""

# The offers of each edge applied as soon as the edge is read, so an arrival
# at step t travels on along later edges of layer t.
_SWEEP_OFFERS_SPREADING = """\
                gains.append((u, rv))
            for w, bits in gains[-2:] if ru != rv else ():
                new = bits & ~reached[w]
                reached[w] |= new
                while new:
                    low = new & -new
                    arrival[low.bit_length() - 1][w - 1] = t
                    new ^= low
        for w, bits in gains:
"""

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "packed-raw-bytes-up-to-255",
        "src/tempvor/games.py",
        "reach._storage(2 * d._sentinel).itemsize == flat.itemsize == 1",
        "reach._storage(d._sentinel).itemsize == flat.itemsize == 1",
        ("tests/test_games.py",),
    ),
    Mutant(
        "raw-bytes-take-a-sentinel-of-128",
        "src/tempvor/games.py",
        "reach._storage(2 * d._sentinel).itemsize == flat.itemsize == 1",
        "reach._storage(2 * d._sentinel - 1).itemsize == flat.itemsize == 1",
        ("tests/test_games.py",),
    ),
    Mutant(
        "nash-batch-max-keeps-the-smaller",
        "src/tempvor/games.py",
        "best = pay ^ ((best ^ pay) & (keep - (keep >> 7)))",
        "best = best ^ ((best ^ pay) & (keep - (keep >> 7)))",
        ("tests/test_games.py",),
    ),
    Mutant(
        "nash-batch-equality-below-the-guard-bit",
        "src/tempvor/games.py",
        "replies[b] = [((pay | lane_guard) - best) & lane_guard for pay in pays]",
        "replies[b] = [((pay | lane_guard) - best) & (lane_guard >> 1) for pay in pays]",
        ("tests/test_games.py",),
    ),
    Mutant(
        "nash-batch-window-of-n-minus-1-fields",
        "src/tempvor/games.py",
        'window = int.from_bytes((1).to_bytes(size, "little") * n, "little")',
        'window = int.from_bytes((1).to_bytes(size, "little") * (n - 1), "little")',
        ("tests/test_games.py",),
    ),
    Mutant(
        "nash-batch-walk-p2-major",
        "src/tempvor/games.py",
        "first += hit * (p1 + 1)\n                second += hit * (p2 + 1)",
        "first += hit * (p2 + 1)\n                second += hit * (p1 + 1)",
        ("tests/test_games.py",),
    ),
    Mutant(
        "decide-run-batches-21-vertices",
        "src/tempvor/games.py",
        "layers, size, batched = _Layers(edges), n * n, n <= 20",
        "layers, size, batched = _Layers(edges), n * n, n <= 21",
        ("tests/test_games.py",),
    ),
    Mutant(
        "decide-run-batches-a-lone-chunk",
        "src/tempvor/games.py",
        "yield d.all_finite(), first_nash(g, d, kind)",
        "yield d.all_finite(), _first_nash_batch(d._flat, d._sentinel, n, 1, kind)[0]",
        ("tests/test_games.py",),
    ),
    Mutant(
        "decide-run-batches-chunks-of-n",
        "src/tempvor/games.py",
        "if batched and count > n else None",
        "if batched and count >= n else None",
        ("tests/test_games.py",),
    ),
    Mutant(
        "decide-run-accepts-any-kind",
        "src/tempvor/games.py",
        "    _check_kind(kind)\n    layers, size, batched = ",
        "    layers, size, batched = ",
        ("tests/test_games.py",),
    ),
    Mutant(
        "decide-run-connected-reads-the-whole-chunk",
        "src/tempvor/games.py",
        "yield sentinel not in times, witness",
        "yield sentinel not in flat, witness",
        ("tests/test_games.py",),
    ),
    Mutant(
        "decide-run-connected-reads-the-next-instance",
        "src/tempvor/games.py",
        "yield sentinel not in times, witness",
        "yield sentinel not in flat[(k + 1) * size : (k + 2) * size], witness",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "packed-rvor-reads-rows",
        "src/tempvor/games.py",
        "    return [data[p::n] for p in ps]",
        "    return [data[p * n : (p + 1) * n] for p in ps]",
        ("tests/test_games.py",),
    ),
    Mutant(
        "packed-translate-rank-off-by-one",
        "src/tempvor/games.py",
        "for r, t in enumerate(times):",
        "for r, t in enumerate(times, 1):",
        ("tests/test_games.py",),
    ),
    Mutant(
        "column-claims-ties",
        "src/tempvor/games.py",
        "top = (packed[fixed - 1] | guard) - ones",
        "top = packed[fixed - 1] | guard",
        ("tests/test_games.py",),
    ),
    Mutant(
        "replies-largest-maximiser-first",
        "src/tempvor/games.py",
        "return tuple([c for c, value in zip(choices, values) if value == best]), best",
        "return tuple([c for c, value in zip(choices, values) if value == best][::-1]), best",
        ("tests/test_games.py",),
    ),
    Mutant(
        "equilibria-one-sided",
        "src/tempvor/games.py",
        "            if col[p1 - 1] == best:",
        "            if col[p1 - 1] >= 0:",
        ("tests/test_games.py",),
    ),
    Mutant(
        "entry-replies-shifted",
        "src/tempvor/games.py",
        "range(1, d.n + 1)",
        "range(2, d.n + 2)",
        ("tests/test_games.py",),
    ),
    Mutant(
        "deviation-names-largest-reply",
        "src/tempvor/games.py",
        "Deviation(player, replies[0],",
        "Deviation(player, replies[-1],",
        ("tests/test_games.py",),
    ),
    Mutant(
        "all-finite-tests-inf-not-sentinel",
        "src/tempvor/reach.py",
        "return self._sentinel not in self._flat",
        "return INF not in self._flat",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "json-one-int-per-entry",
        "src/tempvor/reach.py",
        "return [list(map(name, flat[u * n : u * n + n])) for u in range(n)]",
        'return [["inf" if x == self._sentinel else x for x in flat[u * n : u * n + n]]'
        " for u in range(n)]",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "all-pairs-packs-two-byte-rows",
        "src/tempvor/reach.py",
        'Struct(f"{g.n}{flat.typecode}")',
        'Struct(f"{g.n}H")',
        ("tests/test_reach.py",),
    ),
    Mutant(
        "sweep-spreads-within-a-layer",
        "src/tempvor/reach.py",
        _SWEEP_OFFERS,
        _SWEEP_OFFERS_SPREADING,
        ("tests/test_reach.py",),
    ),
    Mutant(
        "sweep-stops-before-tau",
        "src/tempvor/reach.py",
        "                new ^= low\n        if t >= tau and not gains:",
        "                new ^= low\n        if not gains:",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "sweep-64-bit-source-mask",
        "src/tempvor/reach.py",
        "reached[s] |= 1 << i",
        "reached[s] |= 1 << (i % 64)",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-drops-the-instance-mask",
        "src/tempvor/reach.py",
        "ru, rv = reached[u] & mask, reached[v] & mask",
        "ru, rv = reached[u], reached[v]",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-last-change-starts-at-one",
        "src/tempvor/reach.py",
        "cnt, last = [0] * (n + 1), [0] * (n + 1)",
        "cnt, last = [0] * (n + 1), [1] * (n + 1)",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-unreached-one-below-sentinel",
        "src/tempvor/reach.py",
        "cnt[w] += (sentinel - last[w]) * (lanes ^ reached[w])",
        "cnt[w] += (sentinel - 1 - last[w]) * (lanes ^ reached[w])",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-lanes-seven-bits-apart",
        "src/tempvor/reach.py",
        "source1 << (8 * size * s)",
        "source1 << ((8 * size - 1) * s)",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-stops-before-tau",
        "src/tempvor/reach.py",
        "                reached[w] = merged\n        if t >= tau and not gains:",
        "                reached[w] = merged\n        if not gains:",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-masks-cached-by-first-row",
        "src/tempvor/reach.py",
        "layer = layer_by_held.get(held)\n        if layer is None:\n"
        "            plain, masked = layer = layer_by_held[held] = [], []",
        "layer = layer_by_held.get(held[:1])\n        if layer is None:\n"
        "            plain, masked = layer = layer_by_held[held[:1]] = [], []",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "run-chunk-boundary-off-by-one",
        "src/tempvor/reach.py",
        "(len(chunk) + 1) * lane_bytes > _BATCH_BYTES",
        "len(chunk) * lane_bytes > _BATCH_BYTES",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "run-budget-without-edge-masks",
        "src/tempvor/reach.py",
        "* n * (3 * n + (tau + 2) * len(edges))",
        "* n * 3 * n",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-reads-layers-cyclically",
        "src/tempvor/reach.py",
        "held = tuple([chain[t] if t < len(chain) else chain[-1] for chain in chains])",
        "held = tuple([chain[t % len(chain)] for chain in chains])",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-takes-the-first-lifetime",
        "src/tempvor/reach.py",
        "count, tau, width = len(chains), max(map(len, chains)), len(edges)",
        "count, tau, width = len(chains), len(chains[0]), len(edges)",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "run-batches-a-lone-instance",
        "src/tempvor/games.py",
        "if count == 1:",
        "if count == 0:",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "run-counts-one-byte-lanes",
        "src/tempvor/reach.py",
        "lane_bytes = _storage(tau + n + 1).itemsize * n *",
        "lane_bytes = n *",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-lanes-a-typecode-too-narrow",
        "src/tempvor/reach.py",
        "typecode = _storage(sentinel).typecode",
        "typecode = _storage(sentinel - 1).typecode",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "batch-drops-partial-edges",
        "src/tempvor/reach.py",
        "for u, v, mask in masked:",
        "for u, v, mask in ():",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "nash-batch-fields-without-a-guard-bit",
        "src/tempvor/games.py",
        "view = array(reach._storage(2 * sentinel).typecode, view)",
        "view = array(reach._storage(sentinel).typecode, view)",
        ("tests/test_games.py",),
    ),
    Mutant(
        "matrix-accepts-bool-entries",
        "src/tempvor/reach.py",
        "if type(x) is not int or x < 0:",
        "if not isinstance(x, int) or x < 0:",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "expanded-search-without-waiting",
        "src/tempvor/reach.py",
        "succ = [[i + 1] if (i + 1) % width else [] for i in range(g.n * width)]",
        "succ = [[] for i in range(g.n * width)]",
        ("tests/test_reach.py",),
    ),
    Mutant(
        "vertex-check-accepts-bool",
        "src/tempvor/graph.py",
        "if type(v) is not int:",
        "if not isinstance(v, int):",
        ("tests/test_games.py",),
    ),
    Mutant(
        "layers-never-shared",
        "src/tempvor/graph.py",
        "norm.append(norm[-1] if norm and norm[-1] == layer else layer)",
        "norm.append(layer)",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "layer-normalisation-accepts-any-endpoint",
        "src/tempvor/graph.py",
        "if type(u) is int is type(v) or _reject(u, v)",
        "if True or _reject(u, v)",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "indented-empty-list-framed",
        "src/tempvor/cli.py",
        'return "{}" if isinstance(obj, dict) else "[]"',
        'return "{}" if isinstance(obj, dict) else "[\\n" + pad + "]"',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "indented-scalar-list-at-outer-pad",
        "src/tempvor/cli.py",
        "body = _encoder(inner)(obj)[1:-1]",
        "body = _encoder(pad)(obj)[1:-1]",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "indented-dict-items-share-a-line",
        "src/tempvor/cli.py",
        'return "{\\n" + inner + (",\\n" + inner).join(items) + "\\n" + pad + "}"',
        'return "{\\n" + inner + ", ".join(items) + "\\n" + pad + "}"',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "monotone-by-union",
        "src/tempvor/graph.py",
        "len(set(a).intersection(b))",
        "len(set(a).union(b))",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "layer-chains-change-budget-off-by-one",
        "src/tempvor/explorer.py",
        "unseen & ~toggle, left - toggle.bit_count()",
        "unseen & ~toggle, left - toggle.bit_count() + 1",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "layer-chains-every-node-live",
        "src/tempvor/explorer.py",
        "return max(1, unseen.bit_count()) <= left and bool(",
        "return True or bool(",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "empty-edge-set-walks-every-lifetime",
        "src/tempvor/explorer.py",
        "top = t_hi if edges and spec.max_edge_changes != 0 else 1",
        "top = t_hi if spec.max_edge_changes != 0 else 1",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "zero-budget-walks-every-lifetime",
        "src/tempvor/explorer.py",
        "top = t_hi if edges and spec.max_edge_changes != 0 else 1",
        "top = t_hi if edges else 1",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "path-allows-degree-three",
        "src/tempvor/classify.py",
        "all(s.degree(v) <= 2 for v in s.vertices)",
        "all(s.degree(v) <= 3 for v in s.vertices)",
        ("tests/test_classify.py",),
    ),
    Mutant(
        "threshold-uncapped-degrees",
        "src/tempvor/classify.py",
        "sum(min(d, k) for d in degs[k:])",
        "sum(degs[k:])",
        ("tests/test_classify.py",),
    ),
    Mutant(
        "spec-accepts-bool-bounds",
        "src/tempvor/explorer.py",
        "if any(type(x) is not int for x in",
        "if any(not isinstance(x, int) for x in",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "cycle-canonical-rotations-only",
        "src/tempvor/explorer.py",
        "for masks, shift in ((turns, k), (mirrors, (k + 1) % n)):",
        "for masks, shift in ((turns, k),):",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "cycle-canonical-reflection-width-off-by-one",
        "src/tempvor/explorer.py",
        'int(f"{m:0{n}b}"[::-1], 2)',
        'int(f"{m:0{n - 1}b}"[::-1], 2)',
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "cycle-canonical-prefix-rule-inverted",
        "src/tempvor/explorer.py",
        "if (key > low) if image & low else (image < low):",
        "if (key < low) if image & low else (image > low):",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "generated-layers-unsorted",
        "src/tempvor/graph.py",
        "tuple([e for i, e in enumerate(self.edges) if mask >> i & 1])",
        "tuple([e for i, e in enumerate(self.edges) if mask >> i & 1][::-1])",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "edge-set-check-skipped",
        "src/tempvor/explorer.py",
        "(edges,) = TemporalGraph(n, (edge_set,)).layers",
        "edges = edge_set",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "generated-layers-not-shared",
        "src/tempvor/graph.py",
        "tuple([self[m] for m in chain])",
        "tuple([self.__missing__(m) for m in chain])",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "sweep-checks-the-kind-after-generating",
        "src/tempvor/explorer.py",
        "    _check_kind(kind)\n",
        "",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "sweep-report-per-instance",
        "src/tempvor/explorer.py",
        "report = reports.get(flags)",
        "report = None",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "sweep-holds-the-runs-matrices",
        "src/tempvor/games.py",
        # every chunk's array kept, under a key no mask takes, for the whole run
        "flat, sentinel = reach._all_pairs_batch(n, edges, chunk)\n",
        "flat, sentinel = reach._all_pairs_batch(n, edges, chunk)\n"
        "        layers[len(layers) + 0.5] = flat\n",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "sweep-monotone-flags-swapped",
        "src/tempvor/explorer.py",
        "flags = (connected, not lost, not gained)",
        "flags = (connected, not gained, not lost)",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "sweep-monotone-skips-the-last-pair",
        "src/tempvor/explorer.py",
        "for a, b in pairwise(chain):",
        "for a, b in pairwise(chain[:-1]):",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "record-monotone-flags-swapped",
        "src/tempvor/explorer.py",
        "report = reports[r] = encode(r.to_json_obj())",
        "report = reports[r] = encode(\n"
        "                    r.to_json_obj()\n"
        '                    | {"monotone_growing": r.monotone_shrinking,'
        ' "monotone_shrinking": r.monotone_growing}\n'
        "                )",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "record-report-cached-on-labels",
        "src/tempvor/explorer.py",
        "report = reports.get(r)\n            if report is None:\n                report = reports[r] =",
        "report = reports.get(r.underlying_class)\n"
        "            if report is None:\n"
        "                report = reports[r.underlying_class] =",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "record-layer-fragments-keyed-by-length",
        "src/tempvor/explorer.py",
        "fragment = layers.get(mask)\n"
        "                if fragment is None:\n"
        "                    if len(layers) == _FRAGMENTS:\n"
        "                        layers.clear()\n"
        "                    held = [text for i, text in texts if mask >> i & 1]\n"
        "                    fragment = layers[mask] =",
        "fragment = layers.get(mask.bit_count())\n"
        "                if fragment is None:\n"
        "                    if len(layers) == _FRAGMENTS:\n"
        "                        layers.clear()\n"
        "                    held = [text for i, text in texts if mask >> i & 1]\n"
        "                    fragment = layers[mask.bit_count()] =",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "record-layer-edges-unsorted",
        "src/tempvor/explorer.py",
        "held = [text for i, text in texts if mask >> i & 1]",
        "held = [text for i, text in texts if mask >> i & 1][::-1]",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "record-layer-fragments-never-cleared",
        "src/tempvor/explorer.py",
        "if len(layers) == _FRAGMENTS:",
        "if False:",
        ("tests/test_explorer.py",),
    ),
    Mutant(
        "fixtures-share-the-table-dicts",
        "src/tempvor/instances.py",
        "dict(ne_exists), dict(witnesses))",
        "ne_exists, witnesses)",
        ("tests/test_instances.py",),
    ),
)


def match_problems(root: Path = ROOT) -> list[str]:
    """One line per mutant whose ``old`` text does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        count = (root / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
    return problems


def run_mutant(m: Mutant, root: Path = ROOT) -> str:
    """'killed', 'SURVIVED' or a description of how the run ended otherwise."""
    with tempfile.TemporaryDirectory(prefix="tempvor-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=skip)
        shutil.copy(root / "pyproject.toml", copy)
        target = copy / m.file
        target.write_text(target.read_text().replace(m.old, m.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"pytest exit code {proc.returncode}"


def selected(names: Sequence[str]) -> list[Mutant]:
    """The mutants called ``names``, in list order, or all of them when no
    name is given; ``ValueError`` names the unknown ones."""
    known = {m.name for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown mutant {', '.join(unknown)}")
    return [m for m in MUTANTS if not names or m.name in names]


def main(names: Sequence[str]) -> int:
    try:
        chosen = selected(names)
    except ValueError as e:
        print(f"{e}; known mutants:", *(m.name for m in MUTANTS), sep="\n", file=sys.stderr)
        return 2
    problems = match_problems()
    if problems:
        print("\n".join(problems))
        return 1
    failed = False
    start = time.perf_counter()
    for m in chosen:
        t = time.perf_counter()
        outcome = run_mutant(m)
        failed |= outcome != "killed"
        print(f"{outcome:>9}  {m.name}  ({time.perf_counter() - t:.1f} s)", flush=True)
    print(f"{'FAILED' if failed else 'all killed'} in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
