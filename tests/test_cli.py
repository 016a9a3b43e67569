"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

import tempvor
from tempvor import all_pairs, build_instance, cli, is_nash, reproduce, to_canonical_json
from tempvor.cli import main
from tempvor.instances import INSTANCE_NAMES
from tempvor.reproduce import CLAIM_IDS, run_claim


@pytest.fixture()
def cycle7_path(tmp_path):
    path = tmp_path / "cycle7.json"
    path.write_text(to_canonical_json(build_instance("grow_cycle_7").graph))
    return str(path)


@pytest.fixture()
def grid12_path(tmp_path):
    path = tmp_path / "grid12.json"
    path.write_text(to_canonical_json(build_instance("vor_grow_grid_12").graph))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_reports_class_and_distances(capsys, cycle7_path):
    code, out = _run(capsys, ["analyze", cycle7_path])
    assert code == 0
    report = json.loads(out)
    assert report["class_report"]["underlying_class"] == ["cycle"]
    assert report["class_report"]["monotone_growing"] is True
    assert report["class_report"]["temporally_connected"] is True
    assert len(report["distances"]) == 7


def test_analyze_is_deterministic(capsys, cycle7_path):
    _, out1 = _run(capsys, ["analyze", cycle7_path])
    _, out2 = _run(capsys, ["analyze", cycle7_path])
    assert out1 == out2


def test_analyze_split_instance(capsys, tmp_path):
    path = tmp_path / "split8.json"
    path.write_text(to_canonical_json(build_instance("shrink_split_8").graph))
    code, out = _run(capsys, ["analyze", str(path)])
    assert code == 0
    report = json.loads(out)["class_report"]
    assert report["underlying_class"] == ["split"]
    assert report["monotone_shrinking"] is True


def test_analyze_empty_layers_not_connected(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 3, "layers": [[]]}')
    code, out = _run(capsys, ["analyze", str(path)])
    assert code == 0
    assert json.loads(out)["class_report"]["temporally_connected"] is False


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["analyze", str(bad)]) == 2
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2


def test_validation_error_exit_code(tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text('{"n": 2, "layers": [[[1, 1]]]}')
    assert main(["analyze", str(loop)]) == 3


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"n": 3, "layers": [[[1, 4]]]}', "layer 1: edge (1,4) has endpoint outside 1..3"),
        ('{"n": 3, "layers": [[[1, 2], [2, 1]]]}', "layer 1: duplicate edge (1,2)"),
        ('{"n": 3, "layers": []}', "layer sequence is empty"),
        ('{"n": -1, "layers": [[]]}', "vertex count -1 is negative"),
    ],
)
def test_each_rule_is_a_validation_error(capsys, tmp_path, text, problem):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {problem}\n"


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"n": "3", "layers": [[]]}', "vertex count '3' is not an integer"),
        ('{"n": 3.0, "layers": [[]]}', "vertex count 3.0 is not an integer"),
        ('{"n": null, "layers": [[]]}', "vertex count None is not an integer"),
        ('{"n": 3, "layers": [[[1, 2.0]]]}', "edge (1,2.0) has an endpoint that is not an int"),
        ('{"n": 3, "layers": [[[true, 2]]]}', "edge (True,2) has an endpoint that is not an int"),
        ('{"n": 3, "layers": [[["1", 2]]]}', "edge ('1',2) has an endpoint that is not an int"),
        ('{"n": 100000000000000000000, "layers": [[]]}',
         "vertex count 100000000000000000000 exceeds the limit of 2048"),
        ('{"n": 2049, "layers": [[]]}', "vertex count 2049 exceeds the limit of 2048"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "distances"])
def test_non_int_and_oversized_values_are_validation_errors(capsys, tmp_path, command, text, problem):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {problem}\n"


def test_oversized_vertex_count_exits_3_without_traceback(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000000000000000000, "layers": [[]]}')
    src = os.path.dirname(os.path.dirname(tempvor.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "tempvor.cli", "distances", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.endswith("exceeds the limit of 2048\n")


def test_stdout_closed_early_exits_141_without_traceback(tmp_path):
    # the reader stops after 10 bytes, as ``| head -c 10`` does, of a report
    # far larger than a pipe's buffer
    path = tmp_path / "path300.json"
    path.write_text(json.dumps({"n": 300, "layers": [[[v, v + 1] for v in range(1, 300)]]}))
    src = os.path.dirname(os.path.dirname(tempvor.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
        [sys.executable, "-m", "tempvor.cli", "distances", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert head == b'{\n  "comma'
    assert (code, err) == (141, "")


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_nash_enumeration_empty_for_reverse_game(capsys, cycle7_path):
    code, out = _run(capsys, ["nash", cycle7_path, "--game", "rvor"])
    assert code == 0
    report = json.loads(out)
    assert report["equilibria"] == [] and report["count"] == 0


def test_nash_profile_check(capsys, cycle7_path):
    code, out = _run(capsys, ["nash", cycle7_path, "--game", "vor", "--profile", "5,4"])
    assert code == 0
    assert json.loads(out)["result"]["is_nash"] is True


def test_bad_profile_exit_code(cycle7_path):
    assert main(["nash", cycle7_path, "--game", "vor", "--profile", "0,9"]) == 4
    assert main(["nash", cycle7_path, "--game", "vor", "--profile", "1"]) == 4
    assert main(["payoff", cycle7_path, "--game", "vor", "--profile", "a,b"]) == 4


def test_payoff_output(capsys, tmp_path):
    path = tmp_path / "grid6.json"
    path.write_text(to_canonical_json(build_instance("grow_grid_6").graph))
    code, out = _run(capsys, ["payoff", str(path), "--game", "rvor", "--profile", "1,2"])
    assert code == 0
    report = json.loads(out)
    assert report["payoff"]["u1_set"] == [1, 4]
    assert report["payoff"]["u2_set"] == [2, 3, 5, 6]


def test_best_response_fixed_and_graph(capsys, grid12_path):
    code, out = _run(capsys, ["best-response", grid12_path, "--game", "vor", "--fixed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["responses"] == [6] and report["value"] == 10
    code, out = _run(capsys, ["best-response", grid12_path, "--game", "vor"])
    assert code == 0
    assert json.loads(out)["best_response_graph"]["responses"]["7"] == [2, 6, 10]


def test_dynamics_reports_cycle(capsys, grid12_path):
    code, out = _run(capsys, ["dynamics", grid12_path, "--game", "vor", "--profile", "1,1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "cycle"
    assert result["cycle"]


def test_reproduce_single_instance(capsys):
    code, out = _run(capsys, ["reproduce", "--instance", "grow_cycle_7"])
    assert code == 0
    assert "PASS grow_cycle_7.rvor.no_equilibrium" in out
    assert "2/2 claims passed" in out


def test_reproduce_single_claim(capsys):
    code, out = _run(capsys, ["reproduce", "--claim", "grow_grid_6.vor.equilibrium_1_6"])
    assert code == 0
    assert "1/1 claims passed" in out


def test_reproduce_unknown_target_is_a_spec_error():
    assert main(["reproduce", "--instance", "nonexistent"]) == 5


@pytest.mark.parametrize("option", ["--claim", "--instance"])
def test_reproduce_empty_target_is_a_spec_error(capsys, option):
    assert main(["reproduce", option, ""]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no claims match ''\n"


def _assert_claim_fails(capsys, claim_id: str) -> None:
    assert not run_claim(claim_id).ok
    code, out = _run(capsys, ["reproduce", "--claim", claim_id])
    assert code == 1
    assert out.startswith(f"FAIL {claim_id}: ")


def _metadata_entries():
    """(claim id, None) for each claim that reads a fixture's verdict, and
    (claim id, i) for the i-th witness it reads."""
    for claim_id in CLAIM_IDS:
        name, game = claim_id.split(".")[:2]
        if name in INSTANCE_NAMES:
            yield claim_id, None
            for i in range(len(build_instance(name).witnesses.get(game, ()))):
                yield claim_id, i


@pytest.mark.parametrize("claim_id, witness", list(_metadata_entries()))
def test_every_fixture_verdict_and_witness_can_fail(monkeypatch, capsys, claim_id, witness):
    name, game, _ = claim_id.split(".")
    fx = build_instance(name)
    if witness is None:
        broken = replace(fx, ne_exists={**fx.ne_exists, game: not fx.ne_exists[game]})
    else:
        d = all_pairs(fx.graph)
        loser = next(
            p for p in product(fx.graph.vertices, repeat=2) if not is_nash(fx.graph, d, game, p).ok
        )
        witnesses = list(fx.witnesses[game])
        witnesses[witness] = loser
        broken = replace(fx, witnesses={**fx.witnesses, game: tuple(witnesses)})
    monkeypatch.setattr(
        reproduce, "build_instance", lambda n: broken if n == name else build_instance(n)
    )
    _assert_claim_fails(capsys, claim_id)


_FIXTURE_ROWS = {claim_id: row for claim_id, *row in reproduce._FIXTURE_CLAIMS}


@pytest.mark.parametrize(
    "claim_id, i",
    [(claim_id, i) for claim_id, (exps, _) in _FIXTURE_ROWS.items() for i in range(len(exps))],
)
def test_every_payoff_expectation_can_fail(monkeypatch, capsys, claim_id, i):
    expectations, detail = _FIXTURE_ROWS[claim_id]
    profile, field, relation, value = expectations[i]
    wrong = value | {0} if isinstance(value, set) else value + 1  # 0 is never a vertex
    expectations = expectations[:i] + ((profile, field, relation, wrong),) + expectations[i + 1 :]
    check = partial(reproduce._fixture_claim, claim_id, expectations, detail)
    monkeypatch.setitem(reproduce.CLAIMS, claim_id, check)
    _assert_claim_fails(capsys, claim_id)


def test_non_positive_max_steps_is_a_request_error(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text('{"n": 2, "layers": [[[1, 2]]]}')
    for steps in ("0", "-1"):
        argv = ["dynamics", str(path), "--game", "vor", "--profile", "1,2", "--max-steps", steps]
        assert main(argv) == 5, steps
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-steps must be positive, got {steps}\n"


def test_max_steps_counts_moves(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text('{"n": 2, "layers": [[[1, 2]]]}')
    argv = ["dynamics", str(path), "--game", "vor", "--profile", "1,2", "--max-steps", "1"]
    code, out = _run(capsys, argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["status"], result["trace"]) == ("nash", [])


def test_sweep_writes_files_and_is_deterministic(capsys, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    argv = ["sweep", "--class", "path", "--n", "3", "--tau", "1", "--game", "rvor"]
    assert main(argv + ["--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "instances.jsonl").read_bytes() == (out2 / "instances.jsonl").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["instances"] == 1 and summary["without_nash"] == 0


def test_sweep_cycles_one_change(capsys, tmp_path):
    code, out = _run(
        capsys,
        ["sweep", "--class", "cycle", "--n", "3..9", "--changes", "1",
         "--game", "rvor", "--out", str(tmp_path / "cyc")],
    )
    assert code == 0
    assert json.loads(out)["result"]["without_nash"] == 0


def test_sweep_spec_and_budget_exit_codes(tmp_path):
    assert main(["sweep", "--class", "blob", "--n", "3", "--game", "rvor",
                 "--out", str(tmp_path / "x")]) == 5
    assert main(["sweep", "--class", "path", "--n", "3..x", "--game", "rvor",
                 "--out", str(tmp_path / "x")]) == 5
    assert main(["sweep", "--class", "path", "--n", "2049", "--game", "rvor",
                 "--out", str(tmp_path / "x")]) == 5
    assert main(["sweep", "--class", "cycle", "--n", "6..8", "--tau", "1..2",
                 "--changes", "2", "--game", "rvor", "--out", str(tmp_path / "x"),
                 "--limit", "3"]) == 6


def test_unwritable_output_directory_is_a_request_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    argvs = (
        ["sweep", "--class", "path", "--n", "3", "--tau", "1", "--game", "rvor", "--out", out],
        ["fixtures", "--out", out],
    )
    for argv in argvs:
        assert main(argv) == 5, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: "), captured.err
        assert "Traceback" not in captured.err


def test_fixtures_listing_and_dump(capsys, tmp_path):
    code, out = _run(capsys, ["fixtures"])
    assert code == 0
    listing = json.loads(out)
    assert [f["name"] for f in listing["fixtures"]] == [
        "grow_cycle_7", "grow_grid_6", "shrink_path_9",
        "shrink_cycle_10", "shrink_split_8", "vor_grow_grid_12",
    ]
    outdir = tmp_path / "fx"
    code, _ = _run(capsys, ["fixtures", "--instance", "grow_cycle_7", "--out", str(outdir)])
    assert code == 0
    text = (outdir / "grow_cycle_7.json").read_text().strip()
    assert text == to_canonical_json(build_instance("grow_cycle_7").graph)


@pytest.mark.parametrize("name", ["", "nonexistent"])
def test_fixtures_unknown_instance_is_a_spec_error(capsys, name):
    assert main(["fixtures", "--instance", name]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown instance {name!r}; known: grow_cycle_7, ")


@pytest.mark.parametrize(
    "args, code, expected",
    [
        (["analyze"], 0, {"n": 0, "tau": 1, "distances": []}),
        (["distances"], 0, {"distances": []}),
        (["payoff", "--game", "vor", "--profile", "1,1"], 4, "profile vertex 1"),
        (["best-response", "--game", "rvor"], 0, {"best_response_graph": {"responses": {}, "values": {}}}),
        (["best-response", "--game", "vor", "--fixed", "1"], 4, "fixed vertex 1"),
        (["nash", "--game", "vor"], 0, {"equilibria": [], "count": 0}),
        (["nash", "--game", "rvor", "--profile", "1,1"], 4, "profile vertex 1"),
        (["dynamics", "--game", "vor", "--profile", "1,1"], 4, "profile vertex 1"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_every_request_on_the_empty_graph(capsys, tmp_path, args, code, expected):
    # n = 0 is a valid graph: its distances are an empty list, and no vertex
    # can be named in a profile
    path = tmp_path / "n0.json"
    path.write_text('{"n":0,"layers":[[]]}')
    assert main([args[0], str(path), *args[1:]]) == code
    captured = capsys.readouterr()
    if code:
        assert (captured.out, captured.err) == ("", f"error: {expected} out of range 1..0\n")
    else:
        payload = json.loads(captured.out)
        assert {key: payload[key] for key in expected} == expected


def test_distances_command(capsys, cycle7_path):
    code, out = _run(capsys, ["distances", cycle7_path])
    assert code == 0
    rows = json.loads(out)["distances"]
    assert rows[4] == [3, 3, 2, 1, 0, 1, 2]


def _fixture_commands(path: str, n: int) -> list[list[str]]:
    profiles = (f"1,{n}", f"{n},1", "2,3")
    argvs = [["analyze", path], ["distances", path]]
    for game in ("vor", "rvor"):
        base = ["--game", game]
        argvs.append(["nash", path] + base)
        argvs.append(["best-response", path] + base)
        argvs.append(["best-response", path] + base + ["--fixed", "1", "--role", "1"])
        argvs.append(["best-response", path] + base + ["--fixed", str(n), "--role", "2"])
        for profile in profiles:
            argvs.append(["nash", path] + base + ["--profile", profile])
            argvs.append(["payoff", path] + base + ["--profile", profile])
            argvs.append(["dynamics", path] + base + ["--profile", profile])
    return argvs


def _stdout_digest(capsys, argvs: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0, argv
        h.update(capsys.readouterr().out.encode("utf-8"))
    return h.hexdigest()


# sha256 over the concatenated stdout of _fixture_commands, per bundled fixture
_FIXTURE_STDOUT_SHA256 = {
    "grow_cycle_7": "5d36cc3c3e48fe11bf2f1c0828e88cb64e867d8914be842e3cffb37c2aa18f9e",
    "grow_grid_6": "eb67b7ccb437602c889c04c7608e1743dfce5fa0d6c74a9180013cb4b1b439a7",
    "shrink_path_9": "91e2b3ff426d9bb8cdc60e06a16196b4df64a2e98bb636337f2d7ddd8d629891",
    "shrink_cycle_10": "9f5a663b1b2e7c40c32cf4f45634e43bc2e3106520ad6a027001267a1cc4554d",
    "shrink_split_8": "cb63eca8c9ec96e6d3eb4eaf9ff93b4784dff2332dc7f31ede116eced67b0034",
    "vor_grow_grid_12": "f447c1886b1bc27867eb8be78b53dffd8610b0574a05c0e8ebfd27b7f34305a8",
}

_REPRODUCE_STDOUT_SHA256 = "e2b86bca2b6655bfd5d315a60e56cb7aae6712fab516e029076ba871c52a6ed2"

# sha256 of `tempvor fixtures` stdout: every fixture's graph, verdicts and
# witnesses, which the reproduce claims read
_FIXTURES_STDOUT_SHA256 = "d964fe5dce0a0966462eed4a2515900d770d08baaef639d51363c168d141902c"


@pytest.mark.parametrize("name", sorted(_FIXTURE_STDOUT_SHA256))
def test_game_commands_stdout_is_pinned(capsys, tmp_path, name):
    g = build_instance(name).graph
    path = tmp_path / f"{name}.json"
    path.write_text(to_canonical_json(g))
    digest = _stdout_digest(capsys, _fixture_commands(str(path), g.n))
    assert digest == _FIXTURE_STDOUT_SHA256[name]


def test_reproduce_stdout_is_pinned(capsys):
    assert _stdout_digest(capsys, [["reproduce"]]) == _REPRODUCE_STDOUT_SHA256


def test_fixtures_stdout_is_pinned(capsys):
    assert _stdout_digest(capsys, [["fixtures"]]) == _FIXTURES_STDOUT_SHA256


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.just("inf") | st.text()
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
    ),
    max_leaves=40,
)


@given(_JSON_TREES)
@example([])
@example({"a": [], "b": {}})
@example([[], [1], [{}]])
@example([1, [2, "inf"], {"é": ["\u2603"]}])
def test_indented_output_equals_the_stdlib_indent(obj):
    assert cli._indented(obj) == json.dumps(obj, indent=2)


def _every_command(tmp_path) -> list[list[str]]:
    """One argv per command and option shape, on graphs with and without
    unreachable pairs, with empty and one-vertex matrices and empty lists."""
    graphs = {
        "grid12": build_instance("vor_grow_grid_12").graph,
        "path9": build_instance("shrink_path_9").graph,
    }
    paths = []
    for name, g in graphs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(to_canonical_json(g))
        paths.append(str(path))
    for name, text in (("edgeless3", '{"n":3,"layers":[[]]}'), ("one", '{"n":1,"layers":[[]]}')):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths.append(str(path))
    argvs = []
    for path in paths:
        argvs += [["analyze", path], ["distances", path]]
        for game in ("vor", "rvor"):
            base = ["--game", game]
            argvs += [
                ["payoff", path, *base, "--profile", "1,1"],
                ["best-response", path, *base],
                ["best-response", path, *base, "--fixed", "1"],
                ["best-response", path, *base, "--fixed", "1", "--role", "1"],
                ["nash", path, *base, "--profile", "1,1"],
                ["nash", path, *base],
                ["dynamics", path, *base, "--profile", "1,1"],
            ]
    argvs += [
        ["sweep", "--class", "path", "--n", "3", "--tau", "1", "--game", "rvor",
         "--out", str(tmp_path / "sweep")],
        ["fixtures"],
        ["fixtures", "--instance", "grow_cycle_7"],
        ["fixtures", "--out", str(tmp_path / "fx")],
    ]
    return argvs


def test_every_command_prints_its_payload_as_the_stdlib_indent(monkeypatch, capsys, tmp_path):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj: (payloads.append(obj), emit(obj)))
    for argv in _every_command(tmp_path):
        code, out = _run(capsys, argv)
        assert code == 0, argv
        assert out == json.dumps(payloads.pop(), indent=2) + "\n", argv
    assert payloads == []


def test_the_cached_parser_keeps_no_state_between_calls(capsys, grid12_path):
    game = [grid12_path, "--game", "vor"]
    pairs = [
        (["best-response", *game, "--fixed", "1", "--role", "1"],
         ["best-response", *game, "--fixed", "1"]),
        (["nash", *game, "--profile", "1,2"], ["nash", *game]),
        (["dynamics", *game, "--profile", "1,1", "--max-steps", "3"],
         ["dynamics", *game, "--profile", "1,1"]),
        (["nash", grid12_path, "--game", "chess"], ["nash", *game]),
    ]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(argv):
        cli._build_parser.cache_clear()
        return call(argv)

    for first, second in pairs:
        parser = cli._build_parser()
        in_one_process = [call(first), call(second)]
        assert cli._build_parser() is parser
        assert in_one_process == [fresh(first), fresh(second)]
    assert [code for code, _, _ in in_one_process] == [2, 0]
