"""The mutant list of ``tests/mutants.py`` stays in step with the source."""

from __future__ import annotations

import pytest

import mutants
from mutants import MUTANTS, main, match_problems, selected


def test_every_mutant_matches_its_source_exactly_once():
    assert MUTANTS
    assert match_problems() == []


def test_every_mutant_is_named_once_and_names_existing_tests():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
    for m in MUTANTS:
        assert m.file.startswith("src/tempvor/") and m.old != m.new
        assert m.tests and all(t.startswith("tests/test_") for t in m.tests)


def test_named_mutants_are_selected_in_list_order():
    assert selected([]) == list(MUTANTS)
    assert selected([MUTANTS[3].name, MUTANTS[0].name]) == [MUTANTS[0], MUTANTS[3]]
    with pytest.raises(ValueError, match="no-such-mutant"):
        selected([MUTANTS[0].name, "no-such-mutant"])


def test_main_runs_only_the_named_mutants(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(mutants, "run_mutant", lambda m: ran.append(m) or "killed")
    assert main([MUTANTS[-1].name]) == 0
    assert ran == [MUTANTS[-1]]
    assert capsys.readouterr().out.startswith(f"   killed  {MUTANTS[-1].name}  (")


def test_an_unknown_name_exits_2_and_lists_the_known_names(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "run_mutant", lambda m: pytest.fail("a mutant ran"))
    assert main(["no-such-mutant"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "unknown mutant no-such-mutant; known mutants:"
    assert err[1:] == [m.name for m in MUTANTS]
