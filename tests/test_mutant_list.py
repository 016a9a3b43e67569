"""The mutant list of ``tests/mutants.py`` stays in step with the source."""

from __future__ import annotations

from mutants import MUTANTS, match_problems


def test_every_mutant_matches_its_source_exactly_once():
    assert MUTANTS
    assert match_problems() == []


def test_every_mutant_is_named_once_and_names_existing_tests():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
    for m in MUTANTS:
        assert m.file.startswith("src/tempvor/") and m.old != m.new
        assert m.tests and all(t.startswith("tests/test_") for t in m.tests)
