"""Dependency policy: the library imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tempvor").glob("*.py"))


def test_library_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative ones stay
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
