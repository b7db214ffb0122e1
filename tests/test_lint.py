"""Source invariants of the library: no assert statement, which python -O
would drop, and no import of random, so no check can be a sampled one."""
from __future__ import annotations

import ast
from pathlib import Path

import flab

SOURCES = sorted(Path(flab.__file__).parent.rglob("*.py"))


def _offences(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            out.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                out.append(f"{path.name}:{node.lineno}: imports random")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "random":
                out.append(f"{path.name}:{node.lineno}: imports from random")
    return out


def test_library_sources_are_found():
    assert len(SOURCES) >= 9


def test_no_assert_and_no_random_in_the_library():
    assert [o for path in SOURCES for o in _offences(path)] == []


def test_the_lint_catches_both(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random as rnd\nfrom random import choice\nassert rnd\n")
    assert len(_offences(bad)) == 3
