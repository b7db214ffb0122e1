"""Runs the docstring examples embedded in the library modules, and the
README's Library block."""
from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import flab.combinatorics
import flab.free_lie
import flab.graded_lie
import flab.group_engine
import flab.rings


@pytest.mark.parametrize("module", [
    flab.rings,
    flab.combinatorics,
    flab.free_lie,
    flab.graded_lie,
    flab.group_engine,
], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_block():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
