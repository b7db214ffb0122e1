"""Source invariants of the library: no assert statement, which python -O
would drop, and no import of random, so no check can be a sampled one;
one home for the loops and arithmetic every module shares: the one
square-and-multiply loop, the one orbit walk and the polynomial helpers
live in rings; one clock, in reports; no public function that no code
refers to, unless README lists it as public API; and every flab name the
crosscheck scripts use exists."""
from __future__ import annotations

import ast
import importlib
import re
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


def _rings_polynomial_helpers() -> set[str]:
    """The names of rings' polynomial helpers: poly_* and *_poly."""
    tree = ast.parse((Path(flab.__file__).parent / "rings.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and (node.name.startswith("poly_") or node.name.endswith("_poly"))}


def _arithmetic_sites(path: Path, helpers: set[str]) -> list[str]:
    """Every square-and-multiply loop (a >>= augmented assignment), and every
    function outside rings.py named like a polynomial helper: one of
    `helpers` with or without leading underscores, or an _fpp* helper."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
            out.append(f"{path.name}: square-and-multiply loop")
        elif isinstance(node, ast.FunctionDef) and path.name != "rings.py":
            name = node.name.lstrip("_")
            if name in helpers or name.startswith("fpp"):
                out.append(f"{path.name}:{node.lineno}: polynomial helper {node.name}")
    return out


def test_rings_holds_the_one_power_loop_and_every_polynomial_helper():
    helpers = _rings_polynomial_helpers()
    assert {"poly_trim", "poly_divmod", "poly_powmod", "poly_gcd", "irreducible_poly"} <= helpers
    sites = [s for path in SOURCES for s in _arithmetic_sites(path, helpers)]
    assert sites == ["rings.py: square-and-multiply loop"]


def test_the_arithmetic_lint_catches_a_second_copy(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def _power(mul, one, a, k):\n"
        "    while k:\n"
        "        k >>= 1\n"
        "    return one\n"
        "def _fpp(poly, p):\n"
        "    return poly\n"
        "def _poly_gcd(a, b, p):\n"
        "    return a\n"
        "def _irreducible_poly(p, k):\n"
        "    return ()\n"
        "def _poly_invariant_factors(mat, p):\n"
        "    return []\n")
    assert sorted(_arithmetic_sites(bad, _rings_polynomial_helpers())) == [
        "bad.py: square-and-multiply loop",
        "bad.py:5: polynomial helper _fpp",
        "bad.py:7: polynomial helper _poly_gcd",
        "bad.py:9: polynomial helper _irreducible_poly",
    ]


# Reports are timed in one place, reports._timed_report, so no other
# module reads the clock.
def _clock_reads(path: Path) -> list[str]:
    """Every import of time and every perf_counter reference in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) and any(a.name == "time" for a in node.names):
            out.append(f"{path.name}:{node.lineno}: imports time")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "time":
            out.append(f"{path.name}:{node.lineno}: imports from time")
        elif (isinstance(node, ast.Attribute) and node.attr == "perf_counter"
              or isinstance(node, ast.Name) and node.id == "perf_counter"):
            out.append(f"{path.name}:{node.lineno}: reads perf_counter")
    return out


def test_reports_holds_the_one_clock():
    reads = [r for path in SOURCES for r in _clock_reads(path)]
    assert reads and all(r.startswith("reports.py:") for r in reads)


def test_the_clock_lint_catches_a_second_copy(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time as clock\n"
        "from time import perf_counter\n"
        "t0 = clock.perf_counter()\n"
        "t1 = perf_counter()\n"
        "sleep = clock.sleep\n")
    assert _clock_reads(bad) == [
        "bad.py:1: imports time", "bad.py:2: imports from time",
        "bad.py:3: reads perf_counter", "bad.py:4: reads perf_counter"]


# A walk of a list that grows while it is walked is the orbit algorithm,
# which has one home, rings.orbit.  The exceptions are not orbits under
# fixed maps: Dimino's algorithm adjoins generators mid-walk, Light's test
# grows its generating set, and the rewrite worklist keeps duplicate terms.
WALK_EXCEPTIONS = {
    "rings.orbit",
    "group_engine._dimino",
    "group_engine._check_associativity",
    "free_lie._rewrite",
}


def _grows(body, name: str, rebind: bool) -> bool:
    """Whether the statements append to or extend the list `name`, or, with
    rebind, assign to it."""
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == name):
            return True
        if rebind and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return True
    return False


def _growing_walks(path: Path) -> list[str]:
    """module.function for every function holding a `for x in L` whose body
    appends to L, or a `while L` whose body appends to or rebinds L; a loop
    counts for the innermost function around it."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            if isinstance(child, ast.For) and isinstance(child.iter, ast.Name):
                grown = _grows(child.body, child.iter.id, rebind=False)
            elif isinstance(child, ast.While) and isinstance(child.test, ast.Name):
                grown = _grows(child.body, child.test.id, rebind=True)
            else:
                grown = False
            if grown and where not in out:
                out.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return out


def test_every_growing_walk_is_the_orbit_walk_or_a_named_exception():
    walks = {w for path in SOURCES for w in _growing_walks(path)}
    assert walks == WALK_EXCEPTIONS


def test_the_walk_lint_catches_a_second_copy(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def _orbits(n, perms):\n"
        "    orbit = [0]\n"
        "    for y in orbit:\n"
        "        orbit.append(perms[0][y])\n"
        "def closure(gens):\n"
        "    frontier = [()]\n"
        "    while frontier:\n"
        "        frontier = [g for g in gens]\n"
        "def sylow_class(P):\n"
        "    stack = [P]\n"
        "    while stack:\n"
        "        def inner(x):\n"
        "            return x\n"
        "        stack.append(inner(stack.pop()))\n"
        "def fine(xs):\n"
        "    out = []\n"
        "    for x in xs:\n"
        "        out.append(x)\n"
        "    while xs:\n"
        "        xs.pop()\n")
    assert _growing_walks(bad) == ["bad._orbits", "bad.closure", "bad.sylow_class"]


# Public functions that no code in the library refers to: public API for
# callers outside it, each with a reason in README.
PUBLIC_API = {
    "group_engine.direct_product",
    "group_engine.group_rank",
    "group_engine.lower_central_series_sets",
    "graded_lie.ad_nilpotency_index",
    "graded_lie.centralizer",
    "graded_lie.check_scaled_nilpotency",
    "graded_lie.vandermonde_extract",
    "graded_lie.verify_hall_implication",
    "combinatorics.char0_exhaust",
    "combinatorics.find_independent_subseq",
    "free_lie.is_hall",
    "rings.poly_gcd",
}


def _public_functions(paths) -> dict[str, str]:
    """module.function -> function name, for every public top-level function."""
    return {f"{path.stem}.{node.name}": node.name for path in paths
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _references(tree) -> set[str]:
    """The names code refers to, as a Name, an Attribute or an import alias;
    a function's references to itself in its own body do not count, nor
    does text in strings and docstrings."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _unnamed_public_functions(paths) -> list[str]:
    """module.function for every public top-level function that no code
    among paths refers to outside the function itself."""
    refs = set().union(*(_references(ast.parse(path.read_text(), filename=str(path)))
                         for path in paths))
    return sorted(key for key, name in _public_functions(paths).items() if name not in refs)


def test_every_public_function_is_named_in_the_library_or_is_public_api():
    assert set(_unnamed_public_functions(SOURCES)) <= PUBLIC_API
    assert PUBLIC_API <= set(_public_functions(SOURCES))


def test_the_public_api_list_matches_the_readme():
    readme = (Path(flab.__file__).resolve().parents[2] / "README.md").read_text()
    (paragraph,) = [p for p in readme.split("\n\n") if "Public API is what the CLI calls" in p]
    assert PUBLIC_API == set(re.findall(r"`(\w+\.\w+)`", paragraph))


def test_the_caller_lint_catches_an_unnamed_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n"
        "    return unused_too\n"
        "def unused():\n"
        "    return 0\n"
        "def unused_too():\n"
        "    return 0\n"
        "def _private():\n"
        "    return 0\n"
        "class K:\n"
        "    def method(self):\n"
        "        return 0\n"
        "def in_a_string():\n"
        "    return 0\n"
        "def in_a_docstring():\n"
        "    return 0\n"
        "def recursive(n):\n"
        "    def step(k):\n"
        "        return recursive(k)\n"
        "    return step(n - 1) if n else 0\n"
        "def caller():\n"
        "    \"\"\"Unlike in_a_docstring.\"\"\"\n"
        "    return f\"in_a_string {used()}\"\n")
    (tmp_path / "b.py").write_text(
        "from a import used, caller\n\n\ndef unused(x):\n    return x\n")
    assert _unnamed_public_functions(sorted(tmp_path.glob("*.py"))) == [
        "a.in_a_docstring", "a.in_a_string", "a.recursive", "a.unused", "b.unused"]


# The crosscheck scripts are not run by the suite, so a renamed flab name
# would break one silently; their flab names are checked without running them.
SCRIPTS = sorted((Path(flab.__file__).resolve().parents[2] / "scripts").glob("crosscheck_*.py"))


def _flab_object(name: str):
    """The flab module or attribute at a dotted name under flab, or None."""
    try:
        return importlib.import_module(name)
    except ImportError:
        parent, _, attr = name.rpartition(".")
        return getattr(importlib.import_module(parent), attr, None)


def _missing_flab_names(path: Path) -> list[str]:
    """Every name taken by `from flab[.<mod>] import ...`, or read as an
    attribute of a module bound by `from flab import <mod> [as alias]`,
    that does not exist."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "flab":
            for alias in node.names:
                obj = _flab_object(f"{node.module}.{alias.name}")
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif type(obj) is type(flab):
                    aliases[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and not hasattr(aliases[node.value.id], node.attr):
            missing.append(f"{aliases[node.value.id].__name__}.{node.attr}")
    return sorted(missing)


def test_every_flab_name_the_crosscheck_scripts_use_exists():
    assert len(SCRIPTS) >= 8
    assert [m for path in SCRIPTS for m in _missing_flab_names(path)] == []


def test_the_crosscheck_name_lint_catches_a_missing_name(tmp_path):
    bad = tmp_path / "crosscheck_bad.py"
    bad.write_text(
        "from flab import group_engine as ge, reports\n"
        "from flab.rings import power, no_such_helper\n"
        "from flab.reports import PASS\n"
        "ge.lazard_lemma(ge._lazard_lemma_report(None, 0.0))\n"
        "reports.report_check, reports.no_such_report\n")
    assert _missing_flab_names(bad) == [
        "flab.group_engine._lazard_lemma_report",
        "flab.reports.no_such_report",
        "flab.rings.no_such_helper",
    ]
