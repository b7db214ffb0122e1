"""Command line behavior: exit codes, output formats, file inputs, and the
bundled fixture suite."""
from __future__ import annotations

import argparse
import inspect
import json
import random
import subprocess
import sys
import time

import pytest

from flab import cli
from flab import graded_lie as gl
from flab.rings import IntegersRing


def run_lines(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, [ln for ln in out.splitlines() if ln.strip()]


def run_json(capsys, *argv):
    code, lines = run_lines(capsys, *argv)
    return code, [json.loads(ln) for ln in lines]


# --- exit codes ---


def test_prim_pass_violation_error(capsys):
    code, recs = run_json(capsys, "prim", "--n", "7", "--q", "3", "--r", "2",
                          "--format", "json")
    assert code == 0 and recs[0]["status"] == "pass"

    # the least failing divisor, with r's order there (null off the units)
    for (n, q, r), divisor, order in [
        ((15, 4, 2), 3, 2),
        ((6, 2, 2), 2, None),
        ((8, 2, 3), 2, 1),
    ]:
        code, recs = run_json(capsys, "prim", "--n", str(n), "--q", str(q),
                              "--r", str(r), "--format", "json")
        assert code == 1
        assert recs[0]["status"] == "violation"
        assert recs[0]["witness"] == {
            "n": n, "q": q, "r": r, "divisor": divisor, "order": order}

    code, recs = run_json(capsys, "prim", "--n", "1", "--q", "3", "--r", "1",
                          "--format", "json")
    assert code == 2 and recs[0]["status"] == "input-error"


def test_prim_finishes_or_refuses_on_large_moduli(capsys):
    t0 = time.perf_counter()
    # 10^18 + 9 is prime, and 2 has order 2 modulo no divisor of it
    code, recs = run_json(capsys, "prim", "--n", "1000000000000000009", "--q", "2",
                          "--r", "2", "--format", "json")
    assert code == 1 and recs[0]["witness"]["divisor"] == 1000000000000000009
    code, recs = run_json(capsys, "prim", "--n", str(2**89 - 1), "--q", "2", "--r", "2",
                          "--format", "json")
    assert code == 2 and recs[0]["status"] == "capacity-error"
    assert "3317044064679887385961981" in recs[0]["reason"]
    assert time.perf_counter() - t0 < 5.0


def test_unknown_subcommand(capsys):
    code = cli.run(["frobnicate"])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    assert cli.run(["-h"]) == 0
    capsys.readouterr()


def _leaf_parsers(parser, path=()):
    """(argv prefix, parser) for every leaf subcommand under parser."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_every_leaf_subcommand_ends_in_format_and_sets_func_and_label():
    leaves = list(_leaf_parsers(cli.build_parser()))
    for path, sub in leaves:
        last = sub._actions[-1]
        assert last.option_strings == ["--format"], path
        assert (tuple(last.choices), last.default) == (("json", "table"), "table"), path
        assert callable(sub.get_default("func")), path
    assert [sub.get_default("label") for _, sub in leaves] == [
        "prim", "rdep", "dset", "nbound", "charp",
        "lie-validate", "lie-series", "selective-nilpotency", "lie-eigen", "lie-examples",
        "free-basis", "free-normalize", "free-delta", "odin", "dva", "razresh",
        "group-build", "group-verify", "group-jz", "lazard-lemma", "group-powerful",
        "group-bch", "suite",
    ]


# --- data commands ---


def test_dset_exact_output(capsys):
    code, lines = run_lines(capsys, "dset", "--seq", "1", "--n", "7",
                            "--q", "3", "--r", "2", "--format", "json")
    assert code == 0
    assert lines == ['{"d_set": [2, 4, 6]}']


def test_dset_methods_agree(capsys):
    outs = []
    for method in ("brute", "formula", "auto"):
        code, recs = run_json(capsys, "dset", "--seq", "1,3", "--n", "7",
                              "--q", "3", "--r", "2", "--method", method,
                              "--format", "json")
        assert code == 0
        outs.append(recs[0]["d_set"])
    assert outs[0] == outs[1] == outs[2]


def test_rdep_and_nbound(capsys):
    code, recs = run_json(capsys, "rdep", "--seq", "1,2", "--n", "7",
                          "--q", "3", "--r", "2", "--format", "json")
    assert code == 0 and recs[0]["dependent"] is True

    code, recs = run_json(capsys, "nbound", "--c", "1", "--q", "3",
                          "--format", "json")
    assert code == 0
    assert recs[0]["capacity"] == 128
    assert recs[0]["engel_width"] == 1 + 3**2


def test_charp(capsys):
    code, recs = run_json(capsys, "charp", "--g1", "1,0,1", "--g2=-2,1",
                          "--limit", "500", "--format", "json")
    assert code == 0
    assert recs[0]["status"] == "pass"
    assert recs[0]["witness"]["moduli"] == [5]
    # a vanishing resultant at the default limit is refused, not scanned
    code, recs = run_json(capsys, "charp", "--g1", "1,0,1", "--g2", "1,0,1", "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "capacity-error" and "ROOT_SCAN_CAP" in recs[0]["reason"]


def test_json_lines_have_sorted_keys(capsys):
    code, lines = run_lines(capsys, "prim", "--n", "7", "--q", "3", "--r", "2",
                            "--format", "json")
    for ln in lines:
        rec = json.loads(ln)
        assert list(rec) == sorted(rec)


def test_table_format(capsys):
    code, lines = run_lines(capsys, "prim", "--n", "7", "--q", "3", "--r", "2")
    assert code == 0
    assert lines[0].startswith("prim")
    assert "pass" in lines[0]


# --- free Lie commands ---


def test_free_basis_and_normalize(capsys):
    code, recs = run_json(capsys, "free", "basis", "--gens", "a,b",
                          "--max-weight", "3", "--format", "json")
    assert code == 0
    assert recs[0]["words"] == ["a", "b", "[b, a]", "[[b, a], a]", "[[b, a], b]"]

    code, recs = run_json(capsys, "free", "normalize", "[a, [a, b]]",
                          "--format", "json")
    assert code == 0
    assert recs[0]["normalized"] == "[[b, a], a]"


def test_free_delta(capsys):
    code, recs = run_json(capsys, "free", "delta", "--k", "1",
                          "--args", "a@1,b@2", "--format", "json")
    assert code == 0
    assert recs[0]["element"] == "-[b@2, a@1]"


def test_free_odin(capsys):
    code, recs = run_json(capsys, "free", "odin", "--u", "1", "--tail", "2,5",
                          "--c", "1", "--n", "7", "--q", "3", "--r", "2",
                          "--format", "json")
    assert code == 0
    rec = recs[0]
    assert rec["status"] == "pass"
    assert rec["witness"]["identity"] is True
    assert rec["witness"]["dropped_terms"] == 2


def test_free_dva(capsys):
    code, recs = run_json(capsys, "free", "dva", "--u", "1", "--tail", "2,3",
                          "--c", "1", "--w", "2", "--n", "7", "--q", "2",
                          "--r", "6", "--format", "json")
    assert code == 0
    assert recs[0]["witness"]["dropped_terms"] == 1


def test_free_razresh(capsys):
    code, recs = run_json(capsys, "free", "razresh", "--c", "1",
                          "--indices", "1,2,4,1", "--n", "7", "--q", "3",
                          "--r", "2", "--format", "json")
    assert code == 0
    assert recs[0]["member"] is True
    assert recs[0]["qualifying_count"] == 13


def test_free_razresh_refuses_weight_8(capsys):
    code, recs = run_json(capsys, "free", "razresh", "--c", "1",
                          "--indices", "1,2,3,5,6,4,2,1", "--n", "7", "--q", "3",
                          "--r", "2", "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "capacity-error"
    assert "RAZRESH_TREE_CAP" in recs[0]["reason"]


def test_free_odin_bad_head(capsys):
    code, recs = run_json(capsys, "free", "odin", "--u", "7", "--tail", "2",
                          "--c", "1", "--n", "7", "--q", "3", "--r", "2",
                          "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "input-error"


# --- lie commands ---


def test_lie_validate_and_series(capsys, tmp_path):
    L = gl.example_pm(5, 2).lie
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(L.to_json()))

    code, recs = run_json(capsys, "lie", "validate", str(path),
                          "--format", "json")
    assert code == 0 and recs[0]["status"] == "pass"

    code, recs = run_json(capsys, "lie", "series", str(path),
                          "--format", "json")
    assert code == 0
    assert recs[0]["dims"] == [3, 3, 0]
    assert recs[0]["class"] == 2

    code, recs = run_json(capsys, "lie", "series", str(path), "--kind",
                          "derived", "--format", "json")
    assert code == 0 and recs[0]["derived_length"] == 2


def test_lie_series_refuses_a_derived_chain_whose_entries_explode(capsys, tmp_path):
    # rationally simple, so neither chain stabilizes; each derived term
    # doubles the entries' bit length, each lower central term adds a few bits
    L = gl.GradedLieRing(IntegersRing(), 3,
                         {(0, 1): {2: 2}, (1, 2): {0: 3}, (2, 0): {1: 6}})
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(L.to_json()))
    t0 = time.perf_counter()
    code, recs = run_json(capsys, "lie", "series", str(path), "--kind", "derived",
                          "--format", "json")
    assert time.perf_counter() - t0 < 2
    assert code == 2 and recs[0]["status"] == "capacity-error"
    assert "over the entry cap of 970 bits" in recs[0]["reason"]
    code, recs = run_json(capsys, "lie", "series", str(path), "--format", "json")
    assert code == 2
    assert recs[0]["reason"] == "lower_central chain exceeded 194 terms without stabilizing"


def test_lie_validate_flags_broken_ring(capsys, tmp_path):
    L = gl.GradedLieRing(
        __import__("flab.rings", fromlist=["IntegersRing"]).IntegersRing(),
        3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(L.to_json()))
    code, recs = run_json(capsys, "lie", "validate", str(path),
                          "--format", "json")
    assert code == 1
    assert recs[0]["status"] == "violation"
    assert ["jacobi", [0, 1, 2]] in recs[0]["witness"]["issues"]


def test_lie_eigen_with_omega(capsys, tmp_path):
    ex = gl.example_simple3(__import__("flab.rings",
                                       fromlist=["PrimeFieldRing"]).PrimeFieldRing(5))
    payload = {
        "lie": ex.lie.to_json(),
        "phi": [[int(c) for c in row] for row in ex.f[0]],
        "n": 2,
        "omega": 4,
    }
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps(payload))
    code, recs = run_json(capsys, "lie", "eigen", str(path), "--format", "json")
    assert code == 0
    assert recs[0]["dims"] == [1, 2]
    assert recs[0]["direct"] is True


@pytest.mark.parametrize("phi, n, omega, reason", [
    ([[1]], 2, 2, "omega**n is not 1"),
    ([[1]], 2, 1, "omega has order dividing 1, not 2"),
    ([[1]], 4, 4, "omega has order dividing 2, not 4"),
    ([[2]], 2, 4, "phi**n is not the identity"),
])
def test_lie_eigen_refuses_a_bad_root_or_phi(capsys, tmp_path, phi, n, omega, reason):
    from flab.rings import PrimeFieldRing
    L = gl.GradedLieRing(PrimeFieldRing(5), 1, {})
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps({"lie": L.to_json(), "phi": phi, "n": n, "omega": omega}))
    code, recs = run_json(capsys, "lie", "eigen", str(path), "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "input-error" and recs[0]["reason"] == reason


def test_lie_eigen_on_a_dense_rank_12_phi_is_fast(tmp_path):
    # phi = I - 2 v w^T with w.v = 1 is an involution with no zero entry;
    # cofactor expansion would need about 12! products for its determinant
    from flab.rings import PrimeFieldRing
    rng = random.Random(0)
    v = [rng.randrange(1, 7) for _ in range(12)]
    w = [rng.randrange(1, 7) for _ in range(11)]
    w.append((1 - sum(a * b for a, b in zip(w, v))) * pow(v[-1], -1, 7) % 7)
    phi = [[((i == j) - 2 * v[i] * w[j]) % 7 for j in range(12)] for i in range(12)]
    assert all(all(row) for row in phi)
    L = gl.GradedLieRing(PrimeFieldRing(7), 12, {})
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps({"lie": L.to_json(), "phi": phi, "n": 2, "omega": 6}))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "flab.cli", "lie", "eigen", str(path), "--format", "json"],
        capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 2
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["dims"] == [11, 1] and rec["direct"] is True


def test_lie_examples(capsys):
    code, recs = run_json(capsys, "lie", "examples", "--format", "json")
    assert code == 0
    assert len(recs) >= 5
    assert all(r["status"] == "pass" for r in recs)


def test_lie_select(capsys, tmp_path):
    from flab.rings import PrimeFieldRing
    L = gl.GradedLieRing(PrimeFieldRing(5), 3, {(0, 1): {2: 1}},
                         grading=[1, 3, 4], grade_modulus=7)
    path = tmp_path / "sel.json"
    path.write_text(json.dumps(L.to_json()))
    code, recs = run_json(capsys, "lie", "select", str(path), "--c", "1",
                          "--n", "7", "--q", "3", "--r", "2", "--format", "json")
    assert code == 1
    assert recs[0]["status"] == "violation"
    assert recs[0]["witness"]["grades"] == [1, 3]


# --- group commands ---


def test_group_build_and_jz(capsys):
    code, recs = run_json(capsys, "group", "build", "--name", "D8",
                          "--format", "json")
    assert code == 0
    assert recs[0]["order"] == 8 and recs[0]["nilpotency_class"] == 2

    code, recs = run_json(capsys, "group", "jz", "--name", "C8",
                          "--format", "json")
    assert code == 0
    assert recs[0]["dims"] == [1, 1, 0, 1]


def test_group_verify_field(capsys):
    code, recs = run_json(capsys, "group", "verify", "all", "--field", "2,2",
                          "--format", "json")
    assert code == 0
    names = {r["name"] for r in recs}
    assert {"order-formula", "coverage", "generation", "invariant-sylow",
            "nilpotency-transfer"} <= names
    assert all(r["status"] == "pass" for r in recs)


@pytest.mark.parametrize("field", ["2,11", "3,7", "5,5"])
def test_group_verify_reports_a_refused_check_and_runs_the_rest(field):
    # a subprocess: building these fields' actions peaks near 400 MB, which
    # would stay in this process's own peak RSS
    out = subprocess.run(
        [sys.executable, "-m", "flab.cli", "group", "verify", "all", "--field", field,
         "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    recs = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["name"] for r in recs] == [
        "order-formula", "coverage", "generation", "invariant-sylow",
        "nilpotency-transfer", "exponent-relation"]
    assert [r["status"] for r in recs] == ["pass", "capacity-error"] + ["pass"] * 4
    assert recs[1]["reason"] == "subgroup enumeration capped at order 512"
    p = int(field.split(",")[0])
    assert recs[5]["witness"] == {"fixed_exponent": p, "group_exponent": p}


def test_group_verify_single_check(capsys):
    code, recs = run_json(capsys, "group", "verify", "order-formula",
                          "--field", "3,2", "--format", "json")
    assert code == 0
    assert len(recs) == 1 and recs[0]["name"] == "order-formula"


def test_group_lazard_and_powerful(capsys):
    code, recs = run_json(capsys, "group", "lazard", "--name", "D8",
                          "--format", "json")
    assert code == 0
    assert recs[0]["status"] == "pass"
    assert recs[0]["witness"]["dims"] == [2, 1]

    code, recs = run_json(capsys, "group", "powerful", "--name", "C4",
                          "--format", "json")
    assert code == 0 and recs[0]["powerful"] is True

    code, recs = run_json(capsys, "group", "powerful", "--name", "Q8",
                          "--format", "json")
    assert code == 0 and recs[0]["powerful"] is False


def test_group_bch(capsys):
    code, recs = run_json(capsys, "group", "bch", "--pm", "5,1",
                          "--format", "json")
    assert code == 0
    assert recs[0]["order"] == 125
    assert recs[0]["group_class"] == 1


@pytest.mark.parametrize("argv, reason", [
    (("group", "bch", "--pm", "5"), "expected two comma-separated integers, got '5'"),
    (("group", "verify", "all", "--field", "2,x"),
     "expected comma-separated integers, got '2,x'"),
    (("group", "verify", "all", "--field", ""), "expected two comma-separated integers, got ''"),
], ids=["pm", "field", "empty-field"])
def test_malformed_pairs_are_input_error_reports(capsys, argv, reason):
    code = cli.run([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    (rec,) = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    assert (code, err) == (2, "")
    assert rec["status"] == "input-error" and rec["reason"] == reason


def test_group_build_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"permutations": {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}}))
    code, recs = run_json(capsys, "group", "build", "--file", str(path),
                          "--format", "json")
    assert code == 0
    assert recs[0]["order"] == 6
    assert recs[0]["nilpotency_class"] is None


def test_group_build_file_refuses_past_the_table_cap(capsys, tmp_path):
    path = tmp_path / "s7.json"
    path.write_text(json.dumps({"permutations": {"degree": 7, "generators": [
        [1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}}))
    code, recs = run_json(capsys, "group", "build", "--file", str(path),
                          "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "capacity-error"
    assert "permutation closure exceeds the table cap 5000" in recs[0]["reason"]


def test_group_requires_source(capsys):
    code, recs = run_json(capsys, "group", "build", "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "input-error"


@pytest.mark.parametrize("data", [
    {"table": [[0.0, 1.0], [1.0, 0.0]]},
    {"table": 5},
    {"table": [[False]]},
    {"permutations": {"degree": 3}},
    {"permutations": {"degree": 3, "generators": [[1.0, 2.0, 0.0]]}},
    {"permutations": {"degree": "3", "generators": [[1, 2, 0]]}},
    {"permutations": {"degree": 3, "generators": [1, 2, 0]}},
    {"permutations": [3]},
    [[0]],
])
def test_group_build_refuses_malformed_json(capsys, tmp_path, data):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, recs = run_json(capsys, "group", "build", "--file", str(path),
                          "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "input-error"


_C3 = {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
_C3_ACTION = {"f": [0, 2, 1], "h": [0, 1, 2], "n": 2, "q": 1, "r": 1}


@pytest.mark.parametrize("data", [
    {"group": _C3, "action": dict(_C3_ACTION, f=[0.0, 2.0, 1.0])},
    {"group": _C3, "action": {k: v for k, v in _C3_ACTION.items() if k != "h"}},
    {"group": _C3, "action": dict(_C3_ACTION, n="2")},
    {"group": _C3, "action": dict(_C3_ACTION, f=[0, 3, 1])},
    {"group": _C3, "action": [0, 2, 1]},
    5,
])
def test_group_verify_refuses_malformed_actions(capsys, tmp_path, data):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(data))
    code, recs = run_json(capsys, "group", "verify", "all", "--file", str(path),
                          "--format", "json")
    assert code == 2
    assert recs[0]["status"] == "input-error"


def test_group_verify_accepts_a_file_action(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"group": _C3, "action": _C3_ACTION}))
    code, recs = run_json(capsys, "group", "verify", "coverage", "--file", str(path),
                          "--format", "json")
    assert code == 0
    assert recs[0]["status"] == "pass"


# --- suite ---


def test_suite_paper_passes(capsys):
    code, recs = run_json(capsys, "suite", "paper", "--format", "json")
    assert code == 0
    assert len(recs) == 50
    assert all(r["status"] == "pass" for r in recs)
    ids = [r["name"] for r in recs]
    assert ids == sorted(ids)


def test_every_bundled_task_binds_to_its_adapter_by_keyword():
    tasks = [task for fixture in cli.load_fixtures() for task in fixture.get("tasks", ())]
    assert len(tasks) == 50
    for task in tasks:
        adapter = cli.TASK_KINDS[task["kind"]]
        inspect.signature(adapter).bind(task["id"], **task.get("args", {}))
    assert {task["kind"] for task in tasks} == set(cli.TASK_KINDS)


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "flab.cli", "dset", "--seq", "1", "--n", "7",
         "--q", "3", "--r", "2", "--format", "json"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"d_set": [2, 4, 6]}
