"""Cross-check the command line of this checkout against another checkout:
one fixed corpus of argv lists goes through `flab.cli.run` on each side,
and stdout, stderr and the exit code must agree byte for byte.

Each side runs the whole corpus in one subprocess that imports flab from
that checkout's src/ alone, with COLUMNS=100 and PYTHONHASHSEED=0 so that
the --help screens and any unordered output are laid out the same way on
both sides. The --file commands read the same temporary JSON files on both
sides, so their paths (which appear in some refusal messages) agree too.
The run time a report carries ("seconds") is masked before the comparison.

The corpus holds every leaf subcommand in json and table format, with
passing, violating, input-error and capacity-error inputs where the
subcommand has them; every --help screen; usage errors; `suite paper` in
its default, json and table formats; and `group verify all --field p,k` on
the 15 fields GF(p^k) with p and k prime and p^k <= 512.

It prints every argv whose outcome differs and exits 1 on any difference.

    python scripts/crosscheck_cli.py OTHER_CHECKOUT

The run is not part of the test suite.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run inside each side's subprocess: argv[1] is its src/, argv[2] the corpus
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import flab.cli
out = []
for argv in json.load(open(sys.argv[2])):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = flab.cli.run(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
json.dump(out, sys.stdout)
"""

SECONDS = re.compile(r'"seconds":\s*[-+0-9.eE]+')

PM_5_2 = {"rank": 3, "ring": {"kind": "IntegersMod", "modulus": 25},
          "brackets": [[0, 1, [[2, 5]]], [0, 2, [[1, 20]]], [1, 2, [[0, 5]]]]}
FILES = {
    "ring.json": PM_5_2,
    "broken.json": {"rank": 3, "ring": {"kind": "Integers"},
                    "brackets": [[0, 1, [[2, 1]]], [0, 2, [[0, 1]]]]},
    "explode.json": {"rank": 3, "ring": {"kind": "Integers"},
                     "brackets": [[0, 1, [[2, 2]]], [0, 2, [[1, -6]]], [1, 2, [[0, 3]]]]},
    "select.json": {"rank": 3, "ring": {"kind": "PrimeField", "modulus": 5},
                    "brackets": [[0, 1, [[2, 1]]]], "grading": [1, 3, 4], "n": 7},
    "select-pass.json": {"rank": 3, "ring": {"kind": "PrimeField", "modulus": 5},
                         "brackets": [], "grading": [1, 3, 4], "n": 7},
    "eigen.json": {"lie": {"rank": 3, "ring": {"kind": "PrimeField", "modulus": 5},
                           "brackets": [[0, 1, [[2, 1]]], [0, 2, [[1, 4]]], [1, 2, [[0, 1]]]]},
                   "phi": [[1, 0, 0], [0, 4, 0], [0, 0, 4]], "n": 2, "omega": 4},
    "eigen-bad.json": {"lie": PM_5_2},
    "s3.json": {"permutations": {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}},
    "s7.json": {"permutations": {"degree": 7, "generators": [
        [1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}},
    "bad-group.json": {"table": [[0.0, 1.0], [1.0, 0.0]]},
    "action.json": {"group": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
                    "action": {"f": [0, 2, 1], "h": [0, 1, 2], "n": 2, "q": 1, "r": 1}},
    "bad-action.json": {"group": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
                        "action": [0, 2, 1]},
    "fixed-action.json": {"group": {"table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                                              [3, 2, 1, 0]]},
                          "action": {"f": [0, 1, 3, 2], "h": [0, 1, 2, 3], "n": 2, "q": 1,
                                     "r": 1}},
}
FIELDS = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3),
          (7, 2), (7, 3), (11, 2), (13, 2), (17, 2), (19, 2)]
CHECKS = ["order-formula", "coverage", "generation", "invariant-sylow",
          "nilpotency-transfer", "exponent-relation", "all"]
HELP_PATHS = [
    [], ["prim"], ["rdep"], ["dset"], ["nbound"], ["charp"],
    ["lie"], ["lie", "validate"], ["lie", "series"], ["lie", "select"], ["lie", "eigen"],
    ["lie", "examples"],
    ["free"], ["free", "basis"], ["free", "normalize"], ["free", "delta"], ["free", "odin"],
    ["free", "dva"], ["free", "razresh"],
    ["group"], ["group", "build"], ["group", "verify"], ["group", "jz"], ["group", "lazard"],
    ["group", "powerful"], ["group", "bch"], ["suite"],
]
USAGE_ERRORS = [
    [], ["frobnicate"], ["prim", "--n", "7"], ["dset", "--seq", "1", "--n", "7", "--q", "3",
                                                "--r", "2", "--method", "bogus"],
    ["group", "verify", "nosuch", "--field", "2,2"], ["prim", "--n", "x", "--q", "3", "--r", "2"],
    ["lie"], ["prim", "--n", "7", "--q", "3", "--r", "2", "--format", "yaml"],
]


def nqr(n, q, r):
    return ["--n", str(n), "--q", str(q), "--r", str(r)]


def corpus(tmp: Path) -> list[list[str]]:
    """Every argv of the comparison, with the --file inputs under tmp."""
    f = {name: str(tmp / name) for name in FILES}
    missing, not_json = str(tmp / "missing.json"), str(tmp / "not-json.json")
    big = nqr(1_000_003, 1_000_002, 2)
    commands = [
        ["prim", *nqr(7, 3, 2)], ["prim", *nqr(15, 4, 2)], ["prim", *nqr(6, 2, 2)],
        ["prim", *nqr(1, 3, 1)], ["prim", *nqr(2**89 - 1, 2, 2)],
        ["rdep", "--seq", "1", *nqr(7, 3, 2)], ["rdep", "--seq", "1,2", *nqr(7, 3, 2)],
        ["rdep", "--seq", "5", *nqr(15, 4, 2)], ["rdep", "--seq", "5", *nqr(1031, 300, 14)],
        ["rdep", "--seq", "1,1,1", *nqr(1031, 300, 14)], ["rdep", "--seq", "0", *nqr(7, 3, 2)],
        ["rdep", "--seq", "a,b", *nqr(7, 3, 2)], ["rdep", "--seq", "1,2", *big],
        ["nbound", "--c", "1", "--q", "3"], ["nbound", "--c", "0", "--q", "3"],
        ["charp", "--g1", "1,0,1", "--g2=-2,1", "--limit", "500"],
        ["charp", "--g1", "1,1", "--g2", "1,1", "--limit", "50"],
        ["charp", "--g1", "1,0,1", "--g2", "1,0,1"], ["charp", "--g1", "x", "--g2", "1"],
        ["lie", "validate", f["ring.json"]], ["lie", "validate", f["broken.json"]],
        ["lie", "validate", missing], ["lie", "validate", not_json],
        ["lie", "series", f["ring.json"]], ["lie", "series", f["ring.json"], "--kind", "derived"],
        ["lie", "series", f["explode.json"]],
        ["lie", "series", f["explode.json"], "--kind", "derived"],
        ["lie", "select", f["select.json"], "--c", "1", *nqr(7, 3, 2)],
        ["lie", "select", f["select-pass.json"], "--c", "1", *nqr(7, 3, 2)],
        ["lie", "select", missing, "--c", "1", *nqr(7, 3, 2)],
        ["lie", "eigen", f["eigen.json"]], ["lie", "eigen", f["eigen-bad.json"]],
        ["lie", "examples"],
        ["free", "basis", "--gens", "a,b", "--max-weight", "3"],
        ["free", "basis", "--gens", "a@x", "--max-weight", "3"],
        ["free", "normalize", "[a, [a, b]]"], ["free", "normalize", "[a, "],
        ["free", "delta", "--k", "1", "--args", "a@1,b@2"],
        ["free", "delta", "--k", "2", "--args", "a@1,b@2"],
        ["free", "odin", "--u", "1", "--tail", "2,5", "--c", "1", *nqr(7, 3, 2)],
        ["free", "odin", "--u", "1,2", "--tail", "2,5", "--c", "1", *nqr(7, 3, 2)],
        ["free", "dva", "--u", "1", "--tail", "2,3", "--c", "1", "--w", "2", *nqr(7, 2, 6)],
        ["free", "dva", "--u", "1", "--tail", "2,3", "--c", "1", "--w", "0", *nqr(7, 2, 6)],
        ["free", "razresh", "--c", "1", "--indices", "1,2,4,1", *nqr(7, 3, 2)],
        ["free", "razresh", "--c", "1", "--indices", "1,2,4,1,2,4,1,2", *nqr(7, 3, 2)],
        ["group", "build", "--name", "D8"], ["group", "build", "--file", f["s3.json"]],
        ["group", "build", "--file", f["s7.json"]],
        ["group", "build", "--file", f["bad-group.json"]],
        ["group", "build", "--name", "nosuch"], ["group", "build"],
        ["group", "verify", "coverage", "--file", f["action.json"]],
        ["group", "verify", "all", "--file", f["fixed-action.json"]],
        ["group", "verify", "all", "--file", f["bad-action.json"]],
        ["group", "verify", "all"], ["group", "verify", "all", "--field", "2,x"],
        ["group", "verify", "all", "--field", "4,2"],
        ["group", "verify", "all", "--field", "2,11"],
        ["group", "jz", "--name", "C8"], ["group", "jz", "--file", f["s3.json"]],
        ["group", "jz", "--file", f["s3.json"], "--p", "2"],
        ["group", "lazard", "--name", "D8"], ["group", "lazard", "--name", "Heis3"],
        ["group", "lazard", "--file", f["s3.json"], "--p", "2"],
        ["group", "powerful", "--name", "C4"], ["group", "powerful", "--name", "Q8"],
        ["group", "powerful"],
        ["group", "bch", "--pm", "5,1"], ["group", "bch", "--pm", "5,2", "--no-sweep"],
        ["group", "bch", "--file", f["ring.json"]], ["group", "bch"],
        ["group", "bch", "--pm", "5"],
    ]
    commands += [["dset", "--seq", seq, "--method", method, *params]
                 for seq, params in (("1", nqr(7, 3, 2)), ("1,3", nqr(7, 3, 2)),
                                     ("1,2", nqr(7, 3, 2)), ("1", nqr(15, 4, 2)),
                                     ("1", nqr(1031, 300, 14)), ("1,2", big), ("1", big))
                 for method in ("auto", "brute", "formula")]
    commands += [["group", "verify", check, "--field", "3,2"] for check in CHECKS]
    commands += [["group", "verify", "all", "--field", f"{p},{k}"] for p, k in FIELDS]
    out = [argv + ["--format", fmt] for argv in commands for fmt in ("json", "table")]
    out += [["suite", "paper"], ["suite", "paper", "--format", "json"],
            ["suite", "paper", "--format", "table"]]
    out += [path + ["--help"] for path in HELP_PATHS]
    return out + USAGE_ERRORS


def run_side(checkout: Path, corpus_path: Path) -> list:
    env = dict(os.environ, COLUMNS="100", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(corpus_path)],
        capture_output=True, text=True, env=env, cwd=checkout)
    if done.returncode != 0:
        sys.exit(f"{checkout}: the corpus run failed\n{done.stderr}")
    return [[code, SECONDS.sub('"seconds":0', out), err]
            for code, out, err in json.loads(done.stdout)]


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    other = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in FILES.items():
            (tmp / name).write_text(json.dumps(data))
        (tmp / "not-json.json").write_text("{")
        commands = corpus(tmp)
        corpus_path = tmp / "corpus.json"
        corpus_path.write_text(json.dumps(commands))
        here, there = run_side(ROOT, corpus_path), run_side(other, corpus_path)
    differing = [argv for argv, a, b in zip(commands, here, there) if a != b]
    for argv in differing:
        print("differs:", " ".join(argv))
    print(f"{len(commands)} commands, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
