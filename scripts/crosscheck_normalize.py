"""Cross-check free_lie.normalize on every bracket tree of weight 1-7 on
three generators.

Each tree's Hall normal form is compared with two oracles from
tests/test_free_lie.py: the earlier recursive kernel (reference_normalize,
compared term by term), and the evaluation in gl_4 over Z/(2**61 - 1) with
seeded random generator matrices (MatrixEvaluation): the normal form's words,
each evaluated as nested commutators and scaled by its coefficient, must sum
to the tree's own commutator.  It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_normalize.py

The 322,000-odd trees take a few minutes; the run is not part of the test
suite.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_free_lie import MatrixEvaluation, commutator, reference_normalize  # noqa: E402

from flab import free_lie as fl  # noqa: E402

MAX_WEIGHT = 7
GENERATORS = [fl.IndexedGenerator("x", 1), fl.IndexedGenerator("x", 2),
              fl.IndexedGenerator("y", 1)]


def trees(levels, weight):
    """(tree, matrix) for every tree of the given weight, built from the
    lighter levels."""
    for w in range(1, weight):
        for left, lm in levels[w]:
            for right, rm in levels[weight - w]:
                yield (left, right), commutator(lm, rm)


def main() -> int:
    t0 = time.perf_counter()
    evaluate = MatrixEvaluation(GENERATORS, "crosscheck")
    memo: dict = {}
    # (tree, matrix) per weight; the heaviest weight is checked, not kept
    levels = {1: [(g, evaluate.mats[g]) for g in GENERATORS]}
    checked = 0
    for weight in range(1, MAX_WEIGHT + 1):
        level = levels[1] if weight == 1 else trees(levels, weight)
        kept = []
        for tree, matrix in level:
            elem = fl.normalize(tree)
            if elem.terms != reference_normalize(tree, memo):
                print(f"normalize differs from the reference kernel on {fl.format_tree(tree)}")
                return 1
            if evaluate.element(elem) != matrix:
                print(f"normalize differs from the matrix evaluation on {fl.format_tree(tree)}")
                return 1
            checked += 1
            if weight < MAX_WEIGHT:
                kept.append((tree, matrix))
        levels[weight] = kept
    print(f"{checked} trees of weight 1-{MAX_WEIGHT} on {len(GENERATORS)} generators, "
          f"all agree ({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
