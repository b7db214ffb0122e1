"""Cross-check BCHGroup's product, which evaluates the Hausdorff series only
up to the ring's class, and its powers and element orders, which it reads
off the coordinates, against their definitions.

Products: every pair of filiform5 ([e1,e2] = e3, [e1,e3] = e4 over Z/5,
class 3, order 625) and of the class-2 ring [e1,e2] = e3 over Z/7 (order
343), through both mul and mul_many, against hausdorff_oracle from
tests/test_group_kernels.py, which evaluates the full degree-3 series
through the Lie ring's own bracket.

Powers and orders: every element a of example_pm(5, 2) (order 15,625) and
example_pm(7, 2) (order 117,649, the cap's group), against the iterated
products 1, a, a*a, ... up to their first return to the identity, taken
with mul_many on a block of elements at once.  element_order(a) must be
that return time o, and power(a, k) for -o <= k <= o the (k mod o)-fold
product.

It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_bch.py

The run is not part of the test suite.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_group_kernels import filiform, hausdorff_oracle, heisenberg  # noqa: E402

from flab import graded_lie as gl  # noqa: E402
from flab import group_engine as ge  # noqa: E402

BLOCK = 4096


def check_products(name: str, G) -> int:
    ids = np.arange(G.order)
    for b in range(G.order):
        want = [hausdorff_oracle(G, a, b) for a in range(G.order)]
        if G.mul_many(ids, b).tolist() != want or [G.mul(a, b) for a in ids.tolist()] != want:
            sys.exit(f"{name}: a product with b = {b} differs from the full series")
    return G.order**2


def check_powers(name: str, G) -> tuple[int, int]:
    calls = 0
    for lo in range(0, G.order, BLOCK):
        block = np.arange(lo, min(lo + BLOCK, G.order))
        steps, back = [np.zeros_like(block), block], block == G.identity
        while not back.all():
            steps.append(G.mul_many(steps[-1], block))
            back |= steps[-1] == G.identity
        for a, row in zip(block.tolist(), np.stack(steps, axis=1).tolist()):
            o = row.index(G.identity, 1)
            if G.element_order(a) != o:
                sys.exit(f"{name}: element_order({a}) is not {o}")
            if [G.power(a, k) for k in range(-o, o + 1)] != [row[k % o] for k in range(-o, o + 1)]:
                sys.exit(f"{name}: a power of {a} differs from the iterated products")
            calls += 2 * o + 1
    return G.order, calls


def main() -> int:
    t0 = time.perf_counter()
    for name, L in (("filiform5", filiform(5)), ("heisenberg7", heisenberg(7))):
        t = time.perf_counter()
        pairs = check_products(name, ge.BCHGroup(L))
        print(f"{name}: {pairs} pairs agree with the full series, "
              f"{time.perf_counter() - t:.1f} s")
    for pm in ((5, 2), (7, 2)):
        t = time.perf_counter()
        elements, calls = check_powers(f"pm{pm}", ge.BCHGroup(gl.example_pm(*pm).lie))
        print(f"example_pm{pm}: {elements} element orders and {calls} powers agree "
              f"with the iterated products, {time.perf_counter() - t:.1f} s")
    print(f"all agree in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
