"""Cross-check linalg's lattice routes against the algorithms they replaced.

- howell, which reads the Howell form off the Hermite form of the rows and
  m·Z^w, against reference_howell in tests/test_rings_linalg.py: echelon
  rows mod m, add each row's annihilator multiple and echelon again until
  nothing changes, then scale the pivots to divisors of m.  The inputs use
  three seeds, moduli up to 5040 (random ones, and a fixed list of
  composites and prime powers), widths 1-10, 0-14 rows with entries in
  [-m, 2m), and for some inputs every row scaled by a divisor of m.
- kernel over Z, Z/m and Z[w], which reads the kernel off the pairs
  (M e_i, e_i), against the transform route: the integer kernel of the
  matrix (Z), of [M | m·I] cut to its first columns (Z/m), and of the
  flattened block matrix (Z[w], w a primitive n-th root of unity for
  n = 3, 4, 5, 7, 8, 12), each from reference_int_right_kernel.
- int_solve against the solve on reference_hnf_with_transform: both find
  a solution or neither does, the two solutions differ by a kernel
  vector, and int_solve's entry at each pivot column c of the kernel's HNF
  K lies in [0, K[c]).  Half the targets are images M x, half are random.

It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_howell.py

The run is not part of the test suite.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_rings_linalg import (  # noqa: E402
    MODULI,
    cyclotomic_block_matrix,
    reference_hnf_with_transform,
    reference_howell,
    reference_int_right_kernel,
)

from flab.linalg import Subspace, howell, int_solve, kernel, lattice_contains  # noqa: E402
from flab.rings import CyclotomicRing, IntegersModRing, IntegersRing  # noqa: E402

SEEDS = (1, 2, 3)
PER_SEED = {"howell": 17_000, "kernel Z": 4_000, "kernel Z/m": 4_000,
            "kernel Z[w]": 4_000, "int_solve": 4_000}
Z = IntegersRing()
CYCLOTOMIC = [CyclotomicRing(n) for n in (3, 4, 5, 7, 8, 12)]


def reference_int_solve(mat, target):
    """The integer solve on the transform of the transpose's HNF."""
    width = len(mat[0]) if mat else 0
    h, u = reference_hnf_with_transform([[row[c] for row in mat] for c in range(width)])
    v, coeff = list(target), [0] * width
    for hrow, urow in zip(h, u):
        col = next((j for j, x in enumerate(hrow) if x), None)
        if col is None:
            continue
        if v[col] % hrow[col]:
            return None
        q = v[col] // hrow[col]
        v = [x - q * y for x, y in zip(v, hrow)]
        coeff = [c + q * y for c, y in zip(coeff, urow)]
    return None if any(v) else coeff


def check_howell(rng):
    m = rng.choice(MODULI) if rng.random() < 0.5 else rng.randint(1, 5040)
    width, count = rng.randint(1, 10), rng.randint(0, 14)
    rows = [[rng.randrange(-m, 2 * m) for _ in range(width)] for _ in range(count)]
    if rng.random() < 0.3:
        d = rng.choice([k for k in range(1, m + 1) if m % k == 0])
        rows = [[d * x for x in r] for r in rows]
    return howell(rows, m) == reference_howell(rows, m), (rows, m)


def _int_matrix(rng, min_rows=0):
    width, count = rng.randint(1, 8), rng.randint(min_rows, 7)
    return [[rng.randint(-9, 9) for _ in range(width)] for _ in range(count)], width


def check_kernel_z(rng):
    mat, width = _int_matrix(rng)
    ref = Subspace.span(Z, width, reference_int_right_kernel(mat, width))
    return kernel(Z, mat, width) == ref, mat


def check_kernel_mod(rng):
    m = rng.choice(MODULI) if rng.random() < 0.5 else rng.randint(2, 5040)
    width, count = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randrange(m) for _ in range(width)] for _ in range(count)]
    big = [row + [m * (j == i) for j in range(count)] for i, row in enumerate(rows)]
    R = IntegersModRing(m)
    ref = Subspace.span(R, width, [v[:width] for v in reference_int_right_kernel(big, width + count)])
    return kernel(R, rows, width) == ref, (rows, m)


def check_kernel_cyclotomic(rng):
    ring = rng.choice(CYCLOTOMIC)
    width, count = rng.randint(1, 3), rng.randint(0, 3)
    mat = [[tuple(rng.randint(-3, 3) for _ in range(ring.degree)) for _ in range(width)]
           for _ in range(count)]
    ref = reference_int_right_kernel(cyclotomic_block_matrix(ring, mat), width * ring.degree)
    return kernel(ring, mat, width) == Subspace.from_flat_rows(ring, width, ref), (ring, mat)


def check_int_solve(rng):
    mat, width = _int_matrix(rng, min_rows=1)  # without rows int_solve cannot see the width
    if rng.random() < 0.5:
        x = [rng.randint(-9, 9) for _ in range(width)]
        target = [sum(a * b for a, b in zip(row, x)) for row in mat]
    else:
        target = [rng.randint(-20, 20) for _ in mat]
    ours, ref = int_solve(mat, target), reference_int_solve(mat, target)
    if ours is None or ref is None:
        return ours is ref, (mat, target)
    solves = [sum(a * b for a, b in zip(row, ours)) for row in mat] == target
    ker = kernel(Z, mat, width).rows
    pivots = [(row, next(j for j, x in enumerate(row) if x)) for row in ker]
    reduced = all(0 <= ours[c] < row[c] for row, c in pivots)
    same_coset = lattice_contains(ker, [a - b for a, b in zip(ours, ref)])
    return solves and reduced and same_coset, (mat, target)


CHECKS = {"howell": check_howell, "kernel Z": check_kernel_z, "kernel Z/m": check_kernel_mod,
          "kernel Z[w]": check_kernel_cyclotomic, "int_solve": check_int_solve}


def main() -> int:
    for name, check in CHECKS.items():
        t0 = time.perf_counter()
        checked = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(PER_SEED[name]):
                ok, case = check(rng)
                if not ok:
                    print(f"DISAGREE {name} seed={seed}: {case}")
                    return 1
                checked += 1
        print(f"{name}: {checked} inputs agree ({len(SEEDS)} seeds) "
              f"in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
