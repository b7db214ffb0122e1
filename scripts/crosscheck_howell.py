"""Cross-check linalg.howell, which reads the Howell form off the Hermite
form of the rows and m·Z^w, against the iterative Howell algorithm it
replaced.

The reference is reference_howell in tests/test_rings_linalg.py: echelon
rows mod m, add each row's annihilator multiple and echelon again until
nothing changes, then scale the pivots to divisors of m.  The inputs are
random: three seeds, moduli up to 5040 (random ones, and a fixed list of
composites and prime powers), widths 1-10, 0-14 rows with entries in
[-m, 2m), and for some inputs every row scaled by a divisor of m.  It
exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_howell.py

The run is not part of the test suite.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_rings_linalg import MODULI, reference_howell  # noqa: E402

from flab.linalg import howell  # noqa: E402

SEEDS = (1, 2, 3)
PER_SEED = 17_000


def random_input(rng: random.Random) -> tuple[list[list[int]], int]:
    m = rng.choice(MODULI) if rng.random() < 0.5 else rng.randint(1, 5040)
    width, count = rng.randint(1, 10), rng.randint(0, 14)
    rows = [[rng.randrange(-m, 2 * m) for _ in range(width)] for _ in range(count)]
    if rng.random() < 0.3:
        d = rng.choice([k for k in range(1, m + 1) if m % k == 0])
        rows = [[d * x for x in r] for r in rows]
    return rows, m


def main() -> int:
    t0 = time.perf_counter()
    checked = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(PER_SEED):
            rows, m = random_input(rng)
            ours, ref = howell(rows, m), reference_howell(rows, m)
            if ours != ref:
                print(f"DISAGREE seed={seed} m={m} rows={rows}\n  howell    {ours}\n"
                      f"  reference {ref}")
                return 1
            checked += 1
    print(f"{checked} inputs agree ({len(SEEDS)} seeds) in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
