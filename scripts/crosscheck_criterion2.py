"""Cross-check the reach-set route of is_r_dependent and d_set against a
plain exponent search on every sequence of acceptance criterion 2.

Criterion 2 takes every (n, q, r) with n < 32 that passes check_prim and q
the order of r mod n, and every multiset of 1-3 nonzero residues.  For each
sequence this script compares the verdict and the exact witness with the
lexicographically first nonzero exponent tuple found by itertools.product,
and for each independent sequence both D-set routes, the default and
method="brute", with the one solved for from all q**k twisted sums.  It
exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_criterion2.py

It takes a few minutes and is not part of the test suite.
"""
from __future__ import annotations

import itertools
import sys
import time

from flab.combinatorics import FrobeniusParams, check_prim, d_set, is_r_dependent
from flab.rings import multiplicative_order


def first_dependence(seq, n, powers):
    plain = sum(seq) % n
    for exps in itertools.product(range(len(powers)), repeat=len(seq)):
        if any(exps) and sum(powers[e] * a for e, a in zip(exps, seq)) % n == plain:
            return exps
    return None


def solved_d_set(seq, n, powers):
    plain = sum(seq) % n
    inverses = [pow(1 - p, -1, n) for p in powers[1:]]
    out = set()
    for exps in itertools.product(range(len(powers)), repeat=len(seq)):
        diff = (sum(powers[e] * a for e, a in zip(exps, seq)) - plain) % n
        out.update(diff * inv % n for inv in inverses if diff)
    return out


def main() -> int:
    t0 = time.perf_counter()
    checked = independent = 0
    for n in range(2, 32):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is None or not check_prim(n, q, r):
                continue
            params = FrobeniusParams(n, q, r)
            powers = [pow(r, e, n) for e in range(q)]
            for k in (1, 2, 3):
                for seq in itertools.combinations_with_replacement(range(1, n), k):
                    checked += 1
                    dependent, witness = is_r_dependent(seq, params)
                    got = witness.exponents if dependent else None
                    want = first_dependence(seq, n, powers)
                    if got != want:
                        print(f"witness differs at {(n, q, r, seq)}: {got} != {want}")
                        return 1
                    if dependent:
                        continue
                    independent += 1
                    want = solved_d_set(seq, n, powers)
                    for method in ("auto", "brute"):
                        if d_set(seq, params, method=method) != want:
                            print(f"{method} D-set differs at {(n, q, r, seq)}")
                            return 1
    print(f"{checked} sequences agree ({independent} independent) "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
