"""Cross-check the arithmetic Frobenius condition of action_issues against
its definition on permutations.

For every field action GF(p^k) with p^k <= 2048 and every sub-action
(f^d, h^j), with d a divisor of p^k - 1 below it and 0 <= j < k, the
script decides from the permutations alone whether some h^i with 0 < i < q
commutes with some f^e with 0 < e < n, where n = (p^k - 1) / d is the order
of f^d and q the order of h^j.  Each sub-action passes the automorphism,
order and twist checks (h^j f^d h^-j = (f^d)^(p^j)), so action_issues must
return nothing when no such pair exists and exactly the Frobenius issue
when one does; for the full action (d = 1, j = 1) build_field_action's
prim_ok must say the same.  It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_frobenius.py

Powers are composed as numpy index arrays, all powers of f^d at once, so
the whole run takes about 30 s and 260 MB; it is not part of the test suite.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from flab import group_engine as ge
from flab.combinatorics import FrobeniusParams
from flab.rings import factorize, is_prime

LIMIT = 2048
FROBENIUS_ISSUE = "a nontrivial power of h centralizes a nontrivial power of f"


def commuting_powers_exist(f, h, n: int, q: int) -> bool:
    """Whether h^i f^e = f^e h^i for some 0 < i < q and 0 < e < n, with the
    maps as permutations of the element ids."""
    f, h = np.array(f, dtype=np.int32), np.array(h, dtype=np.int32)
    f_pows = np.empty((n - 1, len(f)), dtype=f.dtype)  # row e - 1 is f^e
    f_pows[0] = f
    for e in range(1, n - 1):
        f_pows[e] = f[f_pows[e - 1]]
    h_pow = np.arange(len(h))
    for _ in range(1, q):
        h_pow = h[h_pow]
        # (h^i after f^e)[x] = h^i[f^e[x]], (f^e after h^i)[x] = f^e[h^i[x]]
        if (h_pow[f_pows] == f_pows[:, h_pow]).all(axis=1).any():
            return True
    return False


def fields():
    for k in range(2, 12):
        if not is_prime(k):
            continue
        for p in range(2, LIMIT + 1):
            if is_prime(p) and p**k <= LIMIT:
                yield p, k


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def main() -> int:
    t0 = time.perf_counter()
    checked = holds = 0
    for p, k in fields():
        res = ge.build_field_action(p, k)
        G, f, h = res.group, res.action.f, res.action.h
        n = p**k - 1
        full = not commuting_powers_exist(f, h, n, k)
        if res.prim_ok != full:
            print(f"prim_ok differs on GF({p}^{k}): {res.prim_ok}, definition {full}")
            return 1
        for d in divisors(n)[:-1]:
            fd = ge.perm_power(f, d)
            for j in range(k):
                hj = ge.perm_power(h, j)
                params = FrobeniusParams(n // d, k if j else 1, pow(p, j, n // d))
                ok = not commuting_powers_exist(fd, hj, params.n, params.q)
                want = [] if ok else [FROBENIUS_ISSUE]
                got = ge.action_issues(G, fd, hj, params)
                if got != want:
                    print(f"action_issues differs on GF({p}^{k}) with f^{d}, h^{j}: "
                          f"{got}, definition {want}")
                    return 1
                checked += 1
                holds += ok
    print(f"{checked} sub-actions, {holds} Frobenius and {checked - holds} not, all agree "
          f"({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
