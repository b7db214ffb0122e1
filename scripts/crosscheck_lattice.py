"""Cross-check the orbit-restricted lattice of invariant_subgroups and
invariant_normal_subgroups against the full subgroup lattice, filtered.

Every field action GF(p^k) of order at most 128 is checked under {f, h},
{h} and each power f^d with d a proper divisor of p^k - 1.  Every builder
group of order at most 128 (cyclic, dihedral, elementary abelian,
Heisenberg, Q8, the direct products of two named groups, and S4: the list
builder_groups of tests/test_group_engine.py) is checked under all of its
inner automorphisms together and, when it is not abelian, under each inner
automorphism alone.  For each automorphism set
the script compares invariant_subgroups with the subgroups of
all_subgroups that every automorphism maps onto themselves, and
invariant_normal_subgroups with those of them that are normal.  It exits
1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_lattice.py

The full lattices of the order-128 elementary abelian group take minutes
each, so the whole run takes several minutes; it is not part of the test
suite.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_group_engine import builder_groups  # noqa: E402

from flab import group_engine as ge  # noqa: E402
from flab.rings import factorize, is_prime  # noqa: E402

LIMIT = 128


def field_cases():
    for p in range(2, LIMIT + 1):
        if not is_prime(p):
            continue
        for k in range(2, 8):
            if is_prime(k) and p**k <= LIMIT:
                res = ge.build_field_action(p, k)
                f, h = res.action.f, res.action.h
                n = p**k - 1
                sets = {"f,h": [f, h], "h": [h]}
                for d in sorted(divisor for divisor in _divisors(n) if divisor < n):
                    sets[f"f^{d}"] = [ge.perm_power(f, d)]
                yield f"GF({p}^{k})", res.group, sets


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return out


def builder_cases():
    for name, build in builder_groups(LIMIT).items():
        G = build()
        inner = {}  # one conjugating element per distinct inner automorphism
        for g in range(G.order):
            inner.setdefault(tuple(G.conjugate(g, x) for x in range(G.order)), g)
        sets = {"inner": sorted(inner)}
        if len(inner) > 1:
            sets.update((f"conj {g}", [perm]) for perm, g in inner.items())
        yield name, G, sets


def main() -> int:
    t0 = time.perf_counter()
    groups = checked = 0
    lattices = {}  # GF(p^k) and E(p, k) share a table
    for label, G, sets in list(field_cases()) + list(builder_cases()):
        key = G.table.tobytes()
        if key not in lattices:
            lattices[key] = ge.all_subgroups(G)
        full = lattices[key]
        groups += 1
        for what, autos in sets.items():
            invariant = [S for S in full
                         if all(frozenset(a[x] for x in S) == S for a in autos)]
            normal = [S for S in invariant if ge.is_normal(G, S)]
            if ge.invariant_subgroups(G, autos) != invariant:
                print(f"invariant_subgroups differs on {label} under {what}")
                return 1
            if ge.invariant_normal_subgroups(G, autos) != normal:
                print(f"invariant_normal_subgroups differs on {label} under {what}")
                return 1
            checked += 1
    print(f"{groups} groups, {checked} automorphism sets, all agree "
          f"({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
