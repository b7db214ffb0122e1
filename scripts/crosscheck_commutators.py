"""Cross-check commutator_subgroup, all_sylow_subgroups and the two series,
which work from generating sets, against their all-element definitions.

Every builder group of order at most 64 (cyclic, dihedral, elementary
abelian, Heisenberg, Q8, the direct products of two named groups, and S4)
is checked on every pair of subgroups from its full lattice, for every
prime dividing its order, and on its lower central and derived series.
The oracles and the group list come from tests/test_group_engine.py:
commutator_subgroup_by_pairs closes all |A|·|B| commutators, and
sylow_class_by_conjugates conjugates one Sylow subgroup by every element.
The series oracles iterate commutator_subgroup_by_pairs(G, gamma_i, G) and
commutator_subgroup_by_pairs(G, D_i, D_i) up to the trivial group or a
repeat, and nilpotency_class and derived_length must read their lengths.
It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_commutators.py

The run is not part of the test suite.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_group_engine import (  # noqa: E402
    builder_groups,
    commutator_subgroup_by_pairs,
    sylow_class_by_conjugates,
)

from flab import group_engine as ge  # noqa: E402

LIMIT = 64


def series_by_pairs(G, step) -> list[frozenset]:
    """G, step(G), step(step(G)), ... up to the trivial group or a repeat."""
    terms = [frozenset(range(G.order))]
    while len(terms[-1]) > 1:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def length(terms) -> int | None:
    return len(terms) - 1 if len(terms[-1]) == 1 else None


def main() -> int:
    t0 = time.perf_counter()
    groups = pairs = classes = series = 0
    for name, build in builder_groups(LIMIT).items():
        G = build()
        subgroups = ge.all_subgroups(G)
        for A in subgroups:
            for B in subgroups:
                if ge.commutator_subgroup(G, A, B) != commutator_subgroup_by_pairs(G, A, B):
                    print(f"commutator_subgroup differs on {name} at {sorted(A)}, {sorted(B)}")
                    return 1
                pairs += 1
        for p in ge.factorize(G.order):
            if ge.all_sylow_subgroups(G, p) != sylow_class_by_conjugates(G, p):
                print(f"all_sylow_subgroups differs on {name} at p = {p}")
                return 1
            classes += 1
        full = frozenset(range(G.order))
        lower = series_by_pairs(G, lambda S: commutator_subgroup_by_pairs(G, S, full))
        derived = series_by_pairs(G, lambda S: commutator_subgroup_by_pairs(G, S, S))
        if ge.lower_central_series_sets(G) != lower or ge.nilpotency_class(G) != length(lower):
            print(f"the lower central series differs on {name}")
            return 1
        if ge.derived_series_sets(G) != derived or ge.derived_length(G) != length(derived):
            print(f"the derived series differs on {name}")
            return 1
        series += len(lower) + len(derived)
        groups += 1
    print(f"{groups} groups, {pairs} subgroup pairs, {classes} Sylow classes, "
          f"{series} series terms, all agree ({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
