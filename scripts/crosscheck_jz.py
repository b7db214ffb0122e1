"""Cross-check jz_filtration, which builds the Jennings series by Lazard's
recursion D_i = [D_(i-1), G] D_ceil(i/p)^p, against Lazard's product
formula D_i = prod over j*p^k >= i of gamma_j(G)^(p^k) on direct products;
lazard_lemma_check, which works on whole id arrays, against the walk
of the ids one at a time with two matrix powers each, on the same groups;
and _check_filtration_laws, which checks the laws at the ends of runs of
equal terms, against the check at every index pair, on each series and on
each series with one term dropped.

The factors are the 37 p-groups of jennings_groups in
tests/test_group_engine.py (cyclic, dihedral, quaternion, Heisenberg and
elementary abelian groups, direct products and permutation groups), and
the oracles are that file's _lazard_product_terms,
lazard_lemma_by_element and filtration_laws_by_pairs.  Every direct product
A x B of two of them (A before or equal to B in the list) whose orders
are powers of the same prime and whose order is at most 512 is checked.
It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_jz.py

The run is not part of the test suite.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_group_engine import (  # noqa: E402
    _law_refusal,
    _lazard_product_terms,
    filtration_laws_by_pairs,
    jennings_groups,
    lazard_lemma_by_element,
)

from flab import group_engine as ge  # noqa: E402

LIMIT = 512


def main() -> int:
    t0 = time.perf_counter()
    factors = [(name, build()) for name, build in jennings_groups().items()]
    checked = 0
    for i, (a, A) in enumerate(factors):
        for b, B in factors[i:]:
            if A.order * B.order > LIMIT:
                continue
            (p,) = ge.factorize(A.order)
            if B.order % p:
                continue
            G = ge.direct_product(A, B)
            dl = ge.lazard_algebra(G, p)  # its filtration is jz_filtration(G, p)
            if dl.filtration.terms != _lazard_product_terms(G, p):
                print(f"jz_filtration differs from the product formula on {a}x{b}")
                return 1
            if ge.lazard_lemma(dl) != lazard_lemma_by_element(dl):
                print(f"lazard_lemma_check differs from the element walk on {a}x{b}")
                return 1
            terms = dl.filtration.terms
            variants = [terms] + [terms[:i] + terms[i + 1:] for i in range(len(terms))]
            for dropped, chain in enumerate(variants):  # D_dropped left out, none at 0
                filt = ge.Filtration(p, chain)
                if ((_law_refusal(ge._check_filtration_laws, G, filt) is None)
                        != (_law_refusal(filtration_laws_by_pairs, G, filt) is None)):
                    print(f"the filtration laws differ from every pair on {a}x{b} "
                          f"with D_{dropped} dropped")
                    return 1
            checked += 1
    print(f"{checked} direct products, all agree ({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
