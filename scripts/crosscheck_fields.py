"""Cross-check build_field_action, which builds multiplication maps from
the digit arrays of the x-multiplication map and reads the generator and
the p-power map off one orbit walk, against sympy's GF(p)[x] arithmetic
(Poly with modulus=p), which shares no code with flab.rings.

On every field GF(p^k) with k prime and p^k <= TABLE_CAP (32 fields) it
checks that:

- the modulus g is the first irreducible of degree k in counter order
  (lower coefficients the base-p digits of 0, 1, 2, ...);
- the generator is the first id of multiplicative order p^k - 1;
- f(y) = gen * y and h(y) = y^p mod g on every id y.

It exits 1 on the first disagreement.

    PYTHONPATH=src python scripts/crosscheck_fields.py

The run is not part of the test suite.
"""
from __future__ import annotations

import sys
import time

from sympy import Poly, symbols

from flab import group_engine as ge

X = symbols("x")


def poly_of(coeffs, p: int) -> Poly:
    """The polynomial with ascending coefficients coeffs over GF(p)."""
    return Poly(list(reversed(coeffs)), X, modulus=p)


def id_of(poly: Poly, p: int) -> int:
    return sum(c % p * p**i for i, c in enumerate(reversed(poly.all_coeffs())))


def element(y: int, p: int, k: int) -> Poly:
    return poly_of([y // p**i % p for i in range(k)], p)


def first_irreducible(p: int, k: int) -> tuple[int, ...]:
    for counter in range(p**k):
        g = tuple(counter // p**i % p for i in range(k)) + (1,)
        if poly_of(g, p).is_irreducible:
            return g
    raise RuntimeError(f"sympy finds no irreducible of degree {k} over GF({p})")


def multiplicative_order(a: Poly, g: Poly, n: int) -> int | None:
    """The least e in 1..n with a^e = 1 mod g, or None."""
    one, acc = Poly(1, X, modulus=g.get_modulus()), a
    for e in range(1, n + 1):
        if acc == one:
            return e
        acc = (acc * a).rem(g)
    return None


def check_field(p: int, k: int) -> str | None:
    """The first disagreement on GF(p^k), or None."""
    res = ge.build_field_action(p, k)
    g = first_irreducible(p, k)
    if res.poly != g:
        return f"the modulus is {res.poly}, sympy's first irreducible is {g}"
    size, n = p**k, p**k - 1
    G = poly_of(g, p)
    gen = next((y for y in range(1, size)
                if multiplicative_order(element(y, p, k), G, n) == n), None)
    if res.generator != gen:
        return f"the generator is id {res.generator}, sympy's first of order {n} is {gen}"
    a = element(gen, p, k)
    for y in range(size):
        b = element(y, p, k)
        if res.action.f[y] != id_of((a * b).rem(G), p):
            return f"f differs from multiplication by the generator at id {y}"
        if res.action.h[y] != id_of((b**p).rem(G), p):
            return f"h differs from the p-th power at id {y}"
    return None


def main() -> int:
    t0 = time.perf_counter()
    fields = [(p, k) for k in range(2, ge.TABLE_CAP.bit_length()) if ge.is_prime(k)
              for p in range(2, ge.TABLE_CAP) if ge.is_prime(p) and p**k <= ge.TABLE_CAP]
    for p, k in fields:
        problem = check_field(p, k)
        if problem is not None:
            print(f"GF({p}^{k}): {problem}")
            return 1
    print(f"{len(fields)} fields, all agree ({time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
