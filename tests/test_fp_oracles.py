"""sympy as an independent oracle for the F_p[x] arithmetic behind the
field actions and the free-module check (rings' polynomial helpers with a
modulus, and the Smith form in group_engine), and direct checks of the
group tables built from base-p digits (elementary abelian, Heisenberg)."""
from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix, Poly, symbols
from sympy.matrices.normalforms import invariant_factors

from flab import group_engine as ge
from flab.errors import InputError
from flab.rings import irreducible_poly, is_prime, poly_divmod, poly_gcd, poly_powmod

x = symbols("x")
primes = st.sampled_from([2, 3, 5, 7, 11])
coeff_lists = st.lists(st.integers(-30, 30), max_size=7)


def to_sympy(coeffs, p):
    return Poly(list(reversed(coeffs)) or [0], x, modulus=p)


def from_sympy(poly, p):
    """Coefficients mod p, low degree first, trailing zeros dropped."""
    out = [int(c) % p for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(primes, coeff_lists, coeff_lists)
def test_fpp_divmod_matches_sympy(p, a, b):
    assume(any(c % p for c in b))
    quo, rem = to_sympy(a, p).div(to_sympy(b, p))
    assert poly_divmod(a, b, p) == (from_sympy(quo, p), from_sympy(rem, p))


def test_fp_division_refuses_a_zero_divisor():
    for b in ([], [0, 0], [5, 10, 0]):
        with pytest.raises(InputError, match="^polynomial division by zero$"):
            poly_divmod([1, 2], b, 5)


@settings(max_examples=200, deadline=None)
@given(primes, coeff_lists, coeff_lists)
def test_fp_gcd_matches_sympy(p, a, b):
    expected = to_sympy(a, p).gcd(to_sympy(b, p))
    if not expected.is_zero:
        expected = expected.monic()
    assert poly_gcd(a, b, p) == from_sympy(expected, p)


@settings(max_examples=200, deadline=None)
@given(primes, coeff_lists, coeff_lists, st.integers(0, 40))
def test_fp_powmod_matches_sympy(p, a, g, e):
    assume(any(c % p for c in g))
    expected = (to_sympy(a, p) ** e).rem(to_sympy(g, p))
    assert poly_powmod(a, e, g, p) == from_sympy(expected, p)


def _first_irreducible_by_sympy(p, k):
    for counter in range(p**k):
        g = tuple(counter // p**i % p for i in range(k)) + (1,)
        if to_sympy(g, p).is_irreducible:
            return g
    return None


@pytest.mark.parametrize("p, k", [(p, k) for k in range(2, 13)
                                  for p in range(2, math.isqrt(ge.TABLE_CAP) + 1)
                                  if is_prime(k) and is_prime(p) and p**k <= ge.TABLE_CAP])
def test_irreducible_poly_is_the_first_irreducible_in_counter_order(p, k):
    assert irreducible_poly(p, k) == _first_irreducible_by_sympy(p, k)


def poly_matrices(max_size, max_degree):
    entry = st.lists(st.integers(0, 10), max_size=max_degree + 1)
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def sympy_invariant_factors(mat, p):
    """Nonunit invariant factors from sympy over GF(p)[x], made monic."""
    domain = GF(p)[x]
    M = Matrix([[to_sympy(entry, p).as_expr() for entry in row] for row in mat])
    out = []
    for f in invariant_factors(M, domain=domain):
        poly = Poly(f, x, modulus=p)
        if poly.degree() > 0:
            out.append(from_sympy(poly.monic(), p))
    return out


@settings(max_examples=60, deadline=None)
@given(primes, poly_matrices(3, 2))
def test_poly_invariant_factors_match_sympy(p, mat):
    M = Matrix([[to_sympy(entry, p).as_expr() for entry in row] for row in mat])
    assume(not Poly(M.det(), x, modulus=p).is_zero)
    assert ge._poly_invariant_factors(mat, p) == sympy_invariant_factors(mat, p)


@settings(max_examples=40, deadline=None)
@given(primes, st.integers(1, 3), st.integers(1, 2), st.data())
def test_characteristic_matrix_factors_match_sympy(p, n, copies, data):
    """xI - A, the shape free_module_check feeds in; A repeats a block so
    that several nonunit factors come up."""
    B = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    size = n * copies
    A = [[B[i % n][j % n] if i // n == j // n else 0 for j in range(size)]
         for i in range(size)]
    char = [[(-A[i][j], 1) if i == j else (-A[i][j],) for j in range(size)]
            for i in range(size)]
    assert ge._poly_invariant_factors(char, p) == sympy_invariant_factors(char, p)


def test_elementary_abelian_is_componentwise_addition():
    for p, k in [(2, 0), (2, 1), (3, 0), (2, 3), (3, 2), (5, 2), (2, 6), (7, 1)]:
        G = ge.elementary_abelian_group(p, k)
        assert G.order == p**k and G.identity == 0
        vectors = list(itertools.product(range(p), repeat=k))
        ids = {v: sum(c * p**i for i, c in enumerate(v)) for v in vectors}
        for u, v in itertools.product(vectors, repeat=2):
            total = tuple((a + b) % p for a, b in zip(u, v))
            assert G.mul(ids[u], ids[v]) == ids[total]
    assert ge.elementary_abelian_group(5, 0).to_json() == {"table": [[0]]}


def test_heisenberg_is_unitriangular_product():
    for p in (2, 3, 5):
        G = ge.heisenberg_group(p)

        def matrix(x):
            a, b, c = x % p, x // p % p, x // (p * p)
            return ((1, a, c), (0, 1, b), (0, 0, 1))

        ids = {matrix(x): x for x in range(p**3)}
        for x, y in itertools.product(range(p**3), repeat=2):
            A, B = matrix(x), matrix(y)
            prod = tuple(tuple(sum(A[i][t] * B[t][j] for t in range(3)) % p
                               for j in range(3)) for i in range(3))
            assert G.mul(x, y) == ids[prod]
