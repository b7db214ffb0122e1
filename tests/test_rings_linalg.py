"""Exact-arithmetic foundations: polynomials, factorization, the ring
wrappers, and linear algebra over fields, Z, and Z/m."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from flab.errors import CapacityError, InputError
from flab.linalg import (
    Subspace,
    field_kernel,
    field_solve,
    frac_rational_solve,
    hnf,
    howell,
    int_solve,
    kernel,
    lattice_contains,
    mat_apply,
    mat_identity,
    mat_mul,
    rref,
    rref_with_transform,
    ring_adjugate,
    ring_det,
)
from flab.rings import (
    MILLER_RABIN_BOUND,
    CyclotomicRing,
    IntegersModRing,
    IntegersRing,
    PrimeFieldRing,
    RationalsRing,
    cyclotomic_poly,
    factorize,
    is_prime,
    multiplicative_order,
    orbit,
    poly_add,
    poly_divmod,
    poly_eval_mod,
    poly_mul,
    poly_neg,
    poly_powmod,
    poly_trim,
    power,
    ring_from_json,
    ring_to_json,
    sylvester_resultant,
    xgcd,
)

coeffs = st.lists(st.integers(-9, 9), max_size=6)


# --- polynomials ---


def test_poly_trim_zero():
    assert poly_trim([0, 0, 0]) == ()
    assert poly_trim([1, 2, 0]) == (1, 2)
    assert poly_trim([]) == ()


@given(coeffs, coeffs)
def test_poly_add_matches_sympy(p, q):
    x = sympy.symbols("x")
    ours = poly_trim(poly_add(p, q))
    theirs = sympy.Poly(
        sympy.Poly(list(reversed(p)) or [0], x) + sympy.Poly(list(reversed(q)) or [0], x), x
    ).all_coeffs()
    assert list(reversed(ours)) == theirs or (not ours and theirs == [0])


@given(coeffs, coeffs)
def test_poly_mul_matches_sympy(p, q):
    x = sympy.symbols("x")
    ours = poly_trim(poly_mul(p, q))
    theirs = sympy.Poly(
        sympy.Poly(list(reversed(p)) or [0], x) * sympy.Poly(list(reversed(q)) or [0], x), x
    ).all_coeffs()
    assert list(reversed(ours)) == theirs or (not ours and theirs == [0])


def test_poly_divmod_monic_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        d = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
        p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        quo, rem = poly_divmod(p, d)
        recombined = poly_trim(poly_add(poly_mul(quo, d), rem))
        assert recombined == poly_trim(p)
        assert len(poly_trim(rem)) < len(poly_trim(d))


def test_poly_divmod_requires_monic():
    with pytest.raises(InputError, match="^divisor must be monic$"):
        poly_divmod([1, 2, 3], [1, 2])
    with pytest.raises(InputError, match="^divisor must be monic$"):
        poly_divmod([1, 2, 3], [])


def test_power_is_one_at_exponent_zero():
    assert power(lambda x, y: x * y % 7, 1, 3, 0) == 1
    assert power(lambda x, y: x * y % 7, 1, 3, 6) == 1
    assert power(poly_mul, (1,), (1, 1), 0) == (1,)
    assert power(poly_mul, (1,), (1, 1), 3) == (1, 3, 3, 1)


def test_orbit_is_lazy_breadth_first_and_yields_each_once():
    # the orbit is infinite, so only a lazy walk returns
    assert list(itertools.islice(orbit([0], lambda x: (x + 1,)), 5)) == [0, 1, 2, 3, 4]
    # repeated starts are yielded once, the starts first and in order
    assert list(orbit([3, 1, 3, 1], lambda x: ())) == [3, 1]
    # breadth first: every image of x before any image of an image
    step = {0: (1, 2), 1: (3, 0), 2: (4,), 3: (), 4: (2, 5), 5: ()}
    assert list(orbit([0], lambda x: step[x])) == [0, 1, 2, 3, 4, 5]
    assert list(orbit([], lambda x: (x,))) == []
    # step is called once per element, on the elements in the order yielded
    calls = []
    assert list(orbit([2], lambda x: calls.append(x) or (x * 2 % 11,))) == [
        2, 4, 8, 5, 10, 9, 7, 3, 6, 1]
    assert calls == [2, 4, 8, 5, 10, 9, 7, 3, 6, 1]


def test_poly_powmod_over_z_matches_repeated_division():
    g = cyclotomic_poly(5)
    acc = (1,)
    for e in range(12):
        assert poly_powmod((2, -1), e, g) == acc
        acc = poly_divmod(poly_mul(acc, (2, -1)), g)[1]


def test_poly_eval_mod():
    # 3 + 2x + x^2 at x = 4 is 27
    assert poly_eval_mod([3, 2, 1], 4, 100) == 27
    assert poly_eval_mod([3, 2, 1], 4, 5) == 2


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_resultant_matches_sympy_up_to_sign(p, q):
    # sympy's subresultant PRS normalizes signs away in corner cases, so
    # the cross-check is on magnitude; the sign convention is pinned below
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return
    x = sympy.symbols("x")
    ours = sylvester_resultant(p, q)
    theirs = sympy.resultant(
        sympy.Poly(list(reversed(p)), x), sympy.Poly(list(reversed(q)), x)
    )
    assert abs(ours) == abs(theirs)


def test_resultant_sign_convention():
    # res(f, g) = lc(f)^deg(g) * prod g(alpha) over roots alpha of f
    assert sylvester_resultant((1, 1), (0, 0, 0, 1)) == -1  # (x+1, x^3)
    assert sylvester_resultant((0, 0, 0, 1), (1, 1)) == 1
    rng = random.Random(3)
    for _ in range(60):
        p = poly_trim([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
        q = poly_trim([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
        if not p or not q:
            continue
        dp, dq = len(p) - 1, len(q) - 1
        assert sylvester_resultant(p, q) == (
            (-1) ** (dp * dq) * sylvester_resultant(q, p)
        )


def test_resultant_shared_root_vanishes():
    # both vanish at x = 2
    p = poly_mul([-2, 1], [3, 1])
    q = poly_mul([-2, 1], [1, 1, 1])
    assert sylvester_resultant(p, q) == 0


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclotomic_matches_sympy(n):
    x = sympy.symbols("x")
    theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    assert list(reversed(cyclotomic_poly(n))) == theirs


# --- integer utilities ---


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


@given(st.integers(2, 10**6))
def test_factorize_recombines(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def _sympy_factors(n):
    return dict(sorted(sympy.factorint(n).items()))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**22))
def test_factorize_matches_sympy(n):
    assert factorize(n) == _sympy_factors(n)
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(10**3, 10**10), st.integers(10**3, 10**10), st.integers(1, 4))
def test_factorize_splits_products_of_large_primes(a, b, e):
    # both factors past trial division, so Miller-Rabin and Brent's rho decide
    n = sympy.nextprime(a) * sympy.nextprime(b) ** e
    assume(n < MILLER_RABIN_BOUND)
    assert factorize(n) == _sympy_factors(n)
    assert not is_prime(n)


def test_factorize_refuses_past_the_miller_rabin_bound():
    assert MILLER_RABIN_BOUND == 3_317_044_064_679_887_385_961_981
    # the bound is the least strong pseudoprime to the first 13 prime bases
    assert _sympy_factors(MILLER_RABIN_BOUND) == {1287836182261: 1, 2575672364521: 1}
    below = sympy.prevprime(MILLER_RABIN_BOUND)
    assert is_prime(below) and factorize(below) == {below: 1}
    for n in (MILLER_RABIN_BOUND, 2**89 - 1, 3 * (2**89 - 1)):
        with pytest.raises(CapacityError, match=str(MILLER_RABIN_BOUND)):
            factorize(n)
    with pytest.raises(CapacityError, match=str(MILLER_RABIN_BOUND)):
        is_prime(2**89 - 1)
    # past the bound, numbers whose factors trial division finds still work
    assert factorize(2**200 * 3**5 * 1009) == {2: 200, 3: 5, 1009: 1}
    assert not is_prime(2**200 + 2)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(1, 5) == 1
    assert multiplicative_order(2, 4) is None  # not coprime


@given(st.integers(2, 400), st.integers(1, 400))
def test_multiplicative_order_is_least(m, a):
    a %= m
    got = multiplicative_order(a, m)
    if math.gcd(a, m) != 1:
        assert got is None
        return
    assert pow(a, got, m) == 1
    for t in range(1, got):
        assert pow(a, t, m) != 1


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**10), st.integers(-10**6, 10**6))
def test_multiplicative_order_matches_sympy(m, a):
    got = multiplicative_order(a, m)
    if math.gcd(a, m) != 1:
        assert got is None
    else:
        assert got == sympy.n_order(a % m, m)


def test_multiplicative_order_at_prime_powers_of_two_and_a_large_prime():
    for e in range(1, 12):
        m = 2**e
        for a in range(1, m, 2):
            assert multiplicative_order(a, m) == sympy.n_order(a, m)
    assert multiplicative_order(2, 10**9 + 7) == 500_000_003
    assert multiplicative_order(10**9 + 6, 10**9 + 7) == 2


# --- ring wrappers ---


RINGS = [
    IntegersRing(),
    RationalsRing(),
    IntegersModRing(12),
    PrimeFieldRing(7),
    CyclotomicRing(5),
]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind)
def test_ring_axioms_sampled(ring):
    rng = random.Random(11)

    def rand():
        if ring.kind == "Cyclotomic":
            return ring.canon(tuple(rng.randint(-5, 5) for _ in range(4)))
        if ring.kind == "Rationals":
            return ring.canon(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return ring.canon(rng.randint(-20, 20))

    for _ in range(80):
        a, b, c = rand(), rand(), rand()
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero()
        assert ring.mul(a, ring.one()) == a


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind)
def test_ring_json_round_trip(ring):
    again = ring_from_json(ring_to_json(ring))
    assert again.describe() == ring.describe()


@pytest.mark.parametrize("ring", [IntegersModRing(6), PrimeFieldRing(7)], ids=lambda r: r.kind)
def test_canon_gives_plain_ints_for_every_integer_kind(ring):
    # exact ints take the fast path; bools, numpy ints and Fractions the
    # general one, with the same values
    m = ring.modulus
    cases = [(-8, -8 % m), (m + 3, 3), (True, 1), (False, 0),
             (np.int64(-3), -3 % m), (np.uint16(m + 1), 1), (np.int8(5), 5 % m)]
    if m == 7:
        cases.append((Fraction(3, 2), 3 * 4 % 7))
    for a, expected in cases:
        got = ring.canon(a)
        assert type(got) is int and got == expected, (a, got)
    assert ring.canon(Fraction(4, 1)) == 4 % m
    if m == 6:
        with pytest.raises(InputError, match="denominator not invertible"):
            ring.canon(Fraction(1, 2))


def test_prime_field_inverse():
    F = PrimeFieldRing(11)
    for a in range(1, 11):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(InputError):
        F.inv(0)


def test_cyclotomic_root_relation():
    # the generator's n-th power is 1 and no smaller power is
    R = CyclotomicRing(5)
    w = R.omega()
    acc = R.one()
    for _ in range(4):
        acc = R.mul(acc, w)
        assert acc != R.one()
    assert R.mul(acc, w) == R.one()


# --- field linear algebra ---


def _rand_mat(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_rref_idempotent_and_solve():
    F = PrimeFieldRing(5)
    rng = random.Random(23)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[F.canon(x) for x in row] for row in _rand_mat(rng, m, n)]
        r = rref(F, mat)
        assert rref(F, r) == r
        # target in the row span; solve recovers combination coefficients
        x = [F.canon(rng.randint(0, 4)) for _ in range(m)]
        target = [
            F.canon(sum(x[i] * mat[i][j] for i in range(m))) for j in range(n)
        ]
        sol = field_solve(F, mat, target)
        assert sol is not None
        assert [
            F.canon(sum(sol[i] * mat[i][j] for i in range(m))) for j in range(n)
        ] == target


def test_field_kernel_rank_nullity():
    F = PrimeFieldRing(7)
    rng = random.Random(29)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[F.canon(x) for x in row] for row in _rand_mat(rng, m, n)]
        ker = field_kernel(F, mat, n)
        for v in ker:
            assert mat_apply(F, mat, v) == [0] * m
        pivots = sum(1 for row in rref(F, mat) if any(row))
        assert len(ker) == n - pivots


def test_field_solve_inconsistent():
    F = PrimeFieldRing(3)
    assert field_solve(F, [[1, 0], [1, 0]], [1, 2]) is None


# --- integer lattices ---


def test_hnf_preserves_row_lattice():
    rng = random.Random(31)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = _rand_mat(rng, m, n, -9, 9)
        h = hnf(mat)
        for row in mat:
            assert lattice_contains(h, row)
        # random lattice member round trip
        vec = [0] * n
        for row in mat:
            c = rng.randint(-3, 3)
            vec = [a + c * b for a, b in zip(vec, row)]
        assert lattice_contains(h, vec)


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=5))


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_plain_forms_are_the_nonzero_rows_of_the_transform_forms(mat):
    F = PrimeFieldRing(7)
    red = rref_with_transform(F, mat)[0]
    assert rref(F, mat) == [row for row in red if any(row)]


def test_int_solve():
    rng = random.Random(41)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = _rand_mat(rng, m, n, -6, 6)
        x = [rng.randint(-4, 4) for _ in range(n)]
        target = [sum(mat[i][j] * x[j] for j in range(n)) for i in range(m)]
        sol = int_solve(mat, target)
        assert sol is not None
        assert [
            sum(mat[i][j] * sol[j] for j in range(n)) for i in range(m)
        ] == target
    assert int_solve([[2]], [1]) is None


def reference_hnf_with_transform(rows):
    """The transform route that the pair forms replaced, as a reference:
    (H, U) with U unimodular and U @ rows == H, zero rows of H kept, from
    the Hermite elimination of the rows augmented by the identity."""
    n, width = len(rows), (len(rows[0]) if rows else 0)
    mat = [list(map(int, r)) + [int(j == i) for j in range(n)] for i, r in enumerate(rows)]
    out = []
    for col in range(width):
        live = [r for r in mat if r[col] != 0]
        if not live:
            continue
        piv = live[0]
        mat.remove(piv)
        for r in live[1:]:
            mat.remove(r)
            a, b = piv[col], r[col]
            g, s, t = xgcd(a, b)
            piv, r = ([s * x + t * y for x, y in zip(piv, r)],
                      [(a // g) * y - (b // g) * x for x, y in zip(piv, r)])
            mat.append(r)
        if piv[col] < 0:
            piv = [-x for x in piv]
        for i, row in enumerate(out):
            q = row[col] // piv[col]
            if q:
                out[i] = [x - q * y for x, y in zip(row, piv)]
        out.append(piv)
    full = out + mat
    return [r[:width] for r in full], [r[width:] for r in full]


def reference_int_right_kernel(mat, width):
    """Basis of {x in Z^width : mat @ x == 0}: the transform rows of the
    transpose's zero Hermite rows."""
    transpose = [[mat[r][c] for r in range(len(mat))] for c in range(width)]
    h, u = reference_hnf_with_transform(transpose)
    return [urow for hrow, urow in zip(h, u) if not any(hrow)]


def test_hnf_transform_is_exact():
    rng = random.Random(37)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = _rand_mat(rng, m, n, -9, 9)
        h, u = reference_hnf_with_transform(mat)
        assert [[sum(u[i][k] * mat[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)] == h
        assert hnf(mat) == [row for row in h if any(row)]


def cyclotomic_block_matrix(ring, rows):
    """The integer matrix of x -> M x over Z[w] in the coordinates of
    1, w, ..., w^(d-1): entry (i, s), (j, t) is coefficient s of M[i][j] w^t."""
    d = ring.degree
    return [[ring.mul(ring.canon(a), ring.pow_omega(t))[s] for a in row for t in range(d)]
            for row in rows for s in range(d)]


def _rand_cyc_mat(rng, ring, rows, cols):
    return [[tuple(rng.randint(-3, 3) for _ in range(ring.degree)) for _ in range(cols)]
            for _ in range(rows)]


def test_kernels_over_z_and_cyclotomic_match_the_transform_route():
    rng = random.Random(83)
    Z = IntegersRing()
    for _ in range(150):
        width, count = rng.randint(1, 6), rng.randint(0, 5)
        mat = _rand_mat(rng, count, width, -9, 9)
        assert kernel(Z, mat, width) == Subspace.span(Z, width, reference_int_right_kernel(mat, width))
        ring = CyclotomicRing(rng.choice([3, 4, 5]))
        width, count = rng.randint(1, 3), rng.randint(0, 3)
        mat = _rand_cyc_mat(rng, ring, count, width)
        ref = reference_int_right_kernel(cyclotomic_block_matrix(ring, mat), width * ring.degree)
        assert kernel(ring, mat, width) == Subspace.from_flat_rows(ring, width, ref), (ring, mat)


def _solve_inputs(seed, count=20, rows=14, cols=18):
    rng = random.Random(seed)
    for _ in range(count):
        mat = _rand_mat(rng, rows, cols, -9, 9)
        x = [rng.randint(-9, 9) for _ in range(cols)]
        yield mat, [sum(a * b for a, b in zip(row, x)) for row in mat]


def test_int_solve_is_hermite_reduced_against_the_kernel():
    # the solution is reduced by the kernel rows of the pair form, so its
    # entry at each pivot column c of the kernel's HNF lies in [0, K[c]);
    # the transform route answered in 403-9,379 bits on these inputs
    Z = IntegersRing()
    for mat, target in _solve_inputs(5):
        sol = int_solve(mat, target)
        assert mat_apply(Z, mat, sol) == target
        for row in kernel(Z, mat, len(mat[0])).rows:
            c = next(j for j, x in enumerate(row) if x)
            assert 0 <= sol[c] < row[c]


def assert_exact_integer_kernel(rows, mat, width):
    """rows are the kernel lattice of mat: they lie in it, have its rank,
    and span a saturated lattice (only unit invariant factors), which is
    therefore all of it."""
    assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in mat for v in rows)
    rank = sympy.Matrix(mat).rank() if mat else 0
    assert len(rows) == width - rank
    if rows:
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        assert [abs(snf[i, i]) for i in range(len(rows))] == [1] * len(rows)


def test_integer_kernels_match_sympy():
    rng = random.Random(89)
    Z = IntegersRing()
    for trial in range(60):
        width, count = rng.randint(1, 7), rng.randint(0, 6)
        mat = _rand_mat(rng, count, width, -9, 9)
        if trial % 4 == 0 and mat:  # rank deficient
            mat.append([sum(rng.randint(-2, 2) * row[j] for row in mat) for j in range(width)])
        assert_exact_integer_kernel([list(r) for r in kernel(Z, mat, width).rows], mat, width)
    for mat, _ in _solve_inputs(5, count=3):
        assert_exact_integer_kernel([list(r) for r in kernel(Z, mat, 18).rows], mat, 18)
    ring = CyclotomicRing(3)
    for _ in range(20):
        width, count = rng.randint(1, 4), rng.randint(1, 3)
        mat = _rand_cyc_mat(rng, ring, count, width)
        flat = [list(r) for r in kernel(ring, mat, width).rows]
        assert_exact_integer_kernel(flat, cyclotomic_block_matrix(ring, mat), width * ring.degree)


@pytest.mark.parametrize("ring", [IntegersRing(), IntegersModRing(12), PrimeFieldRing(5),
                                  RationalsRing(), CyclotomicRing(3)], ids=repr)
def test_kernel_refuses_rows_of_the_wrong_length(ring):
    for mat in ([[1, 0, 1]], [[1, 0], [1]], [[1]]):
        with pytest.raises(InputError, match="length 2"):
            kernel(ring, mat, 2)
    assert kernel(ring, [[1, 0]], 2) == Subspace.span(ring, 2, [[0, 1]])


def test_frac_rational_solve():
    sol = frac_rational_solve([[2, 0], [0, 3]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 3)]
    assert frac_rational_solve([[1, 1], [1, 1]], [0, 1]) is None


def sympy_row_hnf(mat, width):
    """flab's row Hermite form through sympy's column form: reverse each
    row's coordinates and use the rows as columns, then read sympy's
    columns back in reverse order with their coordinates reversed."""
    cols = sympy.Matrix(width, len(mat), lambda i, k: mat[k][width - 1 - i])
    if not any(cols):
        return []
    h = hermite_normal_form(cols)
    return [[int(x) for x in reversed(h[:, k])] for k in reversed(range(h.shape[1]))]


def test_hnf_matches_sympy():
    rng = random.Random(59)
    for trial in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = _rand_mat(rng, m, n, -9, 9)
        if trial % 3 == 0:  # rank deficient: a last row in the span of the others
            mat.append([sum(rng.randint(-2, 2) * row[j] for row in mat) for j in range(n)])
        if trial % 50 == 0:
            mat = [[0] * n for _ in mat]
        assert hnf(mat) == sympy_row_hnf(mat, n)


# --- Howell form over Z/m ---


def reference_howell(rows, m):
    """The iterative Howell form that howell replaced, as a reference:
    echelon rows mod m, add each row's annihilator multiple (m/gcd(pivot,
    m)) * row and echelon again until nothing changes, then scale each
    pivot to a divisor of m and reduce the entries above it."""
    def echelon(mat, width):
        mat = [r for r in mat if any(r)]
        out = []
        for col in range(width):
            live = [r for r in mat if r[col] != 0]
            if not live:
                continue
            piv = live[0]
            mat.remove(piv)
            for r in live[1:]:
                mat.remove(r)
                a, b = piv[col], r[col]
                g, s, t = xgcd(a, b)
                piv, r = (
                    [(s * x + t * y) % m for x, y in zip(piv, r)],
                    [((a // g) * y - (b // g) * x) % m for x, y in zip(piv, r)],
                )
                if any(r):
                    mat.append(r)
            out.append(piv)
        return out

    def lead(row):
        return next(j for j, x in enumerate(row) if x)

    width = len(rows[0]) if rows else 0
    cur = echelon([[x % m for x in r] for r in rows], width)
    for _ in range(width + 2):
        extras = [[(m // math.gcd(row[lead(row)], m)) * x % m for x in row] for row in cur]
        nxt = echelon(cur + extras, width)
        if nxt == cur:
            break
        cur = nxt
    else:
        raise AssertionError("the reference Howell iteration did not stabilize")
    out = []
    for row in cur:
        a = row[lead(row)]
        g = math.gcd(a, m)
        u = pow(a // g, -1, m // g) if m // g > 1 else 1
        while math.gcd(u, m) != 1:
            u += m // g
        out.append([u * x % m for x in row])
    for i in range(len(out)):
        for k in range(i + 1, len(out)):
            col = lead(out[k])
            q = out[i][col] // out[k][col]
            if q:
                out[i] = [(x - q * y) % m for x, y in zip(out[i], out[k])]
    return out


MODULI = [2, 4, 6, 8, 9, 12, 16, 27, 30, 36, 60, 64, 81, 125, 360, 720, 1001, 5040]


def test_howell_matches_the_iterative_reference():
    rng = random.Random(61)
    for _ in range(600):
        m = rng.choice(MODULI + [rng.randint(1, 5040)])
        width, count = rng.randint(1, 7), rng.randint(0, 9)
        rows = [[rng.randrange(-m, 2 * m) for _ in range(width)] for _ in range(count)]
        if count and rng.random() < 0.3:  # rows sharing factors of m
            d = rng.choice([k for k in range(1, m + 1) if m % k == 0])
            rows = [[d * x for x in r] for r in rows]
        assert howell(rows, m) == reference_howell(rows, m), (rows, m)


def test_howell_keeps_hermite_entries_below_the_modulus(monkeypatch):
    # the Hermite elimination under a modulus reduces every combined row,
    # so no gcd step sees an entry above m; without it a 10 x 10 input
    # mod 5040 reaches entries of about 16,000 digits
    import flab.linalg as la

    seen = []

    def spy(a, b):
        seen.append(max(abs(a), abs(b)))
        return xgcd(a, b)

    monkeypatch.setattr(la, "xgcd", spy)
    rng = random.Random(67)
    m = 5040
    rows = [[rng.randrange(m) for _ in range(10)] for _ in range(10)]
    assert howell(rows, m) == reference_howell(rows, m)
    assert seen and max(seen) <= m
    # the kernel over Z/m goes through the same elimination
    seen.clear()
    R = IntegersModRing(m)
    ker = kernel(R, rows, 10)
    assert all(mat_apply(R, rows, v) == [0] * 10 for v in ker.gens())
    assert seen and max(seen) <= m


def test_kernel_over_integers_mod_matches_the_integer_kernel_route():
    # {x : M x = 0 mod m} is the projection of the integer kernel of [M | m I]
    rng = random.Random(79)
    for _ in range(200):
        m = rng.choice(MODULI)
        width, count = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randrange(m) for _ in range(width)] for _ in range(count)]
        big = [row + [m if j == i else 0 for j in range(count)] for i, row in enumerate(rows)]
        gens = [v[:width] for v in reference_int_right_kernel(big, width + count)]
        R = IntegersModRing(m)
        assert kernel(R, rows, width) == Subspace.span(R, width, gens), (rows, m)


def test_howell_forms_have_divisor_pivots_and_no_zero_rows():
    rng = random.Random(71)
    for _ in range(200):
        m = rng.choice(MODULI)
        width = rng.randint(1, 5)
        rows = [[rng.randrange(m) for _ in range(width)] for _ in range(rng.randint(0, 6))]
        h = howell(rows, m)
        for row in h:
            pivot = next(x for x in row if x)
            assert m % pivot == 0 and pivot < m
            assert all(0 <= x < m for x in row)


def test_subspace_size_over_integers_mod_matches_bruteforce():
    rng = random.Random(73)
    for _ in range(80):
        m = rng.choice([2, 4, 6, 8, 9, 10, 12])
        width, count = rng.randint(1, 3), rng.randint(0, 3)
        rows = [[rng.randrange(m) for _ in range(width)] for _ in range(count)]
        span = {
            tuple(sum(c * row[j] for c, row in zip(combo, rows)) % m for j in range(width))
            for combo in itertools.product(range(m), repeat=count)
        }
        R = IntegersModRing(m)
        assert Subspace.span(R, width, rows).size() == len(span)
        brute = sum(
            1 for v in itertools.product(range(m), repeat=width)
            if all(sum(a * x for a, x in zip(row, v)) % m == 0 for row in rows))
        assert kernel(R, rows, width).size() == brute


def test_howell_membership_agrees_with_bruteforce():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.choice([4, 6, 8, 9, 12])
        rows_n = rng.randint(1, 3)
        n = rng.randint(1, 3)
        mat = [[rng.randrange(m) for _ in range(n)] for _ in range(rows_n)]
        h = howell(mat, m)
        # brute span of the rows
        span = set()
        from itertools import product
        for combo in product(range(m), repeat=rows_n):
            v = tuple(
                sum(c * mat[i][j] for i, c in enumerate(combo)) % m
                for j in range(n)
            )
            span.add(v)
        for v in span:
            assert lattice_contains(h, list(v), m)
        for _ in range(10):
            v = [rng.randrange(m) for _ in range(n)]
            assert lattice_contains(h, v, m) == (tuple(v) in span)


def test_howell_canonical_for_equal_spans():
    # same row module presented two ways
    m = 8
    a = [[2, 4], [0, 4]]
    b = [[2, 0], [0, 4]]  # 2*(2,4) + 3*(0,4) = (4,4)... build b from a's span
    b = [[6, 4], [2, 0]]
    span_a = howell(a, m)
    # rows of b: (6,4) = 3*(2,4) + (0,4)*? 3*(2,4)=(6,12)=(6,4) yes; (2,0)=(2,4)+(0,4)
    span_b = howell(b, m)
    assert span_a == span_b


# --- Subspace ---


def test_subspace_equality_and_size():
    F = PrimeFieldRing(3)
    s1 = Subspace.span(F, 3, [[1, 0, 0], [0, 1, 0]])
    s2 = Subspace.span(F, 3, [[1, 1, 0], [2, 1, 0]])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.rank() == 2
    assert s1.size() == 9
    assert s1.contains([2, 2, 0])
    assert not s1.contains([0, 0, 1])
    assert Subspace.zero(F, 3).is_zero()
    assert Subspace.full(F, 3).contains_space(s1)


def test_subspace_sum():
    F = PrimeFieldRing(5)
    a = Subspace.span(F, 3, [[1, 0, 0]])
    b = Subspace.span(F, 3, [[0, 1, 0]])
    assert a.sum(b) == Subspace.span(F, 3, [[1, 0, 0], [0, 1, 0]])


def test_subspace_over_modular_ring():
    R = IntegersModRing(4)
    s = Subspace.span(R, 2, [[2, 0]])
    assert s.contains([2, 0])
    assert not s.contains([1, 0])
    assert s.size() == 2


def test_kernel_subspace():
    R = IntegersModRing(6)
    ker = kernel(R, [[2, 0], [0, 3]], 2)
    assert ker.contains([3, 0])
    assert ker.contains([0, 2])
    assert not ker.contains([1, 0])
    # brute agreement
    for a in range(6):
        for b in range(6):
            in_ker = (2 * a) % 6 == 0 and (3 * b) % 6 == 0
            assert ker.contains([a, b]) == in_ker
    # no rows: everything is in the kernel
    assert reference_int_right_kernel([], 2) == [[1, 0], [0, 1]]
    assert kernel(IntegersRing(), [], 2) == Subspace.full(IntegersRing(), 2)


# --- determinants and adjugates ---


def test_det_and_adjugate_over_rings():
    rng = random.Random(47)
    rings = (IntegersRing(), IntegersModRing(9), PrimeFieldRing(5),
             IntegersModRing(25), CyclotomicRing(5))
    for ring in rings:
        for _ in range(50):
            n = rng.randint(1, 5)
            if ring.kind == "Cyclotomic":
                mat = [[ring.canon(tuple(rng.randint(-3, 3) for _ in range(4)))
                        for _ in range(n)] for _ in range(n)]
            else:
                mat = [[ring.canon(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            det = ring_det(ring, mat)
            adj = ring_adjugate(ring, mat)
            prod = mat_mul(ring, adj, mat)
            expected = [
                [ring.mul(det, mat_identity(ring, n)[i][j]) for j in range(n)]
                for i in range(n)
            ]
            assert prod == expected


def test_det_matches_fraction_expansion():
    # sympy's determinant is the oracle: exact over Z and Q, reduced mod m
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 8)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        sym = int(sympy.Matrix(mat).det())
        assert ring_det(IntegersRing(), mat) == sym
        for ring in (IntegersModRing(9), PrimeFieldRing(5)):
            assert ring_det(ring, mat) == sym % ring.modulus
        frac = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in frac]).det()
        assert ring_det(RationalsRing(), frac) == Fraction(int(sym.p), int(sym.q))
    assert ring_det(IntegersRing(), []) == 1


def test_det_refuses_a_non_square_matrix():
    with pytest.raises(InputError, match="square"):
        ring_det(IntegersRing(), [[1, 2, 3], [4, 5, 6]])
