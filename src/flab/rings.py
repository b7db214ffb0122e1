"""Exact coefficient rings, polynomial helpers and the power loop.

Every ring here is exact: arbitrary-precision integers, fractions.Fraction,
residues stored as small non-negative ints, and cyclotomic integers stored
as integer coefficient vectors reduced modulo the n-th cyclotomic polynomial.
No floating point anywhere.

The polynomial helpers are all of flab's polynomial arithmetic: over Z, or
over F_p when given a prime modulus (group_engine's field actions and
free-module check).  power and orbit are flab's shared loops: the one
square-and-multiply loop, and the one walk of a set closed under a map.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import CapacityError, InputError


def power(mul, one, a, k: int):
    """a^k for k >= 0 by square-and-multiply over mul, with identity one:
    the power of ring elements, permutations, group elements, polynomials
    mod g and matrices.

    >>> power(lambda x, y: x * y % 7, 1, 3, 5)
    5
    """
    acc = one
    while k:
        if k & 1:
            acc = mul(acc, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return acc


def orbit(starts, step):
    """The closure of starts under step, where step(x) returns the images
    of x, breadth first: each element is yielded the first time it is seen,
    the starts first (Butler, Fundamental Algorithms for Permutation Groups,
    1991).  Lazy, so a caller may stop it early, even on an infinite orbit.

    >>> list(orbit([1, 1], lambda x: (2 * x % 7,)))
    [1, 2, 4]
    """
    seen, found = set(), []
    for x in starts:
        if x not in seen:
            seen.add(x)
            found.append(x)
            yield x
    for x in found:  # the list grows while it is walked
        for y in step(x):
            if y not in seen:
                seen.add(y)
                found.append(y)
                yield y


# ---------------------------------------------------------------------------
# polynomials as dense ascending coefficient tuples, over Z or over F_mod
# for a prime mod


def poly_trim(p: Sequence[int], mod: int | None = None) -> tuple[int, ...]:
    """Drop trailing zero coefficients, after reducing each mod `mod` when
    one is given; the zero polynomial is ().

    >>> poly_trim([1, 2, 0])
    (1, 2)
    >>> poly_trim([-1, 2, 3], 3)
    (2, 2)
    """
    p = list(p) if mod is None else [c % mod for c in p]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(p, q, mod: int | None = None):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)], mod)


def poly_neg(p):
    return tuple(-a for a in p)


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, d, mod: int | None = None):
    """Quotient and remainder of p by d, exactly: over Z d must be monic,
    over F_mod it may be any d that is nonzero mod `mod`.

    >>> poly_divmod((1, 0, 1), (1, 2), 3)
    ((2, 2), (2,))
    """
    d = poly_trim(d, mod)
    if mod is None and (not d or d[-1] != 1):
        raise InputError("divisor must be monic")
    if not d:
        raise InputError("polynomial division by zero")
    inv_lc = 1 if mod is None else pow(d[-1], -1, mod)
    lower = d[:-1]
    rem = list(poly_trim(p, mod))
    quo = [0] * max(len(rem) - len(d) + 1, 0)
    while len(rem) >= len(d):
        k = len(rem) - len(d)
        c = quo[k] = rem.pop() * inv_lc  # the leading term cancels exactly
        for i, b in enumerate(lower):
            rem[k + i] -= c * b
        if mod is not None:
            rem[k:] = [r % mod for r in rem[k:]]
        while rem and rem[-1] == 0:
            rem.pop()
    return poly_trim(quo, mod), tuple(rem)


def poly_mulmod(a, b, g, mod: int | None = None):
    """a*b reduced mod g (and mod `mod` when given)."""
    return poly_divmod(poly_mul(a, b), g, mod)[1]


def poly_powmod(a, e: int, g, mod: int | None = None):
    """a^e reduced mod g (and mod `mod` when given), for e >= 0."""
    one = poly_divmod((1,), g, mod)[1]
    return power(lambda x, y: poly_mulmod(x, y, g, mod), one, poly_divmod(a, g, mod)[1], e)


def poly_gcd(a, b, mod: int):
    """The monic gcd of a and b over F_mod, for a prime mod; () when both
    are zero.

    >>> poly_gcd((2, 3, 1), (1, 1), 5)
    (1, 1)
    """
    a, b = poly_trim(a, mod), poly_trim(b, mod)
    while b:
        a, b = b, poly_divmod(a, b, mod)[1]
    return poly_divmod(a, a[-1:], mod)[0] if a else a  # a over its leading coefficient


def irreducible_poly(p: int, k: int) -> tuple[int, ...]:
    """The first monic irreducible of prime degree k over F_p, its lower
    coefficients the base-p digits of 0, 1, 2, ... in turn.  For prime k, g
    is irreducible iff x^(p^k) = x mod g, which leaves only factors of
    degree 1 and k, and g has no root in F_p.  A candidate with a root,
    found by evaluating g at 0, ..., p - 1, is refused before x^(p^k) is
    powered.

    >>> irreducible_poly(2, 3)
    (1, 1, 0, 1)
    """
    x = (0, 1)
    for counter in range(p**k):
        g = tuple(counter // p**i % p for i in range(k)) + (1,)
        if any(poly_eval_mod(g, a, p) == 0 for a in range(p)):
            continue
        if poly_powmod(x, p**k, g, p) == x:
            return g
    raise RuntimeError("no irreducible polynomial found")


def poly_eval_mod(p, x: int, mod: int) -> int:
    """Evaluate p at x modulo mod by Horner's rule."""
    acc = 0
    for a in reversed(poly_trim(p)):
        acc = (acc * x + a) % mod
    return acc


def sylvester_resultant(p, q) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant.

    Convention: if either polynomial is constant c (degree 0), the resultant
    is c**deg(other); the resultant involving a zero polynomial is 0 unless
    the other is a nonzero constant.
    """
    p, q = poly_trim(p), poly_trim(q)
    s, t = len(p) - 1, len(q) - 1
    if s < 0 and t < 0:
        return 0
    if s < 0:
        return 1 if t == 0 else 0
    if t < 0:
        return 1 if s == 0 else 0
    if s == 0:
        return p[0] ** t
    if t == 0:
        return q[0] ** s
    size = s + t
    rows = []
    for i in range(t):
        row = [0] * size
        for j, a in enumerate(reversed(p)):
            row[i + j] = a
        rows.append(row)
    for i in range(s):
        row = [0] * size
        for j, b in enumerate(reversed(q)):
            row[i + j] = b
        rows.append(row)
    from .linalg import ring_det  # local import avoids a cycle

    return ring_det(IntegersRing(), rows)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """n-th cyclotomic polynomial by the divisor recurrence.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    """
    if n < 1:
        raise InputError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    den = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, cyclotomic_poly(d))
    quo, rem = poly_divmod(num, den)
    if rem != ():
        raise RuntimeError(f"cyclotomic division for n = {n} leaves a remainder")
    return quo


# ---------------------------------------------------------------------------
# small number theory helpers


# Trial division covers the factors up to this bound; Miller-Rabin and
# Brent's rho handle the cofactor.
_TRIAL_LIMIT = 1 << 10
# The first 13 primes as Miller-Rabin bases decide primality of every n
# below this bound (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 2017).
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strip_small_factors(n: int, out: dict[int, int]) -> int:
    """Divide the primes up to _TRIAL_LIMIT out of n into out.  A cofactor
    with no factor up to its square root is prime and goes into out too;
    returns what is left, 1 or a number with no factor up to the limit."""
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if f > _TRIAL_LIMIT:
            return n
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return 1


def _miller_rabin(n: int) -> bool:
    """Primality of an odd n > 41 below MILLER_RABIN_BOUND, exact there."""
    if n >= MILLER_RABIN_BOUND:
        raise CapacityError(
            f"primality of {n} is past the Miller-Rabin bound {MILLER_RABIN_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper factor of the composite n, which has no factor of 2 or 3,
    by Brent's variant of Pollard's rho (BIT 20, 1980) on x -> x^2 + c for
    c = 1, 2, ... in turn, products of 128 differences per gcd."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"no rho constant splits {n}")


def is_prime(n: int) -> bool:
    """Exact primality: trial division up to _TRIAL_LIMIT, then the
    deterministic Miller-Rabin test; refused (CapacityError) at and past
    MILLER_RABIN_BOUND when no small factor decides it.

    >>> is_prime(1_000_000_000_000_000_009)
    True
    """
    if n < 2:
        return False
    found: dict[int, int] = {}
    if _strip_small_factors(n, found) == 1:
        return found == {n: 1}
    return not found and _miller_rabin(n)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity}, primes in increasing order.

    Trial division takes out the primes up to _TRIAL_LIMIT; a cofactor left
    over is tested with Miller-Rabin and split with Brent's rho until every
    piece is prime.  A piece at or past MILLER_RABIN_BOUND is refused with
    CapacityError.

    >>> factorize(1_000_000_000_000_000_008)
    {2: 3, 3: 2, 97: 1, 26209: 1, 32779: 1, 166667: 1}
    """
    if n < 1:
        raise InputError("factorize expects a positive integer")
    out: dict[int, int] = {}
    rest = _strip_small_factors(n, out)
    pieces = [] if rest == 1 else [rest]
    while pieces:
        m = pieces.pop()
        if _miller_rabin(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent_factor(m)
            pieces += [d, m // d]
    return dict(sorted(out.items()))


def multiplicative_order(a: int, m: int) -> int | None:
    """Order of a in (Z/m)*, or None when gcd(a, m) != 1.  m=1 gives 1.

    The order divides the Carmichael value lambda(m), read off
    factorize(m); each prime factor p is stripped from it while
    a**(order/p) is still 1 mod m.

    >>> multiplicative_order(2, 1_000_000_007)
    500000003
    """
    if m < 1:
        raise InputError("modulus must be positive")
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        return None
    order = 1
    for p, e in factorize(m).items():
        order = math.lcm(order, 2 ** (e - 2) if p == 2 and e > 2 else p ** (e - 1) * (p - 1))
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b == g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# coefficient rings


class Ring:
    """Base for exact coefficient rings.  Elements are hashable values."""

    kind: str = ""
    is_field = False
    # flat_degree is the number of integer coordinates of an element in the
    # lattice linear algebra: 1 over Z and Z/m, the degree over Z[w]; fields
    # do not flatten.
    flat_degree = 1

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def canon(self, a):
        """Canonical representative of a (accepts plain ints)."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return self.canon(a) == self.zero()

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def to_json(self, a):
        return a

    def from_json(self, v):
        return self.canon(v)

    def flatten(self, a) -> tuple[int, ...]:
        """Coordinates over Z of a canonical element a (non-field rings only)."""
        raise NotImplementedError

    def unflatten(self, coords: Sequence[int]):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def describe(self) -> tuple:
        return (self.kind,)

    def __repr__(self):
        return f"{type(self).__name__}()"


class IntegersRing(Ring):
    kind = "Integers"

    def zero(self):
        return 0

    def one(self):
        return 1

    def canon(self, a):
        if isinstance(a, Fraction):
            if a.denominator != 1:
                raise InputError("not an integer")
        return int(a)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise InputError("not a unit in Z")
        return a

    def flatten(self, a):
        return (int(a),)

    def unflatten(self, coords):
        return int(coords[0])


class RationalsRing(Ring):
    kind = "Rationals"
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def canon(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise InputError("division by zero")
        return 1 / Fraction(a)

    def to_json(self, a):
        a = Fraction(a)
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class IntegersModRing(Ring):
    kind = "IntegersMod"

    def __init__(self, modulus: int):
        if modulus < 2:
            raise InputError("modulus must be at least 2")
        self.modulus = modulus

    def describe(self):
        return (self.kind, self.modulus)

    def __repr__(self):
        return f"{type(self).__name__}({self.modulus})"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.modulus

    def canon(self, a):
        if type(a) is int:  # the common case, before the slower ABC test
            return a % self.modulus
        if isinstance(a, Fraction):
            if math.gcd(a.denominator, self.modulus) != 1:
                raise InputError("denominator not invertible")
            return a.numerator * pow(a.denominator, -1, self.modulus) % self.modulus
        return int(a) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_unit(self, a):
        return math.gcd(self.canon(a), self.modulus) == 1

    def inv(self, a):
        a = self.canon(a)
        if not self.is_unit(a):
            raise InputError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def flatten(self, a):
        return (a,)

    def unflatten(self, coords):
        return self.canon(coords[0])


class PrimeFieldRing(IntegersModRing):
    kind = "PrimeField"
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        super().__init__(p)

    def inv(self, a):
        a = self.canon(a)
        if a == 0:
            raise InputError("division by zero")
        return pow(a, self.modulus - 2, self.modulus)


class CyclotomicRing(Ring):
    """Z[w] with w a primitive n-th root of unity, elements as coefficient
    tuples of length deg(cyclotomic_poly(n))."""

    kind = "Cyclotomic"

    def __init__(self, n: int):
        if n < 1:
            raise InputError("n must be positive")
        self.n = n
        self.poly = cyclotomic_poly(n)
        self.degree = len(self.poly) - 1
        self.flat_degree = self.degree

    def describe(self):
        return (self.kind, self.n)

    def __repr__(self):
        return f"CyclotomicRing({self.n})"

    def zero(self):
        return (0,) * self.degree

    def one(self):
        return self.canon(1)

    def omega(self):
        """The distinguished primitive n-th root of unity."""
        return self.reduce([0, 1])

    def reduce(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        _, rem = poly_divmod(poly_trim(coeffs), self.poly)
        out = list(rem) + [0] * (self.degree - len(rem))
        return tuple(out)

    def canon(self, a):
        if isinstance(a, (int, Fraction)):
            k = IntegersRing().canon(a)
            return self.reduce([k])
        return self.reduce(tuple(int(x) for x in a))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.reduce(poly_mul(a, b))

    def norm(self, a) -> int:
        """Field norm down to Z, as a resultant with the defining polynomial."""
        return sylvester_resultant(self.poly, poly_trim(a))

    def is_unit(self, a):
        return abs(self.norm(self.canon(a))) == 1

    def inv(self, a):
        a = self.canon(a)
        if not self.is_unit(a):
            raise InputError("not a unit in the cyclotomic ring")
        # w is a unit with w^n = 1; invert by solving a * x = 1 over Q and
        # checking integrality.
        from .linalg import solve_ring_one  # local import avoids a cycle

        return solve_ring_one(self, a)

    def pow_omega(self, k: int) -> tuple[int, ...]:
        """w**k reduced, any integer k."""
        k %= self.n
        vec = [0] * (k + 1)
        vec[k] = 1
        return self.reduce(vec)

    def to_json(self, a):
        return list(a)

    def flatten(self, a):
        return tuple(a)

    def unflatten(self, coords):
        return tuple(int(x) for x in coords)


RING_KINDS = {
    "Integers": lambda modulus=None: IntegersRing(),
    "Rationals": lambda modulus=None: RationalsRing(),
    "IntegersMod": lambda modulus=None: IntegersModRing(modulus),
    "PrimeField": lambda modulus=None: PrimeFieldRing(modulus),
    "Cyclotomic": lambda modulus=None: CyclotomicRing(modulus),
}


def ring_from_json(obj: dict) -> Ring:
    """Build a ring from {"kind": ..., "modulus": ...} JSON."""
    kind = obj.get("kind")
    if kind not in RING_KINDS:
        raise InputError(f"unknown ring kind {kind!r}")
    if kind in ("IntegersMod", "PrimeField", "Cyclotomic"):
        if "modulus" not in obj:
            raise InputError(f"ring kind {kind} requires a modulus")
        return RING_KINDS[kind](obj["modulus"])
    return RING_KINDS[kind]()


def ring_to_json(ring: Ring) -> dict:
    d = ring.describe()
    out = {"kind": d[0]}
    if len(d) > 1:
        out["modulus"] = d[1]
    return out

