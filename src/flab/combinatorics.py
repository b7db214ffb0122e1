"""Modular index combinatorics.

Everything revolves around parameter triples (n, q, r): indices live in Z/nZ,
r scales them, and q bounds the exponents r may be raised to.  A sequence of
nonzero residues is "r-dependent" when some not-all-zero exponent tuple makes
the r-twisted sum match the plain sum; the D-set of an independent sequence
collects the residues whose adjunction breaks independence.

All searches are exhaustive.  Requests past the configured caps raise
CapacityError rather than sampling.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import CapacityError, InputError
from .rings import (
    CyclotomicRing,
    factorize,
    multiplicative_order,
    poly_eval_mod,
    poly_trim,
    sylvester_resultant,
)

DEFAULT_EXPONENT_CAP = 8
DEFAULT_SUM_LENGTH_CAP = 6


@dataclass(frozen=True)
class FrobeniusParams:
    """Parameter triple (n, q, r) with r in [1, n-1]."""

    n: int
    q: int
    r: int

    def __post_init__(self):
        if self.n < 2:
            raise InputError("n must be at least 2")
        if not 1 <= self.r <= self.n - 1:
            raise InputError(f"r={self.r} outside [1, {self.n - 1}]")
        if self.q < 1:
            raise InputError("q must be positive")

    def passes_prim(self) -> bool:
        return check_prim(self.n, self.q, self.r)


@dataclass(frozen=True)
class DependenceWitness:
    """Exponent tuple certifying dependence of a sequence."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if not any(self.exponents):
            raise InputError("witness exponents must not be all zero")

    def verify(self, seq: Sequence[int], params: FrobeniusParams) -> bool:
        entries = _canon_seq(seq, params.n)
        if len(entries) != len(self.exponents):
            return False
        if any(not 0 <= e < params.q for e in self.exponents):
            return False
        n = params.n
        plain = sum(entries) % n
        twisted = sum(pow(params.r, e, n) * a for e, a in zip(self.exponents, entries)) % n
        return plain == twisted


def _canon_seq(seq: Sequence[int], n: int) -> tuple[int, ...]:
    out = []
    for a in seq:
        v = int(a) % n
        if v == 0:
            raise InputError(f"sequence entry {a} is zero mod {n}")
        out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def prim_failure(n: int, q: int, r: int) -> tuple[int, int | None] | None:
    """The least divisor d > 1 of n modulo which r lacks multiplicative
    order q, with r's order there (None when r is not a unit mod d); None
    when there is no such divisor.

    >>> prim_failure(15, 4, 2)
    (3, 2)
    >>> prim_failure(6, 2, 2)
    (2, None)
    >>> prim_failure(7, 3, 2) is None
    True
    """
    FrobeniusParams(n, q, r)  # validates the triple
    for d in range(2, n + 1):
        if n % d:
            continue
        order = multiplicative_order(r % d, d)
        if order != q:
            return d, order
    return None


def check_prim(n: int, q: int, r: int) -> bool:
    """True when r has multiplicative order exactly q modulo every divisor
    d > 1 of n.

    >>> check_prim(7, 3, 2)
    True
    >>> check_prim(15, 4, 2)
    False
    """
    return prim_failure(n, q, r) is None


def additive_order(b: int, n: int) -> int:
    """Order of b in the additive group Z/nZ: n // gcd(b, n).

    >>> additive_order(6, 15)
    5
    """
    if n < 1:
        raise InputError("n must be positive")
    return n // math.gcd(b % n, n)


def is_r_dependent(
    seq: Sequence[int],
    params: FrobeniusParams,
    cap: int = DEFAULT_EXPONENT_CAP,
) -> tuple[bool, DependenceWitness | None]:
    """Exhaustive dependence test over all q**k exponent tuples.

    Returns (dependent, witness); the witness is the first tuple found in
    lexicographic order.  Sequences longer than cap raise CapacityError.
    """
    entries = _canon_seq(seq, params.n)
    k = len(entries)
    if k == 0:
        raise InputError("sequence must be nonempty")
    if k > cap:
        raise CapacityError(f"sequence length {k} exceeds cap {cap}")
    n, q, r = params.n, params.q, params.r
    target = sum(entries) % n
    powers = [pow(r, e, n) for e in range(q)]
    tables = [[p * a % n for p in powers] for a in entries]

    exps = [0] * k
    sums = [0] * (k + 1)
    # odometer over exponent tuples with incremental prefix sums
    i = 0
    while True:
        if i == k:
            if any(exps) and sums[k] == target:
                return True, DependenceWitness(tuple(exps))
            i -= 1
            while i >= 0 and exps[i] == q - 1:
                exps[i] = 0
                i -= 1
            if i < 0:
                return False, None
            exps[i] += 1
        sums[i + 1] = (sums[i] + tables[i][exps[i]]) % n
        i += 1


def d_set(
    seq: Sequence[int],
    params: FrobeniusParams,
    cap: int = DEFAULT_EXPONENT_CAP,
    method: str = "auto",
) -> set[int]:
    """Residues j != 0 whose adjunction makes an independent sequence
    dependent.

    The input must itself be r-independent.  Two routes are implemented and
    cross-checked by the test suite: "brute" tries every j directly from the
    definition, "formula" enumerates the solved-for-j values (valid whenever
    1 - r**i is invertible for 0 < i < q, in particular under check_prim).
    "auto" picks formula when the inverses exist, brute otherwise.
    """
    entries = _canon_seq(seq, params.n)
    if len(entries) + 1 > cap:
        raise CapacityError(f"extension length {len(entries) + 1} exceeds cap {cap}")
    dep, _ = is_r_dependent(entries, params, cap)
    if dep:
        raise InputError("d_set requires an r-independent sequence")
    n, q, r = params.n, params.q, params.r
    if method == "auto":
        invertible = all(math.gcd((1 - pow(r, i, n)) % n, n) == 1 for i in range(1, q))
        method = "formula" if invertible else "brute"
    if method == "brute":
        out = set()
        for j in range(1, n):
            dep, _ = is_r_dependent(entries + (j,), params, cap)
            if dep:
                out.add(j)
        return out
    if method != "formula":
        raise InputError(f"unknown d_set method {method!r}")
    inverses = []
    for i in range(1, q):
        denom = (1 - pow(r, i, n)) % n
        if math.gcd(denom, n) != 1:
            raise InputError("formula route needs 1 - r**i invertible")
        inverses.append(pow(denom, -1, n))
    plain = sum(entries) % n
    powers = [pow(r, e, n) for e in range(q)]
    tables = [[p * a % n for p in powers] for a in entries]
    out = set()
    for tup in itertools.product(range(q), repeat=len(entries)):
        twisted = 0
        for t, e in zip(tables, tup):
            twisted += t[e]
        diff = (twisted - plain) % n
        for inv in inverses:
            j = diff * inv % n
            if j:
                out.add(j)
    return out


def find_independent_subseq(
    seq: Sequence[int],
    m: int,
    params: FrobeniusParams,
    cap: int = DEFAULT_EXPONENT_CAP,
) -> tuple[int, ...] | None:
    """Greedy r-independent subsequence of length m keeping the first entry.

    Scans left to right, skipping values already chosen, and extends whenever
    the extension stays independent.  Returns None when the scan fails; under
    check_prim parameters a sequence holding at least q**m + m distinct
    values always succeeds.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    entries = _canon_seq(seq, params.n)
    if not entries:
        raise InputError("sequence must be nonempty")
    chosen: list[int] = []
    used: set[int] = set()
    for pos, v in enumerate(entries):
        if pos == 0:
            dep, _ = is_r_dependent((v,), params, cap)
            if dep:
                return None
            chosen.append(v)
            used.add(v)
            continue
        if len(chosen) == m:
            break
        if v in used:
            continue
        dep, _ = is_r_dependent(tuple(chosen) + (v,), params, cap)
        if not dep:
            chosen.append(v)
            used.add(v)
    return tuple(chosen) if len(chosen) >= m else None


def capacity_n(c: int, q: int) -> int:
    """Additive-order threshold max(2**(2**(2q-3)-1) * c**(2**(2q-3)), q**(c+1)).

    >>> capacity_n(1, 3)
    128
    """
    if c < 1 or q < 2:
        raise InputError("requires c >= 1 and q >= 2")
    e = 2 ** (2 * q - 3)
    return max(2 ** (e - 1) * c**e, q ** (c + 1))


def engel_width(c: int, q: int) -> int:
    """Repetition width c + q**(c+1).

    >>> engel_width(2, 2)
    10
    """
    if c < 1 or q < 1:
        raise InputError("requires c >= 1 and q >= 1")
    return c + q ** (c + 1)


def charp_bound(g1: Sequence[int], g2: Sequence[int]) -> int:
    """Modulus bound for a common nonzero root of two integer polynomials
    that share no complex root.

    With degrees s, t >= 1 and M the largest absolute coefficient the bound
    is 2**(2**(s+t-1)-1) * M**(2**(s+t-1)); when either polynomial is a
    nonzero constant b, any qualifying modulus divides b, so |b| is returned.
    """
    p1, p2 = poly_trim(g1), poly_trim(g2)
    if not p1 or not p2:
        raise InputError("polynomials must be nonzero")
    s, t = len(p1) - 1, len(p2) - 1
    consts = [abs(p[0]) for p in (p1, p2) if len(p) == 1]
    if consts:
        return min(consts)
    m = max(max(abs(a) for a in p1), max(abs(a) for a in p2))
    e = 2 ** (s + t - 1)
    return 2 ** (e - 1) * m**e


def common_root_moduli(g1: Sequence[int], g2: Sequence[int], limit: int) -> set[int]:
    """All moduli 2 <= n0 <= limit at which g1 and g2 share a nonzero root.

    Exact enumeration: candidate primes are read off the resultant and the
    leading coefficients, root sets are scanned per prime power, and moduli
    are combined multiplicatively (CRT).  Falls back to a direct scan when
    the resultant vanishes.
    """
    p1, p2 = poly_trim(g1), poly_trim(g2)
    if not p1 or not p2:
        raise InputError("polynomials must be nonzero")
    if limit < 1:
        raise InputError("limit must be positive")
    res = sylvester_resultant(p1, p2)
    if res == 0:
        return _common_root_moduli_scan(p1, p2, limit)
    primes = set(factorize(abs(res)))
    primes |= set(factorize(abs(p1[-1])))
    primes |= set(factorize(abs(p2[-1])))
    primes = sorted(p for p in primes if p <= limit)
    # root sets per admissible prime power
    powers: dict[int, list[tuple[int, set[int]]]] = {}
    for p in primes:
        col = []
        pe = p
        while pe <= limit:
            roots = {x for x in range(pe)
                     if poly_eval_mod(p1, x, pe) == 0 and poly_eval_mod(p2, x, pe) == 0}
            if not roots:
                break
            col.append((pe, roots))
            pe *= p
        if col:
            powers[p] = col
    out: set[int] = set()

    def walk(idx: int, modulus: int, any_nonzero_possible: bool):
        if modulus > 1 and any_nonzero_possible:
            out.add(modulus)
        for k in range(idx, len(primes)):
            p = primes[k]
            for pe, roots in powers.get(p, ()):
                if modulus * pe > limit:
                    break
                walk(k + 1, modulus * pe, any_nonzero_possible or any(roots))

    walk(0, 1, False)
    return out


def _common_root_moduli_scan(g1, g2, limit: int) -> set[int]:
    """Definitional per-modulus scan; the reference route for small limits."""
    out = set()
    for n0 in range(2, limit + 1):
        for x in range(1, n0):
            if poly_eval_mod(g1, x, n0) == 0 and poly_eval_mod(g2, x, n0) == 0:
                out.add(n0)
                break
    return out


def char0_exhaust(n: int, m: int, cap: int = DEFAULT_SUM_LENGTH_CAP) -> set[tuple[int, ...]]:
    """All multisets (i_1 <= ... <= i_m) of exponents with
    w**i_1 + ... + w**i_m == m for w a primitive n-th root of unity.

    Computed exactly in Z[x]/(n-th cyclotomic polynomial); the all-zero
    multiset is always present and is expected to be alone.
    """
    if n < 1 or m < 1:
        raise InputError("n and m must be positive")
    if m > cap:
        raise CapacityError(f"m={m} exceeds cap {cap}")
    ring = CyclotomicRing(n)
    target = ring.canon(m)
    omegas = [ring.pow_omega(i) for i in range(n)]
    out: set[tuple[int, ...]] = set()
    for combo in itertools.combinations_with_replacement(range(n), m):
        acc = ring.zero()
        for i in combo:
            acc = ring.add(acc, omegas[i])
        if acc == target:
            out.add(combo)
    return out
