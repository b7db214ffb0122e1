"""Modular index combinatorics.

Everything revolves around parameter triples (n, q, r): indices live in Z/nZ,
r scales them, and q bounds the exponents r may be raised to.  A sequence of
nonzero residues is "r-dependent" when some not-all-zero exponent tuple makes
the r-twisted sum match the plain sum; the D-set of an independent sequence
collects the residues whose adjunction breaks independence.

Dependence and D-sets are read off residue reach sets.  For each suffix of a
sequence a_1..a_k, an n-bit int holds the twisted sums sum r**e_i * a_i of
that suffix over all exponent tuples, and a second one the sums over tuples
with a nonzero exponent.  One level is q rotations of the next shorter
suffix's sets; the levels are folded over a given suffix's node, so a
sequence costs O(k*q) big-int operations, where walking the exponent tuples
costs O(q**k) steps, and a brute D-set adds one level per candidate residue
on top of the sequence's node.  The route is chosen from the input: when
walking the q**k tuples is no dearer than k*q rotations of n-bit sets (a
rotation costs about one odometer step per ROTATION_BITS_PER_STEP bits), or
a set would be large outright (n > BITSET_MAX_N), the exponent odometer runs
instead, in memory that does not grow with n.  Past ROTATION_BITS_PER_STEP
bits that includes every length-1 sequence.  Both routes, and the choice
between them, count only the exponents up to the first repeated power of r
(at most n + 1 of them), so no call's work grows with q past r's order.
The distinct powers are capped at POWERS_CAP and a search's cost, in
odometer steps, at SEARCH_STEP_CAP, each checked before the work it counts;
for q past TABLE_CACHE_MAX_Q, a unit r and n <= BITSET_MAX_N the powers
table's length is read off r's order, so an over-cap search is refused
before its table is built.
A D-set holds nonzero residues only, so the formula route stops at the
first sum that brings it to n - 1 of them.  A length-1 sequence (a,) has
the D-set a * D((1,)), so for q <= TABLE_CACHE_MAX_Q D((1,)) is built once
per triple, kept with the powers and inverses, and scaled by a per call.

All searches are exhaustive.  Requests past the configured caps raise
CapacityError rather than sampling.
"""
from __future__ import annotations

import itertools
import math
from array import array
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

EXPONENT_CAP = 8
SUM_LENGTH_CAP = 6
CHAR0_TERM_CAP = 2_000_000
# The scan for a vanishing resultant is quadratic in its limit: at 1,000
# moduli it took 0.29-0.68 s for degrees 1-5 on a 2-core Xeon, at 2,000
# 1.2-2.8 s.
ROOT_SCAN_CAP = 1000
# A residue read evaluates one or both polynomials: 131,070 reads with both
# vanishing took 0.27-0.35 s at degrees 1 and 5 on a 2-core Xeon.
ROOT_LIFT_CAP = 250_000


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
    out = tuple([int(a) % n for a in seq])
    if 0 in out:
        raise InputError(f"sequence entry {seq[out.index(0)]} is zero mod {n}")
    return out


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
    divisors = [1]
    for p, e in factorize(n).items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    for d in sorted(divisors)[1:]:
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


TABLE_CACHE_MAX_Q = 256  # exponent tables for larger q are rebuilt per call
# CPython 3.11, 2-core host: 2**20 powers take 0.5 s and 80 MB to tabulate;
# a step costs at most 0.28 us on the odometer (about 0.02 us once q is in
# the hundreds, as the last exponent is a list scan) and 0.2 us on reach
# sets, so 2**24 steps take at most 5 s.  A length-1 search walks its whole table, so the
# step cap must stay above the table cap.
POWERS_CAP = 1 << 20
SEARCH_STEP_CAP = 1 << 24


def _kept_if_small(build):
    """Keep build(n, q, r) in a 64-entry LRU while q <= TABLE_CACHE_MAX_Q;
    larger tables die with the call that needed them.  The LRU pays for
    itself: on a 2-core Xeon, two 6 s perfbench runs of dset-sweep (seed 1)
    read wall_s 0.566 and 0.553 s without it, 0.399 and 0.395 s with it.
    A triple keeps at most 256 powers, 255 inverses and 255**2 4-byte ids
    of _d_set_of_one, 254 KiB: 272 KB in all at n = 1,000,003, where a test
    holds it, so about 18 MB for the 64 triples."""
    cached = lru_cache(maxsize=64)(build)

    def table(n: int, q: int, r: int):
        return cached(n, q, r) if q <= TABLE_CACHE_MAX_Q else build(n, q, r)

    return table


@_kept_if_small
def _powers(n: int, q: int, r: int) -> tuple[int, ...]:
    """r**e mod n for 0 <= e < q, stopping before the first e >= 1 whose
    power already occurred at some 1 <= j < e, so at most n + 1 of them.

    Past that e the powers only repeat, and an exponent there can be
    replaced by the smaller j with the same power and the same zero or
    nonzero status: no first witness, reach set or D-set needs it.  The
    table raises CapacityError when it would pass POWERS_CAP.

    For a unit r the powers r, r**2, ... are distinct up to r**ord(r) = 1,
    and the next one is r again, so the table ends at that 1 and needs no
    record of the powers seen.
    """
    out = [1]
    p = 1
    steps = min(q - 1, POWERS_CAP)  # one more power than the cap admits
    if math.gcd(r, n) == 1:
        one = 1 % n
        for _ in range(steps):
            p = p * r % n
            out.append(p)
            if p == one:
                break
    else:
        seen = set()
        for _ in range(steps):
            p = p * r % n
            if p in seen:
                break
            seen.add(p)
            out.append(p)
    if len(out) > POWERS_CAP:
        raise CapacityError(
            f"(n, q, r) = ({n}, {q}, {r}): r has over POWERS_CAP = {POWERS_CAP} powers mod n")
    return tuple(out)


@_kept_if_small
def _inverses(n: int, q: int, r: int) -> tuple[int, ...] | None:
    """The inverses of 1 - r**i mod n for 0 < i < q; None when one of them
    is not a unit."""
    out = []
    for p in _powers(n, q, r)[1:]:
        denom = (1 - p) % n
        if math.gcd(denom, n) != 1:
            return None
        out.append(pow(denom, -1, n))
    return tuple(out)


@_kept_if_small
def _d_set_of_one(n: int, q: int, r: int) -> array | None:
    """d_set((1,)) when the inverses exist, by d_set's formula on the sums
    of (1,), the powers: the residues (p - 1) * u mod n for p in the powers
    past the first and u in the inverses, in an array of 4-byte ids; None
    when the inverses do not exist or n > 2**32.

    The D-set of (a,) is a times this set: its sums are p * a, its plain
    sum is a, and p * a - a = a * (p - 1).  Every p - 1 is a unit here, so
    each entry is a unit and no length-1 sequence is dependent.  The build
    makes at most (len(powers) - 1)**2 products.  A cached array holds at
    most min(n - 1, 255**2) ids, 254 KiB, as q <= TABLE_CACHE_MAX_Q.
    """
    inverses = _inverses(n, q, r)
    if inverses is None or n > 1 << 32:
        return None
    return array("I", _solve(_powers(n, q, r), 1, n, inverses))


def _solve(sums, plain: int, n: int, inverses) -> set[int]:
    """d_set's formula: (s - plain) * u mod n for the sums s != plain and
    the inverses u, up to the first sum that brings the set to n - 1."""
    found = set()
    for s in sums:
        if s != plain:
            d = s - plain
            found.update([d * u % n for u in inverses])
            if len(found) == n - 1:
                break
    return found


# Reach sets: bit s of an n-bit int is set when residue s is reached.  A node
# (reach, nonzero, tail) holds the twisted sums of one suffix of a sequence,
# over all exponent tuples and over those with a nonzero exponent, and the
# node of the next shorter suffix; the empty suffix reaches 0 alone.
_EMPTY_REACH = (1, 0, None)
BITSET_MAX_N = 1 << 20  # a reach set never exceeds 128 KiB
# A rotation of an n-bit reach set costs about one odometer step per
# ROTATION_BITS_PER_STEP bits (CPython 3.11: 30-70 us per rotation at
# n = 10**6, 0.28 us per step), so a sequence costs about
# k*q*(n // ROTATION_BITS_PER_STEP) steps on reach sets and q**k on the
# odometer.  Below that many bits a rotation costs about as much as a step.
# The odometer's steps are cheaper at large q, so the estimate favours reach
# sets there.
ROTATION_BITS_PER_STEP = 4096


def _reach(entries: tuple[int, ...], n: int, powers, node: tuple = _EMPTY_REACH) -> tuple:
    """Reach node of entries followed by the suffix whose node is given,
    one level per entry, last entry first."""
    mask = (1 << n) - 1
    later = powers[1:]
    for a in reversed(entries):
        reach, nonzero, _ = node
        # rotating x left by v is (x | x << n) >> (n - v), masked
        doubled = reach | reach << n
        twisted = 0
        for p in later:
            twisted |= doubled >> (n - p * a % n)
        nonzero |= nonzero << n
        node = ((twisted | doubled >> (n - a)) & mask,
                (twisted | nonzero >> (n - a)) & mask, node)
    return node


def _descend(node: tuple, entries: tuple[int, ...], n: int, powers, target: int):
    """Lexicographically first nonzero exponent tuple whose twisted sum is
    target, by greedy descent over the suffix nodes; None when there is none."""
    if not node[1] >> target & 1:
        return None
    exps = []
    nonzero = False
    for a in entries:
        tail_reach, tail_nonzero, _ = node = node[2]
        for e, p in enumerate(powers):
            s = (target - p * a) % n
            if (tail_reach if nonzero or e else tail_nonzero) >> s & 1:
                break
        else:
            raise RuntimeError("reach sets disagree with their suffixes")
        exps.append(e)
        target = s
        nonzero = nonzero or e > 0
    return tuple(exps)


def _odometer(entries: tuple[int, ...], n: int, powers, target: int):
    """Lexicographically first nonzero exponent tuple whose twisted sum is
    target, by walking all len(powers)**k tuples; None when there is none.
    The last exponent is not stepped through: for each prefix it is the
    first position of the residue still needed in the last table."""
    k = len(entries)
    q = len(powers)
    tables = [[p * a % n for p in powers] for a in entries]
    last = tables[-1]
    exps = [0] * (k - 1)
    sums = [0] * k
    # odometer over the first k - 1 exponents with incremental prefix sums
    i = 0
    while True:
        if i == k - 1:
            try:
                e = last.index((target - sums[i]) % n, 0 if any(exps) else 1)
                return tuple(exps) + (e,)
            except ValueError:
                pass
            i -= 1
            while i >= 0 and exps[i] == q - 1:
                exps[i] = 0
                i -= 1
            if i < 0:
                return None
            exps[i] += 1
        sums[i + 1] = (sums[i] + tables[i][exps[i]]) % n
        i += 1


def _over_step_cap(steps: int, n: int, q: int, r: int) -> CapacityError:
    return CapacityError(f"(n, q, r) = ({n}, {q}, {r}) needs about {steps} search steps, "
                         f"over SEARCH_STEP_CAP = {SEARCH_STEP_CAP}")


def _cheap_order(n: int, q: int, r: int) -> int | None:
    """ord r mod n where the powers table is not cached but its length is
    cheap to know: q past TABLE_CACHE_MAX_Q, a unit r and
    ROTATION_BITS_PER_STEP <= n <= BITSET_MAX_N; None elsewhere."""
    if (q > TABLE_CACHE_MAX_Q and ROTATION_BITS_PER_STEP <= n <= BITSET_MAX_N
            and math.gcd(r, n) == 1):
        return multiplicative_order(r, n)
    return None


def _first_dependence(entries: tuple[int, ...], n: int, q: int, r: int, powers=None):
    """(first witness exponents or None, the sequence's reach node or None on
    the odometer route, the powers table).

    The route is the cheaper one, size**k tuples against k*size rotations
    of n // ROTATION_BITS_PER_STEP steps each; the odometer's memory does
    not grow with n.  Below that many bits the reach sets cost no steps, and
    no search is refused.  Without a given table the search builds it, and
    where its length is cheap to know it checks SEARCH_STEP_CAP first: for
    q past TABLE_CACHE_MAX_Q, a unit r and ROTATION_BITS_PER_STEP <= n <=
    BITSET_MAX_N the length is 1 + min(q - 1, ord r), at most POWERS_CAP,
    and factorize finds ord r by trial division alone (_cheap_order).
    """
    if powers is not None:
        size = len(powers)
    elif (order := _cheap_order(n, q, r)) is not None:
        size = min(q, order + 1)
    else:
        powers = _powers(n, q, r)
        size = len(powers)
    k = len(entries)
    tuples, rotations = size**k, k * size * (n // ROTATION_BITS_PER_STEP)
    odometer = n > BITSET_MAX_N or tuples <= rotations
    steps = tuples if odometer else rotations
    if steps > SEARCH_STEP_CAP:
        raise _over_step_cap(steps, n, q, r)
    if powers is None:
        powers = _powers(n, q, r)
    target = sum(entries) % n
    if odometer:
        return _odometer(entries, n, powers, target), None, powers
    node = _reach(entries, n, powers)
    return _descend(node, entries, n, powers, target), node, powers


def is_r_dependent(
    seq: Sequence[int],
    params: FrobeniusParams,
) -> tuple[bool, DependenceWitness | None]:
    """Exhaustive dependence test over all q**k exponent tuples.

    Returns (dependent, witness); the witness is the lexicographically first
    nonzero exponent tuple whose twisted sum is the plain sum.  Sequences
    longer than EXPONENT_CAP raise CapacityError.

    The sequence is dependent when the plain sum lies in the nonzero reach
    set of the whole sequence, and the witness is read off by a greedy
    descent that picks at each position the least exponent whose remainder
    the next suffix still reaches.  Where the q**k tuples cost no more to
    walk than k*q rotations of the sets, or the sets would pass BITSET_MAX_N
    bits, the exponent odometer walks the tuples in lexicographic order
    instead.  Past POWERS_CAP or SEARCH_STEP_CAP it raises CapacityError.
    A length-1 sequence (a,) with q <= TABLE_CACHE_MAX_Q is not searched
    when the cached inverses exist: each r**e * a - a = a * (r**e - 1) is
    then a nonzero multiple of a unit.

    >>> is_r_dependent((1, 2), FrobeniusParams(7, 3, 2))
    (True, DependenceWitness(exponents=(1, 2)))
    """
    n, q, r = params.n, params.q, params.r
    entries = _canon_seq(seq, n)
    if not entries:
        raise InputError("sequence must be nonempty")
    if len(entries) > EXPONENT_CAP:
        raise CapacityError(f"sequence length {len(entries)} exceeds cap {EXPONENT_CAP}")
    if len(entries) == 1 and q <= TABLE_CACHE_MAX_Q and _inverses(n, q, r) is not None:
        return False, None
    exps = _first_dependence(entries, n, q, r)[0]
    return (False, None) if exps is None else (True, DependenceWitness(exps))


def d_set(
    seq: Sequence[int],
    params: FrobeniusParams,
    method: str = "auto",
) -> set[int]:
    """Residues j != 0 whose adjunction makes an independent sequence
    dependent.

    The input must itself be r-independent.  Two routes are implemented and
    cross-checked by the test suite: "brute" tests every j from the
    definition (j goes in front, as one level above the sequence's reach
    node; dependence does not depend on the order), "formula" solves for j:
    with s a twisted sum of the sequence and plain its plain sum, adjoining
    j with exponent i is dependent exactly when j = (s - plain) / (1 - r**i),
    which needs 1 - r**i invertible for 0 < i < q (true under check_prim).  The
    sums s are the set bits of the sequence's reach set, or on the odometer
    route (see is_r_dependent) the q**k tuples themselves.  Every solution
    is a nonzero residue (s != plain and the inverse is a unit), so the
    formula stops at the first sum after which the set holds all n - 1 of
    them.  "auto" picks formula when the inverses exist, brute otherwise.
    Sums times inverses, or n - 1 searches on brute, are capped at
    SEARCH_STEP_CAP; the formula cap is checked while the sums are gathered,
    before the inverses exist, and counts every sum whether or not the set
    fills first.  On a length-1 sequence (a,) the sums are p * a and the
    formula gives a * D((1,)), which is read off the cached _d_set_of_one
    table while q <= TABLE_CACHE_MAX_Q (at most 255**2 products, far under
    the cap); an uncached table would cost more than the sums loop.  Where
    _cheap_order knows ord r to be at least q, a unit entry a is independent
    and its route's cost is known from q alone, so an over-cap sequence (a,)
    refuses before the powers table is built.

    >>> sorted(d_set((1,), FrobeniusParams(7, 3, 2)))
    [2, 4, 6]
    """
    if method not in ("auto", "brute", "formula"):
        raise InputError(f"unknown d_set method {method!r}")
    n, q, r = params.n, params.q, params.r
    entries = _canon_seq(seq, n)
    if len(entries) + 1 > EXPONENT_CAP:
        raise CapacityError(f"extension length {len(entries) + 1} exceeds cap {EXPONENT_CAP}")
    if not entries:
        raise InputError("sequence must be nonempty")
    if len(entries) == 1 and q <= TABLE_CACHE_MAX_Q and method in ("auto", "formula"):
        units = _d_set_of_one(n, q, r)
        if units is not None:
            a = entries[0]
            return {a * v % n for v in units}
    if len(entries) == 1 and math.gcd(entries[0], n) == 1:
        order = _cheap_order(n, q, r)
        if order is not None and order >= q:
            # no r**e with 0 < e < q is 1, so the unit entry is independent
            # and its q sums are distinct: the formula costs q * (q - 1)
            # steps and brute (n - 1) * q**2, known before any table
            steps = (n - 1) * q * q if method == "brute" else q * (q - 1)
            if steps > SEARCH_STEP_CAP:
                raise _over_step_cap(steps, n, q, r)
    exps, node, powers = _first_dependence(entries, n, q, r)
    if exps is not None:
        raise InputError("d_set requires an r-independent sequence")
    plain = sum(entries) % n
    if method != "brute":
        # formula costs one step per sum and inverse; brute costs at least
        # as much, so an over-cap formula refuses for both routes, and it is
        # checked before the inverses or the whole sums set are built
        size = len(powers) - 1  # the inverses' count when they exist
        limit = SEARCH_STEP_CAP // size if size else math.inf
        if node is None:
            sums = set()
            for ps in itertools.product(powers, repeat=len(entries)):
                sums.add(sum(p * a for p, a in zip(ps, entries)) % n)
                if len(sums) > limit:
                    raise _over_step_cap(len(sums) * size, n, q, r)
        else:
            count = node[0].bit_count()
            if count > limit:
                raise _over_step_cap(count * size, n, q, r)
            sums = _residues(node[0])
        inverses = _inverses(n, q, r)
        if inverses is not None:
            return _solve(sums, plain, n, inverses)
        if method == "formula":
            raise InputError("formula route needs 1 - r**i invertible")
    # each search costs at most its odometer tuples, on either route
    steps = (n - 1) * len(powers) ** (len(entries) + 1)
    if steps > SEARCH_STEP_CAP:
        raise _over_step_cap(steps, n, q, r)
    if node is None:
        return {j for j in range(1, n)
                if _first_dependence((j,) + entries, n, q, r, powers)[0] is not None}
    # (j,) + entries is dependent when its plain sum is in the nonzero set of
    # one more level on the sequence's node; that sum is plain + j
    return {j for j in range(1, n)
            if _reach((j,), n, powers, node)[1] >> (plain + j) % n & 1}


def _residues(bits: int):
    """Positions of the set bits of bits, least first."""
    return itertools.compress(itertools.count(), map("1".__eq__, bin(bits)[:1:-1]))


def find_independent_subseq(
    seq: Sequence[int],
    m: int,
    params: FrobeniusParams,
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
            dep, _ = is_r_dependent((v,), params)
            if dep:
                return None
            chosen.append(v)
            used.add(v)
            continue
        if len(chosen) == m:
            break
        if v in used:
            continue
        dep, _ = is_r_dependent(tuple(chosen) + (v,), params)
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
    leading coefficients, and moduli are combined multiplicatively (CRT).
    A root modulo p^(e+1) reduces to one modulo p^e, so the roots modulo
    p^(e+1) are among the lifts x + t p^e, t in range(p), of those modulo
    p^e.  The residues read are counted before each level, the sum of the
    primes before any, and refused past ROOT_LIFT_CAP.  Falls back to a
    direct scan when the resultant vanishes, refused past ROOT_SCAN_CAP.
    """
    p1, p2 = poly_trim(g1), poly_trim(g2)
    if not p1 or not p2:
        raise InputError("polynomials must be nonzero")
    if limit < 1:
        raise InputError("limit must be positive")
    res = sylvester_resultant(p1, p2)
    if res == 0:
        if limit > ROOT_SCAN_CAP:
            raise CapacityError(
                f"the resultant vanishes, so every modulus up to limit {limit} would be "
                f"scanned, over ROOT_SCAN_CAP = {ROOT_SCAN_CAP}")
        return _common_root_moduli_scan(p1, p2, limit)
    primes = sorted({p for c in (res, p1[-1], p2[-1]) for p in factorize(abs(c)) if p <= limit})
    reads = sum(primes)  # modulo p the lifts of 0 mod 1 are every residue
    powers: dict[int, list[tuple[int, list[int]]]] = {}
    for p in primes:
        col, pe, roots, lifts = [], p, [0], 0
        while roots and pe <= limit:
            reads += lifts
            if reads > ROOT_LIFT_CAP:
                raise CapacityError(
                    f"the roots modulo prime powers up to limit {limit} need at least "
                    f"{reads} residue reads, over ROOT_LIFT_CAP = {ROOT_LIFT_CAP}")
            roots = [y for x in roots for y in range(x, pe, pe // p)
                     if poly_eval_mod(p1, y, pe) == 0 and poly_eval_mod(p2, y, pe) == 0]
            if roots:
                col.append((pe, roots))
            pe, lifts = pe * p, p * len(roots)
        powers[p] = col
    out: set[int] = set()

    def walk(idx: int, modulus: int, any_nonzero_possible: bool):
        if modulus > 1 and any_nonzero_possible:
            out.add(modulus)
        for k in range(idx, len(primes)):
            p = primes[k]
            for pe, roots in powers[p]:
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


def char0_exhaust(n: int, m: int) -> set[tuple[int, ...]]:
    """All multisets (i_1 <= ... <= i_m) of exponents with
    w**i_1 + ... + w**i_m == m for w a primitive n-th root of unity.

    Computed exactly in Z[x]/(n-th cyclotomic polynomial); the all-zero
    multiset is always present and is expected to be alone.  m past
    SUM_LENGTH_CAP, or more than CHAR0_TERM_CAP multisets times phi(n)
    coefficients, raise CapacityError before any work.
    """
    if n < 1 or m < 1:
        raise InputError("n and m must be positive")
    if m > SUM_LENGTH_CAP:
        raise CapacityError(f"m={m} exceeds cap {SUM_LENGTH_CAP}")
    # each of the C(n+m-1, m) multisets is a sum of ring elements with
    # phi(n) coefficients; phi(n) is only worked out once the count is in range
    multisets = math.comb(n + m - 1, m)
    terms = multisets
    if multisets <= CHAR0_TERM_CAP:
        phi = n
        for p in factorize(n):
            phi -= phi // p
        terms *= phi
    if terms > CHAR0_TERM_CAP:
        raise CapacityError(
            f"char0_exhaust({n}, {m}) needs {terms} coefficient terms "
            f"({multisets} multisets), over the cap {CHAR0_TERM_CAP}")
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
