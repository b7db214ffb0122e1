"""Finite groups as explicit multiplication tables, automorphism actions
with fixed-point verification, the dimension-subgroup filtration with its
graded algebra, and a table-free Hausdorff-product group for nilpotent
coordinate modules.

The element laws conjugate, commutator, power and element_order are
written once over mul, inv and identity (_GroupLaws).  FiniteGroup uses all
four; BCHGroup uses the first two and reads powers and element orders off
its coordinates.  Each group records a generating set when it is built,
and laws over pairs of ids are checked on it.  Closures, commutator
subgroups, both series, Sylow subgroups and the fixed-point checks that
read no table take either kind.  The rest refuses a BCHGroup by name:
is_automorphism, which reads no table (so action checks, invariant-subgroup
enumerations and coverage), quotient_group, direct_product, jz_filtration
(so the Lazard algebra), free_module_check, exponent_of_subset and
exponent_relation_report.

Tables cap at TABLE_CAP elements.  A table group stores its table once,
as one read-only numpy array, and checks every group law on it exactly
up to that cap, in passes over row blocks; the builders write their tables
in place, in the stored id type.  Anything advertised as exhaustive
(subgroup lattices, coset recomputation) is limited to EXHAUSTIVE_CAP and
raises CapacityError beyond it.  The Hausdorff-product group evaluates its
formula on ids, one product at a time on ints or in batches on int64
coordinate columns; transports of Lie automorphisms are one matmul on
those columns and are rechecked as homomorphisms exactly, by the same
check against the coordinate basis.  Its orders cap at BCH_CAP.

Polynomial arithmetic over F_p (the field actions' modulus, the
free-module check) and every power come from rings: its polynomial helpers
and its one square-and-multiply loop, power.  The field actions multiply
on digit arrays, from the multiplication by x.  Power maps of whole id arrays
(exponents, Sylow subgroups, the Lazard lemma) run that loop once over
mul_many, which both kinds have, and the Lazard lemma's stack of ad
matrices runs it over matmul mod p.
Every closed set is walked by rings.orbit, except in _dimino and Light's
associativity test, whose generating sets grow mid-walk.

jz_filtration checks its laws exactly, on whole commutator and power
subgroups, once per pair of its at most log_p|G| distinct terms.
The layer coordinates of a filtration live in one order x rank matrix,
DLAlgebra.coords, built by _layer_coordinates with the ids' depths; the
algebra's brackets and images, the Lazard lemma and the free-module check
all read its rows.

Every check here is a body returning (status, witness, reason) under
reports.reported, which names, times and builds its report; lazard_lemma
is the Lazard lemma's body on an algebra already built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import FrobeniusParams, prim_failure
from .errors import CapacityError, InputError
from .graded_lie import (
    GradedLieRing,
    automorphism_issues,
    generated_subring,
    lower_central_series,
    validate,
)
from .linalg import Subspace, field_kernel
from .reports import INAPPLICABLE, PASS, VIOLATION, reported, verdict
from .rings import (
    PrimeFieldRing,
    factorize,
    irreducible_poly,
    is_prime,
    orbit,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_neg,
    poly_trim,
    power,
)

TABLE_CAP = 5000
EXHAUSTIVE_CAP = 512
# Hausdorff-product groups work on int64 coordinate columns.  Below this
# cap m^r <= 2^17 for the modulus m and the rank r, so a transport sum is
# under r*m^2 <= 2^34.  A product reduces its coordinates once, in encode.
# With digits and structure constants in [0, m) and P = r(r-1)/2 basis
# pairs, [x,y] is under P*m^3 and [x - y, [x,y]] under 2*P^2*m^5 in
# absolute value, so an unreduced coordinate is under 3*P^2*m^6.  That is
# largest at r = 2, where m <= 362 and it is under 3*2^51 < 2^53; for
# r >= 3 it is under 2^39.  Every intermediate stays inside int64.
BCH_CAP = 1 << 17
_BCH_BLOCK = 1 << 12  # products per batch, so numpy temporaries stay small
_ASSOC_BLOCK = 1 << 18  # table entries per row block in FiniteGroup's checks


# --- permutations of element ids ---


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_compose(a, b) -> tuple[int, ...]:
    """a after b: x -> a[b[x]]."""
    return tuple(map(a.__getitem__, b))


def perm_inverse(a) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_power(a, k: int) -> tuple[int, ...]:
    if k < 0:
        a, k = perm_inverse(a), -k
    return power(perm_compose, perm_identity(len(a)), tuple(a), k)


def perm_order(a) -> int:
    """The lcm of the cycle lengths, the orbits of <a>."""
    return math.lcm(*{len(cycle) for cycle in _orbits(len(a), (a,))})


# --- base-p digits of element ids ---


def _digits(a, base: int, k: int) -> tuple:
    """The k base-`base` digits of an id, least significant first; on an
    id array, the k digit arrays.

    >>> _digits(11, 3, 3)
    (2, 0, 1)
    >>> [d.tolist() for d in _digits(np.arange(4), 2, 2)]
    [[0, 1, 0, 1], [0, 0, 1, 1]]
    """
    out = []
    for _ in range(k):
        a, d = divmod(a, base)
        out.append(d)
    return tuple(out)


def _from_digits(digits, base: int):
    """Id of base-`base` digits given least significant first, each digit
    reduced mod base; on digit arrays, the id array.

    >>> _from_digits((2, 0, 1), 3)
    11
    >>> _from_digits((2, 3, -1), 3)
    20
    >>> _from_digits([np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])], 2).tolist()
    [0, 1, 2, 3]
    """
    out = 0
    for d in reversed(digits):
        out = out * base + d % base
    return out


# --- table-backed groups ---


def _rows_permute(t: np.ndarray) -> bool:
    """Whether each row of the square id array t permutes the ids, sorted
    in row blocks of _ASSOC_BLOCK entries; t.T checks the columns."""
    n = len(t)
    ids, block = np.arange(n, dtype=t.dtype), max(1, _ASSOC_BLOCK // n)
    return all((np.sort(t[i:i + block], axis=1) == ids).all() for i in range(0, n, block))


def _check_associativity(t: np.ndarray, identity: int) -> list[int]:
    """Light's associativity test (Clifford and Preston, The Algebraic
    Theory of Semigroups I, section 1.2), exact at every order; returns S.

    The ids s with (x*s)*y == x*(s*y) for all x and y include the identity
    and are closed under the product.  So once every s in a set S passes,
    and the right-multiplication closure of S from the identity covers the
    table, the whole table is associative.  S grows greedily from the
    lowest uncovered id, and each new member is tested before the closure
    is extended.  The rows of t permute the ids and `identity` is
    two-sided, so while every member passes, the covered ids C form a
    finite monoid with injective left multiplications, a group, and a new
    member s adds s*C, of size |C| and disjoint from C (s*c = c' would put
    s = c' * c^-1 in C): |S| <= log2(order).  A table that passes is such
    a monoid itself, so a group, whose columns permute the ids too, and S
    is the set a Dimino walk of range(order) adjoins (_generating_set).
    """
    n = len(t)
    rows = memoryview(t)
    block = max(1, _ASSOC_BLOCK // n)
    covered = bytearray(n)
    covered[identity] = 1
    reached = [identity]
    gens: list[int] = []
    for s in range(n):
        if covered[s]:
            continue
        col, row = t[:, s], t[s]
        for i in range(0, n, block):
            if not np.array_equal(t[col[i:i + block]], np.take(t[i:i + block], row, axis=1)):
                raise InputError("table is not associative")
        gens.append(s)
        for x in reached:  # the list grows while it is walked
            for g in gens:
                y = rows[x, g]
                if not covered[y]:
                    covered[y] = 1
                    reached.append(y)
    return gens


_NOT_PERMUTED_ROWS = "each table row must permute the element ids"


class _GroupLaws:
    """The element laws written once over `mul`, `inv` and `identity`; a
    negative power inverts first.  BCHGroup overrides power and
    element_order with their coordinate forms."""

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def commutator(self, x: int, y: int) -> int:
        """x^-1 y^-1 x y, as (y x)^-1 (x y)."""
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        return power(self.mul, self.identity, a, k)

    def element_order(self, a: int) -> int:
        """The least k >= 1 with a^k the identity."""
        mul, e = self.mul, self.identity
        o, x = 1, a
        while x != e:
            x = mul(x, a)
            o += 1
        return o


class FiniteGroup(_GroupLaws):
    """Immutable group on element ids 0..order-1 backed by a full table.

    The table is one read-only np.min_scalar_type(order - 1) array, the
    `table` property; scalar products read it through a memoryview of the
    same buffer, so they return Python ints.  The group laws are checked
    exactly at every order up to TABLE_CAP, in passes over row blocks:
    rows that permute the ids, a two-sided identity and associativity by
    Light's test.  These make a group: row a holds the identity once, at a
    right inverse b of a, and with an identity and associativity a right
    inverse is also a left inverse (b*c = e gives a = a(bc) = (ab)c = c).
    So no inverse law is checked, and inv reads each b off its row.  A
    group's columns permute the ids, so the columns are checked only once
    a later law fails, and a refusal names the first law broken in the
    order rows, columns, identity, associativity.  Light's test's S is
    kept as the group's generating set.  BCHGroup shares conjugate and commutator (_GroupLaws) but has no table.
    """

    def __init__(self, table, names=None):
        try:
            t = np.asarray(table)
        except ValueError:  # ragged rows
            raise InputError(_NOT_PERMUTED_ROWS) from None
        if t.ndim >= 1 and len(t) == 0:
            raise InputError("empty multiplication table")
        if t.ndim != 2:
            raise InputError("a multiplication table is a list of rows")
        n = len(t)
        _require_table_cap(n)
        if t.shape[1] != n:
            raise InputError(_NOT_PERMUTED_ROWS)
        if t.dtype.kind not in "iu":
            raise InputError("table entries must be integer ids")
        if t.min() < 0 or t.max() >= n:
            raise InputError(_NOT_PERMUTED_ROWS)
        t = t.astype(np.min_scalar_type(n - 1))  # a copy the caller cannot reach
        t.flags.writeable = False
        if not _rows_permute(t):
            raise InputError(_NOT_PERMUTED_ROWS)
        ids, block = np.arange(n, dtype=t.dtype), max(1, _ASSOC_BLOCK // n)
        try:
            ident = int(t[0].argmin())  # row 0 holds 0 once; a right identity e has 0*e == 0
            if not (np.array_equal(t[ident], ids) and np.array_equal(t[:, ident], ids)):
                raise InputError("table has no two-sided identity")
            gens = _check_associativity(t, ident)
        except InputError:
            if not _rows_permute(t.T):
                raise InputError("each table column must permute the element ids") from None
            raise
        inv = np.concatenate([(t[i:i + block] == ident).argmax(axis=1)
                              for i in range(0, n, block)])
        self._table = t
        self._rows = memoryview(t)
        self._inv = tuple(inv.tolist())
        self.identity = ident
        self._own_generators = tuple(gens)
        if names is not None and len(names) != n:
            raise InputError("names must cover every element")
        self.names = None if names is None else tuple(names)

    @property
    def order(self) -> int:
        return len(self._table)

    @property
    def table(self) -> np.ndarray:
        """The read-only multiplication table: table[a, b] is the id of a*b."""
        return self._table

    def mul(self, a: int, b: int) -> int:
        return self._rows[a, b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable id arrays."""
        return self._table[a, b]

    def exponent(self) -> int:
        """lcm of the element orders (exponent_of_subset)."""
        return exponent_of_subset(self, range(self.order))

    def is_abelian(self) -> bool:
        """Whether the recorded generators commute pairwise."""
        pairs = itertools.combinations(self._own_generators, 2)
        return all(self.mul(x, y) == self.mul(y, x) for x, y in pairs)

    def to_json(self) -> dict:
        return {"table": self._table.tolist()}


def _require_table(G) -> None:
    """Refuse by name a group without a multiplication table."""
    if not isinstance(G, FiniteGroup):
        raise InputError(f"a multiplication table is needed; a {type(G).__name__} has none")


# --- builders ---


def _require_table_cap(n: int) -> None:
    # fail before table construction, not after
    if n > TABLE_CAP:
        raise CapacityError(f"order {n} exceeds the table cap {TABLE_CAP}")


def _product_table(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The table of the direct product of the groups with tables A and B,
    the id of (a, b) being a*len(B) + b, written in place in the stored id
    type: entry (a1, b1, a2, b2) is A[a1, a2]*len(B) + B[b1, b2]."""
    a, m = len(A), len(B)
    out = np.empty((a * m, a * m), dtype=np.min_scalar_type(a * m - 1))
    high = A.astype(out.dtype)
    high *= m
    np.add(high[:, None, :, None], B[None, :, None, :], out=out.reshape(a, m, a, m))
    return out


def _sums_mod(n: int, dtype) -> np.ndarray:
    """Windows of length n of 0..n-1 written twice, as an (n + 1) x n view:
    entry (i, j) is i + j mod n, and row i + 1 reversed is i - j mod n."""
    ids = np.arange(n, dtype=dtype)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([ids, ids]), n)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with ids as residues."""
    if n < 1:
        raise InputError("order must be positive")
    _require_table_cap(n)
    return FiniteGroup(_sums_mod(n, np.min_scalar_type(n - 1))[:n])


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    """(Z/p)^k with ids in mixed radix base p."""
    if not is_prime(p):
        raise InputError("p must be prime")
    if k < 0:
        raise InputError("k must be nonnegative")
    _require_table_cap(p**k)
    cyclic, table = _sums_mod(p, np.min_scalar_type(p - 1))[:p], np.zeros((1, 1), dtype=np.uint8)
    for _ in range(k):  # each factor adds the most significant digit
        table = _product_table(cyclic, table)
    return FiniteGroup(table)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; id of r^i s^e is i + n*e, and
    r^i s^e r^j s^f = r^(i + (1 - 2e) j) s^(e + f)."""
    if n < 1:
        raise InputError("n must be positive")
    _require_table_cap(2 * n)
    table = np.empty((2 * n, 2 * n), dtype=np.min_scalar_type(2 * n - 1))
    sums = _sums_mod(n, table.dtype)
    table[:n, :n] = table[:n, n:] = sums[:n]
    table[n:, :n] = table[n:, n:] = sums[1:, ::-1]
    table[:n, n:] += n
    table[n:, :n] += n
    return FiniteGroup(table)


_QUATERNION_UNITS = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion_group() -> FiniteGroup:
    """Q_8 on {1, i, j, k} x {+, -}; id of (sign s, unit u) is 4s + u."""

    def mul(a, b):
        s1, u1 = divmod(a, 4)
        s2, u2 = divmod(b, 4)
        s3, u3 = _QUATERNION_UNITS[(u1, u2)]
        return 4 * ((s1 + s2 + s3) % 2) + u3

    names = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")
    return FiniteGroup([[mul(a, b) for b in range(8)] for a in range(8)], names)


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p, order p^3; ids encode (a, b, c)
    for rows [[1,a,c],[0,1,b],[0,0,1]]."""
    if not is_prime(p):
        raise InputError("p must be prime")
    n = p**3
    _require_table_cap(n)
    # (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1*b2), built
    # one digit at a time, most significant first, in two order x order
    # arrays of the stored id type: no partial sum exceeds p^3 - 1
    a, b, c = _digits(np.arange(n, dtype=np.min_scalar_type(n - 1)), p, 3)
    table = np.multiply.outer(a, b)
    table += c[:, None]
    table += c
    table %= p
    digit = np.empty_like(table)
    for x in (b, a):
        np.add(x[:, None], x, out=digit)
        digit %= p
        table *= p
        table += digit
    del digit  # freed before the table is validated
    return FiniteGroup(table)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product; id of (g, h) is g*|H| + h."""
    _require_table(G)
    _require_table(H)
    _require_table_cap(G.order * H.order)
    return FiniteGroup(_product_table(G.table, H.table))


def group_from_permutations(degree: int, generators) -> FiniteGroup:
    """Closure of the generators under composition, as the orbit of the
    identity under right multiplication by each generator; ids in
    breadth-first discovery order with the identity first."""
    ident = perm_identity(degree)
    gens = []
    for g in generators:
        g = tuple(g)
        if len(g) != degree or set(g) != set(range(degree)):
            raise InputError("generators must be permutations of the degree")
        gens.append(g)
    # the walk is lazy: islice stops it at the first element past the cap
    elements = list(itertools.islice(
        orbit([ident], lambda x: (perm_compose(x, g) for g in gens)), TABLE_CAP + 1
    ))
    if len(elements) > TABLE_CAP:
        raise CapacityError(f"permutation closure exceeds the table cap {TABLE_CAP}")
    index = {e: i for i, e in enumerate(elements)}
    table = [
        [index[perm_compose(a, b)] for b in elements] for a in elements
    ]
    return FiniteGroup(table, names=tuple(repr(list(e)) for e in elements))


def build_group(data) -> FiniteGroup:
    """JSON group formats: {"table": [[...]]} or
    {"permutations": {"degree": d, "generators": [[...], ...]}}."""
    if isinstance(data, dict) and "table" in data:
        return FiniteGroup(data["table"])
    if isinstance(data, dict) and "permutations" in data:
        block = data["permutations"]
        if not (isinstance(block, dict) and _is_int(block.get("degree"))
                and isinstance(block.get("generators"), list)
                and all(isinstance(g, list) and all(map(_is_int, g))
                        for g in block["generators"])):
            raise InputError(
                "'permutations' needs an integer 'degree' and 'generators' "
                "as lists of integers"
            )
        return group_from_permutations(
            block["degree"], [tuple(g) for g in block["generators"]]
        )
    raise InputError("unknown group format; expected 'table' or 'permutations'")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


NAMED_GROUPS = {
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C8": lambda: cyclic_group(8),
    "V4": lambda: elementary_abelian_group(2, 2),
    "D8": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "Heis3": lambda: heisenberg_group(3),
}

# name, prime pairs for the bundled p-group checks
P_GROUP_CORPUS = (("C4", 2), ("C8", 2), ("D8", 2), ("Q8", 2), ("Heis3", 3))


def named_group(name: str) -> FiniteGroup:
    if name not in NAMED_GROUPS:
        raise InputError(f"unknown group name {name!r}; choices: {sorted(NAMED_GROUPS)}")
    return NAMED_GROUPS[name]()


# --- subgroup toolkit; subgroups are frozensets of element ids ---


def subgroup_closure(G, gens) -> frozenset:
    """The subgroup generated by gens (see _dimino)."""
    return _dimino(G, gens)[0]


def _dimino(G, gens, limit=math.inf) -> tuple[frozenset, list]:
    """(<gens>, the gens adjoined), by Dimino's algorithm (Butler,
    Fundamental Algorithms for Permutation Groups, 1991).

    Generators are adjoined one at a time; one in <the earlier ones> costs
    a lookup.  Otherwise the group H built so far grows by whole right
    cosets H*r, whose representatives r are found by right multiplication
    with every generator adjoined so far, starting from the identity.
    Only G.mul and G.identity are used, so tables and BCHGroup both work.
    The walk stops at the first coset that takes it past limit ids, and
    returns the ids found by then.
    """
    mul = G.mul
    elements = [G.identity]
    members = {G.identity}
    adjoined = []
    for g in gens:
        if g in members:
            continue
        adjoined.append(g)
        base = elements[:]
        reps = [G.identity]
        for r in reps:  # the list grows while it is walked
            for s in adjoined:
                x = mul(r, s)
                if x not in members:
                    coset = [mul(h, x) for h in base]
                    elements.extend(coset)
                    members.update(coset)
                    if len(elements) > limit:
                        return frozenset(members), adjoined
                    reps.append(x)
    return frozenset(members), adjoined


def is_subgroup(G, S) -> bool:
    """S holds the identity and generates nothing outside itself."""
    return G.identity in S and subgroup_closure(G, S) == frozenset(S)


def _normal_closure_by_generators(G, seed, gens) -> frozenset:
    """The least subgroup holding seed that conjugation by gens maps into
    itself: the normal closure of seed when gens generate G (see is_normal).

    It is the subgroup N generated by the orbit O of seed under the maps
    x -> g x g^-1, g in gens.  O is closed under each of these maps, and
    each map is a homomorphism, so it maps N = <O> into itself.  Any
    subgroup that holds seed and is mapped into itself by each map holds
    every image of seed under them, so O, so N."""
    return subgroup_closure(
        G, orbit(seed, lambda x: (G.conjugate(g, x) for g in gens))
    )


def normal_closure(G, gens) -> frozenset:
    return _normal_closure_by_generators(G, gens, _generating_set(G))


def is_normal(G, S) -> bool:
    """Invariance under conjugation by a generating set of G: being
    injective, each generator maps the finite S onto itself, so all of G does."""
    return all(G.conjugate(g, x) in S for g in _generating_set(G) for x in S)


def commutator_subgroup(G, A, B) -> frozenset:
    """[A, B], the subgroup generated by every [a, b] = a^-1 b^-1 a b, built
    from greedy generating sets X of A and Y of B as the least subgroup N
    holding every [x, y] and mapped into itself by conjugation with X and Y.

    N lies in [A, B]: [A, B] holds every [x, y] and is normal in <A, B>,
    since [a, b]^c = [ac, b] [c, b]^-1 for c in A, and likewise for c in B.
    [A, B] lies in N: N is normal in <X, Y> = <A, B>, and the identities
    [x x', y] = [x, y]^x' [x', y] and [a, y y'] = [a, y'] [a, y]^y' put
    every [a, y] in N by induction on the length of a as a word in X, then
    every [a, b] by induction on the length of b as a word in Y (in a finite
    group the inverses are positive powers).  Refuses an A or B that is not
    a subgroup, which the walk for X or Y sees.
    """
    return _commutator_of_generated(
        G, _generating_set(G, A, "A"), _generating_set(G, B, "B"))


def _commutator_of_generated(G, X, Y) -> frozenset:
    """[<X>, <Y>] from generating sets X and Y (see commutator_subgroup)."""
    seed = {G.commutator(x, y) for x in X for y in Y}
    return _normal_closure_by_generators(G, seed, X + Y)


def power_subgroup(G, S, k: int) -> frozenset:
    return subgroup_closure(G, {G.power(x, k) for x in S})


def center(G) -> frozenset:
    """The ids that commute with each member of a generating set of G."""
    gens = _generating_set(G)
    return frozenset(x for x in range(G.order) if all(G.mul(x, g) == G.mul(g, x) for g in gens))


def _lower_central_terms(G) -> list[frozenset]:
    """gamma_2(G), gamma_3(G), ... from a generating set Y of G, up to the
    trivial group or the first repeated order, without building G as a set.

    A closure under conjugation by Y is normal in <Y> = G.  gamma_i is the
    normal closure of seeds S_i: S_1 = Y, and S_(i+1) holds the [s, y]
    with s in S_i and y in Y.  By induction, let K be the normal closure
    of S_(i+1).  K lies in [gamma_i, G], as S_i lies in gamma_i.  Modulo K
    each s in S_i commutes with each generator, so is central; then
    gamma_i K / K, generated by the conjugates of those central images, is
    central, and [gamma_i, G] lies in K.  So S_(i+1) has at most |Y|^(i+1)
    commutators, never more than the [x, y] with x in gamma_i.  gamma_i is
    normal, so [s, y] = s^-1 s^y lies in it: the terms descend, and a
    repeated order means a repeated term."""
    Y = _generating_set(G)
    terms, size, seeds = [], G.order, Y
    while size > 1:
        seeds = {G.commutator(s, y) for s in seeds for y in Y}
        gamma = normal_closure(G, seeds)
        if len(gamma) == size:
            break
        terms.append(gamma)
        size = len(gamma)
    return terms


def lower_central_series_sets(G) -> list[frozenset]:
    return [frozenset(range(G.order))] + _lower_central_terms(G)


def nilpotency_class(G) -> int | None:
    """Steps to the trivial group, None when the series stalls above it."""
    terms = _lower_central_terms(G)
    last = len(terms[-1]) if terms else G.order
    return len(terms) if last == 1 else None


def derived_series_sets(G) -> list[frozenset]:
    terms = [frozenset(range(G.order))]
    while len(terms[-1]) > 1:
        X = _generating_set(G, terms[-1])
        nxt = _commutator_of_generated(G, X, X)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def derived_length(G) -> int | None:
    terms = derived_series_sets(G)
    return len(terms) - 1 if len(terms[-1]) == 1 else None


def sylow_subgroup(G, p: int) -> frozenset:
    """One Sylow p-subgroup, grown by closure extensions <P, x>: one Dimino
    walk of x, then the generators adjoined for P, which generate P.
    Element and subgroup orders divide |G|, so one is a power of p exactly
    when it divides the p-part of |G|; the p-elements x, those with x^part
    the identity, are read off one power map of every id.  A walk that
    passes part ids is not a p-group, so it stops there and is rejected."""
    if not is_prime(p):
        raise InputError("p must be prime")
    part = p ** factorize(G.order).get(p, 0)
    p_elements = np.flatnonzero(_power_map(G, np.arange(G.order), part) == G.identity).tolist()
    P, gens = frozenset({G.identity}), []
    while len(P) < part:
        for x in p_elements:
            if x in P:
                continue
            K, adjoined = _dimino(G, [x] + gens, part)
            if not part % len(K):
                P, gens = K, adjoined
                break
        else:
            raise RuntimeError("sylow extension failed")
    return P


def all_sylow_subgroups(G, p: int) -> list[frozenset]:
    """Every Sylow p-subgroup: the orbit of one of them under conjugation
    by a generating set of G, which is all of them because G acts
    transitively on its Sylow p-subgroups (Sylow's theorem)."""
    gens = _generating_set(G)
    conjugates = orbit(
        [sylow_subgroup(G, p)],
        lambda Q: (frozenset(G.conjugate(g, x) for x in Q) for g in gens),
    )
    return sorted(conjugates, key=sorted)


def _lattice(G, perms) -> list[frozenset]:
    """Every subgroup that is a union of orbits O(x) of the group A that
    the automorphisms perms generate, by closure over orbit extensions
    K = <H, O(x)> of every such H found, sorted by (size, elements).

    So the subgroups returned are the A-invariant ones.  Each K found is
    invariant, being generated by an invariant set.  Every invariant K is
    found: it is the end of a chain of orbit extensions inside K, because
    for any invariant H < K and x in K - H, <H, O(x)> is invariant, lies in
    K and is larger than H.  Since H is invariant, every y in H*O(x) has
    <H, O(y)> = K, so all of H*O(x) is marked tried after one closure.  The
    subgroups found are the orbit (rings.orbit) of the trivial subgroup
    under the map from H to its extensions.  Each subgroup keeps, in known,
    the generators adjoined to reach it first, and its extensions start
    from those.  With no perms every orbit is one id, and the lattice is
    whole.  Callers run _check_lattice_cap before building perms."""
    orbit_of = _orbits(G.order, perms)
    mul = G.mul
    trivial = frozenset({G.identity})
    known = {trivial: ()}

    def extensions(H):
        tried = set(H)
        for x in range(G.order):
            if x in tried:
                continue
            orb = orbit_of[x]
            tried.update(mul(h, y) for h in H for y in orb)
            K, adjoined = _dimino(G, known[H] + orb)
            known.setdefault(K, tuple(adjoined))
            yield K

    return sorted(orbit([trivial], extensions), key=lambda s: (len(s), sorted(s)))


def _orbits(n: int, perms) -> list[tuple[int, ...]]:
    """orbit_of[x]: the orbit of x under the group the permutations of
    range(n) generate (each inverse is a positive power), as a tuple in
    rings.orbit's breadth-first order from the orbit's least point."""
    images = list(zip(range(n), *perms))  # y, then its image under each
    orbit_of: list = [None] * n
    for x in range(n):
        if orbit_of[x] is None:
            orb = tuple(orbit([x], images.__getitem__))
            for y in orb:
                orbit_of[y] = orb
    return orbit_of


def _generating_set(G, S=None, name="S") -> list[int]:
    """Greedy generators of the subgroup S, all of G by default: the ids
    that one Dimino walk of sorted(S) adjoins, each the least id outside the
    closure of the ones before, so at most log2|S| of them.  The walk ends
    at <S>, so an S that is not a subgroup is refused by name.  G's own set
    is the one G recorded when it was built, never walked here: Light's
    test picks the same ids on a table group (_check_associativity), and a
    BCHGroup records its coordinate basis."""
    S = None if S is None else frozenset(S)  # a frozenset is not copied
    if S is None or (len(S) == G.order and S.issuperset(range(G.order))):
        return list(G._own_generators)
    ids = sorted(S)
    span, gens = _dimino(G, ids)
    if len(span) != len(ids):  # ids lie in span, so only a larger span differs
        raise InputError(f"{name} is not a subgroup: its {len(ids)} ids generate {len(span)}")
    return gens


def all_subgroups(G) -> list[frozenset]:
    """The full subgroup lattice, as the subgroups invariant under no
    automorphism.  Refused above EXHAUSTIVE_CAP."""
    return invariant_subgroups(G, ())


def _check_lattice_cap(G) -> None:
    if G.order > EXHAUSTIVE_CAP:
        raise CapacityError(f"subgroup enumeration capped at order {EXHAUSTIVE_CAP}")


def invariant_subgroups(G, automorphisms) -> list[frozenset]:
    """The subgroups mapped onto themselves by every listed automorphism,
    enumerated over the orbits of the group they generate, without the
    rest of the lattice.  Refused above EXHAUSTIVE_CAP."""
    _check_lattice_cap(G)
    return _lattice(G, _automorphism_list(G, automorphisms))


def invariant_normal_subgroups(G, automorphisms) -> list[frozenset]:
    """Invariant subgroups that are also normal: those invariant under the
    listed automorphisms and under conjugation by a generating set of G.
    Refused above EXHAUSTIVE_CAP, before any automorphism is checked or
    conjugation permutation built.  Each conjugation x -> g x g^-1 is two
    products of whole id arrays (mul_many)."""
    _check_lattice_cap(G)
    autos = _automorphism_list(G, automorphisms)
    ids = np.arange(G.order)
    inner = [tuple(G.mul_many(G.mul_many(g, ids), G.inv(g)).tolist())
             for g in _generating_set(G)]
    return _lattice(G, autos + inner)


def _automorphism_list(G, automorphisms) -> list[tuple[int, ...]]:
    # orbit closure is only sound for automorphisms; anything else is refused
    autos = [tuple(a) for a in automorphisms]
    if not all(is_automorphism(G, a) for a in autos):
        raise InputError("every listed map must be an automorphism of the group")
    return autos


def minimal_generator_count(G, S) -> int:
    if len(S) == 1:
        return 0
    elems = sorted(set(S) - {G.identity})
    for k in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, k):
            if len(subgroup_closure(G, combo)) == len(S):
                return k
    raise RuntimeError("generator search failed")


def group_rank(G) -> int:
    """Max over subgroups of the minimal generator count; exhaustive."""
    return max(minimal_generator_count(G, S) for S in all_subgroups(G))


def _power_map(G, xs, k: int) -> np.ndarray:
    """x^k for every id in the array xs, k >= 0, by one square-and-multiply
    (rings.power) over mul_many on the whole array."""
    return power(G.mul_many, np.full_like(xs, G.identity), xs, k)


def exponent_of_subset(G, S) -> int:
    """lcm of the orders of the ids in S, one prime at a time on id arrays.

    For p^v exactly dividing |G|, the p-part of the order of x is the order
    of y = x^(|G|/p^v), a power of p.  So the p-th power map is applied to
    the array of those y until every entry is the identity, and each step
    multiplies the exponent by p."""
    _require_table(G)
    xs = np.fromiter(S, dtype=np.intp)
    out = 1
    for p, v in factorize(G.order).items():
        y = _power_map(G, xs, G.order // p**v)
        while (y := y[y != G.identity]).size:
            y = _power_map(G, y, p)
            out *= p
    return out


# --- quotients and restrictions ---


def quotient_group(G, N) -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
    """(G/N, coset id per element, representative per coset).

    The representative of a coset xN is its least id, and cosets are
    numbered in the order of their representatives, as a scan over the
    ids that opens a coset at each id not yet covered would number them.
    Both the coset ids and the quotient table are read off G.table in
    whole-array passes."""
    _require_table(G)
    N = frozenset(N)
    if not is_subgroup(G, N):
        raise InputError("N is not a subgroup")
    if not is_normal(G, N):
        raise InputError("N is not normal")
    t = G.table
    least = t[:, sorted(N)].min(axis=1)  # row x of t[:, N] is the coset xN
    is_rep = least == np.arange(G.order)
    reps = np.flatnonzero(is_rep)
    coset_of = (np.cumsum(is_rep) - 1)[least]
    table = coset_of[t[np.ix_(reps, reps)]]
    return FiniteGroup(table), tuple(coset_of.tolist()), tuple(reps.tolist())


def induced_automorphism(G, N, coset_of, reps, sigma) -> tuple[int, ...]:
    """Push sigma through the projection onto G/N."""
    if frozenset(sigma[x] for x in N) != frozenset(N):
        raise InputError("the kernel is not invariant under sigma")
    return tuple(coset_of[sigma[r]] for r in reps)


def subgroup_as_group(G, S) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as its own FiniteGroup; returns (H, element ids)."""
    elems = sorted(S)
    index = {x: i for i, x in enumerate(elems)}
    try:
        table = [[index[G.mul(a, b)] for b in elems] for a in elems]
    except KeyError:
        raise InputError("the set is not closed under multiplication") from None
    return FiniteGroup(table), tuple(elems)


# --- automorphism actions ---


def _respect_generators(G, images) -> bool:
    """Whether image[a*s] == image[a]*image[s] for each id array in images,
    every id a and every s in G's recorded generating set, in batches of
    _BCH_BLOCK ids.  Then each image is a homomorphism: every element is a
    word s_1...s_k in the generators (s^-1 is a power of s), so by
    induction on k, image[a*w*s] = image[a*w]*image[s] =
    image[a]*image[w]*image[s] = image[a]*image[w*s]."""
    for lo in range(0, G.order, _BCH_BLOCK):
        a = np.arange(lo, min(lo + _BCH_BLOCK, G.order))
        for s in G._own_generators:
            prod = G.mul_many(a, s)
            for image in images:
                if not np.array_equal(image[prod], G.mul_many(image[a], image[s])):
                    return False
    return True


def is_automorphism(G, perm) -> bool:
    """A bijection of the ids that respects products (_respect_generators)."""
    _require_table(G)
    bijective = len(perm) == G.order and set(perm) == set(range(G.order))
    return bijective and _respect_generators(G, [np.array(perm, dtype=np.intp)])


@dataclass(frozen=True)
class FrobeniusAction:
    """An order-n automorphism f twisted by an order-q automorphism h with
    h f h^-1 = f^r; construct through make_frobenius_action to enforce the
    invariants (build_field_action may return flagged non-conforming ones)."""

    f: tuple[int, ...]
    h: tuple[int, ...]
    params: FrobeniusParams


_NOT_FROBENIUS = "a nontrivial power of h centralizes a nontrivial power of f"


def action_issues(G, f, h, params: FrobeniusParams) -> list[str]:
    """Invariant failures of a would-be action, empty when it conforms.

    The Frobenius condition (no nontrivial power of h centralizes one of f)
    is checked once the other checks pass, on (n, q, r) alone.  Then
    h^i f^j h^-i = f^(j*r^i), so h^i centralizes f^j exactly when n divides
    j*(r^i - 1), which some 0 < j < n does exactly when gcd(r^i - 1, n) > 1.
    As h^q = 1, r^q = 1 mod n, so r's order modulo each divisor d > 1 of n
    divides q, and is q exactly when d divides no r^i - 1 with 0 < i < q:
    the condition holds exactly when prim_failure(n, q, r) is None."""
    f, h = tuple(f), tuple(h)
    issues = []
    if not is_automorphism(G, f):
        issues.append("f is not an automorphism")
    if not is_automorphism(G, h):
        issues.append("h is not an automorphism")
    if issues:
        return issues
    of, oh = perm_order(f), perm_order(h)
    if of != params.n:
        issues.append(f"f has order {of}, params expect {params.n}")
    if oh != params.q:
        issues.append(f"h has order {oh}, params expect {params.q}")
    if perm_compose(h, perm_compose(f, perm_inverse(h))) != perm_power(f, params.r):
        issues.append("h f h^-1 differs from f^r")
    if not issues and prim_failure(params.n, params.q, params.r) is not None:
        issues.append(_NOT_FROBENIUS)
    return issues


def make_frobenius_action(G, f, h, params: FrobeniusParams) -> FrobeniusAction:
    issues = action_issues(G, f, h, params)
    if issues:
        raise InputError("; ".join(issues))
    return FrobeniusAction(tuple(f), tuple(h), params)


def action_from_json(G, data) -> FrobeniusAction:
    """{"f": [...], "h": [...], "n": n, "q": q, "r": r} with f and h as
    lists of element ids and n, q, r integers; anything else, and any
    action that fails its invariants, is an InputError."""
    if not (isinstance(data, dict) and all(_is_int(data.get(key)) for key in "nqr")
            and all(isinstance(data.get(key), list) and all(map(_is_int, data[key]))
                    for key in "fh")):
        raise InputError(
            "an action needs integer 'n', 'q' and 'r', and 'f' and 'h' as lists of "
            "integer element ids")
    params = FrobeniusParams(data["n"], data["q"], data["r"])
    return make_frobenius_action(G, tuple(data["f"]), tuple(data["h"]), params)


def fixed_points(G, automorphisms) -> frozenset:
    """Element ids fixed by every listed automorphism: one boolean mask
    over the ids, cleared where a map moves an id, one array comparison
    per map.  An empty list fixes every id; a map shorter than G.order
    raises IndexError."""
    ids = np.arange(G.order)
    fixed = np.ones(G.order, dtype=bool)
    for a in automorphisms:
        fixed &= np.asarray(a)[ids] == ids
    return frozenset(np.flatnonzero(fixed).tolist())


# --- the field-based action family ---


@dataclass(frozen=True)
class FieldActionResult:
    """Additive group of GF(p^k) with multiplication-by-generator f and
    the p-power map h; prim_ok records whether (p^k - 1, k, p) passes
    check_prim.  For maps with the checked orders and twist, that is also
    the Frobenius condition that no nontrivial power of h centralizes one
    of f (see action_issues)."""

    group: FiniteGroup
    action: FrobeniusAction
    prim_ok: bool
    poly: tuple[int, ...]
    generator: int


def build_field_action(p: int, k: int) -> FieldActionResult:
    """GF(p^k) as the additive group (Z/p)^k, ids the coefficient digits of
    polynomials mod the first irreducible g, with f the multiplication by
    the first primitive element and h the p-power map.

    Every map is built on the digit arrays of all p^k ids at once.  The
    multiplication by x shifts the digits up one place and reduces the top
    digit by g, as x^k = -(g_0 + ... + g_(k-1) x^(k-1)); applying it again
    gives the digits of x^i y for each i < k, and the multiplication by c
    is their sum weighted by c's digits c_i, one pass over the array.  The
    candidates c = 1, 2, ... are walked in turn: the orbit of 1 under
    multiplication by c (rings.orbit) is c^0, c^1, ..., and the first c
    whose orbit is a cycle of p^k - 1 members, c^(p^k - 1) = 1, is the
    generator gen.  In a field that is the first primitive element; a c
    with such a cycle is a unit of order p^k - 1, so only a field has one,
    and a g with none is refused by name.  f is gen's multiplication map,
    and h is read off the same walk: h(gen^i) = gen^(i p mod (p^k - 1))
    and h(0) = 0.

    Every hypothesis is then rechecked on the permutations by
    action_issues: both are automorphisms, f and h have orders p^k - 1 and
    k, and h f h^-1 = f^p.
    With h[1] == 1 these pin h exactly: the twist gives h(gen*y) =
    gen^p * h(y), so by induction h(gen^i) = gen^(p*i) * h(1) = (gen^i)^p
    on every nonzero id, and h(0) = 0 by additivity.  prim_ok is then
    action_issues' Frobenius condition, which is check_prim on
    (p^k - 1, k, p)."""
    if not is_prime(p):
        raise InputError("p must be prime")
    if not is_prime(k):
        raise InputError("k must be prime")
    size = p**k
    if size > TABLE_CAP:
        raise CapacityError(f"field size {size} exceeds the table cap {TABLE_CAP}")
    g = irreducible_poly(p, k)
    group = elementary_abelian_group(p, k)  # ids are coefficient digits mod g
    low = np.array(g[:k])[:, None]
    times_x = [np.array(_digits(np.arange(size), p, k))]  # [i]: digit rows of x^i y
    for _ in range(1, k):
        d = times_x[-1]  # shifted up one place, the top digit reduced by g
        times_x.append((np.vstack([np.zeros_like(d[:1]), d[:-1]]) - d[-1] * low) % p)
    times_x = np.stack(times_x)
    n = size - 1
    for cand in range(1, size):  # id 1 is the constant polynomial 1
        # c y = sum of c_i x^i y, c's digits c_i being column cand of times_x[0]
        times_c = _from_digits(np.tensordot(times_x[0][:, cand], times_x, 1), p).tolist()
        powers = list(orbit([1], lambda y: (times_c[y],)))
        if len(powers) == n and times_c[powers[-1]] == 1:
            break
    else:
        raise RuntimeError(f"no id in 1..{n} generates the units mod {g}")
    gen, f = cand, tuple(times_c)
    powers = np.array(powers)
    h = np.zeros(size, dtype=np.intp)
    h[powers] = powers[np.arange(n) * p % n]
    h = tuple(h.tolist())
    params = FrobeniusParams(n, k, p)
    # multiplication and the p-power map are additive; orders and the
    # twist relation hold by field arithmetic
    issues = action_issues(group, f, h, params)
    if issues not in ([], [_NOT_FROBENIUS]):
        raise RuntimeError("; ".join(issues))
    if h[1] != 1:
        raise RuntimeError("the p-power map must fix 1")
    return FieldActionResult(
        group=group,
        action=FrobeniusAction(f, h, params),
        prim_ok=not issues,
        poly=g,
        generator=gen,
    )


# --- fixed-point verification ---


def _unless_fixed_free(G, action) -> tuple | None:
    """The INAPPLICABLE outcome when C_G(F) is not trivial, else None."""
    fixed = fixed_points(G, (action.f,))
    if fixed == frozenset({G.identity}):
        return None
    return INAPPLICABLE, {"fixed_by_f": len(fixed)}, "C_G(F) is not trivial"


@reported("order-formula")
def verify_order_formula(G, action):
    """|G| must equal |C_G(H)|^q when C_G(F) is trivial."""
    if (refused := _unless_fixed_free(G, action)) is not None:
        return refused
    ch = fixed_points(G, (action.h,))
    witness = {"order": G.order, "fixed_by_h": len(ch), "q": action.params.q}
    return verdict(G.order == len(ch) ** action.params.q, witness,
                   "group order is not the q-th power of the fixed-subgroup order")


@reported("coverage")
def verify_coverage(G, action):
    """Fixed points of every qualifying quotient equal the projected fixed
    points; quantifies over all invariant normal N with trivial C_N(F).

    The N come from invariant_normal_subgroups, which enumerates only the
    subgroups invariant under f, h and conjugation, never the rest of the
    lattice: on GF(p^k) that is the trivial group and the whole field.
    Groups above EXHAUSTIVE_CAP are refused."""
    f, h = action.f, action.h
    ch = fixed_points(G, (h,))
    checked = 0
    for N in invariant_normal_subgroups(G, (f, h)):
        if any(f[x] == x for x in N if x != G.identity):
            continue
        Q, coset_of, reps = quotient_group(G, N)
        hbar = induced_automorphism(G, N, coset_of, reps, h)
        quotient_fixed = fixed_points(Q, (hbar,))
        projected = frozenset(coset_of[x] for x in ch)
        if quotient_fixed != projected:
            return (VIOLATION,
                    {"subgroup": sorted(N),
                     "quotient_fixed": sorted(quotient_fixed),
                     "projected_fixed": sorted(projected)},
                    "quotient fixed points differ from the projected fixed points")
        checked += 1
    return PASS, {"quotients_checked": checked}, None


@reported("generation")
def verify_generation(G, action):
    """The f-translates of C_G(H) must generate G."""
    if (refused := _unless_fixed_free(G, action)) is not None:
        return refused
    orbit_of = _orbits(G.order, (action.f,))  # x's translates under <f>
    gens = {y for x in fixed_points(G, (action.h,)) for y in orbit_of[x]}
    generated = subgroup_closure(G, gens)
    witness = {"generated_order": len(generated), "order": G.order}
    return verdict(len(generated) == G.order, witness,
                   "translates of the fixed subgroup do not generate the group")


@reported("invariant-sylow")
def verify_invariant_sylow(G, action):
    """Exactly one Sylow p-subgroup per prime is invariant under f and h."""
    if (refused := _unless_fixed_free(G, action)) is not None:
        return refused
    f, h = action.f, action.h
    counts = {}
    for p in sorted(factorize(G.order)):
        sylows = all_sylow_subgroups(G, p)
        invariant = [
            S for S in sylows
            if frozenset(f[x] for x in S) == S and frozenset(h[x] for x in S) == S
        ]
        counts[str(p)] = len(invariant)
        if len(invariant) != 1:
            return (VIOLATION,
                    {"prime": p, "invariant_count": len(invariant),
                     "sylow_count": len(sylows)},
                    "the invariant Sylow subgroup is not unique")
    return PASS, {"invariant_counts": counts}, None


@reported("nilpotency-transfer")
def verify_nilpotency_transfer(G, action):
    """Nilpotency of C_G(H) must force nilpotency of G."""
    if (refused := _unless_fixed_free(G, action)) is not None:
        return refused
    ch = fixed_points(G, (action.h,))
    H, _ = subgroup_as_group(G, ch)
    fixed_class = nilpotency_class(H)
    if fixed_class is None:
        return PASS, {"fixed_nilpotent": False}, None
    group_class = nilpotency_class(G)
    witness = {"fixed_class": fixed_class, "group_class": group_class}
    return verdict(group_class is not None, witness,
                   "the fixed subgroup is nilpotent but the group is not")


@reported("exponent-relation")
def exponent_relation_report(G, action):
    """Empirical record: exponents of C_G(H) and of G side by side."""
    if (refused := _unless_fixed_free(G, action)) is not None:
        return refused
    _require_table(G)
    ch = fixed_points(G, (action.h,))
    return PASS, {"fixed_exponent": exponent_of_subset(G, ch),
                  "group_exponent": G.exponent()}, None


# --- free-module criterion over F_p[x] ---


def _poly_invariant_factors(mat, p: int) -> list[tuple[int, ...]]:
    """Nonunit diagonal of the Smith form over F_p[x], monic and in
    divisibility order."""
    size = len(mat)
    m = [[poly_trim(entry, p) for entry in row] for row in mat]
    out = []
    k = 0
    while k < size:
        # a nonzero entry of least degree, the first in row-major order
        pivots = [(len(m[i][j]), i, j) for i in range(k, size) for j in range(k, size) if m[i][j]]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        m[k], m[pi] = m[pi], m[k]
        for row in m:
            row[k], row[pj] = row[pj], row[k]
        inv_lc = pow(m[k][k][-1], -1, p)
        m[k] = [tuple(c * inv_lc % p for c in f) for f in m[k]]
        for i in range(k + 1, size):
            if m[i][k]:
                q, _ = poly_divmod(m[i][k], m[k][k], p)
                m[i] = [poly_add(m[i][j], poly_neg(poly_mul(q, m[k][j])), p)
                        for j in range(size)]
        for j in range(k + 1, size):
            if m[k][j]:
                q, _ = poly_divmod(m[k][j], m[k][k], p)
                for i in range(k, size):
                    m[i][j] = poly_add(m[i][j], poly_neg(poly_mul(q, m[i][k])), p)
        if any(m[i][k] or m[k][i] for i in range(k + 1, size)):
            continue
        # a row whose entries the pivot does not divide is added to the pivot row
        offender = next((i for i in range(k + 1, size) if any(
            m[i][j] and poly_divmod(m[i][j], m[k][k], p)[1] for j in range(k + 1, size))), None)
        if offender is not None:
            m[k] = [poly_add(m[k][j], m[offender][j], p) for j in range(size)]
            continue
        out.append(m[k][k])
        k += 1
    if k != size:
        raise RuntimeError("characteristic matrices have full rank")
    return [f for f in out if len(f) > 1]


@reported("free-module")
def free_module_check(group, h, q: int):
    """Invariant-factor test: the module is free for a cyclic order-q
    action iff every nonunit invariant factor of h equals x^q - 1."""
    _require_table(group)
    if q < 1:
        raise InputError("q must be positive")
    if group.order == 1:
        return PASS, {"dim": 0, "free": True, "rank": 0, "invariant_factors": []}, None
    fac = factorize(group.order)
    if len(fac) != 1:
        raise InputError("the module must be an elementary abelian p-group")
    p = next(iter(fac))
    gens = _generating_set(group)  # abelian, generated by order-p ids: exponent p
    if not group.is_abelian() or any(group.power(s, p) != group.identity for s in gens):
        raise InputError("the module must be elementary abelian")
    h = tuple(h)
    if not is_automorphism(group, h):
        raise InputError("h is not an automorphism")
    if perm_power(h, q) != perm_identity(group.order):
        raise InputError("h^q is not the identity")
    # coordinates of the whole group, as the quotient by the trivial subgroup
    _, basis, _, coords = _layer_coordinates(
        group, (frozenset(range(group.order)), frozenset({group.identity})), p)
    dim = len(basis)
    matrix = coords[[h[b] for b in basis]].T.tolist()  # column b: h(b)
    char = [[poly_trim((-matrix[i][j], 1) if i == j else (-matrix[i][j],), p)
             for j in range(dim)] for i in range(dim)]
    factors = _poly_invariant_factors(char, p)
    target = poly_trim((-1,) + (0,) * (q - 1) + (1,), p)
    free = all(f == target for f in factors)
    witness = {
        "dim": dim,
        "free": free,
        "rank": dim // q if free else None,
        "invariant_factors": [list(f) for f in factors],
    }
    if free:
        ring = PrimeFieldRing(p)
        shifted = [
            [(matrix[i][j] - (1 if i == j else 0)) % p for j in range(dim)]
            for i in range(dim)
        ]
        fixed_dim = len(field_kernel(ring, shifted, dim))
        witness["fixed_dim"] = fixed_dim
        if fixed_dim * q != dim:
            return VIOLATION, witness, "free module with the wrong fixed-space dimension"
    return PASS, witness, None


# --- dimension-subgroup filtration ---


@dataclass(frozen=True)
class Filtration:
    """Descending chain D_1 over D_2 over ... ending at the trivial
    subgroup; the trivial group owns the empty chain."""

    prime: int
    terms: tuple[frozenset, ...]

    def dims(self) -> tuple[int, ...]:
        out = []
        for a, b in zip(self.terms, self.terms[1:]):
            ratio = len(a) // len(b)
            d = 0
            while ratio > 1:
                if ratio % self.prime:
                    raise InputError("filtration quotients must have prime-power order")
                ratio //= self.prime
                d += 1
            out.append(d)
        return tuple(out)


def _check_filtration_laws(G, filt: Filtration, walked=None) -> None:
    """Refuse a chain that is not descending, has a term that is not a
    subgroup (named by the first index of its run of equal terms), or
    breaks [D_i, D_j] <= D_(i+j) or D_i^p <= D_(p i), naming a broken law.

    The laws are checked at the run ends a <= b, the last indices of runs:
    for i and j in those runs D_i = D_a and D_j = D_b, and the descending
    chain puts D_(a+b) in D_(i+j) and D_(p a) in D_(p i).  So (a, b)
    implies every instance of its runs, and fails only when broken itself.
    Past the chain D_i is trivial, and so are its laws.  Each distinct
    term's generating set is walked once, unless walked (a dict from
    terms to generating sets of them) holds it, and every commutator
    subgroup is formed from the sets kept."""
    terms, p = filt.terms, filt.prime
    trivial = frozenset({G.identity})

    def term(i):
        return terms[i - 1] if i <= len(terms) else trivial

    if not all(a >= b for a, b in zip(terms, terms[1:])):
        raise RuntimeError("filtration is not descending")
    ends = [i for i in range(1, len(terms) + 1) if term(i) != term(i + 1)]
    walked = walked or {}
    gens = {a: walked[term(a)] if term(a) in walked
            else _generating_set(G, term(a), f"D_{start}")
            for start, a in zip([1] + [b + 1 for b in ends], ends)}
    for k, a in enumerate(ends):
        for b in ends[k:]:
            if not _commutator_of_generated(G, gens[a], gens[b]) <= term(a + b):
                raise RuntimeError(f"[D_{a}, D_{b}] escapes D_{a + b}")
        if not power_subgroup(G, term(a), p) <= term(p * a):
            raise RuntimeError(f"D_{a}^{p} escapes D_{p * a}")


def _require_p_group(G, p: int) -> None:
    """Refuse a p that is not prime, then a G that is not a p-group."""
    if not is_prime(p):
        raise InputError("p must be prime")
    if G.order > 1 and set(factorize(G.order)) != {p}:
        raise InputError(f"the group is not a {p}-group")


def jz_filtration(G, p: int) -> Filtration:
    """The Jennings series of a p-group G by Lazard's recursion D_1 = G,
    D_i = [D_(i-1), G] D_ceil(i/p)^p (Lazard 1954; Dixon, du Sautoy, Mann
    and Segal, Analytic Pro-p Groups, ch. 11).  It equals Lazard's product
    D_i = prod over j*p^k >= i of gamma_j(G)^(p^k), the test oracle.

    Both factors are normal, so their product is the subgroup their union
    generates.  By the product formula D_i is trivial once
    i > j*exp(gamma_j)/p for every j with gamma_j nontrivial; as
    |G| >= p^(j-1) |gamma_j| >= p^(j-1) exp(gamma_j), that is at most
    j |G| / p^j <= |G| / 2, so the guard at index |G| never fires.

    Inside runs the recursion copies: when D_(i-1) = D_(i-2) and
    D_ceil(i/p) = D_ceil((i-1)/p), both factors of D_i are those of D_(i-1),
    so D_i = D_(i-1).  Every distinct nontrivial term is walked for its
    generating set once, as A in [A, G], and the law check reuses the sets.
    """
    _require_table(G)
    _require_p_group(G, p)
    if G.order == 1:
        return Filtration(p, ())
    whole = frozenset(range(G.order))
    Y = _generating_set(G)
    terms, walked = [whole], {whole: Y}
    while len(terms[-1]) > 1:
        i = len(terms) + 1
        if i > G.order:
            raise RuntimeError("filtration failed to terminate")
        if (i > 2 and terms[-1] == terms[-2]
                and terms[-(-i // p) - 1] == terms[-(-(i - 1) // p) - 1]):
            terms.append(terms[-1])
            continue
        A = terms[-1]
        if A not in walked:
            walked[A] = _generating_set(G, A, "A")
        terms.append(subgroup_closure(
            G, _commutator_of_generated(G, walked[A], Y)
            | power_subgroup(G, terms[-(-i // p) - 1], p)))
    filt = Filtration(p, tuple(terms))
    _check_filtration_laws(G, filt, walked)
    return filt


# --- the graded algebra of the filtration ---


def _layer_coordinates(G, terms, p: int) -> tuple:
    """(degrees, basis, depths, coords) of the layers D_d/D_(d+1) of the
    chain terms over F_p, D_(d+1) normal in D_d; refused unless every
    layer is elementary abelian.  degrees and basis give each coordinate's
    degree and representative, depths[x] is the number of terms holding x,
    and row x of the read-only order x rank int64 matrix coords is nonzero
    only in the block of x's depth, where it holds x's leading-coset
    coordinates.

    Layer d's basis b_1, ..., b_k is the ids of depth d adjoined by one
    Dimino walk of the distinct terms, each sorted, bottom first: a term's
    walk starts at the term below, so b_i is the least id outside the span
    of D_(d+1) and the b_j before.  The layer is elementary abelian iff
    every b_i^p and [b_i, b_j] lies in D_(d+1); then the images of the b_i
    commute and have order p, and the p^k |D_(d+1)| ids b_1^c_1 ... b_k^c_k t,
    c in range(p)^k and t in D_(d+1), reach each id of D_d once, as
    p^k |D_(d+1)| = |D_d| = the number reached.  The id gets c in its block.
    """
    depths = np.zeros(G.order, dtype=np.int64)
    for D in terms:  # descending, so this counts up to the depth
        depths[np.fromiter(D, dtype=np.intp, count=len(D))] += 1
    adjoined = _dimino(G, [x for D in reversed(dict.fromkeys(terms)) for x in sorted(D)])[1]
    degrees: list[int] = []
    basis: list[int] = []
    blocks = [np.zeros((G.order, 0), dtype=np.int64)]
    for d, (D, Dn) in enumerate(zip(terms, terms[1:]), start=1):
        gens = [x for x in adjoined if depths[x] == d]
        if not (all(G.power(b, p) in Dn for b in gens)
                and all(G.commutator(b, c) in Dn for b, c in itertools.combinations(gens, 2))):
            raise RuntimeError("filtration quotient is not elementary abelian")
        k = len(gens)
        reps = np.array([G.identity])
        for b in gens:  # reps[c] = b_1^c_1 ... b_k^c_k, the last exponent fastest
            powers = list(itertools.accumulate([b] * (p - 1), G.mul, initial=G.identity))
            reps = G.mul_many(reps[:, None], powers).ravel()
        ids = G.mul_many(reps[:, None], np.fromiter(Dn, dtype=np.intp, count=len(Dn)))
        if not p**k * len(Dn) == len(D) == np.count_nonzero(np.bincount(ids.ravel())):
            raise RuntimeError("filtration quotient is not elementary abelian")
        block = np.zeros((G.order, k), dtype=np.int64)
        block[ids] = np.indices((p,) * k).reshape(k, p**k).T[:, None, :]
        blocks.append(block)
        degrees += [d] * k
        basis += gens
    coords = np.hstack(blocks)
    depths.flags.writeable = coords.flags.writeable = False
    return tuple(degrees), tuple(basis), depths, coords


@dataclass(frozen=True, eq=False)
class DLAlgebra:
    """Graded algebra over F_p on the filtration quotients, with the
    bracket induced by group commutators; lp is the subalgebra generated
    by the degree-1 block.  degrees, basis, depths and coords are those of
    _layer_coordinates: row x of coords is x's leading-coset coordinates."""

    group: FiniteGroup
    filtration: Filtration
    lie: GradedLieRing
    degrees: tuple[int, ...]
    basis: tuple[int, ...]
    depths: np.ndarray
    coords: np.ndarray
    lp: Subspace

    def depth(self, x: int) -> int | None:
        """Largest i with x in D_i; None for the identity."""
        return None if x == self.group.identity else int(self.depths[x])

    def image(self, x: int) -> tuple[int | None, list]:
        """(depth, leading-coset coordinates); the identity maps to zero."""
        return self.depth(x), self.coords[x].tolist()


def lazard_algebra(G, p: int) -> DLAlgebra:
    """Graded algebra on the filtration quotients, with the bracket of two
    basis cosets read off the commutator of their representatives.

    The bracket is well defined on cosets at every order, because
    jz_filtration checks [D_i, D_j] <= D_(i+j) exactly (at the ends of
    runs of equal terms, _check_filtration_laws).
    For x in D_i, y in D_j and u in D_(i+1), [xu, y] = [x, y][x, y, u][u, y]
    with [x, y, u] in D_(2i+j+1) and [u, y] in D_(i+j+1), so [xu, y] and
    [x, y] agree modulo D_(i+j+1); likewise in y.  The same expansion with u
    in D_i makes the bracket additive in each argument, so the brackets of
    basis cosets determine it.  [e_a, e_b] is the coords row of the
    commutator when its depth is deg a + deg b, and zero when deeper.
    """
    filt = jz_filtration(G, p)
    if not filt.terms:
        raise InputError("the trivial group has no graded pieces")
    degrees, basis, depths, coords = _layer_coordinates(G, filt.terms, p)
    rank = len(basis)
    brackets = {}
    for a, b in itertools.combinations(range(rank), 2):
        c = G.commutator(basis[a], basis[b])
        row = coords[c]
        if depths[c] == degrees[a] + degrees[b] and row.any():
            brackets[(a, b)] = {int(k): int(row[k]) for k in np.flatnonzero(row)}
    lie = GradedLieRing(PrimeFieldRing(p), rank, brackets)
    if not validate(lie).valid:
        raise RuntimeError("commutator brackets must satisfy the Lie laws")
    first_block = lie.span(lie.basis_vector(i) for i in range(rank) if degrees[i] == 1)
    return DLAlgebra(G, filt, lie, degrees, basis, depths, coords,
                     generated_subring(lie, first_block))


@reported("lazard-lemma")
def lazard_lemma_check(G, p: int):
    """(ad x)^p = ad(x^p) on the graded algebra, for every group element,
    plus ad-nilpotency within each element's order (Lazard 1954; Dixon, du
    Sautoy, Mann and Segal, Analytic Pro-p Groups, ch. 11); exhaustive, on
    whole id arrays (lazard_lemma)."""
    return lazard_lemma(lazard_algebra(G, p))


def lazard_lemma(dl: DLAlgebra) -> tuple:
    """The Lazard lemma on a built algebra, as (status, witness, reason).

    Every id's depth and its leading-coset coordinates, one row of V (zero
    for the identity), are the algebra's depths and coords.  All ad
    matrices are one einsum of V with the structure constants, mod p.
    The p-th power map of the ids and the p-th power of the stack of ad
    matrices are each one square-and-multiply (rings.power).  Each x must
    have (ad x)^p equal to ad(x^p) when x^p has depth p*depth(x), and zero
    when deeper; a shallower x^p is refused.  G is a p-group, so the order
    of x is the least p^j with x^(p^j) the identity, and (ad x)^(p^j) is
    read off the j-th successive p-th power of the stack, taken in step
    with the iterated p-map.

    The outcome is the one a walk of the ids in order gives: the least
    offending id is the witness, at one id a refused depth comes before a
    lemma failure and a lemma failure before a nilpotency failure.

    No int64 entry overflows: matrix entries lie in [0, p), so a sum of
    products is under r*(p-1)^2 for the rank r, and under TABLE_CAP p^r is
    at most 5000, so r <= 12 and that bound is far below 2^63.
    """
    G, L, p = dl.group, dl.lie, dl.filtration.prime
    n, r, e = G.order, L.rank, G.identity
    ids, depth, V = np.arange(n), dl.depths, dl.coords
    C = np.zeros((r, r, r), dtype=np.int64)  # C[i, j, k]: b_k in [b_i, b_j]
    for (i, j), terms in L.nonzero_constants.items():
        for k, c in terms:
            C[i, j, k], C[j, i, k] = c, -c % p
    AD = np.einsum("xi,ijk->xkj", V, C) % p  # AD[x] @ v = [x, v]

    def matmul(A, B):
        return A @ B % p

    eye = np.eye(r, dtype=np.int64)
    xp = _power_map(G, ids, p)
    ad_p = power(matmul, eye, AD, p)
    expected = np.where((depth[xp] == p * depth)[:, None, None], AD[xp], 0)
    shallow = (ids != e) & (xp != e) & (depth[xp] < p * depth)
    lemma = (ad_p != expected).any(axis=(1, 2))
    nil_order = np.zeros(n, dtype=np.int64)  # the order of each failing id
    live = ids[ids != e]  # the identity has order 1, and its row of V is zero
    y, M, o = xp[live], ad_p[live], p  # y = x^o and M = (ad x)^o for x in live
    while live.size:
        done = y == e
        nil_order[live[done & M.any(axis=(1, 2))]] = o
        live, y, M = live[~done], y[~done], M[~done]
        y, M, o = _power_map(G, y, p), power(matmul, eye, M, p), o * p
    first = [int(np.argmax(m)) if m.any() else n for m in (shallow, lemma, nil_order > 0)]
    if first[0] < n and first[0] <= min(first[1:]):
        raise RuntimeError("power depths must respect the filtration")
    if first[1] < n and first[1] <= first[2]:
        return VIOLATION, {"element": first[1]}, "(ad x)^p differs from ad(x^p)"
    if first[2] < n:
        return (VIOLATION, {"element": first[2], "order": int(nil_order[first[2]])},
                "ad-nilpotency index exceeds the element order")
    return PASS, {"elements": n}, None


def is_powerful(G, p: int) -> bool:
    """[G,G] inside G^p, with G^4 in place of G^p at p = 2."""
    _require_p_group(G, p)
    full = frozenset(range(G.order))
    return commutator_subgroup(G, full, full) <= power_subgroup(G, full, 4 if p == 2 else p)


# --- Hausdorff-product groups ---


class BCHGroup(_GroupLaws):
    """Group law x*y = x + y + [x,y]/2 + [x,[x,y]]/12 - [y,[x,y]]/12 on the
    coordinate vectors of a nilpotent Lie ring of class at most 3 over
    Z/p^m with p at least 5; elements are mixed-radix ids, no table.

    `coords` is the coordinate view: rank read-only int64 columns holding
    every id's digits, and `encode` turns columns back into ids, reducing
    each coordinate mod p^m.  The product formula is written once over
    per-coordinate values and cut at the ring's class c: x + y at c = 1,
    plus [x,y]/2 at c = 2, plus [x - y, [x,y]]/12 only at c = 3, since
    [x,y] lies in gamma_2 and [x - y, [x,y]] in gamma_3.  `mul` runs it on
    plain ints, one product at a time for closures, and `mul_many` on
    numpy columns for whole id arrays.  `transport` is one matmul on
    `coords` mod p^m.  Orders above BCH_CAP are refused.

    conjugate and commutator come from _GroupLaws, as on FiniteGroup; power
    and element_order are read off the coordinates.  The brackets of x with
    itself vanish, so x^k is k*x for every integer k (x^-1 = -x), and the
    order of x is its additive order, m / gcd(m, x_1, ..., x_r).  The
    coordinate basis is the recorded generating set.  What reads a table
    refuses this kind by name; `to_finite_group` builds one up to TABLE_CAP.

    Associativity follows from checks made exactly: the ring must satisfy
    antisymmetry and Jacobi (`validate`), have class at most 3, and have
    p >= 5.  The formula is the Hausdorff series cut at degree 3, with
    coefficients in Z[1/6].  In the free class-3 nilpotent Lie algebra over
    Q on x, y, z, (x*y)*z = x*(y*z) holds, because the full series is
    associative and its terms of degree 4 and up vanish there.  Both sides
    lie in the free class-3 nilpotent Lie ring over Z[1/6], which is
    torsion-free and so embeds in the one over Q; the identity therefore
    holds there, and in each of its images: every Lie ring of class at
    most 3 over Z/p^m with p >= 5 is a Z[1/6]-algebra.  Cutting at a lower
    class changes none of this, because the terms it drops are zero on
    such a ring.  Up to EXHAUSTIVE_CAP the full table is validated too,
    which guards the code as well as the mathematics.
    """

    def __init__(self, lie: GradedLieRing):
        if lie.ring.kind not in ("IntegersMod", "PrimeField"):
            raise InputError("coefficients must come from Z/p^m")
        modulus = lie.ring.modulus
        fac = factorize(modulus)
        if len(fac) != 1:
            raise InputError("the modulus must be a prime power")
        p = next(iter(fac))
        if p < 5:
            raise InputError("p must be at least 5 so 2 and 3 are invertible")
        order = modulus**lie.rank
        if order > BCH_CAP:
            raise CapacityError(
                f"Hausdorff-product group of order {order} exceeds the cap {BCH_CAP}")
        laws = [i for i in validate(lie).issues if i.kind in ("antisymmetry", "jacobi")]
        if laws:
            raise InputError(
                f"not a Lie ring: {laws[0].kind} fails on basis indices {laws[0].indices}")
        cls = lower_central_series(lie).nilpotency_class()
        if cls is None or cls > 3:
            raise InputError("the Lie ring must be nilpotent of class at most 3")
        self.lie = lie
        self.prime = p
        self.modulus = modulus
        self.rank = lie.rank
        self.order = order
        self.identity = 0
        self.lie_class = cls
        self._half = pow(2, -1, modulus)
        self._twelfth = pow(12, -1, modulus)
        # (i, j, ((t, s), ...)) for each basis pair with a nonzero bracket
        self._constants = tuple((i, j, terms) for (i, j), terms in lie.nonzero_constants.items())
        # the coordinate basis generates G: its images span L / (pL + [L,L]),
        # which is G over its Frattini subgroup
        self._own_generators = tuple(modulus**i for i in range(self.rank))
        self.coords = np.array(self.decode(np.arange(order, dtype=np.int64)))
        self.coords.flags.writeable = False
        if self.order <= EXHAUSTIVE_CAP:
            self.to_finite_group()  # full table validation, associativity included

    def decode(self, a) -> tuple:
        """Digits of an id, or digit columns of an id array."""
        return _digits(a, self.modulus, self.rank)

    def encode(self, vec):
        """Id of a coordinate vector, or id array of coordinate columns."""
        return _from_digits(vec, self.modulus)

    def _bracket(self, x, y) -> list:
        """[x, y] unreduced: the sums of (x_i y_j - x_j y_i) s."""
        out = [0] * self.rank
        for i, j, terms in self._constants:
            c = x[i] * y[j] - x[j] * y[i]
            for t, s in terms:
                out[t] = out[t] + c * s
        return out

    def _hausdorff(self, x, y) -> list:
        """The product's coordinates unreduced, the series cut at the ring's
        class: x + y, plus [x,y]/2 from class 2, plus [x - y, [x,y]]/12
        (that is [x,[x,y]]/12 - [y,[x,y]]/12) at class 3."""
        if self.lie_class == 1:
            return [u + v for u, v in zip(x, y)]
        z, half = self._bracket(x, y), self._half
        if self.lie_class == 2:
            return [u + v + half * c for u, v, c in zip(x, y, z)]
        w, tw = self._bracket([u - v for u, v in zip(x, y)], z), self._twelfth
        return [u + v + half * c + tw * d for u, v, c, d in zip(x, y, z, w)]

    def mul(self, a: int, b: int) -> int:
        m, x, y = self.modulus, [], []
        for _ in range(self.rank):
            a, u = divmod(a, m)
            b, v = divmod(b, m)
            x.append(u)
            y.append(v)
        return self.encode(self._hausdorff(x, y))

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable id arrays."""
        return self.encode(self._hausdorff(self.coords[:, a], self.coords[:, b]))

    def inv(self, a: int) -> int:
        return self.encode([-c for c in self.decode(a)])

    def power(self, a: int, k: int) -> int:
        """k*x on the coordinates x of a."""
        return self.encode([k * c for c in self.decode(a)])

    def element_order(self, a: int) -> int:
        """m / gcd(m, x_1, ..., x_r), the additive order of a's coordinates."""
        return self.modulus // math.gcd(self.modulus, *self.decode(a))

    def transport(self, matrix) -> tuple[int, ...]:
        """Pointwise image of a Lie automorphism as a permutation of ids:
        the image columns are matrix @ coords mod p^m, one matmul."""
        issues = automorphism_issues(self.lie, matrix)
        if issues:
            raise InputError("; ".join(issues))
        R = self.lie.ring
        M = np.array([[int(R.canon(c)) for c in row] for row in matrix], dtype=np.int64)
        return tuple(self.encode(M @ self.coords).tolist())

    def to_finite_group(self) -> FiniteGroup:
        _require_table_cap(self.order)
        ids = np.arange(self.order)
        step = max(1, _BCH_BLOCK // self.order)
        return FiniteGroup(np.concatenate([
            self.mul_many(ids[start:start + step, None], ids)
            for start in range(0, self.order, step)
        ]))


def bch_nilpotency_class(G: BCHGroup) -> int:
    """nilpotency_class, seeded by the coordinate basis G records."""
    return nilpotency_class(G)


@dataclass(frozen=True)
class LazardGroup:
    group: BCHGroup
    transported: tuple[tuple[int, ...], ...]
    lie_class: int


def lazard_group_from_lie(L: GradedLieRing, automorphisms=()) -> LazardGroup:
    """Hausdorff-product group on L plus the pointwise transports of the
    given Lie automorphisms, each rechecked exactly as a homomorphism
    against the coordinate basis (_respect_generators).  Orders above
    BCH_CAP raise CapacityError before any work."""
    G = BCHGroup(L)
    perms = tuple(G.transport(matrix) for matrix in automorphisms)
    if not _respect_generators(G, [np.array(perm) for perm in perms]):
        raise RuntimeError("transported map is not a homomorphism")
    return LazardGroup(G, perms, G.lie_class)
