"""Exact linear algebra over the supported coefficient rings.

Fields use Gaussian elimination to reduced row echelon form.  Every other
ring is flattened to Z, with one coordinate per entry over Z and Z/m and
one per power 1, w, ..., w^(d-1) over Z[w], and a submodule is one lattice of
flattened integer rows: its Hermite normal form over Z and Z[w], its Howell
normal form over Z/m, which is read off the Hermite form of the rows
together with m times the unit vectors.  Kernels and solutions off a field
come from Hermite elimination of the pairs (M e_i, e_i).  All forms are
canonical, so subspaces compare by their stored rows.  Determinants and
adjugates come from the characteristic polynomial by Berkowitz's
algorithm, which never divides and so works over every ring here, fields
or not.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .rings import CyclotomicRing, RationalsRing, Ring, power, xgcd

# ---------------------------------------------------------------------------
# field elimination


def _require_field(ring: Ring) -> None:
    if not ring.is_field:
        raise InputError(f"row reduction needs a field, not {ring!r}")


def _gauss_jordan(ring: Ring, mat: list[list], width: int) -> tuple[list[list], list[list], list[int]]:
    """Gauss-Jordan elimination of canonical rows over a field, pivoting on
    the first `width` columns only.

    Returns (pivot rows, leftover rows, pivot columns): the pivot rows are
    monic and reduced on every pivot column; the leftover rows, in their
    input order, vanish on the first `width` columns.
    """
    _require_field(ring)
    out: list[list] = []
    piv_cols: list[int] = []
    for col in range(width):
        k = next((k for k, row in enumerate(mat) if not ring.is_zero(row[col])), None)
        if k is None:
            continue
        piv = mat.pop(k)
        inv = ring.inv(piv[col])
        piv = [ring.mul(inv, x) for x in piv]
        for dst in (mat, out):
            for i, row in enumerate(dst):
                f = row[col]
                if not ring.is_zero(f):
                    dst[i] = [ring.sub(x, ring.mul(f, p)) for x, p in zip(row, piv)]
        out.append(piv)
        piv_cols.append(col)
    return out, mat, piv_cols


def rref(ring: Ring, rows: Sequence[Sequence]) -> list[list]:
    """Reduced row echelon form over a field; zero rows dropped."""
    mat = [[ring.canon(x) for x in row] for row in rows]
    return _gauss_jordan(ring, mat, len(mat[0]) if mat else 0)[0]


def rref_with_transform(ring: Ring, rows: Sequence[Sequence]) -> tuple[list[list], list[list], list[int]]:
    """RREF plus transform: returns (R, T, piv_cols) with T @ rows == R.

    Zero rows are kept (trailing) so T stays square.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    mat = [[ring.canon(x) for x in row] + [ring.one() if j == i else ring.zero() for j in range(n)]
           for i, row in enumerate(rows)]
    out, rest, piv_cols = _gauss_jordan(ring, mat, width)
    full = out + rest
    return [r[:width] for r in full], [r[width:] for r in full], piv_cols


def field_solve(ring: Ring, rows: Sequence[Sequence], target: Sequence):
    """Coefficients c with sum(c_i * rows_i) == target, or None."""
    if not rows:
        return None if any(not ring.is_zero(ring.canon(x)) for x in target) else []
    red, trans, piv_cols = rref_with_transform(ring, rows)
    vec = [ring.canon(x) for x in target]
    coeff = [ring.zero()] * len(rows)
    for row, t, col in zip(red, trans, piv_cols):
        f = vec[col]
        if ring.is_zero(f):
            continue
        vec = [ring.sub(x, ring.mul(f, y)) for x, y in zip(vec, row)]
        coeff = [ring.add(c, ring.mul(f, u)) for c, u in zip(coeff, t)]
    if any(not ring.is_zero(x) for x in vec):
        return None
    return coeff


def field_kernel(ring: Ring, mat: Sequence[Sequence], width: int) -> list[list]:
    """Basis of {x : mat @ x == 0} over a field (mat given as rows)."""
    red, _, piv_cols = _gauss_jordan(ring, [[ring.canon(x) for x in row] for row in mat], width)
    free_cols = [j for j in range(width) if j not in piv_cols]
    basis = []
    for fc in free_cols:
        vec = [ring.zero()] * width
        vec[fc] = ring.one()
        for row, pc in zip(red, piv_cols):
            vec[pc] = ring.neg(row[fc])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# integer lattices: the Hermite form over Z, the Howell form over Z/m


def _hermite(mat: list[list[int]], width: int, modulus: int = 0) -> tuple[list[list[int]], list[list[int]]]:
    """Hermite elimination of integer rows on the first `width` columns.

    Returns (pivot rows, leftover rows): the pivot rows have positive
    pivots and reduced entries above them; the leftover rows vanish on the
    first `width` columns.  Zero rows are dropped.  A modulus D > 0 adds
    the rows D*e_j for every column j of the rows, and reduces rows mod D
    past the column being eliminated, which bounds the entries and not the
    lattice: a row D*e_j is zero before column j, so it is untouched until
    then and its multiples may be subtracted.
    """
    if modulus:
        n = len(mat[0]) if mat else 0
        mat = [[x % modulus for x in r] for r in mat]
        mat += [[modulus if j == i else 0 for j in range(n)] for i in range(n)]
    mat = [r for r in mat if any(r)]
    out: list[list[int]] = []
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
                [s * x + t * y for x, y in zip(piv, r)],
                [(a // g) * y - (b // g) * x for x, y in zip(piv, r)],
            )
            if modulus:
                piv = piv[:col + 1] + [x % modulus for x in piv[col + 1:]]
                r = [x % modulus for x in r]
            if any(r):
                mat.append(r)
        if piv[col] < 0:
            piv = [-x for x in piv]
        for i, row in enumerate(out):
            q = row[col] // piv[col]
            if q:
                out[i] = [x - q * y for x, y in zip(row, piv)]
        out.append(piv)
    return out, mat


def hnf(rows: Sequence[Sequence[int]], modulus: int = 0) -> list[list[int]]:
    """Canonical row Hermite normal form of the rows, and of modulus*Z^w
    too when a modulus is given; zero rows dropped."""
    width = len(rows[0]) if rows else 0
    return _hermite([list(map(int, r)) for r in rows], width, modulus)[0]


def howell(rows: Sequence[Sequence[int]], m: int) -> list[list[int]]:
    """Canonical Howell normal form of the row module over Z/m: the Hermite
    form H of the lattice L spanned by the rows and m*Z^w, less its rows
    m*e_j (Howell 1986; Storjohann 2000, ch. 4).

    L has full rank, so row j of H has its pivot d_j in column j; d_j
    divides m, as m*e_j lies in L, and every entry lies in [0, m), being
    reduced below the pivot of its column.  A row with d_j = m is m*e_j,
    since their difference is a combination of the rows below that its
    reduced entries force to be 0; it is 0 mod m.  The kept rows have the
    Howell property: a module element whose first k coordinates are 0 lifts
    to a vector of L, and subtracting multiples of m*e_1, ..., m*e_k makes
    those coordinates exactly 0; as H is echelon, that vector combines the
    rows of H with pivot past column k.
    """
    return [r for j, r in enumerate(hnf(rows, m)) if r[j] != m]


def lattice_contains(h: Sequence[Sequence[int]], vec: Sequence[int], modulus: int = 0) -> bool:
    """Membership of vec in the lattice of an HNF h, or with a modulus m in
    the module over Z/m of a Howell form h."""
    return not any(_reduce(h, [int(x) % modulus if modulus else int(x) for x in vec], modulus))


def _reduce(h: Sequence[Sequence[int]], v: list[int], modulus: int = 0) -> list[int]:
    """v less, row by row of the echelon form h, the floor multiple of the
    row at its pivot: v minus a lattice vector, and 0 exactly when v is in
    the lattice, as each pivot column is settled before the later rows."""
    for row in h:
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // row[col]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
            if modulus:
                v = [x % modulus for x in v]
    return v


def _pairs(mat: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """The rows (M e_i, e_i), i < width, which span the pairs (M x, x).

    A pair (0, x) lies in their lattice exactly when M x == 0, and in their
    lattice plus m*Z^(k+width) exactly when M x == 0 mod m.
    """
    return [[row[i] for row in mat] + [int(j == i) for j in range(width)] for i in range(width)]


def int_solve(mat: Sequence[Sequence[int]], target: Sequence[int]):
    """An integer solution x of mat @ x == target, or None.

    Reducing (-target, 0) by the Hermite form of the pairs leaves
    (-target - M y, -y) for some y; its first k entries vanish exactly when
    x = -y solves, and the rows past column k, which are the kernel's HNF
    rows, reduce x so that its entry at each of their pivots lies in
    [0, pivot).
    """
    k, width = len(mat), (len(mat[0]) if mat else 0)
    v = _reduce(hnf(_pairs(mat, width)), [-int(t) for t in target] + [0] * width)
    return None if any(v[:k]) else v[k:]


# ---------------------------------------------------------------------------
# subspaces / submodules with canonical representation


class Subspace:
    """Canonically stored subspace (field) or submodule (Z, Z/m, Z[w]).

    Over a field the rows are RREF rows.  Otherwise they are the canonical
    rows of a lattice of flattened integer coordinates: the HNF over Z and
    Z[w], the Howell form over Z/m.
    """

    def __init__(self, ring: Ring, ambient: int, rows: list[list]):
        self.ring = ring
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)

    # -- construction

    @classmethod
    def span(cls, ring: Ring, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        vecs = [[ring.canon(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise InputError("vector length does not match ambient rank")
        if ring.is_field:
            return cls(ring, ambient, rref(ring, vecs))
        flat = [_flatten(ring, w) for v in vecs for w in _omega_multiples(ring, v)]
        return cls.from_flat_rows(ring, ambient, flat)

    @classmethod
    def zero(cls, ring: Ring, ambient: int) -> "Subspace":
        return cls.span(ring, ambient, [])

    @classmethod
    def full(cls, ring: Ring, ambient: int) -> "Subspace":
        basis = []
        for i in range(ambient):
            v = [ring.zero()] * ambient
            v[i] = ring.one()
            basis.append(v)
        return cls.span(ring, ambient, basis)

    @classmethod
    def from_flat_rows(cls, ring: Ring, ambient: int, flat_rows: Sequence[Sequence[int]]) -> "Subspace":
        if ring.is_field:
            raise InputError("flat rows only apply to non-field rings")
        m = _modulus(ring)
        return cls(ring, ambient, howell(flat_rows, m) if m else hnf(flat_rows))

    # -- queries

    def contains(self, vector: Sequence) -> bool:
        vec = [self.ring.canon(x) for x in vector]
        if self.ring.is_field:
            v = list(vec)
            for row in self.rows:
                col = next(j for j, x in enumerate(row) if not self.ring.is_zero(x))
                f = v[col]
                if not self.ring.is_zero(f):
                    v = [self.ring.sub(x, self.ring.mul(f, y)) for x, y in zip(v, row)]
            return all(self.ring.is_zero(x) for x in v)
        return lattice_contains(self.rows, _flatten(self.ring, vec), _modulus(self.ring))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.gens())

    def gens(self) -> list[list]:
        """Generators as ring vectors."""
        if self.ring.is_field:
            return [list(r) for r in self.rows]
        d = self.ring.flat_degree
        return [[self.ring.unflatten(r[i:i + d]) for i in range(0, len(r), d)] for r in self.rows]

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ring != other.ring or self.ambient != other.ambient:
            raise InputError("subspace mismatch")
        if self.ring.is_field:
            return Subspace.span(self.ring, self.ambient, list(self.rows) + list(other.rows))
        return Subspace.from_flat_rows(self.ring, self.ambient, list(self.rows) + list(other.rows))

    def is_zero(self) -> bool:
        return not self.rows

    def rank(self) -> int:
        """Number of canonical generator rows (field dimension when a field)."""
        return len(self.rows)

    def size(self) -> int | None:
        """Cardinality for finite coefficient rings, else None."""
        if self.ring.kind == "PrimeField":
            return self.ring.modulus ** len(self.rows)
        if self.ring.kind == "IntegersMod":
            m = self.ring.modulus
            total = 1
            for row in self.rows:
                total *= m // next(x for x in row if x)
            return total
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace({self.ring!r}, ambient={self.ambient}, rank={self.rank()})"


# ---------------------------------------------------------------------------
# flattening a non-field ring to Z (d = flat_degree coordinates per entry)


def _modulus(ring: Ring) -> int:
    """m over Z/m, where lattices are reduced mod m; 0 over Z and Z[w]."""
    return ring.modulus if ring.kind == "IntegersMod" else 0


def _omega_multiples(ring: Ring, vec: list) -> list[list]:
    """vec, w*vec, ..., w^(d-1)*vec, whose Z-span is the Z[w]-span of vec
    (vec alone over Z and Z/m, where d = 1)."""
    out = [vec]
    for _ in range(ring.flat_degree - 1):
        out.append([ring.mul(ring.omega(), x) for x in out[-1]])
    return out


def _flatten(ring: Ring, vec: Sequence) -> list[int]:
    """Integer coordinates of a vector of canonical ring elements."""
    return [c for x in vec for c in ring.flatten(x)]


def _flat_matrix(ring: Ring, rows: Sequence[Sequence], width: int) -> list[list[int]]:
    """The integer matrix of x -> M x on flattened coordinates: the block of
    entry M[i][j] has column t equal to the coordinates of M[i][j] * w^t."""
    out = []
    for row in rows:
        mults = [[ring.flatten(x) for x in w] for w in _omega_multiples(ring, row)]
        out.extend([mults[t][j][s] for j in range(width) for t in range(ring.flat_degree)]
                   for s in range(ring.flat_degree))
    return out


# ---------------------------------------------------------------------------
# kernels over any supported ring


def kernel(ring: Ring, mat_rows: Sequence[Sequence], width: int) -> Subspace:
    """Right kernel {x : M @ x == 0} of a matrix given by its rows.

    Off a field the matrix is flattened to k integer rows, and Hermite
    elimination of the pairs on their first k columns, mod m over Z/m,
    leaves rows (0, x) that span the kernel lattice.
    """
    rows = [[ring.canon(x) for x in r] for r in mat_rows]
    if any(len(r) != width for r in rows):
        raise InputError(f"every row of the matrix must have length {width}")
    if ring.is_field:
        return Subspace.span(ring, width, field_kernel(ring, rows, width))
    flat = _flat_matrix(ring, rows, width)
    k = len(flat)
    rest = _hermite(_pairs(flat, width * ring.flat_degree), k, _modulus(ring))[1]
    return Subspace.from_flat_rows(ring, width, [r[k:] for r in rest])


def solve_ring_one(ring: CyclotomicRing, a):
    """Solve a * x == 1 in the cyclotomic ring (a must be a unit)."""
    sol = int_solve(_flat_matrix(ring, [[a]], 1), ring.flatten(ring.one()))
    if sol is None:
        raise InputError("element is not a unit")
    return ring.unflatten(sol)


def _charpoly(ring: Ring, rows: Sequence[Sequence]) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(x*I - M), highest degree
    first, by Berkowitz's division-free algorithm: O(n^4) ring operations
    over any commutative ring.

    With M_r the leading r x r block, M_{r+1} = [[M_r, C], [R, a]] has
    characteristic polynomial T @ p_r, where T is the lower-triangular
    Toeplitz matrix with first column (1, -a, -R C, -R M_r C, ...,
    -R M_r^(r-1) C).
    """
    mat = [[ring.canon(x) for x in row] for row in rows]
    if any(len(row) != len(mat) for row in mat):
        raise InputError("the matrix must be square")
    poly = [ring.one()]
    for r in range(len(mat)):
        # _dot zips, so mat[r] and the rows of mat[:r] are cut to r entries
        col = [ring.one(), ring.neg(mat[r][r])]
        w = [row[r] for row in mat[:r]]
        for _ in range(r):
            col.append(ring.neg(_dot(ring, mat[r], w)))
            w = [_dot(ring, row, w) for row in mat[:r]]
        poly = [_dot(ring, col[i::-1], poly) for i in range(r + 2)]
    return poly


def ring_det(ring: Ring, rows: Sequence[Sequence]):
    """Determinant (-1)^n c_n from the characteristic polynomial; division
    free, so exact over every supported ring."""
    c = _charpoly(ring, rows)[-1]
    return ring.neg(c) if len(rows) % 2 else c


def ring_adjugate(ring: Ring, rows: Sequence[Sequence]) -> list[list]:
    """Adjugate matrix: adj(M) @ M == det(M) * I.

    By Cayley-Hamilton, adj(M) = (-1)^(n+1) (M^(n-1) + c_1 M^(n-2) + ...
    + c_(n-1) I), evaluated by Horner's rule.
    """
    n = len(rows)
    poly = _charpoly(ring, rows)
    acc = mat_identity(ring, n)
    for c in poly[1:n]:
        acc = mat_mul(ring, acc, rows)
        for i in range(n):
            acc[i][i] = ring.add(acc[i][i], c)
    if n % 2 == 0:
        acc = [[ring.neg(x) for x in row] for row in acc]
    return acc


def mat_apply(ring: Ring, mat: Sequence[Sequence], vec: Sequence) -> list:
    out = []
    for row in mat:
        acc = ring.zero()
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(ring.canon(a), ring.canon(x)))
        out.append(acc)
    return out


def mat_mul(ring: Ring, a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    rows = [[ring.canon(x) for x in row] for row in a]
    cols = list(zip(*([ring.canon(x) for x in row] for row in b)))
    return [[_dot(ring, row, col) for col in cols] for row in rows]


def _dot(ring: Ring, u, v):
    """Sum of u[i] * v[i] over canonical entries, zipped to the shorter."""
    acc = ring.zero()
    for x, y in zip(u, v):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def mat_identity(ring: Ring, n: int) -> list[list]:
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def mat_power(ring: Ring, mat, k: int) -> list[list]:
    """mat^k for k >= 0, with canonical entries."""
    return power(lambda a, b: mat_mul(ring, a, b), mat_identity(ring, len(mat)), mat, k)


def mat_sub(ring: Ring, a, b) -> list[list]:
    return [[ring.sub(ring.canon(x), ring.canon(y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def frac_rational_solve(mat: Sequence[Sequence[int]], target: Sequence[int]):
    """Rational solution of mat @ x == target, or None (mat integer rows)."""
    width = len(mat[0]) if mat else 0
    cols = [[Fraction(mat[r][c]) for r in range(len(mat))] for c in range(width)]
    return field_solve(RationalsRing(), cols, [Fraction(t) for t in target])
