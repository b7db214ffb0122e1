"""Exact linear algebra over the supported coefficient rings.

Fields use Gaussian elimination to reduced row echelon form.  Z uses the
Hermite normal form, and Z/m the Howell normal form, which is read off the
Hermite form of the rows together with m times the unit vectors.  The
cyclotomic ring is handled by restriction of scalars to Z (one lattice
coordinate per power of the root of unity).  All forms are canonical, so
subspaces compare by their stored rows.  Determinants and adjugates come
from the characteristic polynomial by Berkowitz's algorithm, which never
divides and so works over every ring here, fields or not.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .rings import CyclotomicRing, RationalsRing, Ring, xgcd

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
# integer lattices (Hermite normal form)


def _hermite(mat: list[list[int]], width: int, modulus: int = 0) -> tuple[list[list[int]], list[list[int]]]:
    """Hermite elimination of integer rows on the first `width` columns.

    Returns (pivot rows, leftover rows): the pivot rows have positive
    pivots and reduced entries above them; the leftover rows vanish on the
    first `width` columns.  Zero rows are dropped.  A modulus D > 0 adds
    the rows D*e_j and reduces rows mod D past the column being eliminated,
    which bounds the entries and not the lattice: a row D*e_j is zero before
    column j, so it is untouched until then and its multiples may be subtracted.
    """
    if modulus:
        mat = [[x % modulus for x in r] for r in mat]
        mat += [[modulus if j == i else 0 for j in range(width)] for i in range(width)]
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


def hnf_with_transform(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with U unimodular, U @ rows == H (zero rows of H kept)."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    # an augmented row never vanishes, since U stays unimodular
    aug = [list(map(int, r)) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    out, rest = _hermite(aug, width)
    full = out + rest
    return [r[:width] for r in full], [r[width:] for r in full]


def int_right_kernel(mat: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Basis of {x in Z^width : mat @ x == 0}."""
    transpose = [[mat[r][c] for r in range(len(mat))] for c in range(width)]
    h, u = hnf_with_transform(transpose)
    return [urow for hrow, urow in zip(h, u) if not any(hrow)]


def lattice_contains(h: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of vec in the row span of an HNF matrix h."""
    v = list(map(int, vec))
    for row in h:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        if v[col] % row[col] == 0:
            q = v[col] // row[col]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def int_solve(mat: Sequence[Sequence[int]], target: Sequence[int]):
    """An integer solution x of mat @ x == target, or None."""
    width = len(mat[0]) if mat else 0
    transpose = [[mat[r][c] for r in range(len(mat))] for c in range(width)]
    h, u = hnf_with_transform(transpose)
    v = list(map(int, target))
    coeff = [0] * width
    for hrow, urow in zip(h, u):
        col = next((j for j, x in enumerate(hrow) if x), None)
        if col is None:
            continue
        if v[col] % hrow[col] != 0:
            return None
        q = v[col] // hrow[col]
        if q:
            v = [x - q * y for x, y in zip(v, hrow)]
            coeff = [c + q * y for c, y in zip(coeff, urow)]
    if any(v):
        return None
    return coeff


# ---------------------------------------------------------------------------
# Z/m modules (Howell normal form)


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


def howell_contains(h: Sequence[Sequence[int]], vec: Sequence[int], m: int) -> bool:
    """Membership of vec in the row module of a Howell form h over Z/m."""
    v = [int(x) % m for x in vec]
    for row in h:
        col = next(j for j, x in enumerate(row) if x)
        if v[col] % row[col] == 0:
            q = v[col] // row[col]
            if q:
                v = [(x - q * y) % m for x, y in zip(v, row)]
    return not any(v)


# ---------------------------------------------------------------------------
# subspaces / submodules with canonical representation


class Subspace:
    """Canonically stored subspace (field) or submodule (Z, Z/m, Z[w]).

    Internal rows are RREF rows for fields, Howell rows for Z/m, and HNF
    rows in flattened integer coordinates for Z and the cyclotomic ring.
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
        if ring.kind == "Integers":
            return cls(ring, ambient, hnf(vecs))
        if ring.kind == "IntegersMod":
            return cls(ring, ambient, howell(vecs, ring.modulus))
        if ring.kind == "Cyclotomic":
            flat = []
            for v in vecs:
                w = v
                for _ in range(ring.degree):
                    flat.append(_cyc_flatten(ring, w))
                    w = [ring.mul(ring.omega(), x) for x in w]
            return cls(ring, ambient, hnf(flat))
        raise InputError(f"unsupported ring kind {ring.kind}")

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
        if ring.kind == "IntegersMod":
            return cls(ring, ambient, howell(flat_rows, ring.modulus))
        return cls(ring, ambient, hnf(flat_rows))

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
        if self.ring.kind == "IntegersMod":
            return howell_contains(self.rows, vec, self.ring.modulus)
        return lattice_contains(self.rows, _cyc_flatten(self.ring, vec))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.gens())

    def gens(self) -> list[list]:
        """Generators as ring vectors."""
        if self.ring.is_field or self.ring.kind == "IntegersMod":
            return [list(r) for r in self.rows]
        return [_cyc_unflatten(self.ring, r, self.ambient) for r in self.rows]

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


def _cyc_flatten(ring: Ring, vec: Sequence) -> list[int]:
    out: list[int] = []
    for x in vec:
        out.extend(ring.flatten(ring.canon(x)))
    return out


def _cyc_unflatten(ring: Ring, flat: Sequence[int], ambient: int) -> list:
    d = ring.flat_degree
    return [ring.unflatten(flat[i * d:(i + 1) * d]) for i in range(ambient)]


# ---------------------------------------------------------------------------
# kernels over any supported ring


def kernel(ring: Ring, mat_rows: Sequence[Sequence], width: int) -> Subspace:
    """Right kernel {x : M @ x == 0} of a matrix given by its rows."""
    rows = [[ring.canon(x) for x in r] for r in mat_rows]
    if ring.is_field:
        basis = field_kernel(ring, rows, width)
        return Subspace.span(ring, width, basis)
    if ring.kind == "Integers":
        basis = int_right_kernel(rows, width)
        return Subspace.span(ring, width, basis)
    if ring.kind == "IntegersMod":
        # the rows (M e_i, e_i) span the pairs (M x, x); by the Howell property
        # the Howell rows vanishing on the first len(rows) coordinates span M x = 0
        nrows = len(rows)
        pairs = [[row[i] for row in rows] + [int(j == i) for j in range(width)]
                 for i in range(width)]
        ker = [r[nrows:] for r in howell(pairs, ring.modulus) if not any(r[:nrows])]
        return Subspace.span(ring, width, ker)
    if ring.kind == "Cyclotomic":
        big = _cyc_block_matrix(ring, rows, width)
        ker = int_right_kernel(big, width * ring.degree)
        return Subspace.from_flat_rows(ring, width, ker)
    raise InputError(f"unsupported ring kind {ring.kind}")


def _cyc_block_matrix(ring: CyclotomicRing, rows: Sequence[Sequence], width: int) -> list[list[int]]:
    """Flatten a cyclotomic matrix to an integer block matrix."""
    d = ring.degree
    out = []
    for row in rows:
        mulmats = []
        for entry in row:
            cols = []
            w = ring.canon(entry)
            for _ in range(d):
                cols.append(list(w))
                w = ring.mul(w, ring.omega())
            mulmats.append(cols)  # cols[t][s] = coeff s of entry * omega^t
        for s in range(d):
            flat_row = []
            for j in range(width):
                for t in range(d):
                    flat_row.append(mulmats[j][t][s])
            out.append(flat_row)
    return out


def solve_ring_one(ring: CyclotomicRing, a):
    """Solve a * x == 1 in the cyclotomic ring (a must be a unit)."""
    d = ring.degree
    mat = _cyc_block_matrix(ring, [[a]], 1)
    target = list(ring.one())
    sol = int_solve(mat, target)
    if sol is None:
        raise InputError("element is not a unit")
    return ring.unflatten(sol[:d])


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


def mat_sub(ring: Ring, a, b) -> list[list]:
    return [[ring.sub(ring.canon(x), ring.canon(y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def frac_rational_solve(mat: Sequence[Sequence[int]], target: Sequence[int]):
    """Rational solution of mat @ x == target, or None (mat integer rows)."""
    width = len(mat[0]) if mat else 0
    cols = [[Fraction(mat[r][c]) for r in range(len(mat))] for c in range(width)]
    return field_solve(RationalsRing(), cols, [Fraction(t) for t in target])
