"""Finite-rank Lie rings given by structure constants over exact rings.

A ring is described by its bracket table on basis pairs, an optional grading
by residues mod n, and a coefficient ring from rings.py.  All subspace
computations go through linalg.Subspace, so chains stabilize canonically.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .combinatorics import FrobeniusParams, is_r_dependent
from .errors import CapacityError, InputError
from .linalg import Subspace, kernel, mat_apply, mat_identity, mat_mul, mat_power, mat_sub, ring_det
from .rings import Ring, factorize, orbit, power, ring_from_json, ring_to_json


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # antisymmetry | jacobi | grading
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    issues: tuple[ValidationIssue, ...]


class GradedLieRing:
    """Structure-constant Lie ring, optionally graded by Z/nZ residues.

    Bracket entries may be supplied for either orientation of a basis pair;
    the missing orientation is implied by antisymmetry.  validate() reports
    violations instead of raising.
    """

    def __init__(
        self,
        ring: Ring,
        rank: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object] | Sequence],
        grading: Sequence[int] | None = None,
        grade_modulus: int | None = None,
    ):
        if rank < 1:
            raise InputError("rank must be at least 1")
        self.ring = ring
        self.rank = rank
        if (grading is None) != (grade_modulus is None):
            raise InputError("grading and grade_modulus come together")
        if grade_modulus is not None and grade_modulus < 1:
            raise InputError("grade modulus must be positive")
        if grading is not None and len(grading) != rank:
            raise InputError("grading must assign a residue to every basis index")
        self.grade_modulus = grade_modulus
        self.grading = (
            None if grading is None else tuple(g % grade_modulus for g in grading)
        )
        table: dict[tuple[int, int], tuple] = {}
        for (i, j), entry in brackets.items():
            if not (0 <= i < rank and 0 <= j < rank):
                raise InputError(f"bracket pair ({i}, {j}) out of range")
            if isinstance(entry, Mapping):
                vec = [ring.zero()] * rank
                for k, coeff in entry.items():
                    if not 0 <= k < rank:
                        raise InputError(f"bracket target {k} out of range")
                    vec[k] = ring.canon(coeff)
            else:
                if len(entry) != rank:
                    raise InputError("bracket vector length must equal rank")
                vec = [ring.canon(c) for c in entry]
            table[(i, j)] = tuple(vec)
        self._table = table
        # (i, j) -> ((k, c), ...): the nonzero entries of [b_i, b_j] for each
        # pair i < j that has one, pairs and entries in increasing order
        self.nonzero_constants = {}
        for i, j in sorted({(min(i, j), max(i, j)) for i, j in table if i != j}):
            terms = tuple((k, c) for k, c in enumerate(self.structure_constant(i, j))
                          if not ring.is_zero(c))
            if terms:
                self.nonzero_constants[(i, j)] = terms

    # --- bracket plumbing ---

    def zero_vector(self) -> list:
        return [self.ring.zero()] * self.rank

    def basis_vector(self, i: int) -> list:
        v = self.zero_vector()
        v[i] = self.ring.one()
        return v

    def element(self, coeffs: Sequence) -> list:
        if len(coeffs) != self.rank:
            raise InputError("element length must equal rank")
        return [self.ring.canon(c) for c in coeffs]

    def structure_constant(self, i: int, j: int) -> tuple:
        """[b_i, b_j] resolved through antisymmetric completion."""
        if i == j:
            return tuple(self.zero_vector())
        if (i, j) in self._table:
            return self._table[(i, j)]
        if (j, i) in self._table:
            return tuple(self.ring.neg(c) for c in self._table[(j, i)])
        return tuple(self.zero_vector())

    def bracket(self, x: Sequence, y: Sequence) -> list:
        """sum over i < j of (x_i y_j - x_j y_i) [b_i, b_j]."""
        R = self.ring
        out = self.zero_vector()
        for (i, j), terms in self.nonzero_constants.items():
            c = R.sub(R.mul(x[i], y[j]), R.mul(x[j], y[i]))
            if R.is_zero(c):
                continue
            for k, s in terms:
                out[k] = R.add(out[k], R.mul(c, s))
        return out

    def ad_matrix(self, y: Sequence) -> list[list]:
        """Matrix of x -> [y, x] in basis coordinates."""
        cols = [self.bracket(y, self.basis_vector(j)) for j in range(self.rank)]
        return [[cols[j][i] for j in range(self.rank)] for i in range(self.rank)]

    def full_space(self) -> Subspace:
        return Subspace.full(self.ring, self.rank)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.ring, self.rank)

    def span(self, vectors: Iterable[Sequence]) -> Subspace:
        return Subspace.span(self.ring, self.rank, list(vectors))

    # --- serialization ---

    def to_json(self) -> dict:
        for i, j in sorted(self._table):
            if i < j and (j, i) in self._table:
                if self._table[(i, j)] != tuple(self.ring.neg(c) for c in self._table[(j, i)]):
                    raise InputError(f"inconsistent pair ({i}, {j}); validate first")
        brackets = [[i, j, [[k, self.ring.to_json(c)] for k, c in terms]]
                    for (i, j), terms in self.nonzero_constants.items()]
        out = {"rank": self.rank, "ring": ring_to_json(self.ring), "brackets": brackets}
        if self.grading is not None:
            out["grading"] = list(self.grading)
            out["n"] = self.grade_modulus
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "GradedLieRing":
        ring = ring_from_json(data["ring"])
        brackets = {}
        for i, j, entry in data.get("brackets", ()):
            brackets[(int(i), int(j))] = {int(k): ring.from_json(c) for k, c in entry}
        return cls(
            ring,
            int(data["rank"]),
            brackets,
            grading=data.get("grading"),
            grade_modulus=data.get("n"),
        )


def validate(L: GradedLieRing) -> ValidationReport:
    """Check antisymmetry, Jacobi, and grading compatibility.

    Failures are collected, never raised; each issue names the offending
    basis tuple.
    """
    R = L.ring
    issues: list[ValidationIssue] = []
    zero = tuple(L.zero_vector())
    for i in range(L.rank):
        if L._table.get((i, i), zero) != zero:
            issues.append(ValidationIssue("antisymmetry", (i, i)))
    for i in range(L.rank):
        for j in range(i + 1, L.rank):
            if (i, j) in L._table and (j, i) in L._table:
                neg = tuple(R.neg(c) for c in L._table[(j, i)])
                if L._table[(i, j)] != neg:
                    issues.append(ValidationIssue("antisymmetry", (i, j)))
    clean = not issues
    if clean:
        for i, j, k in itertools.combinations(range(L.rank), 3):
            bi, bj, bk = (L.basis_vector(t) for t in (i, j, k))
            acc = L.bracket(L.bracket(bi, bj), bk)
            for term in (L.bracket(L.bracket(bj, bk), bi), L.bracket(L.bracket(bk, bi), bj)):
                acc = [R.add(a, b) for a, b in zip(acc, term)]
            if any(not R.is_zero(c) for c in acc):
                issues.append(ValidationIssue("jacobi", (i, j, k)))
    if L.grading is not None:
        n = L.grade_modulus
        for (i, j), vec in L._table.items():
            want = (L.grading[i] + L.grading[j]) % n
            for k, c in enumerate(vec):
                if not R.is_zero(c) and L.grading[k] != want:
                    issues.append(ValidationIssue("grading", (i, j, k)))
    return ValidationReport(not issues, tuple(issues))


# --- series ---


@dataclass(frozen=True)
class SubringChain:
    """Descending chain of subspaces; members[t] is the (t+1)-st term."""

    kind: str  # lower_central | derived
    members: tuple[Subspace, ...]

    def member(self, k: int) -> Subspace:
        """k-th term (1-based); the chain is constant past its last member."""
        if k < 1:
            raise InputError("chain terms are 1-based")
        return self.members[min(k - 1, len(self.members) - 1)]

    def nilpotency_class(self) -> int | None:
        """Index of the first zero member, None when there is none: the
        class of a lower central chain, the length of a derived one."""
        return next((t for t, m in enumerate(self.members) if m.is_zero()), None)

    derived_length = nilpotency_class


def _series_caps(L: GradedLieRing) -> tuple[int, int | None]:
    """The terms, and the bit length of a member's lattice entries, that a
    descending chain may reach; no entry cap over a field or Z/m, where
    entries are bounded anyway.  CapacityError past either."""
    R = L.ring
    if R.is_field:
        return L.rank + 2, None
    if R.kind == "IntegersMod":
        return L.rank * (1 + sum(factorize(R.modulus).values())) + 2, None
    # no finite additive exponent: generous caps.  Bracketing with a basis
    # vector adds at most the bits of the largest structure constant and of
    # the rank to a vector's entries; the entry cap allows that at every term
    terms = 64 * L.rank + 2
    constant = max((abs(x) for pairs in L.nonzero_constants.values()
                    for _, c in pairs for x in R.flatten(c)), default=0)
    return terms, terms * (constant.bit_length() + L.rank.bit_length())


def _bracket_span(L: GradedLieRing, A: Subspace, B: Subspace) -> Subspace:
    vecs = [L.bracket(list(a), list(b)) for a in A.gens() for b in B.gens()]
    return L.span(vecs)


def _descending_chain(L: GradedLieRing, step, start: Subspace, kind: str) -> SubringChain:
    members = [start]
    cap, bits_cap = _series_caps(L)
    while True:
        nxt = step(members[-1])
        if nxt == members[-1]:
            break
        members.append(nxt)
        if members[-1].is_zero():
            break
        if len(members) > cap:
            raise CapacityError(f"{kind} chain exceeded {cap} terms without stabilizing")
        if bits_cap is not None:
            bits = max(abs(x).bit_length() for row in nxt.rows for x in row)
            if bits > bits_cap:
                raise CapacityError(
                    f"{kind} chain term {len(members)} has {bits}-bit entries, over the "
                    f"entry cap of {bits_cap} bits ({cap} terms of {bits_cap // cap} bits)")
    return SubringChain(kind, tuple(members))


def lower_central_series(L: GradedLieRing) -> SubringChain:
    """Terms until stabilization; nilpotency class is read off the chain."""
    full = L.full_space()
    return _descending_chain(L, lambda g: _bracket_span(L, g, full), full, "lower_central")


def derived_series(L: GradedLieRing) -> SubringChain:
    return _descending_chain(L, lambda g: _bracket_span(L, g, g), L.full_space(), "derived")


def subring_series(L: GradedLieRing, M: Subspace) -> SubringChain:
    """Lower central series of the subring generated by M, in ambient coordinates."""
    S = generated_subring(L, M)
    return _descending_chain(L, lambda g: _bracket_span(L, g, S), S, "lower_central")


def generated_subring(L: GradedLieRing, M: Subspace) -> Subspace:
    """The subring generated by M: the ascending walk S <- S + [S, M] from
    S = M, which stops, as the coefficient rings are Noetherian, at the span
    of the left-normed brackets of elements of M.  That span is a subring,
    by induction on u in [x, [u, m]] = [[x, u], m] - [[x, m], u]."""
    S = M
    while True:
        nxt = S.sum(_bracket_span(L, S, M))
        if nxt == S:
            return S
        S = nxt


# --- centralizers and fixed points ---


def centralizer(L: GradedLieRing, elements: Iterable[Sequence]) -> Subspace:
    """{x : [x, s] = 0 for every listed s}."""
    rows: list[list] = []
    for s in elements:
        rows.extend(L.ad_matrix(L.element(s)))
    return kernel(L.ring, rows, L.rank)


def automorphism_issues(L: GradedLieRing, M: Sequence[Sequence]) -> list[str]:
    """Reasons M fails to be a Lie automorphism (empty when it is one).

    A matrix that is not rank x rank gets the shape as its one reason.
    """
    if len(M) != L.rank or any(len(row) != L.rank for row in M):
        return [f"matrix shape is not {L.rank} x {L.rank}"]
    R = L.ring
    mat = [[R.canon(c) for c in row] for row in M]
    out = []
    if not R.is_unit(ring_det(R, mat)):
        out.append("determinant is not a unit")
    images = [list(col) for col in zip(*mat)]  # M b_i is column i
    for i in range(L.rank):
        for j in range(i + 1, L.rank):
            lhs = mat_apply(R, mat, list(L.structure_constant(i, j)))
            if lhs != L.bracket(images[i], images[j]):
                out.append(f"bracket not preserved on pair ({i}, {j})")
    return out


def _checked_matrices(L: GradedLieRing, mats) -> list[list[list]]:
    out = []
    for M in mats:
        issues = automorphism_issues(L, M)
        if issues:
            raise InputError("not a Lie automorphism: " + "; ".join(issues))
        out.append([[L.ring.canon(c) for c in row] for row in M])
    return out


def fixed_subring(L: GradedLieRing, automorphisms: Iterable[Sequence[Sequence]]) -> Subspace:
    """{x : Mx = x for every automorphism M}."""
    R = L.ring
    rows: list[list] = []
    for M in _checked_matrices(L, automorphisms):
        rows.extend(mat_sub(R, M, mat_identity(R, L.rank)))
    return kernel(R, rows, L.rank)


# --- selective nilpotency ---


@dataclass(frozen=True)
class SelectiveWitness:
    grades: tuple[int, ...]
    basis_chain: tuple[int, ...]


def check_selective_nilpotency(
    L: GradedLieRing,
    c: int,
    params: FrobeniusParams,
) -> tuple[bool, SelectiveWitness | None]:
    """True when every left-normed bracket of c+1 homogeneous elements whose
    grade tuple is r-independent vanishes.

    Requires a grading mod params.n with zero component absent; dependent
    grade tuples are unconstrained.
    """
    if c < 1:
        raise InputError("c must be at least 1")
    if L.grading is None:
        raise InputError("requires a graded ring")
    if L.grade_modulus != params.n:
        raise InputError("grading modulus must equal params.n")
    if any(g == 0 for g in L.grading):
        raise InputError("zero-grade component must be trivial")
    comp: dict[int, list[int]] = {}
    for idx, g in enumerate(L.grading):
        comp.setdefault(g, []).append(idx)
    grades = sorted(comp)
    R = L.ring

    def chains(prefix_vec, prefix_idx, remaining: tuple[int, ...]):
        if any(not R.is_zero(x) for x in prefix_vec):
            if not remaining:
                return SelectiveWitness(tup, tuple(prefix_idx))
            for b in comp[remaining[0]]:
                got = chains(L.bracket(prefix_vec, L.basis_vector(b)),
                             prefix_idx + [b], remaining[1:])
                if got:
                    return got
        return None

    for tup in itertools.product(grades, repeat=c + 1):
        dep, _ = is_r_dependent(tup, params)
        if dep:
            continue
        for b in comp[tup[0]]:
            got = chains(L.basis_vector(b), [b], tup[1:])
            if got:
                return False, got
    return True, None


def check_scaled_nilpotency(L: GradedLieRing, n: int, u: int, v: int) -> bool:
    """Whether the subring n**u * L is nilpotent of class at most v."""
    if n < 1 or u < 0 or v < 0:
        raise InputError("need n >= 1, u >= 0, v >= 0")
    R = L.ring
    scale = R.canon(n**u)
    M = L.span([[R.mul(scale, c) for c in L.basis_vector(i)] for i in range(L.rank)])
    if v == 0:
        return M.is_zero()
    return subring_series(L, M).member(v + 1).is_zero()


# --- eigenspace decomposition ---


@dataclass(frozen=True)
class EigenDefectReport:
    spans: bool                    # sum of components is all of L
    direct: bool                   # spans and only the trivial dependency
    scaled_contained: bool         # n*x lands in the sum for every basis x
    dependencies_annihilated: bool  # any vanishing sum has n*l_i = 0 per part


def _verify_root_order(ring: Ring, omega, n: int) -> None:
    one = ring.one()
    if power(ring.mul, one, omega, n) != one:
        raise InputError("omega**n is not 1")
    for ell in factorize(n):
        if power(ring.mul, one, omega, n // ell) == one:
            raise InputError(f"omega has order dividing {n // ell}, not {n}")


def eigenspace_decomposition(
    L: GradedLieRing,
    phi: Sequence[Sequence],
    n: int,
    omega=None,
) -> tuple[list[Subspace], EigenDefectReport]:
    """Components L_i = ker(phi - omega**i) for a verified n-th root omega,
    plus a report on how close the sum is to a direct decomposition.
    """
    if n < 1:
        raise InputError("n must be positive")
    R = L.ring
    if omega is None:
        if R.kind == "Cyclotomic" and R.n == n:
            omega = R.omega()
        elif n == 1:
            omega = R.one()
        else:
            raise InputError("omega must be supplied for this ring")
    omega = R.canon(omega)
    _verify_root_order(R, omega, n)
    (mat,) = _checked_matrices(L, [phi])
    if mat_power(R, mat, n) != mat_identity(R, L.rank):
        raise InputError("phi**n is not the identity")

    comps = []
    # the n eigenvalues 1, omega, ..., omega**(n-1)
    for scalar in itertools.accumulate(itertools.repeat(omega, n - 1), R.mul, initial=R.one()):
        shifted = [[R.sub(mat[i][j], scalar if i == j else R.zero())
                    for j in range(L.rank)] for i in range(L.rank)]
        comps.append(kernel(R, shifted, L.rank))

    total = L.zero_space()
    for comp in comps:
        total = total.sum(comp)
    spans = total == L.full_space()
    n_elt = R.canon(n)
    scaled_contained = all(
        total.contains([R.mul(n_elt, c) for c in L.basis_vector(i)])
        for i in range(L.rank)
    )
    # dependency analysis: kernel of the concatenated generator matrix
    gens = [(idx, list(g)) for idx, comp in enumerate(comps) for g in comp.gens()]
    direct = spans
    dependencies_annihilated = True
    if gens:
        cols = [[vec[row] for _, vec in gens] for row in range(L.rank)]
        dep = kernel(R, cols, len(gens))
        for coeffs in dep.gens():
            nontrivial = False
            for idx in range(n):
                part = L.zero_vector()
                for (cidx, (where, vec)) in enumerate(gens):
                    if where == idx:
                        part = [R.add(a, R.mul(coeffs[cidx], b)) for a, b in zip(part, vec)]
                if any(not R.is_zero(x) for x in part):
                    nontrivial = True
                    if any(not R.is_zero(R.mul(n_elt, x)) for x in part):
                        dependencies_annihilated = False
            if nontrivial:
                direct = False
    return comps, EigenDefectReport(spans, direct, scaled_contained, dependencies_annihilated)


# --- Hall bound ---


def hall_class_bound(c: int, k: int) -> int:
    """c*C(k+1,2) - C(k,2).

    >>> hall_class_bound(1, 2)
    2
    """
    if c < 1 or k < 1:
        raise InputError("c and k must be at least 1")
    return c * math.comb(k + 1, 2) - math.comb(k, 2)


@dataclass(frozen=True)
class HallImplicationReport:
    applicable: bool
    c: int | None
    k: int | None
    bound: int | None
    holds: bool | None


def verify_hall_implication(L: GradedLieRing, K: Subspace) -> HallImplicationReport:
    """Least c with every (c+1)-fold bracket inside [K,K], least k with K
    nilpotent of class k, and whether L is nilpotent of class at most
    hall_class_bound(c, k).
    """
    for k_gen in K.gens():
        for i in range(L.rank):
            if not K.contains(L.bracket(L.basis_vector(i), list(k_gen))):
                raise InputError("K is not an ideal")
    kk = _bracket_span(L, K, K)
    lcs = lower_central_series(L)
    c = next((t for t in range(1, len(lcs.members) + 1)
              if kk.contains_space(lcs.member(t + 1))), None)
    k_chain = subring_series(L, K)
    k = k_chain.nilpotency_class()
    if k == 0:
        k = 1  # K = 0 is nilpotent of class 1 just as an abelian subring is
    if c is None or k is None:
        return HallImplicationReport(False, c, k, None, None)
    bound = hall_class_bound(c, k)
    holds = lcs.member(bound + 1).is_zero()
    return HallImplicationReport(True, c, k, bound, holds)


# --- ad-nilpotency ---


def ad_nilpotency_index(L: GradedLieRing, y: Sequence) -> int | None:
    """Least t with (ad y)**t = 0, or None when ad y is not nilpotent."""
    R = L.ring
    mat = L.ad_matrix(L.element(y))
    if R.kind == "IntegersMod":
        cap = L.rank * sum(factorize(R.modulus).values())
    else:
        # fields and characteristic-0 domains: nilpotency forces index <= rank
        cap = L.rank
    ad_t = mat_identity(R, L.rank)
    for t in range(1, cap + 1):
        ad_t = mat_mul(R, ad_t, mat)
        if all(R.is_zero(c) for row in ad_t for c in row):
            return t
    return None


# --- Vandermonde extraction ---


@dataclass(frozen=True)
class VandermondeExtraction:
    l0: int
    lambdas: tuple[tuple, ...]  # lambdas[s][j] multiplies z*phi**j


def vandermonde_extract(
    L: GradedLieRing,
    items: Sequence[tuple[int, Sequence]],
    phi: Sequence[Sequence],
    n: int,
) -> VandermondeExtraction:
    """Coefficients recovering each eigencomponent from z = sum of the given
    components, using powers of phi only.

    For every s: n**l0 * y_{k_s} = sum_j lambdas[s][j] * (phi**j z), checked
    exactly before returning.  Needs the Cyclotomic(n) coefficient ring.
    """
    R = L.ring
    if R.kind != "Cyclotomic" or R.n != n:
        raise InputError("requires the Cyclotomic(n) coefficient ring")
    if not items:
        raise InputError("need at least one component")
    ks = [k for k, _ in items]
    if any(not 0 <= k < n for k in ks) or sorted(set(ks)) != ks:
        raise InputError("component indices must be strictly increasing in [0, n)")
    ys = [L.element(y) for _, y in items]
    m = len(items)
    (mat,) = _checked_matrices(L, [phi])

    from .linalg import ring_adjugate  # local: avoids polluting module surface

    vand = [[R.pow_omega(j * k % n) for k in ks] for j in range(m)]
    adj = ring_adjugate(R, vand)
    # n / (1 - omega**t) = product of the other (1 - omega**t') factors
    one_minus = [R.sub(R.one(), R.pow_omega(t)) for t in range(n)]
    mult = R.one()
    for a in range(m):
        for b in range(a + 1, m):
            t = (ks[b] - ks[a]) % n
            term = R.pow_omega((n - ks[a]) % n)
            for tp in range(1, n):
                if tp != t:
                    term = R.mul(term, one_minus[tp])
            mult = R.mul(mult, R.neg(term))
    lambdas = tuple(
        tuple(R.mul(mult, adj[s][j]) for j in range(m)) for s in range(m)
    )
    l0 = m * (m - 1) // 2

    z = L.zero_vector()
    for y in ys:
        z = [R.add(a, b) for a, b in zip(z, y)]
    shifted = []
    cur = list(z)
    for _ in range(m):
        shifted.append(cur)
        cur = mat_apply(R, mat, cur)
    n_pow = R.canon(n**l0)
    for s in range(m):
        want = [R.mul(n_pow, c) for c in ys[s]]
        got = L.zero_vector()
        for j in range(m):
            got = [R.add(a, R.mul(lambdas[s][j], b)) for a, b in zip(got, shifted[j])]
        if want != got:
            raise InputError("substitution check failed; inputs are not eigenvectors")
    return VandermondeExtraction(l0, lambdas)


# --- example algebras ---


@dataclass(frozen=True)
class ExampleAction:
    lie: GradedLieRing
    f: tuple[tuple[tuple, ...], ...]  # three commuting involutions
    h: tuple[tuple, ...]              # order-3 cycle with h f_i h^-1 = f_{i+1}


def _cyclic_brackets(scale) -> dict:
    # [e1,e2] = s*e3, [e2,e3] = s*e1, [e3,e1] = s*e2 as i<j entries
    return {(0, 1): {2: scale}, (1, 2): {0: scale}, (0, 2): {1: -scale}}


def _fh_matrices(ring: Ring):
    one, neg = ring.one(), ring.canon(-1)
    zero = ring.zero()
    f = []
    for i in range(3):
        f.append(tuple(
            tuple((one if i == j else neg) if j == t else zero for t in range(3))
            for j in range(3)
        ))
    h = tuple(tuple(one if i == (j + 1) % 3 else zero for j in range(3)) for i in range(3))
    return tuple(f), h


def _check_fh_relations(L: GradedLieRing, f, h) -> None:
    R = L.ring
    ident = mat_identity(R, 3)
    fl = [[list(r) for r in m] for m in f]
    hl = [list(r) for r in h]
    for i in range(3):
        if mat_mul(R, fl[i], fl[i]) != ident:
            raise RuntimeError(f"f{i + 1} is not an involution")
        if mat_mul(R, fl[i], fl[(i + 1) % 3]) != [list(r) for r in f[(i + 2) % 3]]:
            raise RuntimeError(f"f{i + 1} f{(i + 1) % 3 + 1} is not f{(i + 2) % 3 + 1}")
    h2 = mat_mul(R, hl, hl)
    if mat_mul(R, h2, hl) != ident:
        raise RuntimeError("h does not have order 3")
    for i in range(3):
        # h f_i h^-1 = f_{i+1}; h^-1 = h^2
        conj = mat_mul(R, mat_mul(R, hl, fl[i]), h2)
        if conj != fl[(i + 1) % 3]:
            raise RuntimeError(f"h does not conjugate f{i + 1} to f{(i + 1) % 3 + 1}")
    # closure of {f_1, f_2, f_3, h} has exactly 12 elements
    gens = [tuple(map(tuple, m)) for m in fl + [hl]]
    closure = orbit(
        [tuple(map(tuple, ident))] + gens,
        lambda a: (tuple(map(tuple, mat_mul(R, a, g))) for g in gens),
    )
    size = sum(1 for _ in closure)
    if size != 12:
        raise RuntimeError(f"f and h generate {size} matrices, not 12")
    for m in f + (h,):
        issues = automorphism_issues(L, m)
        if issues:
            raise RuntimeError("not a Lie automorphism: " + "; ".join(issues))


def example_simple3(ring: Ring) -> ExampleAction:
    """Rank-3 ring with [e1,e2]=e3 cyclically, plus its involution/rotation
    action; needs 1 + 1 != 0."""
    if ring.is_zero(ring.add(ring.one(), ring.one())):
        raise InputError("characteristic 2 is excluded")
    L = GradedLieRing(ring, 3, _cyclic_brackets(1))
    f, h = _fh_matrices(ring)
    _check_fh_relations(L, f, h)
    return ExampleAction(L, f, h)


def example_pm(p: int, m: int) -> ExampleAction:
    """Same shape over Z/p**m with brackets scaled by p; nilpotent of class
    exactly m."""
    from .rings import IntegersModRing, is_prime

    if p == 2 or not is_prime(p):
        raise InputError("p must be an odd prime")
    if m < 1:
        raise InputError("m must be at least 1")
    ring = IntegersModRing(p**m)
    L = GradedLieRing(ring, 3, _cyclic_brackets(p))
    f, h = _fh_matrices(ring)
    _check_fh_relations(L, f, h)
    return ExampleAction(L, f, h)
