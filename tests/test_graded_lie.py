"""Structure-constant Lie rings: construction, series, centralizers,
eigenspace decompositions, and the worked examples."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import graded_lie as gl
from flab.combinatorics import FrobeniusParams
from flab.errors import InputError
from flab.linalg import Subspace, mat_identity, mat_mul
from flab.rings import (
    CyclotomicRing,
    IntegersModRing,
    IntegersRing,
    PrimeFieldRing,
    RationalsRing,
    factorize,
)


def heis(ring):
    # [e0, e1] = e2, everything else zero
    return gl.GradedLieRing(ring, 3, {(0, 1): {2: 1}})


# --- construction and bracket plumbing ---


@st.composite
def _table_ring_and_pair(draw):
    p, m = draw(st.sampled_from([(2, 1), (3, 2), (5, 1), (7, 1), (2, 3)]))
    R = IntegersModRing(p**m)
    rank = draw(st.integers(1, 6))
    index = st.integers(0, rank - 1)
    coeff = st.integers(-p**m, p**m)
    # either orientation of a pair, the diagonal, zero constants and vectors
    brackets = draw(st.dictionaries(st.tuples(index, index),
                                    st.dictionaries(index, coeff, max_size=rank),
                                    max_size=rank * rank))
    vec = st.lists(coeff, min_size=rank, max_size=rank)
    L = gl.GradedLieRing(R, rank, brackets)
    return L, L.element(draw(vec)), L.element(draw(vec))


@settings(max_examples=200, deadline=None)
@given(_table_ring_and_pair())
def test_bracket_matches_the_dense_definition(case):
    # sum over every pair i < j of (x_i y_j - x_j y_i) times [b_i, b_j]
    L, x, y = case
    R = L.ring
    want = L.zero_vector()
    for i in range(L.rank):
        for j in range(i + 1, L.rank):
            c = R.sub(R.mul(x[i], y[j]), R.mul(x[j], y[i]))
            for k, s in enumerate(L.structure_constant(i, j)):
                want[k] = R.add(want[k], R.mul(c, s))
    assert L.bracket(x, y) == want


def test_bracket_bilinear_and_antisymmetric():
    L = gl.example_simple3(PrimeFieldRing(7)).lie
    R = L.ring
    rng = random.Random(11)
    for _ in range(30):
        x = [R.canon(rng.randrange(7)) for _ in range(3)]
        y = [R.canon(rng.randrange(7)) for _ in range(3)]
        z = [R.canon(rng.randrange(7)) for _ in range(3)]
        xy = L.bracket(x, y)
        assert L.bracket(y, x) == [R.neg(c) for c in xy]
        xz = L.bracket(x, z)
        both = L.bracket(x, [R.add(a, b) for a, b in zip(y, z)])
        assert both == [R.add(a, b) for a, b in zip(xy, xz)]
        assert L.bracket(x, x) == L.zero_vector()


def test_structure_constant_completion():
    L = heis(IntegersRing())
    assert L.structure_constant(0, 1) == (0, 0, 1)
    assert L.structure_constant(1, 0) == (0, 0, -1)
    assert L.structure_constant(2, 2) == (0, 0, 0)
    assert L.structure_constant(0, 2) == (0, 0, 0)


def test_ad_matrix_columns_are_bracket_images():
    L = gl.example_simple3(RationalsRing()).lie
    y = L.element([1, 2, 0])
    M = L.ad_matrix(y)
    for j in range(3):
        col = [M[i][j] for i in range(3)]
        assert col == L.bracket(y, L.basis_vector(j))


def test_constructor_rejects_bad_input():
    with pytest.raises(InputError):
        gl.GradedLieRing(IntegersRing(), 0, {})
    with pytest.raises(InputError):
        gl.GradedLieRing(IntegersRing(), 2, {(0, 3): {0: 1}})
    with pytest.raises(InputError):
        gl.GradedLieRing(IntegersRing(), 2, {(0, 1): {5: 1}})
    with pytest.raises(InputError):
        gl.GradedLieRing(IntegersRing(), 2, {}, grading=[1, 2])
    with pytest.raises(InputError):
        gl.GradedLieRing(IntegersRing(), 2, {}, grading=[1], grade_modulus=7)


def test_json_round_trip():
    for L in (
        heis(IntegersModRing(9)),
        gl.GradedLieRing(PrimeFieldRing(5), 2, {(0, 1): {0: 2, 1: 3}},
                         grading=[1, 2], grade_modulus=7),
    ):
        data = L.to_json()
        back = gl.GradedLieRing.from_json(data)
        assert back.to_json() == data
        assert back.rank == L.rank
        for i in range(L.rank):
            for j in range(L.rank):
                assert back.structure_constant(i, j) == L.structure_constant(i, j)


# --- validation ---


def test_validate_good_ring():
    report = gl.validate(heis(IntegersRing()))
    assert report.valid and report.issues == ()


def test_validate_flags_jacobi():
    # [e0,e1]=e2, [e0,e2]=e0: the Jacobi sum on (e0,e1,e2) is -e2
    L = gl.GradedLieRing(IntegersRing(), 3,
                         {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = gl.validate(L)
    assert not report.valid
    assert any(issue.kind == "jacobi" for issue in report.issues)


def test_validate_flags_antisymmetry():
    L = gl.GradedLieRing(IntegersModRing(4), 2, {(0, 0): {1: 2}})
    report = gl.validate(L)
    assert any(issue.kind == "antisymmetry" for issue in report.issues)


def test_validate_flags_grading():
    # e2 should live in grade 1+2; give it grade 1 instead
    L = gl.GradedLieRing(IntegersRing(), 3, {(0, 1): {2: 1}},
                         grading=[1, 2, 1], grade_modulus=5)
    report = gl.validate(L)
    assert not report.valid
    assert any(issue.kind == "grading" for issue in report.issues)
    fixed = gl.GradedLieRing(IntegersRing(), 3, {(0, 1): {2: 1}},
                             grading=[1, 2, 3], grade_modulus=5)
    assert gl.validate(fixed).valid


# --- series ---


def test_simple3_is_perfect():
    L = gl.example_simple3(PrimeFieldRing(5)).lie
    chain = gl.lower_central_series(L)
    assert chain.member(2) == L.full_space()
    assert chain.nilpotency_class() is None
    assert gl.derived_series(L).derived_length() is None


def test_pm_class_is_exactly_m():
    for p in (3, 5, 7):
        for m in (1, 2, 3):
            L = gl.example_pm(p, m).lie
            chain = gl.lower_central_series(L)
            assert chain.nilpotency_class() == m
            assert not chain.member(m).is_zero()


def test_heisenberg_series():
    L = heis(IntegersRing())
    chain = gl.lower_central_series(L)
    assert chain.nilpotency_class() == 2
    assert [list(g) for g in chain.member(2).gens()] == [[0, 0, 1]]
    assert gl.derived_series(L).derived_length() == 2


def test_heisenberg_with_a_huge_constant_keeps_class_2():
    L = gl.GradedLieRing(IntegersRing(), 3, {(0, 1): {2: 2**200}})
    chain = gl.lower_central_series(L)
    assert chain.nilpotency_class() == 2
    assert [list(g) for g in chain.member(2).gens()] == [[0, 0, 2**200]]
    assert gl.derived_series(L).derived_length() == 2


def test_subring_series_of_ideal():
    L = gl.example_pm(5, 2).lie
    K = gl._bracket_span(L, L.full_space(), L.full_space())
    chain = gl.subring_series(L, K)
    assert chain.member(1) == K
    assert chain.nilpotency_class() == 1


def test_generated_subring_of_two_basis_vectors():
    # a perfect ring: e1 and e2 give [e1, e2] = e3, so all of it
    for ring in (PrimeFieldRing(7), IntegersRing()):
        L = gl.example_simple3(ring).lie
        assert gl.generated_subring(L, L.span([L.basis_vector(0), L.basis_vector(1)])) \
            == L.full_space()
    # over Z/25 with brackets scaled by 5: e1, e2 and [e1, e2] = 5 e3, whose
    # brackets with e1 and e2 are 25 e2 = 25 e1 = 0
    L = gl.example_pm(5, 2).lie
    M = L.span([[1, 0, 0], [0, 1, 0]])
    assert gl.generated_subring(L, M) == L.span([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    H = heis(IntegersRing())
    assert gl.generated_subring(H, H.span([[1, 0, 0]])) == H.span([[1, 0, 0]])
    assert gl.generated_subring(H, H.zero_space()) == H.zero_space()


def test_subring_series_starts_from_the_generated_subring():
    # span(e1, e2) is no subring; the subring it generates is the whole
    # perfect ring, whose series stalls at once
    for ring in (PrimeFieldRing(7), IntegersRing()):
        L = gl.example_simple3(ring).lie
        chain = gl.subring_series(L, L.span([L.basis_vector(0), L.basis_vector(1)]))
        assert chain.members == (L.full_space(),)
        assert chain.nilpotency_class() is None


# --- centralizers, fixed points, automorphisms ---


def test_centralizer_of_center():
    L = heis(IntegersRing())
    assert gl.centralizer(L, [[0, 0, 1]]) == L.full_space()
    C = gl.centralizer(L, [[1, 0, 0]])
    assert C.contains([1, 0, 0]) and C.contains([0, 0, 1])
    assert not C.contains([0, 1, 0])


def test_simple3_fixed_points():
    for ring in (PrimeFieldRing(5), RationalsRing()):
        ex = gl.example_simple3(ring)
        assert gl.fixed_subring(ex.lie, ex.f).is_zero()
        CH = gl.fixed_subring(ex.lie, [ex.h])
        assert CH.rank() == 1
        assert CH.contains([1, 1, 1])


def test_pm_fixed_points():
    ex = gl.example_pm(7, 2)
    assert gl.fixed_subring(ex.lie, ex.f).is_zero()
    CH = gl.fixed_subring(ex.lie, [ex.h])
    assert CH == ex.lie.span([[1, 1, 1]])


def test_automorphism_issues():
    L = heis(IntegersRing())
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert gl.automorphism_issues(L, ident) == []
    # doubling e0 scales the bracket but not e2
    bad = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    issues = gl.automorphism_issues(L, bad)
    assert any("determinant" in s for s in issues)
    # unit determinant but bracket broken
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    issues = gl.automorphism_issues(L, swap)
    assert issues and all("bracket" in s for s in issues)
    with pytest.raises(InputError):
        gl.fixed_subring(L, [swap])


def test_fh_matrices_generate_order_twelve_group():
    ex = gl.example_simple3(RationalsRing())
    R = ex.lie.ring
    seen = {tuple(map(tuple, mat_identity(R, 3)))}
    gens = [tuple(map(tuple, m)) for m in ex.f] + [tuple(map(tuple, ex.h))]
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = tuple(map(tuple, mat_mul(R, [list(r) for r in a],
                                                [list(r) for r in g])))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == 12


# --- selective and scaled nilpotency ---


def test_selective_nilpotency_pass_and_witness():
    params = FrobeniusParams(7, 3, 2)
    # grades 1 and 2: (1,2) and friends are r-dependent at (7,3,2),
    # so a bracket living there is allowed
    L = gl.GradedLieRing(PrimeFieldRing(5), 3, {(0, 1): {2: 1}},
                         grading=[1, 2, 3], grade_modulus=7)
    ok, witness = gl.check_selective_nilpotency(L, 1, params)
    assert ok and witness is None

    # grades (1, 3) are r-independent at (7,3,2); a surviving bracket
    # in that position must be reported
    M = gl.GradedLieRing(PrimeFieldRing(5), 3, {(0, 1): {2: 1}},
                         grading=[1, 3, 4], grade_modulus=7)
    ok, witness = gl.check_selective_nilpotency(M, 1, params)
    assert not ok
    assert witness.grades == (1, 3)
    vec = M.basis_vector(witness.basis_chain[0])
    for idx in witness.basis_chain[1:]:
        vec = M.bracket(vec, M.basis_vector(idx))
    assert any(not M.ring.is_zero(c) for c in vec)


def test_selective_nilpotency_requires_grading():
    params = FrobeniusParams(7, 3, 2)
    with pytest.raises(InputError):
        gl.check_selective_nilpotency(heis(IntegersRing()), 1, params)
    L = gl.GradedLieRing(IntegersRing(), 2, {}, grading=[0, 1], grade_modulus=7)
    with pytest.raises(InputError):
        gl.check_selective_nilpotency(L, 1, params)


def test_scaled_nilpotency():
    L = gl.example_pm(5, 3).lie  # class 3 over Z/125
    assert gl.check_scaled_nilpotency(L, 5, 0, 3)
    assert not gl.check_scaled_nilpotency(L, 5, 0, 2)
    # scaling by 5 kills one level of depth
    assert gl.check_scaled_nilpotency(L, 5, 1, 2)
    assert gl.check_scaled_nilpotency(L, 5, 3, 0)
    with pytest.raises(InputError):
        gl.check_scaled_nilpotency(L, 0, 1, 1)


def test_ad_nilpotency_index():
    L = heis(IntegersRing())
    assert gl.ad_nilpotency_index(L, [1, 0, 0]) == 2
    assert gl.ad_nilpotency_index(L, [0, 0, 1]) == 1
    S = gl.example_simple3(RationalsRing()).lie
    assert gl.ad_nilpotency_index(S, [1, 0, 0]) is None


# --- eigenspace decomposition ---


def test_eigenspace_field_involution():
    ex = gl.example_simple3(PrimeFieldRing(5))
    comps, report = gl.eigenspace_decomposition(ex.lie, ex.f[0], 2, omega=4)
    assert [c.rank() for c in comps] == [1, 2]
    assert comps[0].contains([1, 0, 0])
    assert comps[1].contains([0, 1, 0]) and comps[1].contains([0, 0, 1])
    assert report.spans and report.direct
    assert report.scaled_contained and report.dependencies_annihilated


def test_eigenspace_cyclotomic_default_omega():
    R = CyclotomicRing(3)
    L = gl.GradedLieRing(R, 3, _cyclic(R))
    _, h = gl._fh_matrices(R)
    comps, report = gl.eigenspace_decomposition(L, h, 3)
    # rank counts Z-generators; each eigenline is free of rank 1 over Z[w]
    assert [c.rank() for c in comps] == [2, 2, 2]
    w = R.omega()
    w2 = R.mul(w, w)
    assert comps[0].contains([1, 1, 1])
    assert comps[1].contains([R.one(), w2, w])
    assert comps[2].contains([R.one(), w, w2])
    # over Z[w] the eigenline sum captures 3*L but misses e0 itself
    assert not report.spans and not report.direct
    assert report.scaled_contained and report.dependencies_annihilated
    total = comps[0].sum(comps[1]).sum(comps[2])
    assert total.contains([3, 0, 0]) and not total.contains([1, 0, 0])


def _cyclic(R):
    return {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}


def test_eigenspace_defect_over_z4():
    # rank-1 abelian ring over Z/4 under negation: the eigenspaces
    # overlap in 2Z/4, so the sum spans but is not direct
    L = gl.GradedLieRing(IntegersModRing(4), 1, {})
    comps, report = gl.eigenspace_decomposition(L, [[3]], 2, omega=3)
    assert comps[0] == L.span([[2]])
    assert comps[1] == L.full_space()
    assert report.spans and not report.direct
    assert report.scaled_contained and report.dependencies_annihilated


def test_eigenspace_rejects_bad_omega():
    L = gl.GradedLieRing(PrimeFieldRing(5), 1, {})
    with pytest.raises(InputError, match=r"^omega has order dividing 1, not 2$"):
        gl.eigenspace_decomposition(L, [[1]], 2, omega=1)
    with pytest.raises(InputError, match=r"^omega has order dividing 2, not 4$"):
        gl.eigenspace_decomposition(L, [[1]], 4, omega=4)
    with pytest.raises(InputError, match=r"^omega\*\*n is not 1$"):
        gl.eigenspace_decomposition(L, [[1]], 2, omega=2)
    with pytest.raises(InputError, match=r"^phi\*\*n is not the identity$"):
        gl.eigenspace_decomposition(L, [[2]], 2, omega=4)
    with pytest.raises(InputError, match="^omega must be supplied for this ring$"):
        gl.eigenspace_decomposition(L, [[1]], 3)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_root_order_check_matches_the_multiplicative_order(p):
    # omega passes for n exactly when its order is n; otherwise the message
    # names n // ell for the first prime ell of n whose quotient omega's
    # order divides, or says omega**n is not 1
    R = PrimeFieldRing(p)
    for omega in range(1, p):
        order = next(t for t in range(1, p) if pow(omega, t, p) == 1)
        for n in range(1, 2 * p):
            if n % order:
                expected = "omega**n is not 1"
            else:
                ell = next((ell for ell in factorize(n) if (n // ell) % order == 0), None)
                expected = None if ell is None else f"omega has order dividing {n // ell}, not {n}"
            try:
                gl._verify_root_order(R, omega, n)
                got = None
            except InputError as exc:
                got = str(exc)
            assert got == expected, (omega, n)


def test_vandermonde_extract():
    R = CyclotomicRing(2)
    L = gl.GradedLieRing(R, 2, {})
    phi = [[R.one(), R.zero()], [R.zero(), R.canon(-1)]]
    out = gl.vandermonde_extract(L, [(0, [1, 0]), (1, [0, 1])], phi, 2)
    assert out.l0 == 1
    assert len(out.lambdas) == 2
    with pytest.raises(InputError):
        gl.vandermonde_extract(L, [(1, [1, 0]), (0, [0, 1])], phi, 2)


def test_vandermonde_requires_cyclotomic():
    L = gl.GradedLieRing(PrimeFieldRing(5), 1, {})
    with pytest.raises(InputError):
        gl.vandermonde_extract(L, [(0, [1])], [[1]], 1)


# --- Hall bound ---


def test_hall_class_bound_values():
    assert gl.hall_class_bound(1, 2) == 2
    assert gl.hall_class_bound(2, 2) == 5
    assert gl.hall_class_bound(1, 1) == 1
    assert gl.hall_class_bound(3, 2) == 8
    for c in range(1, 5):
        for k in range(1, 5):
            expect = c * math.comb(k + 1, 2) - math.comb(k, 2)
            assert gl.hall_class_bound(c, k) == expect
    with pytest.raises(InputError):
        gl.hall_class_bound(0, 1)
    with pytest.raises(InputError):
        gl.hall_class_bound(1, 0)


def test_hall_implication_on_heisenberg():
    L = heis(IntegersRing())
    K = gl._bracket_span(L, L.full_space(), L.full_space())
    report = gl.verify_hall_implication(L, K)
    assert report.applicable and report.holds
    assert report.c == 2 and report.k == 1 and report.bound == 2


def test_hall_implication_rejects_non_ideal():
    L = heis(IntegersRing())
    with pytest.raises(InputError):
        gl.verify_hall_implication(L, L.span([[1, 0, 0]]))


def test_hall_implication_not_applicable_when_not_nilpotent():
    L = gl.example_simple3(RationalsRing()).lie
    K = gl._bracket_span(L, L.full_space(), L.full_space())
    report = gl.verify_hall_implication(L, K)
    assert not report.applicable
    assert report.bound is None and report.holds is None


def random_matrix_lie_ring(rng, p, size):
    """Lie subring generated by two random strictly upper triangular
    size x size matrices over F_p, rewritten in its own basis."""
    from flab.linalg import field_solve

    R = PrimeFieldRing(p)
    dim = size * size

    def flat(m):
        return [m[i][j] for i in range(size) for j in range(size)]

    def commutator(a, b):
        ab = mat_mul(R, a, b)
        ba = mat_mul(R, b, a)
        return [[R.sub(ab[i][j], ba[i][j]) for j in range(size)] for i in range(size)]

    gens = []
    for _ in range(2):
        m = [[R.zero()] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                m[i][j] = R.canon(rng.randrange(p))
        gens.append(m)
    mats = list(gens)
    span = Subspace.span(R, dim, [flat(m) for m in mats])
    while True:
        new = []
        for a in mats:
            for b in gens:
                c = commutator(a, b)
                if not span.contains(flat(c)):
                    new.append(c)
                    span = span.sum(Subspace.span(R, dim, [flat(c)]))
        if not new:
            break
        mats.extend(new)
    basis_flat = [list(v) for v in span.gens()]
    rank = len(basis_flat)
    if rank == 0:
        return None
    basis = [[[v[i * size + j] for j in range(size)] for i in range(size)]
             for v in basis_flat]
    brackets = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            target = flat(commutator(basis[i], basis[j]))
            coeffs = field_solve(R, basis_flat, target)
            assert coeffs is not None
            brackets[(i, j)] = {k: c for k, c in enumerate(coeffs)}
    return gl.GradedLieRing(R, rank, brackets)


def test_hall_implication_randomized():
    rng = random.Random(2026)
    checked = 0
    while checked < 12:
        L = random_matrix_lie_ring(rng, rng.choice([2, 3, 5]), rng.choice([3, 4]))
        if L is None or L.rank > 5:
            continue
        assert gl.validate(L).valid
        K = gl._bracket_span(L, L.full_space(), L.full_space())
        report = gl.verify_hall_implication(L, K)
        assert report.applicable
        assert report.holds
        checked += 1


# --- worked examples ---


def test_example_constructor_validation():
    with pytest.raises(InputError):
        gl.example_simple3(PrimeFieldRing(2))
    with pytest.raises(InputError):
        gl.example_pm(2, 1)
    with pytest.raises(InputError):
        gl.example_pm(9, 1)
    with pytest.raises(InputError):
        gl.example_pm(5, 0)


def test_example_pm_bracket_scale():
    ex = gl.example_pm(5, 2)
    assert ex.lie.structure_constant(0, 1) == (0, 0, 5)
    assert ex.lie.ring.modulus == 25
    assert gl.validate(ex.lie).valid
