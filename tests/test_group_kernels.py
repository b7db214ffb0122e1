"""The group kernels against independent oracles: subgroup closure against
breadth-first search, the subgroup and normality tests against their
all-element definitions, the subgroup lattice against closed-form counts,
Light's associativity test against a brute-force triple check, the table
refusal messages against the group laws checked one by one, and the
batched Hausdorff-product group against per-id evaluation of the full
degree-3 series and on the inputs it must refuse; then the element laws
against their mul/inv definitions, the Lazard group's coordinate powers and
orders against iterated products, its lower central series against its Lie
ring's, and the table-only calls that refuse a Lazard group by name."""
from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisor_count, divisor_sigma

import flab
from flab import cli
from flab import graded_lie as gl
from flab import group_engine as ge
from flab.combinatorics import FrobeniusParams
from flab.errors import CapacityError, InputError
from flab.linalg import mat_apply
from flab.rings import IntegersModRing


def bfs_closure(G, gens) -> frozenset:
    """Oracle: right-multiply the frontier by every generator until no new
    element appears."""
    gens = list(gens)
    members = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


@functools.cache
def closure_group(name: str):
    if name == "BCH(5,1)":
        return ge.BCHGroup(gl.example_pm(5, 1).lie)
    return ge.named_group(name)


CLOSURE_GROUPS = sorted(ge.NAMED_GROUPS) + ["BCH(5,1)"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subgroup_closure_matches_bfs(data):
    G = closure_group(data.draw(st.sampled_from(CLOSURE_GROUPS)))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert ge.subgroup_closure(G, gens) == bfs_closure(G, gens)


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_subgroup_closure_edge_cases(name):
    G = closure_group(name)
    assert ge.subgroup_closure(G, []) == frozenset({G.identity})
    assert ge.subgroup_closure(G, [G.identity]) == frozenset({G.identity})
    everything = range(G.order)
    assert ge.subgroup_closure(G, everything) == frozenset(everything)
    # a generator iterator is consumed once
    assert ge.subgroup_closure(G, iter([G.order - 1])) == bfs_closure(G, [G.order - 1])


def subgroup_by_all_pairs(G, S) -> bool:
    """Oracle: the identity is in S and so is every product of two members."""
    return G.identity in S and all(G.mul(a, b) in S for a in S for b in S)


def normal_by_all_elements(G, S) -> bool:
    """Oracle: conjugation by every element of G maps S into itself."""
    return all(G.conjugate(g, x) in S for x in S for g in range(G.order))


def normal_closure_by_all_conjugates(G, gens) -> frozenset:
    """Oracle: the subgroup generated by every conjugate of every generator."""
    return ge.subgroup_closure(G, {G.conjugate(g, x) for x in gens for g in range(G.order)})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subgroup_and_normality_tests_match_the_all_element_definitions(data):
    G = closure_group(data.draw(st.sampled_from(CLOSURE_GROUPS)))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    extra = data.draw(st.frozensets(st.integers(0, G.order - 1), max_size=3))
    closed = ge.subgroup_closure(G, gens)
    for S in (closed, closed | extra, closed - extra, extra):
        assert ge.is_subgroup(G, S) == subgroup_by_all_pairs(G, S)
        assert ge.is_normal(G, S) == normal_by_all_elements(G, S)
    assert ge.normal_closure(G, gens) == normal_closure_by_all_conjugates(G, gens)


# --- the lattice against closed-form counts ---


def _is_lattice(G, subs) -> bool:
    return (
        len(set(subs)) == len(subs)
        and all(ge.is_subgroup(G, S) for S in subs)
        and subs == sorted(subs, key=lambda s: (len(s), sorted(s)))
    )


@pytest.mark.parametrize("n", list(range(1, 41)) + [48, 60, 64, 96, 120])
def test_cyclic_lattice_has_tau_subgroups(n):
    G = ge.cyclic_group(n)
    subs = ge.all_subgroups(G)
    assert len(subs) == divisor_count(n)
    assert _is_lattice(G, subs)


@pytest.mark.parametrize("n", list(range(1, 25)) + [30, 32, 60])
def test_dihedral_lattice_has_tau_plus_sigma_subgroups(n):
    G = ge.dihedral_group(n)
    subs = ge.all_subgroups(G)
    assert len(subs) == divisor_count(n) + divisor_sigma(n)
    assert _is_lattice(G, subs)


def test_elementary_abelian_lattices():
    assert len(ge.all_subgroups(ge.elementary_abelian_group(2, 3))) == 16
    for p in (2, 3, 5, 7, 11):
        assert len(ge.all_subgroups(ge.elementary_abelian_group(p, 2))) == p + 3


# --- associativity against the brute-force triple check ---


def switched_cyclic(n: int, a: int, b: int) -> list[list[int]]:
    """Z/n (n even) with the intercalate on rows {a, a+n/2} and columns
    {b, b+n/2} switched: still a Latin square, rarely associative."""
    h = n // 2
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r in (a, a + h):
        for c in (b, b + h):
            t[r][c] = (t[r][c] + h) % n
    return t


def brute_is_group(t) -> tuple[bool, bool]:
    """(has a two-sided identity, is a group), by checking every triple."""
    n = len(t)
    ident = next(
        (e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None
    )
    if ident is None:
        return False, False
    assoc = all(
        t[t[x][y]][z] == t[x][t[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )
    inverses = all(ident in t[x] and t[t[x].index(ident)][x] == ident for x in range(n))
    return True, assoc and inverses


def refusal(t) -> str | None:
    """FiniteGroup's InputError message for t, or None when it accepts t."""
    try:
        ge.FiniteGroup(t)
    except InputError as exc:
        return str(exc)
    return None


def test_light_test_agrees_with_triples_on_switched_cyclic_tables():
    loops = rejected_as_nonassociative = 0
    for n in range(2, 21, 2):
        for a in range(n // 2):
            for b in range(n // 2):
                t = switched_cyclic(n, a, b)
                has_identity, group = brute_is_group(t)
                message = refusal(t)
                assert (message is None) == group, (n, a, b, message)
                loops += has_identity
                rejected_as_nonassociative += message == "table is not associative"
    # identity survives unless the switch touches row or column 0; only the
    # Z/2 relabelling (n = 2) and the Klein four-group (n = 4, a = b = 1)
    # come out associative
    assert loops == 286
    assert rejected_as_nonassociative == 284


def times_z2(t) -> list[list[int]]:
    """Z/2 x t with id 2*x + z.  When t's identity is 0, id 1 = (0, 1) is
    central and associates with everything: the first element Light's test
    picks cannot expose a non-associative t, and a later one must."""
    m = 2 * len(t)
    return [[2 * t[x // 2][y // 2] + (x + y) % 2 for y in range(m)] for x in range(m)]


def test_light_test_checks_every_generator():
    for n in range(2, 11, 2):
        for a in range(n // 2):
            for b in range(n // 2):
                t = times_z2(switched_cyclic(n, a, b))
                _, group = brute_is_group(t)
                assert (refusal(t) is None) == group, (n, a, b)


@pytest.mark.parametrize("n", [514, 600, 1000])
def test_large_nonassociative_tables_are_refused(n):
    # these pass the identity and inverse laws, and so few of their triples
    # fail associativity that a sample of 4,000 misses them all
    h = n // 2
    for a, b in ((1, 1), (2, h // 3), (h - 1, h - 2)):
        with pytest.raises(InputError, match="table is not associative"):
            ge.FiniteGroup(switched_cyclic(n, a, b))


def test_large_groups_pass_the_exact_test():
    # above the old exhaustive bound; (Z/2)^10 as XOR needs the most
    # generators, one per doubling
    xor = ge.FiniteGroup([[a ^ b for b in range(1024)] for a in range(1024)])
    for G, order, exponent in ((ge.cyclic_group(520), 520, 520),
                               (ge.dihedral_group(300), 600, 300),
                               (xor, 1024, 2)):
        assert (G.order, G.exponent()) == (order, exponent)


# --- refusal messages against the laws checked one by one ---


def reference_refusal(t) -> str | None:
    """The message for a square table with ids in range, or None for a
    group, checking by the definitions in the order rows, columns,
    identity over every id, associativity over every triple, inverse law."""
    n = len(t)
    ids = list(range(n))
    if any(sorted(row) != ids for row in t):
        return "each table row must permute the element ids"
    if any(sorted(col) != ids for col in zip(*t)):
        return "each table column must permute the element ids"
    ident = next((e for e in ids if all(t[e][x] == x == t[x][e] for x in ids)), None)
    if ident is None:
        return "table has no two-sided identity"
    if any(t[t[x][y]][z] != t[x][t[y][z]] for x in ids for y in ids for z in ids):
        return "table is not associative"
    if any(t[t[x].index(ident)][x] != ident for x in ids):
        return "inverse law fails"
    return None


def test_every_table_of_order_2_and_3_gets_the_reference_verdict():
    seen = {}
    for n in (2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            t = [list(entries[i:i + n]) for i in range(0, n * n, n)]
            message = reference_refusal(t)
            assert refusal(t) == message, t
            seen[message] = seen.get(message, 0) + 1
    # 4 + 216 tables have permuting rows, 2 + 12 are Latin squares, and
    # those with an identity are Z/2 in 2 labellings and Z/3 in 3: a Latin
    # square of order at most 3 with an identity is a group
    assert seen == {None: 5, "each table row must permute the element ids": 19479,
                    "each table column must permute the element ids": 206,
                    "table has no two-sided identity": 9}


_SMALL_GROUPS = (
    [[(x + y) % 4 for y in range(4)] for x in range(4)],
    [[x ^ y for y in range(4)] for x in range(4)],
    [[(x + y) % 5 for y in range(5)] for x in range(5)],
    [[(x + y) % 6 for y in range(6)] for x in range(6)],
    ge.dihedral_group(3).table.tolist(),
)
# Latin squares isotopic to no group: a loop of order 5 with 1*1 = 0, and
# Z/6 with one intercalate switched
_NON_GROUP_SQUARES = (
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    switched_cyclic(6, 1, 2),
)


@st.composite
def row_permuting_tables(draw):
    """Tables of order 4-6 whose rows permute the ids: relabelled groups,
    random rows (the columns then nearly always repeat), or isotopes
    x*y = c(L(a(x), b(y))) of a Latin square L isotopic to no group.  For
    some of the last two, e becomes a two-sided identity: in random rows
    by swapping one entry in each row, and in an isotope M by its
    principal isotope x*y = M(u(x), v(y)), with u and v the inverses of
    column e and row e of M, a Latin square with identity M(e, e) that is
    not associative."""
    kind = draw(st.sampled_from(["group", "rows", "isotope"]))
    if kind == "group":
        base = draw(st.sampled_from(_SMALL_GROUPS))
        n = len(base)
        p = draw(st.permutations(range(n)))
        t = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                t[p[x]][p[y]] = p[base[x][y]]
        return t
    if kind == "rows":
        n = draw(st.integers(4, 6))
        t = [list(draw(st.permutations(range(n)))) for _ in range(n)]
    else:
        base = draw(st.sampled_from(_NON_GROUP_SQUARES))
        n = len(base)
        a, b, c = (draw(st.permutations(range(n))) for _ in range(3))
        t = [[c[base[a[x]][b[y]]] for y in range(n)] for x in range(n)]
    if not draw(st.booleans()):
        return t
    e = draw(st.integers(0, n - 1))
    if kind == "isotope":
        u, v = [0] * n, [0] * n
        for x in range(n):
            u[t[x][e]], v[t[e][x]] = x, x
        return [[t[u[x]][v[y]] for y in range(n)] for x in range(n)]
    t[e] = list(range(n))
    for x, row in enumerate(t):
        j = row.index(x)
        row[e], row[j] = row[j], row[e]
    return t


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row_permuting_tables())
def test_row_permuting_tables_get_the_reference_verdict(t):
    assert refusal(t) == reference_refusal(t)


_OPTIMIZED_SCRIPT = """
import flab.graded_lie as gl
import flab.group_engine as ge
from flab.errors import InputError
from flab.linalg import rref
from flab.rings import IntegersModRing

if __debug__:
    raise SystemExit("not running under -O")
bad = [[(i + j) % 6 for j in range(6)] for i in range(6)]
bad[1][1], bad[1][4], bad[4][1], bad[4][4] = 5, 2, 2, 5
try:
    ge.FiniteGroup(bad)
except InputError as exc:
    print("table:", exc)
ge.is_automorphism = lambda G, perm: False
try:
    ge.build_field_action(2, 2)
except RuntimeError as exc:
    print("field:", exc)
try:
    rref(IntegersModRing(6), [[1, 2]])
except InputError as exc:
    print("rref:", exc)
gl.automorphism_issues = lambda L, M: ["made up"]
try:
    gl.example_pm(5, 1)
except RuntimeError as exc:
    print("example:", exc)
"""


def test_invariants_survive_optimized_mode():
    src = str(Path(flab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout.splitlines()
    assert out == [
        "table: table is not associative",
        "field: f is not an automorphism; h is not an automorphism",
        "rref: row reduction needs a field, not IntegersModRing(6)",
        "example: not a Lie automorphism: made up",
    ]


def test_filtration_dims_refuses_non_prime_power_quotients():
    filt = ge.Filtration(2, (frozenset(range(6)), frozenset({0})))
    with pytest.raises(InputError):
        filt.dims()


# --- the Hausdorff-product group against per-id evaluation ---


def transport_oracle(G, matrix) -> tuple[int, ...]:
    """The per-id transport: decode, apply the matrix over the ring, encode."""
    R = G.lie.ring
    return tuple(
        G.encode(tuple(int(c) for c in mat_apply(R, matrix, [R.canon(c) for c in G.decode(a)])))
        for a in range(G.order)
    )


def hausdorff_oracle(G, a: int, b: int) -> int:
    """x + y + [x,y]/2 + [x,[x,y]]/12 - [y,[x,y]]/12 through the Lie ring's
    own bracket."""
    L, m = G.lie, G.modulus
    x, y = list(G.decode(a)), list(G.decode(b))
    z = L.bracket(x, y)
    half, tw = pow(2, -1, m), pow(12, -1, m)
    return G.encode(tuple(
        x[t] + y[t] + half * z[t] + tw * (u - v)
        for t, u, v in zip(range(G.rank), L.bracket(x, z), L.bracket(y, z))
    ))


def filiform(p: int) -> gl.GradedLieRing:
    """[e1,e2] = e3, [e1,e3] = e4 over Z/p: class 3, so every term of the
    product formula is live (example_pm(p, m) stops at class m <= 2 here)."""
    return gl.GradedLieRing(IntegersModRing(p), 4, {(0, 1): {2: 1}, (0, 2): {3: 1}})


def heisenberg(p: int) -> gl.GradedLieRing:
    """[e1,e2] = e3 over Z/p: class 2, order p^3."""
    return gl.GradedLieRing(IntegersModRing(p), 3, {(0, 1): {2: 1}})


@functools.cache
def bch_group(key):
    if key == "filiform5":
        return ge.BCHGroup(filiform(5))
    if key == "heisenberg5":
        return ge.BCHGroup(heisenberg(5))
    return ge.BCHGroup(gl.example_pm(*key).lie)


BCH_KEYS = [(5, 1), (7, 1), (11, 1), (5, 2), "filiform5"]


@pytest.mark.parametrize("pm", [(5, 1), (7, 1), (11, 1), (5, 2), (7, 2)])
def test_transport_matches_per_id_oracle(pm):
    ex = gl.example_pm(*pm)
    G = ge.BCHGroup(ex.lie)
    autos = list(ex.f) + [ex.h]
    if pm == (7, 2):  # the cap's group, where the oracle takes 2.5 s per map;
        autos = [ex.f[0]]  # f1 has the entries p^m - 1, the largest products
    for matrix in autos:
        assert G.transport(matrix) == transport_oracle(G, matrix)


def test_transport_matches_oracle_on_a_class_3_ring():
    G = bch_group("filiform5")
    assert G.lie_class == 3
    # e1 -> 2e1 and e2 -> e2 + e3 force e3 -> 2e3 + 2e4 and e4 -> 4e4;
    # column j is the image of e_j
    matrix = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 1, 2, 0], [0, 0, 2, 4]]
    assert G.transport(matrix) == transport_oracle(G, matrix)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_many_matches_scalar_mul(data):
    G = bch_group(data.draw(st.sampled_from(BCH_KEYS)))
    ids = st.integers(0, G.order - 1)
    a = data.draw(st.lists(ids, min_size=1, max_size=50))
    b = data.draw(st.lists(ids, min_size=len(a), max_size=len(a)))
    batched = G.mul_many(np.array(a), np.array(b)).tolist()
    assert batched == [G.mul(x, y) for x, y in zip(a, b)]
    assert batched == [hausdorff_oracle(G, x, y) for x, y in zip(a, b)]
    # a scalar operand broadcasts against an array
    assert G.mul_many(a[0], np.array(b)).tolist() == [G.mul(a[0], y) for y in b]


def test_cut_series_matches_the_full_degree_3_formula():
    # the product evaluates the series only up to the ring's class; the
    # oracle always evaluates all of it: every pair at classes 1 and 2, and
    # at class 3 every a against the basis vectors and their inverses
    abelian, heis, fil = bch_group((5, 1)), bch_group("heisenberg5"), bch_group("filiform5")
    basis = tuple(ge._generating_set(fil))
    cases = [(abelian, range(abelian.order)), (heis, range(heis.order)),
             (fil, basis + tuple(fil.inv(s) for s in basis))]
    assert [G.lie_class for G, _ in cases] == [1, 2, 3]
    for G, right in cases:
        ids = np.arange(G.order)
        for b in right:
            want = [hausdorff_oracle(G, a, b) for a in range(G.order)]
            assert G.mul_many(ids, b).tolist() == want
            assert [G.mul(a, b) for a in range(G.order)] == want


def test_to_finite_group_matches_scalar_table():
    G = bch_group((5, 1))
    F = G.to_finite_group()
    assert all(F.mul(a, b) == G.mul(a, b) for a in range(G.order) for b in range(G.order))


@pytest.mark.parametrize("key", [(5, 1), (5, 2), "filiform5"])
def test_coordinate_generators_generate(key):
    # the premise of the generator-only homomorphism recheck
    G = bch_group(key)
    assert len(ge.subgroup_closure(G, ge._generating_set(G))) == G.order


@pytest.mark.parametrize("pm", [(5, 1), (5, 2)])
def test_recheck_refuses_a_transport_with_two_ids_swapped(pm, monkeypatch):
    ex = gl.example_pm(*pm)
    honest = ge.BCHGroup.transport

    def swapped(self, matrix):
        perm = list(honest(self, matrix))
        perm[1], perm[2] = perm[2], perm[1]
        return tuple(perm)

    monkeypatch.setattr(ge.BCHGroup, "transport", swapped)
    with pytest.raises(RuntimeError, match="not a homomorphism"):
        ge.lazard_group_from_lie(ex.lie, [ex.h])


def test_bch_cap_admits_7_2_and_refuses_beyond():
    assert 7**6 <= ge.BCH_CAP
    ex = gl.example_pm(7, 2)
    out = ge.lazard_group_from_lie(ex.lie, [ex.h])
    assert out.group.order == 117649
    assert len(ge.fixed_points(out.group, out.transported)) == 49
    for L, order in ((gl.example_pm(5, 3).lie, 5**9), (filiform(25), 25**4)):
        with pytest.raises(CapacityError) as info:
            ge.lazard_group_from_lie(L)
        assert f"order {order}" in str(info.value)
        assert f"cap {ge.BCH_CAP}" in str(info.value)


def test_cli_bch_file_refuses_beyond_the_cap(capsys, tmp_path):
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(gl.example_pm(5, 3).lie.to_json()))
    code = cli.run(["group", "bch", "--file", str(path), "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["status"] == "capacity-error"
    assert str(ge.BCH_CAP) in rec["reason"] and str(5**9) in rec["reason"]


@pytest.mark.parametrize("shape", [(2, 2), (4, 3), (3, 4)])
def test_wrong_shape_matrices_are_refused(shape, capsys, tmp_path):
    ex = gl.example_pm(5, 1)  # rank 3
    rows, cols = shape
    matrix = [[int(i == j) for j in range(cols)] for i in range(rows)]
    assert gl.automorphism_issues(ex.lie, matrix) == ["matrix shape is not 3 x 3"]
    with pytest.raises(InputError, match="shape"):
        bch_group((5, 1)).transport(matrix)
    with pytest.raises(InputError, match="shape"):
        gl.fixed_subring(ex.lie, [matrix])
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps({"lie": ex.lie.to_json(), "phi": matrix, "n": 2, "omega": 4}))
    code = cli.run(["lie", "eigen", str(path), "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and "shape" in rec["reason"]


def broken_jacobi_ring(c: int) -> gl.GradedLieRing:
    """[e1,e2] = e4, [e1,e3] = e6, [e3,e4] = e5 and [e2,e6] = c*e5 over
    Z/5: class 3, rank 6, order 15,625.  Jacobi on (e1, e2, e3) reads
    (c - 1)*e5, so the ring is a Lie ring exactly when c = 1."""
    return gl.GradedLieRing(IntegersModRing(5), 6, {
        (0, 1): {3: 1}, (0, 2): {5: 1}, (2, 3): {4: 1}, (1, 5): {4: c}})


def test_bch_refuses_a_broken_jacobi_constant_above_the_cap():
    good, bad = broken_jacobi_ring(1), broken_jacobi_ring(2)
    assert gl.validate(good).valid
    assert [(i.kind, i.indices) for i in gl.validate(bad).issues] == [("jacobi", (0, 1, 2))]
    G = ge.BCHGroup(good)
    assert G.order == 5**6 > ge.EXHAUSTIVE_CAP and G.lie_class == 3
    assert gl.lower_central_series(bad).nilpotency_class() == 3
    with pytest.raises(InputError, match="jacobi fails on basis indices \\(0, 1, 2\\)"):
        ge.BCHGroup(bad)
    with pytest.raises(InputError, match="jacobi"):
        ge.lazard_group_from_lie(bad)


# --- the element laws and the series, shared by both group kinds ---


def iterated_products(G, a, count: int) -> list[int]:
    """Oracle: 1, a, a*a, ... up to the count-fold product."""
    out = [G.identity]
    for _ in range(count):
        out.append(G.mul(out[-1], a))
    return out


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_element_laws_match_their_mul_inv_definitions(name):
    G = closure_group(name)
    n, mul, inv = G.order, G.mul, G.inv
    for g in range(n):
        for x in range(n):
            assert G.conjugate(g, x) == mul(mul(g, x), inv(g))
            assert G.commutator(g, x) == mul(mul(inv(g), inv(x)), mul(g, x))
    for a in range(n):
        up = iterated_products(G, a, 2 * n)
        down = iterated_products(G, inv(a), 2 * n)
        assert [G.power(a, k) for k in range(2 * n + 1)] == up
        assert [G.power(a, -k) for k in range(2 * n + 1)] == down
        assert G.element_order(a) == up.index(G.identity, 1)


@pytest.mark.parametrize("key", ["heisenberg5", "filiform5"])
def test_coordinate_powers_and_orders_match_iterated_products(key):
    # x^k = k*x and the additive order, on rings whose brackets are nonzero
    G = bch_group(key)
    for a in range(G.order):
        o = G.element_order(a)
        up = iterated_products(G, a, 2 * o)
        down = iterated_products(G, G.inv(a), 2 * o)
        assert G.mul(a, G.inv(a)) == G.identity
        assert [G.power(a, k) for k in range(2 * o + 1)] == up
        assert [G.power(a, -k) for k in range(2 * o + 1)] == down
        assert up.index(G.identity, 1) == o


@pytest.mark.parametrize("key", BCH_KEYS + [(7, 2)])
def test_group_series_match_the_lie_series(key):
    # by Lazard, gamma_i(G) is the i-th term of the Lie ring's lower central series
    G = bch_group(key)
    lie = gl.lower_central_series(G.lie)
    assert [len(t) for t in ge.lower_central_series_sets(G)] == [m.size() for m in lie.members]
    assert ge.nilpotency_class(G) == ge.bch_nilpotency_class(G) == G.lie_class


def fixed_point_free_action(G) -> ge.FrobeniusAction:
    """On the abelian BCH(5,1): f doubles every element, so C_G(f) = 1, and
    h permutes the coordinates cyclically, commuting with f."""
    f = G.transport([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    h = G.transport(gl.example_pm(5, 1).h)
    return ge.FrobeniusAction(f, h, FrobeniusParams(4, 3, 1))


TABLE_ONLY = {
    "is_automorphism": lambda G, a: ge.is_automorphism(G, a.f),
    "action_issues": lambda G, a: ge.action_issues(G, a.f, a.h, a.params),
    "make_frobenius_action": lambda G, a: ge.make_frobenius_action(G, a.f, a.h, a.params),
    "invariant_subgroups": lambda G, a: ge.invariant_subgroups(G, [a.f]),
    "invariant_normal_subgroups": lambda G, a: ge.invariant_normal_subgroups(G, [a.f]),
    "quotient_group": lambda G, a: ge.quotient_group(G, {G.identity}),
    "verify_coverage": ge.verify_coverage,
    "jz_filtration": lambda G, a: ge.jz_filtration(G, 5),
    "lazard_algebra": lambda G, a: ge.lazard_algebra(G, 5),
    "lazard_lemma_check": lambda G, a: ge.lazard_lemma_check(G, 5),
    "free_module_check": lambda G, a: ge.free_module_check(G, a.h, 3),
    "exponent_relation_report": ge.exponent_relation_report,
    "exponent_of_subset": lambda G, a: ge.exponent_of_subset(G, range(G.order)),
    "direct_product": lambda G, a: ge.direct_product(G, G),
}


@pytest.mark.parametrize("entry", sorted(TABLE_ONLY))
def test_table_only_calls_refuse_a_lazard_group_by_name(entry):
    G = bch_group((5, 1))
    action = fixed_point_free_action(G)
    assert ge.fixed_points(G, [action.f]) == {G.identity}
    with pytest.raises(InputError, match="multiplication table is needed; a BCHGroup has none"):
        TABLE_ONLY[entry](G, action)
