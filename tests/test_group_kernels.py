"""The group kernels against independent oracles: subgroup closure against
breadth-first search, the subgroup lattice against closed-form counts,
Light's associativity test against a brute-force triple check, and the
batched Hausdorff-product group against per-id evaluation and on the
inputs it must refuse."""
from __future__ import annotations

import functools
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
        "field: field multiplication and the p-power map must be automorphisms",
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


@functools.cache
def bch_group(key):
    if key == "filiform5":
        return ge.BCHGroup(filiform(5))
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


def test_to_finite_group_matches_scalar_table():
    G = bch_group((5, 1))
    F = G.to_finite_group()
    assert all(F.mul(a, b) == G.mul(a, b) for a in range(G.order) for b in range(G.order))


@pytest.mark.parametrize("key", [(5, 1), (5, 2), "filiform5"])
def test_coordinate_generators_generate(key):
    # the premise of the generator-only homomorphism recheck
    G = bch_group(key)
    assert len(ge.subgroup_closure(G, ge.bch_generators(G))) == G.order


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
