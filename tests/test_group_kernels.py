"""The table-group kernels against independent oracles: subgroup closure
against breadth-first search, the subgroup lattice against closed-form
counts, and Light's associativity test against a brute-force triple check."""
from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisor_count, divisor_sigma

import flab
from flab import graded_lie as gl
from flab import group_engine as ge
from flab.errors import InputError


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
import flab.group_engine as ge
from flab.errors import InputError

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
    ]


def test_filtration_dims_refuses_non_prime_power_quotients():
    filt = ge.Filtration(2, (frozenset(range(6)), frozenset({0})))
    with pytest.raises(InputError):
        filt.dims()
