"""Finite group machinery: builders, subgroup toolkit, Frobenius-style
actions, filtrations, and the Hausdorff-product groups."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from flab import group_engine as ge
from flab import graded_lie as gl
from flab.combinatorics import FrobeniusParams, prim_failure
from flab.errors import CapacityError, InputError
from flab.linalg import mat_power
from flab.rings import irreducible_poly, poly_mulmod, poly_powmod


# --- permutation helpers ---


def test_perm_helpers():
    a = (1, 2, 0)  # 3-cycle
    b = (0, 2, 1)  # transposition
    assert ge.perm_compose(a, ge.perm_identity(3)) == a
    # a after b: position 1 goes to 2 under b, then 2 goes to 0 under a
    assert ge.perm_compose(a, b)[1] == 0
    assert ge.perm_compose(a, ge.perm_inverse(a)) == ge.perm_identity(3)
    assert ge.perm_power(a, 3) == ge.perm_identity(3)
    assert ge.perm_power(a, -1) == ge.perm_inverse(a)
    assert ge.perm_order(a) == 3 and ge.perm_order(b) == 2


# --- group construction ---


_ROWS = "each table row must permute the element ids"
_COLUMNS = "each table column must permute the element ids"
_INTEGERS = "table entries must be integer ids"


@pytest.mark.parametrize("table, message", [
    pytest.param([], "empty multiplication table", id="empty"),
    pytest.param(5, "a multiplication table is a list of rows", id="scalar"),
    pytest.param([0, 1], "a multiplication table is a list of rows", id="flat"),
    pytest.param([[0, 1], [1]], _ROWS, id="ragged"),
    pytest.param([[0, 1, 2], [1, 2, 0]], _ROWS, id="not-square"),
    pytest.param([[]], _ROWS, id="empty-row"),
    pytest.param([[True, False], [False, True]], _INTEGERS, id="bool"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], _INTEGERS, id="float"),
    pytest.param([["0", "1"], ["1", "0"]], _INTEGERS, id="str"),
    pytest.param([[0, 2**70], [2**70, 0]], _INTEGERS, id="past-int64"),
    pytest.param([[0, -1], [-1, 0]], _ROWS, id="negative-id"),
    pytest.param([[0, 2], [2, 0]], _ROWS, id="id-past-order"),
    pytest.param([[0, 0], [1, 1]], _ROWS, id="row-repeats"),
    # rows are checked before columns
    pytest.param([[0, 0], [0, 0]], _ROWS, id="rows-first"),
    pytest.param([[1, 0], [1, 0]], _COLUMNS, id="column-repeats"),
    # rows permute the ids and 0 is a two-sided identity, but column 1 repeats
    pytest.param([[0, 1, 2], [1, 2, 0], [2, 1, 0]], _COLUMNS, id="identity-column-repeats"),
    # a Latin square whose only identity row (1) is not an identity column
    pytest.param([[1, 2, 0], [0, 1, 2], [2, 0, 1]], "table has no two-sided identity",
                 id="no-identity"),
])
def test_table_validation(table, message):
    with pytest.raises(InputError) as exc:
        ge.FiniteGroup(table)
    assert str(exc.value) == message


def test_table_is_one_read_only_array():
    G = ge.FiniteGroup([[0, 1], [1, 0]])
    assert G.table.dtype == np.uint8 and not G.table.flags.writeable
    assert type(G.mul(1, 1)) is int and G.to_json() == {"table": [[0, 1], [1, 0]]}
    source = np.array([[0, 1], [1, 0]])
    H = ge.FiniteGroup(source)
    source[0, 0] = 1  # the group keeps its own copy
    assert H.mul(0, 0) == 0


def test_basic_invariants():
    C4 = ge.named_group("C4")
    assert C4.order == 4 and C4.exponent() == 4 and C4.is_abelian()
    assert ge.nilpotency_class(C4) == 1
    assert ge.group_rank(C4) == 1

    D8 = ge.named_group("D8")
    assert D8.order == 8 and not D8.is_abelian()
    assert D8.exponent() == 4
    assert ge.nilpotency_class(D8) == 2
    assert len(ge.center(D8)) == 2
    assert len(ge.commutator_subgroup(D8, range(8), range(8))) == 2
    assert ge.group_rank(D8) == 2
    assert len(ge.all_subgroups(D8)) == 10

    Q8 = ge.named_group("Q8")
    assert Q8.order == 8 and Q8.exponent() == 4
    assert len(ge.center(Q8)) == 2
    assert ge.nilpotency_class(Q8) == 2
    assert len(ge.all_subgroups(Q8)) == 6
    # every subgroup of Q8 is normal
    assert all(ge.is_normal(Q8, S) for S in ge.all_subgroups(Q8))

    H = ge.named_group("Heis3")
    assert H.order == 27 and H.exponent() == 3
    assert ge.nilpotency_class(H) == 2
    assert ge.group_rank(H) == 2
    assert ge.derived_length(H) == 2


def test_dihedral_and_quaternion_element_orders():
    D8 = ge.dihedral_group(4)
    orders = sorted(D8.element_order(x) for x in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    Q8 = ge.quaternion_group()
    orders = sorted(Q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_direct_product_and_elementary_abelian():
    V4 = ge.elementary_abelian_group(2, 2)
    assert V4.order == 4 and V4.exponent() == 2
    P = ge.direct_product(ge.cyclic_group(2), ge.cyclic_group(2))
    assert P.order == 4 and P.exponent() == 2
    E = ge.elementary_abelian_group(5, 2)
    assert E.order == 25 and ge.group_rank(E) == 2


def test_group_from_permutations():
    # S3 on two generators
    S3 = ge.group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    assert S3.order == 6
    assert ge.nilpotency_class(S3) is None
    assert ge.derived_length(S3) == 2
    assert len(ge.sylow_subgroup(S3, 3)) == 3
    assert len(ge.all_sylow_subgroups(S3, 2)) == 3


def test_group_from_permutations_keeps_its_discovery_order():
    # breadth first from the identity, right multiplying by each generator
    S3 = ge.group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    assert S3.names == ("[0, 1, 2]", "[1, 2, 0]", "[1, 0, 2]",
                        "[2, 0, 1]", "[2, 1, 0]", "[0, 2, 1]")
    S4 = ge.group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    assert S4.order == 24
    assert S4.names[:8] == ("[0, 1, 2, 3]", "[1, 2, 3, 0]", "[1, 0, 2, 3]",
                            "[2, 3, 0, 1]", "[2, 1, 3, 0]", "[0, 2, 3, 1]",
                            "[3, 0, 1, 2]", "[3, 2, 0, 1]")


def test_group_from_permutations_stops_at_the_table_cap(monkeypatch):
    # S7 has 5040 > TABLE_CAP elements; the closure stops at the first
    # element past the cap, after no more products than that takes
    compose, calls = ge.perm_compose, []

    def counting(a, b):
        calls.append(1)
        return compose(a, b)

    monkeypatch.setattr(ge, "perm_compose", counting)
    with pytest.raises(CapacityError, match=r"^permutation closure exceeds the table cap 5000$"):
        ge.group_from_permutations(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)])
    assert 0 < len(calls) <= 9678


def test_build_group_formats():
    G = ge.build_group({"table": [[0, 1], [1, 0]]})
    assert G.order == 2
    H = ge.build_group({"permutations": {"degree": 3, "generators": [[1, 2, 0]]}})
    assert H.order == 3
    with pytest.raises(InputError):
        ge.build_group({"nope": 1})


def test_capacity_limits():
    with pytest.raises(CapacityError):
        ge.elementary_abelian_group(2, 13)


# --- subgroup toolkit ---


def test_subgroup_operations():
    D8 = ge.named_group("D8")
    Z = ge.center(D8)
    assert ge.is_subgroup(D8, Z) and ge.is_normal(D8, Z)
    rot = ge.subgroup_closure(D8, [1])
    assert len(rot) == 4
    refl = ge.subgroup_closure(D8, [4])
    assert len(refl) == 2 and not ge.is_normal(D8, refl)
    assert ge.normal_closure(D8, [4]) >= refl
    assert len(ge.power_subgroup(D8, range(8), 2)) == 2
    assert ge.exponent_of_subset(D8, rot) == 4
    assert ge.minimal_generator_count(D8, frozenset(range(8))) == 2


def test_series_sets():
    H = ge.named_group("Heis3")
    chain = ge.lower_central_series_sets(H)
    assert [len(s) for s in chain] == [27, 3, 1]
    der = ge.derived_series_sets(H)
    assert [len(s) for s in der] == [27, 3, 1]


def test_quotient_group():
    D8 = ge.named_group("D8")
    Z = ge.center(D8)
    Q, coset_of, reps = ge.quotient_group(D8, Z)
    assert Q.order == 4 and Q.exponent() == 2  # D8 over its center is V4
    for x in range(8):
        assert coset_of[x] == coset_of[D8.mul(x, next(iter(Z)))]
    for q in range(4):
        assert coset_of[reps[q]] == q
    with pytest.raises(InputError):
        ge.quotient_group(D8, ge.subgroup_closure(D8, [4]))


def test_subgroup_as_group():
    D8 = ge.named_group("D8")
    rot = ge.subgroup_closure(D8, [1])
    R, elems = ge.subgroup_as_group(D8, rot)
    assert R.order == 4 and R.exponent() == 4
    for a in range(4):
        for b in range(4):
            assert elems[R.mul(a, b)] == D8.mul(elems[a], elems[b])


def test_sylow_structure():
    G = ge.direct_product(ge.cyclic_group(4), ge.cyclic_group(3))
    S2 = ge.sylow_subgroup(G, 2)
    S3 = ge.sylow_subgroup(G, 3)
    assert len(S2) == 4 and len(S3) == 3
    assert ge.all_sylow_subgroups(G, 2) == [S2]


def commutator_subgroup_by_pairs(G, A, B) -> frozenset:
    """Oracle: the subgroup generated by every commutator [a, b] with a in
    A and b in B."""
    return ge.subgroup_closure(G, {G.commutator(a, b) for a in A for b in B})


def sylow_class_by_conjugates(G, p: int) -> list[frozenset]:
    """Oracle: the conjugates of one Sylow p-subgroup by every element."""
    P = ge.sylow_subgroup(G, p)
    return sorted({frozenset(G.conjugate(g, x) for x in P) for g in range(G.order)},
                  key=sorted)


def builder_groups(limit: int) -> dict:
    """name -> builder for every builder group of order at most limit:
    cyclic, dihedral, elementary abelian, Heisenberg, Q8, the direct
    products of two named groups, and S4 from permutations."""
    out = {}
    for n in range(1, limit + 1):
        out[f"C{n}"] = lambda n=n: ge.cyclic_group(n)
    for n in range(1, limit // 2 + 1):
        out[f"D{2 * n}"] = lambda n=n: ge.dihedral_group(n)
    for p in range(2, limit + 1):
        if ge.is_prime(p):
            k = 2
            while p**k <= limit:
                out[f"E{p}^{k}"] = lambda p=p, k=k: ge.elementary_abelian_group(p, k)
                k += 1
            if p**3 <= limit:
                out[f"Heis{p}"] = lambda p=p: ge.heisenberg_group(p)
    if limit >= 8:
        out["Q8"] = ge.quaternion_group
    names = sorted(ge.NAMED_GROUPS)
    for i, a in enumerate(names):
        for b in names[i:]:
            if ge.named_group(a).order * ge.named_group(b).order <= limit:
                out[f"{a}x{b}"] = lambda a=a, b=b: ge.direct_product(
                    ge.named_group(a), ge.named_group(b))
    if limit >= 24:
        out["S4"] = lambda: ge.group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    return out


def test_commutator_subgroups_and_sylow_classes_match_the_all_element_definitions():
    pairs = classes = 0
    for name, build in builder_groups(24).items():
        G = build()
        subgroups = ge.all_subgroups(G)
        for A in subgroups:
            for B in subgroups:
                assert ge.commutator_subgroup(G, A, B) == commutator_subgroup_by_pairs(
                    G, A, B), (name, sorted(A), sorted(B))
                pairs += 1
        for p in ge.factorize(G.order):
            assert ge.all_sylow_subgroups(G, p) == sylow_class_by_conjugates(G, p), (name, p)
            classes += 1
    assert (pairs, classes) == (17_535, 83)  # 59 groups


def lower_central_series_by_pairs(G) -> list[frozenset]:
    """Oracle: G, then gamma_(i+1) = [gamma_i, G] from every pair of an
    element of gamma_i and one of G, up to the trivial group or a repeat."""
    whole = frozenset(range(G.order))
    terms = [whole]
    while len(terms[-1]) > 1:
        nxt = commutator_subgroup_by_pairs(G, terms[-1], whole)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def test_lower_central_series_matches_the_all_element_definition():
    groups = {name: build() for name, build in builder_groups(64).items()}
    groups["BCH(5,1)"] = ge.BCHGroup(gl.example_pm(5, 1).lie)
    for name, G in groups.items():
        terms = lower_central_series_by_pairs(G)
        assert ge.lower_central_series_sets(G) == terms, name
        assert ge.nilpotency_class(G) == (len(terms) - 1 if len(terms[-1]) == 1 else None), name


def test_nilpotency_class_commutes_seeds_with_generators_only(monkeypatch):
    G = ge.BCHGroup(gl.example_pm(5, 2).lie)
    Y = ge._generating_set(G)
    calls = []
    commutator = ge.BCHGroup.commutator
    monkeypatch.setattr(ge.BCHGroup, "commutator",
                        lambda self, x, y: calls.append(1) or commutator(self, x, y))
    assert ge.nilpotency_class(G) == 2
    # the seeds of gamma_2 and gamma_3; the all-element step makes 384
    assert len(calls) <= len(Y) ** 2 + len(Y) ** 3 == 36


def test_a_groups_own_generating_set_is_walked_once(monkeypatch):
    for G in (ge.heisenberg_group(3), ge.BCHGroup(gl.example_pm(5, 1).lie)):
        fresh = ge._generating_set(G)
        assert ge._generating_set(G, range(G.order)) == fresh
        assert ge._generating_set(G, set(range(G.order)), "A") == fresh
        cyclic = ge.subgroup_closure(G, fresh[:1])

        def no_walk(*args):
            raise AssertionError("walked G again")

        with monkeypatch.context() as patch:
            patch.setattr(ge, "_dimino", no_walk)
            assert ge._generating_set(G) == fresh
            assert ge._generating_set(G, frozenset(range(G.order))) == fresh
            ge._generating_set(G).append(G.identity)  # the caller's copy only
            assert ge._generating_set(G) == fresh
            with pytest.raises(AssertionError, match="walked G again"):
                ge._generating_set(G, cyclic)  # a proper subgroup is walked
    # a fresh walk of the same group gives the same ids in the same order
    G = ge.heisenberg_group(3)
    assert ge._generating_set(G) == ge._generating_set(ge.heisenberg_group(3))


def generating_set_by_reclosure(G, S) -> list[int]:
    """Oracle: the least id of sorted(S) outside the closure so far joins,
    and the closure is rebuilt from scratch after each one."""
    gens, span = [], frozenset({G.identity})
    for x in sorted(S):
        if x not in span:
            gens.append(x)
            span = ge.subgroup_closure(G, gens)
    return gens


def test_generating_sets_match_the_reclosure_walk():
    walked = 0
    for name, build in builder_groups(24).items():
        G = build()
        for S in ge.all_subgroups(G):
            assert ge._generating_set(G, S) == generating_set_by_reclosure(G, S), (name, sorted(S))
            walked += 1
    for name, build in jennings_groups().items():
        G = build()
        (p,) = ge.factorize(G.order)
        # terms from a copy of G, so G's own set is walked here, not read from G
        for D in set(ge.jz_filtration(build(), p).terms):
            assert ge._generating_set(G, D) == generating_set_by_reclosure(G, D), (name, sorted(D))
            walked += 1
    assert walked == 790  # subgroups of 59 groups and distinct terms of 37


def test_generating_sets_and_layer_bases_are_one_dimino_walk_each(monkeypatch):
    G = ge.heisenberg_group(3)
    terms = ge.jz_filtration(ge.heisenberg_group(3), 3).terms
    calls = []
    dimino = ge._dimino
    monkeypatch.setattr(ge, "_dimino", lambda *args: calls.append(1) or dimino(*args))
    ge._generating_set(G)
    ge._generating_set(G)  # recorded when G was built
    ge._generating_set(G, terms[1])
    assert len(calls) == 1
    ge._layer_coordinates(G, terms, 3)
    assert len(calls) == 2


def test_derived_series_walks_each_terms_generators_once(monkeypatch):
    G = builder_groups(24)["S4"]()
    calls = []
    generating_set = ge._generating_set
    monkeypatch.setattr(ge, "_generating_set",
                        lambda *args: calls.append(1) or generating_set(*args))
    terms = ge.derived_series_sets(G)
    assert [len(T) for T in terms] == [24, 12, 4, 1]
    assert len(calls) == 3  # two per term when each step walks T as A and as B
    assert all(T == commutator_subgroup_by_pairs(G, S, S) for S, T in zip(terms, terms[1:]))


def test_commutator_subgroup_refuses_sets_that_are_not_subgroups():
    D8 = ge.named_group("D8")
    rot = ge.subgroup_closure(D8, [1])
    with pytest.raises(InputError, match="A is not a subgroup: its 2 ids generate 4"):
        ge.commutator_subgroup(D8, {0, 1}, rot)
    with pytest.raises(InputError, match="B is not a subgroup: its 0 ids generate 1"):
        ge.commutator_subgroup(D8, rot, set())
    with pytest.raises(InputError, match="A is not a subgroup"):
        ge.commutator_subgroup(D8, {1, 2, 3}, range(8))  # no identity
    assert ge.commutator_subgroup(D8, range(8), [0, 0, 1, 2, 3]) == commutator_subgroup_by_pairs(
        D8, range(8), rot)


def test_is_automorphism():
    C4 = ge.cyclic_group(4)
    assert ge.is_automorphism(C4, (0, 3, 2, 1))  # inversion
    assert not ge.is_automorphism(C4, (0, 2, 1, 3))
    D8 = ge.named_group("D8")
    conj = tuple(D8.conjugate(1, x) for x in range(8))
    assert ge.is_automorphism(D8, conj)


# --- pairwise laws on the recorded generators, against every pair ---


def is_automorphism_by_pairs(G, perm) -> bool:
    """Oracle: a bijection p of the ids with p[a*b] == p[a]*p[b] for every pair."""
    t, p = G.table, np.array(perm)
    return sorted(perm) == list(range(G.order)) and bool(np.array_equal(p[t], t[np.ix_(p, p)]))


def is_abelian_by_pairs(G) -> bool:
    return bool(np.array_equal(G.table, G.table.T))


def test_pairwise_laws_match_every_pair_on_every_permutation_of_small_groups():
    maps = automorphisms = 0
    # Q8 too: each of its 40,320 permutations is a map on 8 ids
    builders = {**builder_groups(6), "Q8": ge.quaternion_group}
    for name, build in builders.items():
        G = build()
        assert G.is_abelian() == is_abelian_by_pairs(G), name
        for perm in itertools.permutations(range(G.order)):
            verdict = ge.is_automorphism(G, perm)
            assert verdict == is_automorphism_by_pairs(G, perm), (name, perm)
            maps += 1
            automorphisms += verdict
    # |Aut| sums to 63 over the 13 groups
    assert (maps, automorphisms) == (42707, 63)


def test_pairwise_laws_match_every_pair_on_conjugations_and_shuffles():
    checked = [0, 0]  # maps that are not, and that are, automorphisms
    groups = {name: build() for name, build in builder_groups(24).items()}
    # the cyclic factor's generators come first, so the first pairs commute
    groups["S3xC4"] = ge.direct_product(ge.dihedral_group(3), ge.cyclic_group(4))
    groups["Q8xC3"] = ge.direct_product(ge.quaternion_group(), ge.cyclic_group(3))
    for name, G in groups.items():
        assert G.is_abelian() == is_abelian_by_pairs(G), name
        rng = random.Random(name)
        maps = [tuple(G.conjugate(g, x) for x in range(G.order)) for g in range(G.order)]
        for conj in maps[:G.order // 2]:  # near misses: two images swapped
            near = list(conj)
            i, j = rng.sample(range(G.order), 2) if G.order > 1 else (0, 0)
            near[i], near[j] = near[j], near[i]
            maps.append(tuple(near))
        for _ in range(8):
            maps.append(tuple(rng.sample(range(G.order), G.order)))
        for perm in maps:
            verdict = ge.is_automorphism(G, perm)
            assert verdict == is_automorphism_by_pairs(G, perm), (name, perm)
            checked[verdict] += 1
    assert checked == [852, 841]


def test_pairwise_laws_at_the_table_cap_stay_small():
    C, D = ge.cyclic_group(5000), ge.dihedral_group(2500)
    inversion = tuple(-x % 5000 for x in range(5000))
    conj = tuple(D.conjugate(2500, x) for x in range(5000))  # by a reflection
    near = list(conj)
    near[1], near[2] = near[2], near[1]
    calls = [(lambda: ge.is_automorphism(C, inversion), True),
             (lambda: ge.is_automorphism(D, conj), True),
             (lambda: ge.is_automorphism(D, tuple(near)), False),
             (C.is_abelian, True), (D.is_abelian, False)]
    tracemalloc.start()
    try:
        for call, verdict in calls:
            tracemalloc.reset_peak()
            assert call() is verdict
            assert tracemalloc.get_traced_memory()[1] < 8 << 20  # 119 and 24 MiB on whole tables
    finally:
        tracemalloc.stop()


def test_recorded_generating_sets_are_the_dimino_walk_of_every_id():
    groups = {name: build() for name, build in builder_groups(24).items()}
    groups["S5"] = ge.group_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    groups["S6"] = _s6()
    groups["Q8xC6"] = ge.direct_product(ge.quaternion_group(), ge.cyclic_group(6))
    D16 = ge.dihedral_group(8)
    groups["D16/Z"] = ge.quotient_group(D16, ge.center(D16))[0]
    for p, k in ((2, 5), (3, 3), (7, 2)):
        groups[f"GF({p}^{k})"] = ge.build_field_action(p, k).group
    for name, G in groups.items():
        gens = ge._generating_set(G)
        assert gens == ge._dimino(G, range(G.order))[1], name
        assert len(ge.subgroup_closure(G, gens)) == G.order, name


def test_invariant_subgroups():
    C4 = ge.cyclic_group(4)
    inversion = (0, 3, 2, 1)
    subs = ge.invariant_subgroups(C4, [inversion])
    assert len(subs) == 3  # 1, C2, C4: all characteristic here
    D8 = ge.named_group("D8")
    conj = tuple(D8.conjugate(4, x) for x in range(8))
    assert len(ge.invariant_normal_subgroups(D8, [conj])) == len(
        [S for S in ge.all_subgroups(D8) if ge.is_normal(D8, S)
         and {conj[x] for x in S} == set(S)])


# --- Frobenius-style actions ---


def test_field_action_gf4():
    out = ge.build_field_action(2, 2)
    assert out.prim_ok
    assert out.group.order == 4
    assert len(ge.fixed_points(out.group, [out.action.f])) == 1
    for check in (ge.verify_order_formula, ge.verify_coverage,
                  ge.verify_generation, ge.verify_invariant_sylow,
                  ge.verify_nilpotency_transfer):
        assert check(out.group, out.action).status == "pass"
    rel = ge.exponent_relation_report(out.group, out.action)
    assert rel.status == "pass"


def test_field_action_gf9_flags():
    # (n, q, r) = (8, 2, 3) fails the divisor condition at d = 8, yet the
    # action-level conclusions still hold for this group
    out = ge.build_field_action(3, 2)
    assert not out.prim_ok
    assert out.group.order == 9
    assert len(ge.fixed_points(out.group, [out.action.h])) == 3
    for check in (ge.verify_order_formula, ge.verify_coverage,
                  ge.verify_generation, ge.verify_invariant_sylow,
                  ge.verify_nilpotency_transfer):
        assert check(out.group, out.action).status == "pass"


def test_field_action_rejects_bad_input():
    with pytest.raises(InputError):
        ge.build_field_action(4, 2)
    with pytest.raises(InputError):
        ge.build_field_action(3, 4)
    with pytest.raises(CapacityError):
        ge.build_field_action(2, 13)


def field_action_by_polynomials(p: int, k: int):
    """Oracle: (g, generator, f, h, prim_ok) by polynomial arithmetic over
    F_p mod g: the first candidate whose (p^k - 1)/ell-th powers are not 1
    for any prime ell, and each map built from its k basis images."""
    g = irreducible_poly(p, k)
    size, n = p**k, p**k - 1

    def fmul(a, b):
        return ge._from_digits(poly_mulmod(ge._digits(a, p, k), ge._digits(b, p, k), g, p), p)

    def fpow(a, e):
        return ge._from_digits(poly_powmod(ge._digits(a, p, k), e, g, p), p)

    gen = next(cand for cand in range(1, size)
               if all(fpow(cand, n // ell) != 1 for ell in ge.factorize(n)))
    digits = ge._digits(np.arange(size), p, k)

    def linear(image) -> tuple[int, ...]:
        # digit j of image(x) is the sum over i of x_i * (digit j of image(x^i))
        cols = [ge._digits(image(p**i), p, k) for i in range(k)]
        return tuple(ge._from_digits(
            [sum(d * c[j] for d, c in zip(digits, cols)) for j in range(k)], p).tolist())

    f = linear(lambda y: fmul(gen, y))
    h = linear(lambda y: fpow(y, p))
    return g, gen, f, h, prim_failure(n, k, p) is None


EXHAUSTIVE_FIELDS = [(p, k) for k in (2, 3, 5, 7) for p in range(2, 23)
                     if ge.is_prime(p) and p**k <= ge.EXHAUSTIVE_CAP]


def test_field_action_matches_the_polynomial_construction():
    assert len(EXHAUSTIVE_FIELDS) == 15
    for p, k in EXHAUSTIVE_FIELDS:
        res = ge.build_field_action(p, k)
        got = (res.poly, res.generator, res.action.f, res.action.h, res.prim_ok)
        assert got == field_action_by_polynomials(p, k), (p, k)


@pytest.mark.parametrize("p, k, g", [
    pytest.param(2, 2, (0, 0, 1), id="x^2"),  # x's orbit of 1 is 1, x, 0
    pytest.param(2, 2, (1, 0, 1), id="(x+1)^2"),
    pytest.param(3, 2, (2, 0, 1), id="(x-1)(x+1)"),
    pytest.param(2, 3, (1, 0, 0, 1), id="(x+1)(x^2+x+1)"),
])
def test_field_action_refuses_a_reducible_modulus_by_name(monkeypatch, p, k, g):
    monkeypatch.setattr(ge, "irreducible_poly", lambda p_, k_: g)
    with pytest.raises(RuntimeError, match=re.escape(
            f"no id in 1..{p**k - 1} generates the units mod {g}")):
        ge.build_field_action(p, k)


def fixed_points_by_ids(G, maps) -> frozenset:
    """Oracle: the ids x with a[x] == x for every listed map a."""
    return frozenset(x for x in range(G.order) if all(a[x] == x for a in maps))


def test_fixed_points_match_the_per_id_definition():
    cases = []
    for G in (ge.named_group("D8"), ge.quaternion_group(), ge.heisenberg_group(3),
              ge.build_field_action(3, 3).group):
        inner = [tuple(G.conjugate(g, x) for x in range(G.order)) for g in range(G.order)]
        cases.append((G, inner))
    field = ge.build_field_action(2, 5)
    cases.append((field.group, [field.action.f, field.action.h,
                                ge.perm_power(field.action.h, 5), ge.perm_identity(32)]))
    ex = gl.example_pm(5, 1)
    lz = ge.lazard_group_from_lie(ex.lie, list(ex.f) + [ex.h])
    P = lz.group
    cases.append((P, list(lz.transported) + [
        tuple(P.conjugate(g, x) for x in range(P.order)) for g in (1, 5, 31)]))
    for G, maps in cases:
        assert ge.fixed_points(G, []) == frozenset(range(G.order))
        for i in range(len(maps)):
            for chosen in ([maps[i]], maps[i:i + 2], maps[:i + 1]):
                assert ge.fixed_points(G, chosen) == fixed_points_by_ids(G, chosen)
        with pytest.raises(IndexError):
            ge.fixed_points(G, [maps[0], maps[0][:-1]])


def test_invariant_normal_subgroups_conjugate_by_whole_arrays(monkeypatch):
    groups = [ge.named_group(name) for name, _ in ge.P_GROUP_CORPUS]
    groups += [ge.named_group("D8"), ge.quaternion_group(),
               ge.BCHGroup(gl.example_pm(5, 1).lie)]
    seen = []
    lattice = ge._lattice
    monkeypatch.setattr(ge, "_lattice", lambda G, perms: seen.append(perms) or lattice(G, perms))
    for G in groups:
        subs = ge.invariant_normal_subgroups(G, [])
        inner = [tuple(G.conjugate(g, x) for x in range(G.order))
                 for g in ge._generating_set(G)]
        assert seen.pop() == inner
        assert all(isinstance(y, int) for perm in inner for y in perm)
        assert subs == sorted((S for S in ge.all_subgroups(G) if ge.is_normal(G, S)),
                              key=lambda S: (len(S), sorted(S)))


def test_frobenius_condition():
    out = ge.build_field_action(2, 3)
    G, f, h = out.group, out.action.f, out.action.h
    params = FrobeniusParams(7, 3, 2)
    assert ge.action_issues(G, f, h, params) == []
    ident = ge.perm_identity(G.order)
    # refused on its order and twist; the Frobenius condition is read off
    # (n, q, r) only for an action that passes both
    assert ge.action_issues(G, f, ident, params) == [
        "h has order 1, params expect 3", "h f h^-1 differs from f^r"]


def frobenius_by_permutations(f, h, n: int, q: int) -> bool:
    """Oracle: no nontrivial power of h centralizes a nontrivial power of
    f, by composing the conjugates h^i f h^-i and comparing their powers
    with those of f."""
    ident = ge.perm_identity(len(f))
    f_pows = [ident]
    for _ in range(n - 1):
        f_pows.append(ge.perm_compose(f, f_pows[-1]))
    hi = ident
    for _ in range(1, q):
        hi = ge.perm_compose(h, hi)
        conj = ge.perm_compose(hi, ge.perm_compose(f, ge.perm_inverse(hi)))
        acc = ident
        for j in range(1, n):
            acc = ge.perm_compose(conj, acc)
            if acc == f_pows[j]:
                return False
    return True


def field_sub_actions(p: int, k: int):
    """(group, f^d, h^j, params) for every divisor d of p^k - 1 below it
    and every 0 <= j < k: h^j f^d h^-j = (f^d)^(p^j), and f^d has order
    (p^k - 1) / d, so each is an action that passes the order and twist
    checks."""
    out = ge.build_field_action(p, k)
    f, h = out.action.f, out.action.h
    n = p**k - 1
    for d in range(1, n // 2 + 1):
        if n % d:
            continue
        fd = ge.perm_power(f, d)
        for j in range(k):
            params = FrobeniusParams(n // d, k if j else 1, pow(p, j, n // d))
            yield out.group, fd, ge.perm_power(h, j), params


def test_frobenius_condition_matches_the_permutation_definition():
    verdicts = []
    for p, k in ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (5, 2), (5, 3),
                 (7, 2), (11, 2), (13, 2)):
        for G, f, h, params in field_sub_actions(p, k):
            holds = frobenius_by_permutations(f, h, params.n, params.q)
            want = [] if holds else [
                "a nontrivial power of h centralizes a nontrivial power of f"]
            assert ge.action_issues(G, f, h, params) == want, (p, k, params)
            verdicts.append(holds)
    assert len(verdicts) == 139 and 0 < sum(verdicts) < 139


def test_a_declared_order_far_past_the_group_is_refused_in_bounded_memory():
    C2 = ge.cyclic_group(2)
    ident = ge.perm_identity(2)
    params = FrobeniusParams(10**9, 2, 1)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="f has order 1, params expect 1000000000"):
            ge.make_frobenius_action(C2, ident, ident, params)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1
    assert peak < 10 << 20


def test_make_frobenius_action_rejects_gf9():
    out = ge.build_field_action(3, 2)
    params = FrobeniusParams(8, 2, 3)
    with pytest.raises(InputError):
        ge.make_frobenius_action(out.group, out.action.f, out.action.h, params)


def test_rank_relation_on_field_actions():
    for p, k in ((2, 2), (2, 3), (3, 2)):
        out = ge.build_field_action(p, k)
        G = out.group
        q = k
        CH = ge.fixed_points(G, [out.action.h])
        sub, _ = ge.subgroup_as_group(G, CH)
        assert ge.group_rank(G) <= q * ge.group_rank(sub)


# --- free module checks ---


def test_free_module_gf8():
    out = ge.build_field_action(2, 3)
    report = ge.free_module_check(out.group, out.action.h, 3)
    assert report.status == "pass"
    assert report.witness["free"] and report.witness["rank"] == 1
    assert report.witness["invariant_factors"] == [[1, 0, 0, 1]]
    assert report.witness["fixed_dim"] == 1


def test_free_module_trivial_action():
    G = ge.cyclic_group(2)
    ident = ge.perm_identity(2)
    report = ge.free_module_check(G, ident, 3)
    # the computation itself succeeds; the verdict lives in the witness
    assert report.status == "pass"
    assert not report.witness["free"]
    assert report.witness["rank"] is None
    assert report.witness["invariant_factors"] == [[1, 1]]


def test_free_module_rejects_non_elementary():
    G = ge.cyclic_group(4)
    with pytest.raises(InputError):
        ge.free_module_check(G, ge.perm_identity(4), 2)
    # the order-4 generator comes first, then last; Heis3 has exponent 3
    for G in (ge.direct_product(ge.cyclic_group(2), ge.cyclic_group(4)),
              ge.direct_product(ge.cyclic_group(4), ge.cyclic_group(2)), ge.heisenberg_group(3)):
        with pytest.raises(InputError, match="the module must be elementary abelian"):
            ge.free_module_check(G, ge.perm_identity(G.order), 2)


# --- filtrations and the associated algebra ---


def test_jz_dims_frozen():
    expected = {"C4": (1, 1), "C8": (1, 1, 0, 1), "D8": (2, 1),
                "Q8": (2, 1), "Heis3": (2, 1)}
    for name, p in ge.P_GROUP_CORPUS:
        filt = ge.jz_filtration(ge.named_group(name), p)
        assert filt.dims() == expected[name], name


def test_jz_rejects_wrong_prime():
    with pytest.raises(InputError):
        ge.jz_filtration(ge.named_group("D8"), 3)
    S3 = ge.group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    with pytest.raises(InputError):
        ge.jz_filtration(S3, 2)


def test_jz_trivial_group():
    T = ge.cyclic_group(1)
    assert ge.jz_filtration(T, 2).dims() == ()


def _lazard_product_terms(G, p):
    """Oracle: D_i generated by the gamma_j(G)^(p^k) with j*p^k >= i, up to
    the trivial term (Lazard's product formula)."""
    gammas = ge.lower_central_series_sets(G)
    exponent = G.exponent()
    terms = []
    i = 1
    while True:
        gens = set()
        for j, gamma in enumerate(gammas, start=1):
            if len(gamma) == 1:
                continue
            pk = 1
            while pk <= exponent:
                if j * pk >= i:
                    gens.update(G.power(x, pk) for x in gamma)
                    break  # larger powers land inside this piece
                pk *= p
        D = ge.subgroup_closure(G, gens)
        terms.append(D)
        if len(D) == 1:
            return tuple(terms)
        i += 1


def _perm(degree, *cycles):
    """The permutation of range(degree) with the given cycles, as images."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def _sylow2_s8():
    return ge.group_from_permutations(8, [
        _perm(8, (0, 1)), _perm(8, (0, 2), (1, 3)),
        _perm(8, (0, 4), (1, 5), (2, 6), (3, 7))])


def _c3_wr_c3():
    return ge.group_from_permutations(9, [
        _perm(9, (0, 1, 2)), _perm(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))])


def jennings_groups() -> dict:
    """name -> builder for 37 p-groups of order at most 343 with long or
    branching Jennings series: cyclic, dihedral, quaternion, Heisenberg and
    elementary abelian groups, direct products and permutation groups."""
    out = {}
    for k in range(1, 7):
        out[f"C{2**k}"] = lambda k=k: ge.cyclic_group(2**k)
    for k in range(1, 6):
        out[f"D{2**(k + 1)}"] = lambda k=k: ge.dihedral_group(2**k)
    out["Q8"] = ge.quaternion_group
    for p in (2, 3, 5, 7):
        out[f"Heis{p}"] = lambda p=p: ge.heisenberg_group(p)
    for p in (3, 5, 7):
        out[f"E{p}^2"] = lambda p=p: ge.elementary_abelian_group(p, 2)
        out[f"C{p**2}"] = lambda p=p: ge.cyclic_group(p**2)
        out[f"C{p**3}"] = lambda p=p: ge.cyclic_group(p**3)
    out["E2^5"] = lambda: ge.elementary_abelian_group(2, 5)
    pairs = {"Heis3xC3": (lambda: ge.heisenberg_group(3), lambda: ge.cyclic_group(3)),
             "Heis3xC9": (lambda: ge.heisenberg_group(3), lambda: ge.cyclic_group(9)),
             "D8xC4": (lambda: ge.dihedral_group(4), lambda: ge.cyclic_group(4)),
             "Q8xC8": (ge.quaternion_group, lambda: ge.cyclic_group(8)),
             "D16xQ8": (lambda: ge.dihedral_group(8), ge.quaternion_group)}
    for name, (a, b) in pairs.items():
        out[name] = lambda a=a, b=b: ge.direct_product(a(), b())
    out["Syl2(S8)"] = _sylow2_s8
    out["C3wrC3"] = _c3_wr_c3
    out["C4wrC2"] = lambda: ge.group_from_permutations(8, [
        _perm(8, (0, 1, 2, 3)), _perm(8, (0, 4), (1, 5), (2, 6), (3, 7))])
    out["C2wrC4"] = lambda: ge.group_from_permutations(8, [
        _perm(8, (0, 1)), _perm(8, (0, 2, 4, 6), (1, 3, 5, 7))])
    out["Syl2(S6)"] = lambda: ge.group_from_permutations(6, [
        _perm(6, (0, 1)), _perm(6, (0, 2), (1, 3)), _perm(6, (4, 5))])
    out["Syl2(S8)xC2"] = lambda: ge.direct_product(_sylow2_s8(), ge.cyclic_group(2))
    return out


def test_jz_recursion_matches_lazard_product_formula():
    groups = {name: build() for name, build in jennings_groups().items()}
    assert len(groups) == 37
    assert [groups[name].order for name in ("Syl2(S8)", "C3wrC3", "C4wrC2", "C2wrC4",
                                            "Syl2(S6)", "Syl2(S8)xC2")] == [128, 81, 32, 64, 16, 256]
    for name, G in groups.items():
        (p,) = ge.factorize(G.order)
        assert ge.jz_filtration(G, p).terms == _lazard_product_terms(G, p), name


def test_layer_coordinates_refuse_layers_that_are_not_elementary_abelian():
    # C4 with id 1 of order 2 adjoins the basis (1, 2) by steps of index 2,
    # so the count passes; 2 * 2 = 1 is not in the trivial subgroup
    C4 = ge.FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]])
    for G, p in ((ge.cyclic_group(4), 2), (ge.heisenberg_group(3), 3), (C4, 2)):
        with pytest.raises(RuntimeError, match="filtration quotient is not elementary abelian"):
            ge._layer_coordinates(G, (frozenset(range(G.order)), frozenset({G.identity})), p)


def _corrupted_filtrations():
    D8 = ge.dihedral_group(4)
    whole = frozenset(range(8))
    C8 = ge.cyclic_group(8)
    c8_terms = ge.jz_filtration(C8, 2).terms
    W = _c3_wr_c3()
    X = ge._generating_set(W)
    # generated by the commutators of W's generators, but not normal (order
    # 3, where [W, W] has order 9): only the whole commutator subgroup
    # refuses it
    S = ge.subgroup_closure(W, {W.commutator(x, y) for x in X for y in X})
    return [
        pytest.param(D8, 2, (whole, frozenset({0})), r"\[D_1, D_1\] escapes D_2", id="commutator"),
        pytest.param(D8, 2, (whole, frozenset({0, 4}), frozenset({0})),
                     r"\[D_1, D_1\] escapes D_2", id="not-normal"),
        pytest.param(W, 3, (frozenset(range(W.order)), S, frozenset({W.identity})),
                     r"\[D_1, D_1\] escapes D_2", id="not-normal-generators-inside"),
        pytest.param(C8, 2, c8_terms[:3] + c8_terms[4:], r"D_2\^2 escapes D_4", id="term-dropped"),
        pytest.param(D8, 2, (whole, frozenset({0, 4}), frozenset({0, 2}), frozenset({0})),
                     "filtration is not descending", id="not-descending"),
    ]


@pytest.mark.parametrize("G, p, terms, message", _corrupted_filtrations())
def test_filtration_laws_refuse_a_corrupted_filtration(G, p, terms, message):
    with pytest.raises(RuntimeError, match=message):
        ge._check_filtration_laws(G, ge.Filtration(p, terms))


def filtration_laws_by_pairs(G, filt) -> None:
    """Oracle: the laws at every index pair (i, j) of the chain, not only
    at the ends of runs of equal terms.  A normal D_(i+j) is tested on the
    commutators of generating sets of D_i and D_j, which commute modulo
    it; another target is tested on the whole commutator subgroup."""
    terms, p = filt.terms, filt.prime
    m = len(terms)
    trivial = frozenset({G.identity})

    def term(i):
        return terms[i - 1] if i <= m else trivial

    for i in range(1, m):
        if not term(i) >= term(i + 1):
            raise RuntimeError("filtration is not descending")
    Y = ge._generating_set(G)
    gens = [ge._generating_set(G, D, f"D_{i}") for i, D in enumerate(terms, start=1)]
    normal = [all(G.conjugate(g, x) in D for g in Y for x in X) for D, X in zip(terms, gens)]
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            target = term(i + j)
            if i + j > m or normal[i + j - 1]:
                holds = all(G.commutator(x, y) in target for x in gens[i - 1] for y in gens[j - 1])
            else:
                holds = ge.commutator_subgroup(G, term(i), term(j)) <= target
            if not holds:
                raise RuntimeError(f"[D_{i}, D_{j}] escapes D_{i + j}")
        if not ge.power_subgroup(G, term(i), p) <= term(p * i):
            raise RuntimeError(f"D_{i}^{p} escapes D_{p * i}")


def _law_refusal(check, G, filt) -> str | None:
    try:
        check(G, filt)
    except RuntimeError as exc:
        return str(exc)
    return None


def _named_law_fails(G, filt, message: str) -> bool:
    """Whether the law a refusal names fails, rechecked from the elements."""
    terms = filt.terms

    def term(i):
        return terms[i - 1] if i <= len(terms) else frozenset({G.identity})

    if message == "filtration is not descending":
        return any(not a >= b for a, b in zip(terms, terms[1:]))
    if m := re.fullmatch(r"\[D_(\d+), D_(\d+)\] escapes D_(\d+)", message):
        i, j, k = map(int, m.groups())
        return k == i + j and not commutator_subgroup_by_pairs(G, term(i), term(j)) <= term(k)
    m = re.fullmatch(r"D_(\d+)\^(\d+) escapes D_(\d+)", message)
    i, p, k = map(int, m.groups())
    powers = {G.power(x, p) for x in term(i)}
    return p == filt.prime and k == p * i and not ge.subgroup_closure(G, powers) <= term(k)


def _agrees_with_the_oracle(G, filt) -> str | None:
    refusal = _law_refusal(ge._check_filtration_laws, G, filt)
    assert (refusal is None) == (_law_refusal(filtration_laws_by_pairs, G, filt) is None)
    assert refusal is None or _named_law_fails(G, filt, refusal), refusal
    return refusal


def test_filtration_laws_agree_with_every_pair_on_each_one_term_replacement():
    refusals = []
    for name, build in jennings_groups().items():
        G = build()
        if G.order > 64:
            continue
        (p,) = ge.factorize(G.order)
        terms = ge.jz_filtration(G, p).terms
        for i, H in itertools.product(range(len(terms)), ge.all_subgroups(G)):
            filt = ge.Filtration(p, terms[:i] + (H,) + terms[i + 1:])
            refusals.append(_agrees_with_the_oracle(G, filt))
    laws = [r for r in refusals if r not in (None, "filtration is not descending")]
    assert len(refusals) == 4429 and refusals.count(None) == 1087 and len(laws) == 322
    assert any(r.startswith("[") for r in laws) and any("^" in r for r in laws)


def test_filtration_laws_see_one_term_changed_inside_a_long_run():
    G = ge.cyclic_group(256)
    terms = ge.jz_filtration(G, 2).terms
    # D_65, ..., D_128 are the subgroup of order 2, D_129 the trivial one
    assert {len(terms[i - 1]) for i in range(65, 129)} == {2} and len(terms[128]) == 1
    outcomes = {}
    for i, H in itertools.product((65, 96, 128, 129), ge.all_subgroups(G)):
        filt = ge.Filtration(2, terms[:i - 1] + (H,) + terms[i:])
        outcomes[i, len(H)] = _agrees_with_the_oracle(G, filt)
    assert outcomes[96, 1] == outcomes[96, 4] == "filtration is not descending"
    assert outcomes[65, 4] == "D_65^2 escapes D_130"
    assert outcomes[128, 1] == "D_64^2 escapes D_128"
    assert outcomes[129, 2] is None  # the run grows by one and every law still holds


def test_filtration_laws_name_a_term_that_is_not_a_subgroup_by_its_run():
    D8 = ge.dihedral_group(4)
    rotation = frozenset({0, 1})  # 1 has order 4
    assert len(ge.subgroup_closure(D8, rotation)) == 4
    filt = ge.Filtration(2, (frozenset(range(8)), rotation, rotation, frozenset({0})))
    with pytest.raises(InputError, match=r"^D_2 is not a subgroup: its 2 ids generate 4$"):
        ge._check_filtration_laws(D8, filt)


def test_filtration_laws_make_commutators_per_pair_of_distinct_terms(monkeypatch):
    G = ge.cyclic_group(1024)
    filt = ge.jz_filtration(G, 2)
    distinct = set(filt.terms) - {frozenset({G.identity})}
    assert len(filt.terms) == 513 and len(distinct) == 10
    # each distinct term of a cyclic group has one greedy generator, so each
    # pair of distinct terms costs one commutator
    assert {len(ge._generating_set(G, D)) for D in distinct} == {1}
    calls = []
    commutator = ge.FiniteGroup.commutator
    monkeypatch.setattr(ge.FiniteGroup, "commutator",
                        lambda self, x, y: calls.append(1) or commutator(self, x, y))
    ge._check_filtration_laws(G, filt)
    assert len(calls) <= len(distinct) * (len(distinct) + 1) // 2


def test_jz_recursion_copies_the_last_term_inside_its_runs(monkeypatch):
    G = ge.cyclic_group(1024)
    calls, at_laws = [], []
    commutators, check = ge._commutator_of_generated, ge._check_filtration_laws
    monkeypatch.setattr(ge, "_commutator_of_generated",
                        lambda *args: calls.append(1) or commutators(*args))
    monkeypatch.setattr(ge, "_check_filtration_laws",
                        lambda G, filt, *walked:
                        at_laws.append(len(calls)) or check(G, filt, *walked))
    d = len(set(ge.jz_filtration(G, 2).terms))
    assert d == 11
    # about two per run of equal terms; one per index (512) without the copy
    assert at_laws[0] <= 2 * (d + 1)


def test_filtration_laws_walk_each_distinct_terms_generators_once(monkeypatch):
    G = ge.cyclic_group(4096)
    filt = ge.jz_filtration(G, 2)
    calls = []
    generating_set = ge._generating_set
    monkeypatch.setattr(ge, "_generating_set",
                        lambda *args: calls.append(args[1:]) or generating_set(*args))
    ge._check_filtration_laws(G, filt)
    # one walk per pair of run ends (168 here) without the kept sets
    assert len(set(filt.terms)) == 13
    assert len(calls) <= 13
    assert len({frozenset(S) for S, _ in calls}) == len(calls)


def test_layer_coordinates_name_the_coset():
    for G, p in ((ge.dihedral_group(4), 2), (ge.quaternion_group(), 2),
                 (ge.heisenberg_group(3), 3), (_sylow2_s8(), 2)):
        terms = ge.jz_filtration(G, p).terms
        degrees, basis, depths, coords = ge._layer_coordinates(G, terms, p)
        for d, (D, Dn) in enumerate(zip(terms, terms[1:]), start=1):
            block = np.array(degrees) == d
            assert {x for x in range(G.order) if depths[x] >= d} == D
            for x in D:
                e = G.identity
                for b, c in zip(np.array(basis)[block], coords[x, block]):
                    e = G.mul(e, G.power(int(b), int(c)))
                assert G.mul(G.inv(e), x) in Dn
            # a row is nonzero only in the block of its depth
            assert not coords[[x for x in D if depths[x] != d]][:, block].any()


def layer_coordinates_by_reclosure(G, terms, p: int) -> tuple:
    """Oracle: each layer's basis walks sorted(D_d) and re-closes the ids
    so far with all of D_(d+1) after each one that joins; every id of
    b_1^c_1 ... b_k^c_k D_(d+1) gets c in the layer's block."""
    bases = []
    for D, Dn in zip(terms, terms[1:]):
        gens, span = [], frozenset(Dn)
        for x in sorted(D):
            if x not in span:
                gens.append(x)
                span = ge.subgroup_closure(G, set(gens) | set(Dn))
        bases.append(gens)
    degrees = tuple(d for d, gens in enumerate(bases, start=1) for _ in gens)
    coords = np.zeros((G.order, len(degrees)), dtype=np.int64)
    start = 0
    for gens, Dn in zip(bases, terms[1:]):
        for c in itertools.product(range(p), repeat=len(gens)):
            rep = functools.reduce(G.mul, map(G.power, gens, c), G.identity)
            for t in Dn:
                coords[G.mul(rep, t), start:start + len(gens)] = c
        start += len(gens)
    depths = np.array([sum(x in D for D in terms) for x in range(G.order)])
    return degrees, tuple(x for gens in bases for x in gens), depths, coords


def test_layer_coordinates_match_the_reclosure_walk():
    chains = []
    for build in jennings_groups().values():
        G = build()
        (p,) = ge.factorize(G.order)
        chains.append((G, p, ge.jz_filtration(G, p).terms))
    # D24 > <r^2> > <r^4>, which stalls at order 3; then with a repeated term
    D24 = ge.dihedral_group(12)
    lower = ge.lower_central_series_sets(D24)
    assert [len(D) for D in lower] == [24, 6, 3]
    chains += [(D24, 2, lower), (D24, 2, lower[:2] + lower[1:])]
    for G, p, terms in chains:
        degrees, basis, depths, coords = ge._layer_coordinates(G, terms, p)
        oracle = layer_coordinates_by_reclosure(G, terms, p)
        assert (degrees, basis) == oracle[:2], (G.order, p)
        assert np.array_equal(depths, oracle[2]) and np.array_equal(coords, oracle[3])
    assert ge._layer_coordinates(D24, lower, 2)[:2] == ((1, 1, 2), (1, 12, 2))


def test_lazard_algebra_d8():
    D8 = ge.named_group("D8")
    A = ge.lazard_algebra(D8, 2)
    assert A.lie.rank == 3
    assert A.degrees == (1, 1, 2)
    assert gl.validate(A.lie).valid
    # degree-1 pair brackets onto the degree-2 line
    assert A.lie.structure_constant(0, 1) == (0, 0, 1)
    assert A.lp == A.lie.full_space()
    # rotation by one step sits at depth 1 with nonzero leading coset
    d, vec = A.image(1)
    assert d == 1 and any(c != 0 for c in vec)
    assert A.depth(D8.identity) is None


def test_lazard_algebra_abelian():
    A = ge.lazard_algebra(ge.cyclic_group(4), 2)
    assert A.degrees == (1, 2)
    assert all(A.lie.structure_constant(i, j) == (0, 0)
               for i in range(2) for j in range(2))
    E = ge.lazard_algebra(ge.elementary_abelian_group(5, 2), 5)
    assert E.degrees == (1, 1)
    assert E.lp == E.lie.full_space()


def coset_bracket_mismatches(A) -> int:
    """Oracle sweep: for every pair of basis elements e_a of degree i and
    e_b of degree j, every x in e_a D_(i+1) and y in e_b D_(j+1), count
    the commutators [x, y] whose image differs from the bracket of the two
    basis vectors; an image of depth past i + j is zero there."""
    terms = A.filtration.terms
    basis = list(zip(A.degrees, A.basis))
    zero = A.lie.zero_vector()
    bad = 0
    for a, (da, ea) in enumerate(basis):
        for b, (db, eb) in enumerate(basis):
            expected = list(A.lie.structure_constant(a, b))
            for x in terms[da]:
                for y in terms[db]:
                    c = A.group.commutator(A.group.mul(ea, x), A.group.mul(eb, y))
                    depth, vec = A.image(c)
                    if depth is None or depth > da + db:
                        vec = zero
                    elif depth < da + db:
                        vec = None
                    bad += vec != expected
    return bad


def test_lazard_brackets_are_well_defined_on_every_coset_pair():
    # the filtration laws imply well-definedness (see lazard_algebra); on the
    # corpus every commutator is central, so only the larger builder p-groups
    # send coset pairs to several members of one coset of D_(i+j+1)
    groups = [(name, ge.named_group(name), p) for name, p in ge.P_GROUP_CORPUS]
    for name, build in builder_groups(64).items():
        G = build()
        primes = list(ge.factorize(G.order))
        if len(primes) == 1:
            groups.append((name, G, primes[0]))
    for name, G, p in groups:
        assert coset_bracket_mismatches(ge.lazard_algebra(G, p)) == 0, name
    assert len(groups) == 72


def generated_subalgebra_by_pairs(L, seeds):
    """Oracle: the closure loop lazard_algebra used before generated_subring,
    which brackets every pair of generators until the span stops growing."""
    S = L.span(list(seeds))
    while True:
        gens = S.gens()
        nxt = S
        for u in gens:
            for v in gens:
                w = L.bracket(u, v)
                if not nxt.contains(w):
                    nxt = nxt.sum(L.span([w]))
        if nxt == S:
            return S
        S = nxt


def test_generated_subring_matches_the_pairwise_closure_on_the_jennings_groups():
    partial = 0
    for name, build in jennings_groups().items():
        G = build()
        (p,) = ge.factorize(G.order)
        A = ge.lazard_algebra(G, p)
        first = [A.lie.basis_vector(i) for i, d in enumerate(A.degrees) if d == 1]
        oracle = generated_subalgebra_by_pairs(A.lie, first)
        assert gl.generated_subring(A.lie, A.lie.span(first)) == oracle == A.lp, name
        partial += oracle != A.lie.full_space()
    assert partial > 0  # some degree-1 blocks generate less than the whole algebra


def test_lazard_lemma_corpus():
    for name, p in ge.P_GROUP_CORPUS:
        report = ge.lazard_lemma_check(ge.named_group(name), p)
        assert report.status == "pass", name
        assert report.witness["elements"] == ge.named_group(name).order


def lazard_lemma_by_element(dl):
    """Oracle: the walk of the ids in order, two matrix powers each, that
    lazard_lemma_check replaced; (status, witness, reason) of its report.
    A shallow power raises, as there."""
    G, L, p = dl.group, dl.lie, dl.filtration.prime
    ring = L.ring
    zero = [[ring.zero()] * L.rank for _ in range(L.rank)]
    for x in range(G.order):
        d, vec = dl.image(x)
        ad = L.ad_matrix(vec)
        dp, vec_p = dl.image(G.power(x, p))
        if d is None or dp is None:
            expected = zero
        else:
            if dp < p * d:
                raise RuntimeError("power depths must respect the filtration")
            expected = L.ad_matrix(vec_p) if dp == p * d else zero
        if mat_power(ring, ad, p) != expected:
            return "violation", {"element": x}, "(ad x)^p differs from ad(x^p)"
        order = G.element_order(x)
        if mat_power(ring, ad, order) != zero:
            return ("violation", {"element": x, "order": order},
                    "ad-nilpotency index exceeds the element order")
    return "pass", {"elements": G.order}, None


def _lemma_outcomes(dl):
    """The oracle's outcome and the check's, a raised RuntimeError as its message."""
    out = []
    for run in (lazard_lemma_by_element, ge.lazard_lemma):
        try:
            out.append(run(dl))
        except RuntimeError as exc:
            out.append(str(exc))
    return out


def test_lazard_lemma_check_matches_the_element_walk_on_the_jennings_groups():
    for name, build in jennings_groups().items():
        G = build()
        (p,) = ge.factorize(G.order)
        report = ge.lazard_lemma_check(G, p)
        assert (report.status, report.witness) == ("pass", {"elements": G.order}), name
        oracle, check = _lemma_outcomes(ge.lazard_algebra(G, p))
        assert oracle == check, name


def _corrupted(dl, entries):
    """dl with each structure constant [b_i, b_j]_k, i < j, of entries
    (i, j, k) raised by one."""
    L = dl.lie
    brackets = {pair: dict(terms) for pair, terms in L.nonzero_constants.items()}
    for i, j, k in entries:
        entry = brackets.setdefault((i, j), {})
        entry[k] = (entry.get(k, 0) + 1) % L.ring.modulus
    return dataclasses.replace(dl, lie=gl.GradedLieRing(L.ring, L.rank, brackets))


def _single_entries(dl):
    r = dl.lie.rank
    return [[(i, j, k)] for i in range(r) for j in range(i + 1, r) for k in range(r)]


def _algebra_on_terms(G, p, terms):
    """The algebra of a chain of subgroups, laws unchecked, abelian bracket."""
    degrees, basis, depths, coords = ge._layer_coordinates(G, terms, p)
    lie = gl.GradedLieRing(ge.PrimeFieldRing(p), len(degrees), {})
    return ge.DLAlgebra(G, ge.Filtration(p, tuple(terms)), lie, degrees, basis,
                        depths, coords, lie.full_space())


def test_lazard_lemma_check_names_the_first_failure_as_the_element_walk_does():
    algebras = [ge.lazard_algebra(G, p) for G, p in (
        (ge.cyclic_group(16), 2), (ge.dihedral_group(8), 2), (ge.quaternion_group(), 2),
        (ge.heisenberg_group(3), 3), (ge.cyclic_group(27), 3))]
    # C8 with D_3 = 2C8 instead of 4C8: 2 has depth 3 and 2^2 = 4 depth 4 < 6,
    # so the walk refuses at id 2 unless a violation comes first
    C8 = ge.cyclic_group(8)
    algebras.append(_algebra_on_terms(C8, 2, [frozenset(range(8)), frozenset({0, 2, 4, 6}),
                                              frozenset({0, 2, 4, 6}), frozenset({0, 4}),
                                              frozenset({0})]))
    cases = [(dl, entries) for dl in algebras for entries in _single_entries(dl)]
    # two raised constants that keep the lemma at id 1 but not ad-nilpotency
    cases += [(algebras[0], [(0, 2, 2), (1, 2, 2)]), (algebras[0], [(0, 3, 3), (1, 3, 3)]),
              (algebras[1], [(0, 3, 3), (2, 3, 3)]), (algebras[4], [(0, 2, 2), (1, 2, 2)])]
    seen = set()
    for dl, entries in cases:
        oracle, check = _lemma_outcomes(_corrupted(dl, entries))
        assert oracle == check, (dl.group.order, entries)
        seen.add(oracle if isinstance(oracle, str) else (oracle[0], len(oracle[1])))
    assert [_lemma_outcomes(_corrupted(dl, entries))[1][1] for dl, entries in cases[-4:]] \
        == [{"element": 1, "order": o} for o in (16, 16, 8, 27)]
    assert _lemma_outcomes(algebras[-1]) == ["power depths must respect the filtration"] * 2
    assert seen == {("pass", 1), ("violation", 1), ("violation", 2),
                    "power depths must respect the filtration"}


def test_lazard_lemma_check_reduces_the_ad_matrix_of_a_power_mod_p():
    # C9 x C3 = <g> x <h> relabelled so that g is id 1 and g^6 (id 2), not
    # g^3, is the degree-3 basis element: g^3 has coordinate 2 there.  With
    # [b_0, b_1] = b_1 and [b_1, b_2] = b_1, (ad g)^3 = diag(0, 1, 0) =
    # 2 ad(b_2) mod 3, whose one entry is 2 * 2 = 4 before reduction; so the
    # lemma holds at g and ad-nilpotency fails there
    G = ge.direct_product(ge.cyclic_group(9), ge.cyclic_group(3))
    order = [0, 3, 18, 9, 1]  # e, g, g^6, g^3, h, then the rest
    order += [x for x in range(G.order) if x not in order]
    new = {old: i for i, old in enumerate(order)}
    H = ge.FiniteGroup([[new[G.mul(a, b)] for b in order] for a in order])
    dl = ge.lazard_algebra(H, 3)
    assert (dl.degrees, dl.basis) == ((1, 1, 3), (1, 4, 2))
    assert dl.image(new[9]) == (3, [0, 0, 2])
    oracle, check = _lemma_outcomes(_corrupted(dl, [(0, 1, 1), (1, 2, 1)]))
    assert oracle == check == ("violation", {"element": 1, "order": 9},
                               "ad-nilpotency index exceeds the element order")


def test_exponents_are_the_lcm_of_element_orders():
    S3 = ge.group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    D514 = ge.dihedral_group(257)
    for G, subsets in ((S3, ([0], [1], [0, 1, 2], range(6))),
                       (D514, ([0], [1], [257], [1, 257], range(0, 514, 3), range(514)))):
        for S in subsets:
            S = list(S)
            expected = np.lcm.reduce([G.element_order(x) for x in S])
            assert ge.exponent_of_subset(G, S) == expected
            assert ge.exponent_of_subset(G, frozenset(S)) == expected
        assert G.exponent() == np.lcm.reduce([G.element_order(x) for x in range(G.order)])
    assert (S3.exponent(), D514.exponent()) == (6, 514)
    assert ge.exponent_of_subset(ge.cyclic_group(1), [0]) == ge.cyclic_group(1).exponent() == 1
    # a subprocess: building the order-4999 table peaks near 250 MB, which
    # would stay in this process's own peak RSS
    code = ("from flab import group_engine as ge; G = ge.cyclic_group(4999); "
            "print(G.exponent(), G.element_order(1), G.element_order(1234), "
            "ge.exponent_of_subset(G, [1234]), ge.exponent_of_subset(G, [0]), "
            "ge.exponent_of_subset(G, []))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out == ["4999"] * 4 + ["1", "1"]


def sylow_by_element_orders(G, p):
    """Oracle: sylow_subgroup's extension walk over the ids whose
    element_order divides the p-part of |G|, as it was before the power map."""
    part = p ** ge.factorize(G.order).get(p, 0)
    P = frozenset({G.identity})
    while len(P) < part:
        for x in range(G.order):
            if x in P or part % G.element_order(x):
                continue
            K = ge.subgroup_closure(G, set(P) | {x})
            if len(K) > len(P) and not part % len(K):
                P = K
                break
        else:
            raise RuntimeError("sylow extension failed")
    return P


def test_sylow_subgroup_matches_the_element_order_walk():
    groups = [build() for build in builder_groups(64).values()]
    groups.append(ge.BCHGroup(gl.example_pm(5, 1).lie))
    for G in groups:
        for p in (2, 3, 5, 7):
            assert ge.sylow_subgroup(G, p) == sylow_by_element_orders(G, p)


def sylow_by_unbounded_walks(G, p):
    """Oracle: sylow_subgroup with every candidate's walk run to the end."""
    part = p ** ge.factorize(G.order).get(p, 0)
    p_elements = [x for x in range(G.order) if not part % G.element_order(x)]
    P, gens = frozenset({G.identity}), []
    while len(P) < part:
        for x in p_elements:
            if x in P:
                continue
            K, adjoined = ge._dimino(G, [x] + gens)
            if not part % len(K):
                P, gens = K, adjoined
                break
    return P


def _s6():
    return ge.group_from_permutations(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])


def test_sylow_walks_stop_past_the_p_part(monkeypatch):
    groups = {name: build() for name, build in builder_groups(24).items()}
    groups["S6"] = _s6()
    for name, G in groups.items():
        for p in (2, 3, 5, 7):
            assert ge.sylow_subgroup(G, p) == sylow_by_unbounded_walks(G, p), (name, p)
    calls = []
    mul = ge.FiniteGroup.mul
    monkeypatch.setattr(ge.FiniteGroup, "mul",
                        lambda self, x, y: calls.append(1) or mul(self, x, y))
    S6 = _s6()
    assert [len(ge.sylow_subgroup(S6, p)) for p in (2, 3, 5)] == [16, 9, 5]
    assert len(calls) <= 5000  # 74,329 with every rejected walk finished


def test_jz_filtration_walks_each_distinct_term_once(monkeypatch):
    calls = []
    generating_set = ge._generating_set
    monkeypatch.setattr(ge, "_generating_set",
                        lambda *args: calls.append(args[1:]) or generating_set(*args))
    groups = jennings_groups()
    for name, p, walks in (("Syl2(S8)", 2, 4), ("Heis7", 7, 2)):
        G = groups[name]()
        calls.clear()
        filt = ge.jz_filtration(G, p)
        # G's own set, then each distinct nontrivial proper term as A; the
        # law check reuses them
        assert len(calls) == walks == len(set(filt.terms)) - 1, name
        assert filt.terms == _lazard_product_terms(G, p)


def test_is_powerful():
    assert ge.is_powerful(ge.cyclic_group(4), 2)
    assert ge.is_powerful(ge.elementary_abelian_group(2, 2), 2)
    assert not ge.is_powerful(ge.named_group("D8"), 2)
    assert not ge.is_powerful(ge.named_group("Q8"), 2)
    assert not ge.is_powerful(ge.named_group("Heis3"), 3)
    assert ge.is_powerful(ge.heisenberg_group(5), 5) is False


# --- Hausdorff-product groups ---


def test_bch_group_small():
    ex = gl.example_pm(5, 1)
    G = ge.BCHGroup(ex.lie)
    assert G.order == 125 and G.lie_class == 1
    F = G.to_finite_group()
    assert F.is_abelian() and F.exponent() == 5
    assert ge.bch_nilpotency_class(G) == 1


def test_bch_group_pm52():
    ex = gl.example_pm(5, 2)
    G = ge.BCHGroup(ex.lie)
    assert G.order == 15625
    assert G.lie_class == 2
    assert ge.bch_nilpotency_class(G) == 2
    gens = ge._generating_set(G)
    assert len(gens) == 3
    # group commutator of basis vectors realizes the scaled bracket
    c = G.commutator(gens[0], gens[1])
    vec = G.decode(c)
    assert tuple(int(x) for x in vec) == (0, 0, 5)
    # encode/decode round trip and inverse = negation
    for a in (0, 1, 17, 4444, G.order - 1):
        assert G.encode(G.decode(a)) == a
        assert G.mul(a, G.inv(a)) == 0


def test_bch_transport():
    ex = gl.example_pm(5, 2)
    G = ge.BCHGroup(ex.lie)
    perm_f = G.transport(ex.f[0])
    perm_h = G.transport(ex.h)
    assert ge.perm_order(perm_f) == 2
    assert ge.perm_order(perm_h) == 3
    with pytest.raises(InputError):
        G.transport([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_bch_rejects_bad_rings():
    with pytest.raises(InputError):
        ge.BCHGroup(gl.example_pm(3, 1).lie)  # p = 3 < 5
    from flab.rings import IntegersModRing
    L = gl.GradedLieRing(IntegersModRing(6), 1, {})
    with pytest.raises(InputError):
        ge.BCHGroup(L)


def test_lazard_group_from_lie():
    ex = gl.example_pm(5, 2)
    out = ge.lazard_group_from_lie(ex.lie, list(ex.f) + [ex.h])
    assert out.lie_class == 2
    assert out.group.order == 15625
    assert len(out.transported) == 4
    fixed_f = ge.fixed_points(out.group, out.transported[:3])
    assert len(fixed_f) == 1
    fixed_h = ge.fixed_points(out.group, [out.transported[3]])
    assert len(fixed_h) == 25
