"""sympy's permutation groups as an independent oracle for the table-group
toolkit: centers, lower central and derived series, nilpotency classes and
Sylow classes of small permutation groups built with
group_from_permutations."""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from flab import group_engine as ge


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, gens


def both_sides(degree, gens):
    """(flab group, its elements as permutation tuples by id, sympy group)."""
    G = ge.group_from_permutations(degree, gens)
    perms = [tuple(json.loads(name)) for name in G.names]
    return G, perms, PermutationGroup([Permutation(g) for g in gens])


@settings(max_examples=60, deadline=None)
@given(permutation_groups())
def test_center_and_lower_central_series_match_sympy(case):
    G, perms, S = both_sides(*case)
    assert G.order == S.order()
    assert {perms[x] for x in ge.center(G)} == {
        tuple(p.array_form) for p in S.center().elements}
    series = [len(term) for term in ge.lower_central_series_sets(G)]
    oracle = [H.order() for H in S.lower_central_series()]
    assert series == oracle
    nilpotent = S.is_nilpotent
    assert ge.nilpotency_class(G) == (len(oracle) - 1 if nilpotent else None)
    derived = [{perms[x] for x in term} for term in ge.derived_series_sets(G)]
    assert derived == [{tuple(p.array_form) for p in H.elements}
                       for H in S.derived_series()]


@settings(max_examples=40, deadline=None)
@given(permutation_groups())
def test_sylow_counts_match_sympy(case):
    # the Sylow classes themselves, as sets of permutations
    G, perms, S = both_sides(*case)
    elements = [p.array_form for p in S.elements]
    for p in ge.factorize(G.order):
        P = [x.array_form for x in S.sylow_subgroup(p).elements]
        oracle = {frozenset(conjugate(g, x) for x in P) for g in elements}
        got = [frozenset(perms[x] for x in Q) for Q in ge.all_sylow_subgroups(G, p)]
        assert len(got) == len(oracle) and set(got) == oracle


def conjugate(g, x) -> tuple[int, ...]:
    """The permutation g(j) -> g(x(j)), that is g x g^-1, as an array."""
    out = [0] * len(g)
    for j, gj in enumerate(g):
        out[gj] = g[x[j]]
    return tuple(out)
