"""sympy's permutation groups as an independent oracle for the table-group
toolkit: centers, lower central series, nilpotency classes and Sylow
counts of small permutation groups built with group_from_permutations."""
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


@settings(max_examples=40, deadline=None)
@given(permutation_groups())
def test_sylow_counts_match_sympy(case):
    G, _, S = both_sides(*case)
    for p in ge.factorize(G.order):
        P = S.sylow_subgroup(p)
        normalizer = sum(
            all(P.contains(g**-1 * x * g) for x in P.generators) for g in S.elements)
        assert len(ge.all_sylow_subgroups(G, p)) == S.order() // normalizer
