"""Free Lie tooling: Hall normal form, delta commutators, the two rewriting
procedures, and span membership."""
from __future__ import annotations

import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import free_lie as fl
from flab.combinatorics import FrobeniusParams, d_set
from flab.errors import CapacityError, InputError

X = fl.IndexedGenerator("x")
Y = fl.IndexedGenerator("y")
Z = fl.IndexedGenerator("z")


def gen_tree(rng: random.Random, gens, weight: int):
    if weight == 1:
        return rng.choice(gens)
    cut = rng.randrange(1, weight)
    return (gen_tree(rng, gens, cut), gen_tree(rng, gens, weight - cut))


# --- Hall basis ---


def test_hall_basis_witt_counts():
    a, b = fl.IndexedGenerator("a"), fl.IndexedGenerator("b")
    words = fl.hall_basis([a, b], 5)
    by_weight = {}
    for w in words:
        by_weight[w.weight] = by_weight.get(w.weight, 0) + 1
    # necklace counts for a free Lie ring on two generators
    assert by_weight == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}
    assert all(fl.is_hall(w) for w in words)
    three = fl.hall_basis([a, b], 3)
    assert [fl.format_tree(w) for w in three] == [
        "a", "b", "[b, a]", "[[b, a], a]", "[[b, a], b]"]


def test_hall_basis_three_generators():
    gens = [fl.IndexedGenerator(n) for n in "abc"]
    words = fl.hall_basis(gens, 3)
    counts = {}
    for w in words:
        counts[w.weight] = counts.get(w.weight, 0) + 1
    assert counts == {1: 3, 2: 3, 3: 8}


def test_hall_basis_input_checks():
    a = fl.IndexedGenerator("a")
    with pytest.raises(InputError):
        fl.hall_basis([a, a], 2)
    with pytest.raises(InputError):
        fl.hall_basis([a], 0)
    with pytest.raises(CapacityError):
        fl.hall_basis([a], fl.WEIGHT_CAP + 1)
    assert len(fl.hall_basis([a], fl.WEIGHT_CAP)) > 0


# --- normalization ---


def test_normalize_antisymmetry_and_alternating():
    assert fl.normalize((X, Y)) == -fl.normalize((Y, X))
    assert fl.normalize((X, X)).is_zero()
    assert fl.normalize(((X, Y), (X, Y))).is_zero()


def test_normalize_idempotent():
    e = fl.normalize(((X, Y), Z))
    assert fl.normalize(e) == e
    for w in e.terms:
        assert fl.is_hall(w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_normalize_jacobi_random(seed, weight):
    rng = random.Random(seed)
    a = gen_tree(rng, [X, Y, Z], weight)
    b = gen_tree(rng, [X, Y, Z], rng.randrange(1, 4))
    c = gen_tree(rng, [X, Y, Z], rng.randrange(1, 4))
    total = (fl.normalize(((a, b), c)) + fl.normalize(((b, c), a))
             + fl.normalize(((c, a), b)))
    assert total.is_zero()


def test_normalize_output_is_hall(subtests=None):
    rng = random.Random(5)
    for _ in range(40):
        t = gen_tree(rng, [X, Y, Z], rng.randrange(1, 7))
        for w in fl.normalize(t).terms:
            assert fl.is_hall(w)


def test_normalize_linearity():
    e = sum((fl.normalize(t).scale(c) for c, t in [(2, (X, Y)), (3, (Y, X)), (1, X)]),
            fl.FreeLieElement.zero())
    assert e == fl.normalize(X) - fl.normalize((X, Y))


def test_normalize_rejects_non_binary():
    with pytest.raises(InputError):
        fl.normalize((X, Y, Z))
    with pytest.raises(InputError):
        fl.normalize("x")


def test_normalize_takes_words_elements_and_lists_inside_trees():
    rng = random.Random(17)
    for _ in range(40):
        left, right = (gen_tree(rng, [X, Y, Z], rng.randrange(1, 5)) for _ in range(2))
        want = fl.normalize((left, right))
        assert fl.normalize([left, right]) == want
        assert fl.normalize((fl.normalize(left), right)) == want
        assert fl.normalize((left, fl.normalize(right))) == want
        words = fl.normalize(left).terms
        if len(words) == 1 and next(iter(words.values())) == 1:
            assert fl.normalize((next(iter(words)), right)) == want
    elem = fl.normalize(((X, Y), Z))
    assert fl.normalize(elem) is elem
    with pytest.raises(InputError, match="bracket trees are binary; use nested pairs"):
        fl.normalize(((X, Y), (X, Y, Z)))
    with pytest.raises(InputError, match="not a bracket expression: 'x'"):
        fl.normalize((X, "x"))


# --- normalization oracles ---

MERSENNE_61 = (1 << 61) - 1
FOUR_GENERATORS = [fl.IndexedGenerator("x", 1), fl.IndexedGenerator("x", 2),
                   fl.IndexedGenerator("y", 1), fl.IndexedGenerator("z", 3)]


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % MERSENNE_61 for col in zip(*b))
                 for row in a)


def commutator(a, b):
    ab, ba = _mat_mul(a, b), _mat_mul(b, a)
    return tuple(tuple((x - y) % MERSENNE_61 for x, y in zip(r, s)) for r, s in zip(ab, ba))


class MatrixEvaluation:
    """Bracket trees as commutators of seeded random 4x4 matrices over
    Z/(2**61 - 1).  The Lie ring gl_4 is a homomorphic image of the free Lie
    ring, so a tree and its Hall normal form evaluate to the same matrix."""

    def __init__(self, generators, seed):
        rng = random.Random(seed)
        self.mats = {g: tuple(tuple(rng.randrange(MERSENNE_61) for _ in range(4))
                              for _ in range(4)) for g in generators}
        self.words = {}  # Hall word -> matrix

    def tree(self, tree):
        if isinstance(tree, fl.IndexedGenerator):
            return self.mats[tree]
        return commutator(self.tree(tree[0]), self.tree(tree[1]))

    def word(self, word):
        got = self.words.get(word)
        if got is None:
            got = self.words[word] = (self.mats[word.gen] if word.is_leaf else
                                      commutator(self.word(word.left), self.word(word.right)))
        return got

    def element(self, elem):
        total = [[0] * 4 for _ in range(4)]
        for word, c in elem.terms.items():
            for row, mrow in zip(total, self.word(word)):
                for j, x in enumerate(mrow):
                    row[j] = (row[j] + c * x) % MERSENNE_61
        return tuple(map(tuple, total))


def reference_normalize(tree, memo):
    """The earlier kernel's normalization, kept as an oracle: one dict per
    subtree, and every bracket of Hall words memoized, trivial ones too."""
    if isinstance(tree, fl.IndexedGenerator):
        return {fl.HallWord.leaf(tree): 1}
    return reference_bracket(reference_normalize(tree[0], memo),
                              reference_normalize(tree[1], memo), memo)


def reference_bracket(a, b, memo):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, c in reference_hall_bracket(u, v, memo).items():
                out[w] = out.get(w, 0) + cu * cv * c
    return {w: c for w, c in out.items() if c}


def reference_hall_bracket(u, v, memo):
    if u is v:
        return {}
    if u < v:
        return {w: -c for w, c in reference_hall_bracket(v, u, memo).items()}
    if (u, v) not in memo:
        if u.is_leaf or u.right <= v:
            memo[(u, v)] = {fl.HallWord.node(u, v): 1}
        else:
            # [[u1,u2],v] = [[u1,v],u2] + [u1,[u2,v]]
            acc = reference_bracket(reference_hall_bracket(u.left, v, memo),
                                     {u.right: 1}, memo)
            for w, c in reference_bracket({u.left: 1}, reference_hall_bracket(
                    u.right, v, memo), memo).items():
                acc[w] = acc.get(w, 0) + c
            memo[(u, v)] = {w: c for w, c in acc.items() if c}
    return memo[(u, v)]


def _has_square(tree):
    return isinstance(tree, tuple) and (tree[0] == tree[1] or _has_square(tree[0])
                                        or _has_square(tree[1]))


def oracle_trees(seed, count):
    """count trees on FOUR_GENERATORS, weights 2-8 in turn, redrawn while
    they hold a bracket [t, t], which would make them 0 at once."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        tree = gen_tree(rng, FOUR_GENERATORS, 2 + i % 7)
        while _has_square(tree):
            tree = gen_tree(rng, FOUR_GENERATORS, 2 + i % 7)
        out.append(tree)
    return out


def test_normalize_agrees_with_matrix_commutators():
    evaluate = MatrixEvaluation(FOUR_GENERATORS, "gl4")
    for tree in oracle_trees("matrix-oracle", 350):
        assert evaluate.element(fl.normalize(tree)) == evaluate.tree(tree), tree


def test_normalize_agrees_with_the_reference_kernel():
    memo = {}
    for tree in oracle_trees("reference-oracle", 350):
        assert fl.normalize(tree).terms == reference_normalize(tree, memo), tree


def test_bracket_memo_holds_only_hall_rewrites():
    for tree in oracle_trees("memo-contents", 200):
        fl.normalize(tree)
    assert fl._BRACKET_MEMO
    for u, v in fl._BRACKET_MEMO:
        assert u > v and not u.is_leaf and u.right > v, (u, v)
    for row in fl._BRACKET_MEMO.values():
        assert type(row) is dict
        for w, c in row.items():
            assert type(c) is int and c != 0 and fl.is_hall(w), (w, c)


def test_changing_returned_terms_leaves_later_results_intact():
    trees = oracle_trees("aliasing", 140)
    junk = fl.HallWord.leaf(X)

    def scramble(elem):
        for w in list(elem.terms):
            elem.terms[w] *= 3
        elem.terms[junk] = elem.terms.get(junk, 0) + 5

    # oracle_trees gives tree i the weight 2 + i % 7; bracket pairs of
    # total weight at most 9
    pairs = [(trees[i], trees[i + 1]) for i in range(0, len(trees), 2)
             if 4 + i % 7 + (i + 1) % 7 <= 9]
    assert len(pairs) >= 20
    for tree in trees:
        scramble(fl.normalize(tree))
    for left, right in pairs:
        scramble(fl.bracket(fl.normalize(left), fl.normalize(right)))
    memo = {}
    for tree in trees:
        assert fl.normalize(tree).terms == reference_normalize(tree, memo), tree
    for left, right in pairs:
        got = fl.bracket(fl.normalize(left), fl.normalize(right))
        assert got.terms == reference_normalize((left, right), memo), (left, right)


def test_sums_and_verify_leave_their_operands_intact():
    a = fl.normalize(((X, Y), Z)) + fl.normalize((X, (Y, Z))).scale(2)
    b = fl.normalize(((Y, Z), X)) - fl.normalize((X, (Y, Z))).scale(2)
    a_terms, b_terms = dict(a.terms), dict(b.terms)
    want = {w: a_terms.get(w, 0) + b_terms.get(w, 0) for w in {**a_terms, **b_terms}}
    assert 0 in want.values() and any(want.values())
    assert (a + b).terms == {w: c for w, c in want.items() if c}
    assert a.terms == a_terms and b.terms == b_terms
    assert (a + (-a)).terms == {} and (a + (-a)).is_zero()
    assert (a - a).terms == {}
    assert ((a + b) - b).terms == a_terms
    assert a.terms == a_terms and b.terms == b_terms
    # [u, t0@4, t1@2, t2@3] at (7,3,2): two kept words and three dropped
    # elements, which cancel against the kept words down to the one input word
    out = fl.odin_rewrite((1,), tail(4, 2, 3), 1, P732)
    assert len(out.kept.terms) == 2 and len(out.dropped) == 3
    assert len(out.input_element.terms) == 1
    kept = dict(out.kept.terms)
    dropped = [dict(elem.terms) for elem, _ in out.dropped]
    given = dict(out.input_element.terms)
    assert out.verify() is True
    assert out.verify() is True
    assert out.kept.terms == kept
    assert [elem.terms for elem, _ in out.dropped] == dropped
    assert out.input_element.terms == given


# --- interned Hall words ---


def test_node_returns_the_one_instance_per_tree():
    a, b = fl.HallWord.leaf(X), fl.HallWord.leaf(Y)
    assert fl.HallWord.node(b, a) is fl.HallWord.node(b, a)
    assert fl.HallWord.node(fl.HallWord.node(b, a), a) is fl.HallWord.node(
        fl.HallWord.node(b, a), a)
    assert fl.HallWord.node(b, a) is not fl.HallWord.node(a, b)


def flagged_key(word, cache):
    """The earlier key of a word: (1, 0, (name, index)) for a leaf and
    (weight, 1, left's key, right's key) for a node."""
    got = cache.get(word)
    if got is None:
        got = cache[word] = ((1, 0, (word.gen.name, word.gen.index)) if word.is_leaf else
                             (word.weight, 1, flagged_key(word.left, cache),
                              flagged_key(word.right, cache)))
    return got


def test_word_keys_order_words_as_the_flagged_keys_did():
    assert fl.HallWord.leaf(fl.IndexedGenerator("x", 2)).key == (1, ("x", 2))
    cache = {}
    basis = fl.hall_basis(FOUR_GENERATORS, 6)
    terms = {w for tree in oracle_trees("key-order", 280) for w in fl.normalize(tree).terms}
    assert len(basis) == 964 and len(terms) > 500
    for words in (basis, list(terms), basis + list(terms - set(basis))):
        by_key = sorted(words, key=lambda w: w.key)
        assert by_key == sorted(words, key=lambda w: flagged_key(w, cache))
        assert all(u.key < v.key for u, v in zip(by_key, by_key[1:]))


def test_words_sort_by_themselves_as_by_their_keys():
    basis = fl.hall_basis([X, Y, Z], 6)
    for tree in oracle_trees("self-keys", 200):
        fl.normalize(tree)
    memo_words = list({w for pair in fl._BRACKET_MEMO for w in pair}
                      | {w for row in fl._BRACKET_MEMO.values() for w in row})
    assert len(basis) == 196 and len(memo_words) > 500
    for words in (basis, memo_words, basis + memo_words):
        shuffled = random.Random(len(words)).sample(words, len(words))
        assert sorted(shuffled) == sorted(shuffled, key=lambda w: w.key)
    leaf, node = fl.HallWord.leaf(fl.IndexedGenerator("x", 2)), basis[-1]
    assert leaf.key == (1, ("x", 2)) and leaf.gen == fl.IndexedGenerator("x", 2)
    assert leaf.left is None and leaf.right is None and leaf.index_sum == 2
    assert node.key == (node.weight, node.left.key, node.right.key) and node.gen is None
    assert node.index_sum == node.left.index_sum + node.right.index_sum


def test_hall_words_inside_trees_act_as_their_generator_trees():
    # a word is a tuple, so no tree walk may take it for a pair
    params = FrobeniusParams(7, 3, 2)
    for tree in oracle_trees("words-in-trees", 60):
        words = list(fl.normalize(tree).terms)
        w1, w2 = words[0], words[-1]
        t1, t2 = w1.to_tree(), w2.to_tree()
        # razresh's tree walks read a word whole, as one generator of its index sum
        g1, g2 = (fl.IndexedGenerator(f"g{i}", w.index_sum) for i, w in ((1, w1), (2, w2)))
        for mixed, plain, opaque in ((w1, t1, g1), ((w1, w2), (t1, t2), (g1, g2)),
                                     ([w1, (w2, X)], (t1, (t2, X)), None),
                                     ((X, (w2, w1)), (X, (t2, t1)), (X, (g2, g1)))):
            assert fl.normalize(mixed) == fl.normalize(plain), plain
            assert fl.tree_index_sum(mixed) == fl.tree_index_sum(plain)
            if opaque is None:
                continue  # format_tree and razresh read tuples only
            assert fl.format_tree(mixed) == fl.format_tree(plain)
            for c in (0, 1, 2):
                assert fl._tree_qualifies(mixed, c, params) == fl._tree_qualifies(
                    opaque, c, params), (plain, c)


def hall_word_count():
    return sum(type(obj) is fl.HallWord for obj in gc.get_objects())


def test_interned_words_cost_fewer_bytes(monkeypatch):
    # words that are their own keys, in one dict row per left word: 318
    # traced bytes per new word on CPython 3.11, against 382 with a separate
    # key tuple per word and 424 with a (left, right) pair tuple per word as
    # well (303-318, 367-382 and 415-424 over four tree seeds); the bytes of
    # the memo rows that the normalizations add are spread over the words too
    for table in ("_LEAVES", "_NODES", "_BRACKET_MEMO"):
        monkeypatch.setattr(fl, table, {})
    gens = [fl.IndexedGenerator(f"mem{i}", i) for i in range(4)]
    rng = random.Random("interned-bytes")
    trees = [gen_tree(rng, gens, 7) for _ in range(1000)]
    gc.collect()
    old_words = hall_word_count()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for tree in trees:
            fl.normalize(tree)
        gc.collect()
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    words = hall_word_count() - old_words
    assert added / words < 330, (added, words)
    assert words == len(fl._LEAVES) + sum(len(row) for row in fl._NODES.values())


def test_equal_generators_give_the_same_leaf():
    twin = fl.IndexedGenerator("w", 2)
    other = fl.IndexedGenerator("w", 2)
    assert twin is not other
    assert fl.HallWord.leaf(twin) is fl.HallWord.leaf(other)
    assert fl.HallWord.leaf(twin) is not fl.HallWord.leaf(fl.IndexedGenerator("w", 3))


def test_copies_and_pickles_return_the_interned_word():
    word = next(iter(fl.normalize(((X, Y), (Z, (X, Y)))).terms))
    assert copy.copy(word) is word
    assert copy.deepcopy(word) is word
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(word, protocol)) is word
    leaf = fl.HallWord.leaf(X)
    assert copy.deepcopy(leaf) is leaf
    assert pickle.loads(pickle.dumps(leaf)) is leaf
    elem = fl.normalize(((X, Y), Z)) - fl.normalize(((Y, Z), X))
    back = pickle.loads(pickle.dumps(elem))
    assert back == elem and hash(back) == hash(elem)
    assert copy.deepcopy(elem) == elem


def test_elements_normalized_apart_are_equal_and_hash_alike():
    rng = random.Random(11)
    for _ in range(30):
        tree = gen_tree(rng, [X, Y, Z], rng.randrange(2, 7))
        first = fl.normalize(tree)
        fl._BRACKET_MEMO.clear()
        again = fl.normalize(fl.parse_expression(fl.format_tree(tree)))
        assert first == again
        assert hash(first) == hash(again)
        assert len({first, again}) == 1
        assert fl.format_element(first) == fl.format_element(again)


# --- parsing and formatting ---


def test_parse_round_trips():
    for text in ("x", "x@3", "[b, a]", "[[b, a], a]", "[x@1, [y@2, z@-1]]"):
        tree = fl.parse_expression(text)
        assert fl.format_tree(tree) == text


def test_parse_left_normed_sugar():
    assert fl.parse_expression("[a, b, c]") == fl.parse_expression("[[a, b], c]")


def test_parse_errors():
    for bad in ("", "[a]", "[a, b", "a@", "a b", "[a,, b]", "3"):
        with pytest.raises(InputError):
            fl.parse_expression(bad)


def test_format_element():
    assert fl.format_element(fl.FreeLieElement.zero()) == "0"
    e = fl.normalize((X, Y)).scale(2) + fl.normalize(Z)
    assert fl.format_element(e) == "z - 2*[y, x]"


# --- delta commutators ---


def test_delta_shapes():
    a1 = fl.IndexedGenerator("a", 1)
    b2 = fl.IndexedGenerator("b", 2)
    assert fl.format_element(fl.delta(1, [a1, b2])) == "-[b@2, a@1]"
    gens4 = [fl.IndexedGenerator(n, 1) for n in "abcd"]
    assert fl.delta_tree(2, gens4) == ((gens4[0], gens4[1]), (gens4[2], gens4[3]))
    assert fl.delta(2, gens4) == fl.normalize(fl.delta_tree(2, gens4))
    with pytest.raises(InputError):
        fl.delta(2, gens4[:3])
    with pytest.raises(InputError):
        fl.delta(0, [])


def test_tree_helpers():
    t = fl.parse_expression("[x@1, [y@2, z@4]]")
    assert fl.tree_index_sum(t) == 7


# --- rewriting: shared head validation ---


P732 = FrobeniusParams(7, 3, 2)
P726 = FrobeniusParams(7, 2, 6)


def tail(*indices):
    return tuple(fl.IndexedGenerator(f"t{k}", i) for k, i in enumerate(indices))


def test_head_validation():
    with pytest.raises(InputError):
        fl.odin_rewrite((1, 2), tail(2), 1, P732)  # two indices, c=1
    with pytest.raises(InputError):
        fl.odin_rewrite((7,), tail(2), 1, P732)  # zero mod 7
    with pytest.raises(InputError):
        fl.odin_rewrite((1, 2), tail(2), 2, P732)  # (1,2) is r-dependent
    with pytest.raises(InputError):
        fl.odin_rewrite((1,), tail(7), 1, P732)  # zero tail index
    with pytest.raises(InputError):
        fl.odin_rewrite((1,), (fl.IndexedGenerator("u", 2),), 1, P732)
    with pytest.raises(InputError):
        fl.odin_rewrite((1,), ("x",), 1, P732)


def test_uatom_and_tuple_agree():
    a = fl.odin_rewrite(fl.UAtom((1,)), tail(2, 4), 1, P732)
    b = fl.odin_rewrite((1,), tail(2, 4), 1, P732)
    assert a.kept == b.kept and a.dropped == b.dropped
    assert a.u_leaf == fl.IndexedGenerator("u", 1)


# --- odin rewriting ---


def test_odin_frozen_example():
    out = fl.odin_rewrite((1,), tail(2, 5), 1, P732)
    assert out.verify()
    assert out.kept.is_zero() and not out.kept_terms
    assert len(out.dropped_terms) == 2
    reasons = {t.reason for t in out.dropped_terms}
    assert reasons == {fl.REASON_ZERO_SUM, fl.REASON_INDEPENDENT}


def test_odin_keeps_dset_tails():
    # D((1,)) at (7,3,2) is {2,4,6}: an all-D tail passes through unchanged
    out = fl.odin_rewrite((1,), tail(2, 4, 6), 1, P732)
    assert out.verify()
    assert not out.dropped_terms
    assert len(out.kept_terms) == 1 and out.kept_terms[0].coeff == 1


def test_odin_kept_indices_land_in_dset():
    dset = d_set((1,), P732)
    rng = random.Random(77)
    for _ in range(50):
        t = tail(*(rng.randrange(1, 7) for _ in range(rng.randrange(1, 5))))
        out = fl.odin_rewrite((1,), t, 1, P732)
        assert out.verify()
        for term in out.kept_terms:
            for e in term.elems:
                assert fl.tree_index_sum(e) % 7 in dset


def test_odin_two_index_head():
    # (1, 3) is r-independent at (7,3,2): 1+3=4 vs 2^a+3*2^b avoiding 4
    out = fl.odin_rewrite((1, 3), tail(2, 4), 2, P732)
    assert out.verify()
    assert out.u_leaf.index == 4
    total = out.kept
    for elem, reason in out.dropped:
        assert reason in (fl.REASON_ZERO_SUM, fl.REASON_INDEPENDENT)
        total = total + elem
    assert total == out.input_element


# --- dva rewriting ---


def test_dva_frozen_example():
    out = fl.dva_rewrite((1,), tail(2, 3), 1, P726, 2)
    assert out.verify()
    assert out.kept.is_zero()
    assert len(out.dropped_terms) == 1
    assert out.dropped_terms[0].reason == fl.REASON_INDEPENDENT


def test_dva_engel_drop():
    # D((1,)) at (7,2,6) is {6}; additive order 7 exceeds capacity_n(1,2)=4,
    # so two adjacent 6-indices trip the w=2 drop clause
    assert d_set((1,), P726) == {6}
    out = fl.dva_rewrite((1,), tail(6, 6), 1, P726, 2)
    assert out.verify()
    assert out.kept.is_zero()
    assert {t.reason for t in out.dropped_terms} == {fl.REASON_ENGEL}


def test_dva_short_terms_untouched():
    out = fl.dva_rewrite((1,), tail(6), 1, P726, 3)
    assert out.verify()
    assert not out.dropped_terms
    assert len(out.kept_terms) == 1


def test_dva_randomized_identity():
    rng = random.Random(4242)
    for params, c in ((P732, 1), (P726, 1)):
        for _ in range(30):
            t = tail(*(rng.randrange(1, 7) for _ in range(rng.randrange(1, 5))))
            w = rng.randrange(2, 5)
            out = fl.dva_rewrite((1,), t, c, params, w)
            assert out.verify()


def test_dva_rejects_bad_w():
    with pytest.raises(InputError):
        fl.dva_rewrite((1,), tail(2), 1, P732, 0)


# --- razresh membership ---


def test_razresh_frozen_example():
    report = fl.razresh_membership(1, 3, P732, (1, 2, 4, 1))
    assert report.member
    assert report.qualifying_count == 13
    assert len(report.certificate) == 2


def test_razresh_negative():
    report = fl.razresh_membership(3, 3, P732, (1, 1))
    assert not report.member
    assert report.qualifying_count == 0
    assert report.certificate is None


def test_razresh_zero_sum_pair():
    # indices (1, 6) sum to 0 mod 7, so the single tree qualifies by the
    # zero-sum clause and certifies itself
    report = fl.razresh_membership(1, 3, P732, (1, 6))
    assert report.member
    assert report.qualifying_count == 1
    assert len(report.certificate) == 1


def test_razresh_input_checks():
    with pytest.raises(InputError):
        fl.razresh_membership(1, 2, P732, (1, 2))  # q mismatch
    with pytest.raises(InputError):
        fl.razresh_membership(1, 3, P732, (1, 2, 4))  # not a power of two
    with pytest.raises(InputError):
        fl.razresh_membership(1, 3, P732, (1, 7))  # zero index
    with pytest.raises(InputError):
        fl.razresh_membership(-1, 3, P732, (1, 2))


def test_weight_cap_parameters():
    assert fl.WEIGHT_CAP == 8
    with pytest.raises(CapacityError):
        fl.razresh_membership(1, 3, P732, (1, 2, 4, 1), weight_cap=2)
    with pytest.raises(CapacityError, match="exceeds cap 8"):
        fl.razresh_membership(1, 3, P732, (1, 2), weight_cap=9)
    a = fl.IndexedGenerator("a")
    assert len(fl.hall_basis([a], 3)) == 1
    assert len(fl.hall_basis([a], fl.WEIGHT_CAP)) == 1


def test_razresh_refuses_weight_8_before_building_trees(monkeypatch):
    def no_trees(leaves):
        raise AssertionError("_all_trees ran")

    monkeypatch.setattr(fl, "_all_trees", no_trees)
    with pytest.raises(CapacityError) as info:
        fl.razresh_membership(1, 3, P732, (1, 2, 4, 1, 2, 4, 1, 3))
    message = str(info.value)
    assert "RAZRESH_TREE_CAP" in message and "weight 8" in message and "135135" in message
    # weight 4 has 15 trees and is admitted
    with pytest.raises(AssertionError, match="_all_trees ran"):
        fl.razresh_membership(1, 3, P732, (1, 2, 4, 1))


def test_razresh_tree_counts_are_double_factorials():
    counts = {m: len(fl._all_trees(tuple(fl.IndexedGenerator(f"y{t}") for t in range(m))))
              for m in (2, 3, 4, 5)}
    assert counts == {2: 1, 3: 3, 4: 15, 5: 105}
    assert 15 <= fl.RAZRESH_TREE_CAP < 135135


# --- the benchmark's reads from free_lie and group_engine ---


def run_benchmark_child(workload: str) -> dict:
    """One traced smoke round of a benchmark workload, as the benchmark runs
    it; the round's JSON output, after checking that every verdict held."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"),
         workload, "1", "smoke", "1", repr(time.perf_counter())],
        capture_output=True, text=True, timeout=120,
        env={**{k: v for k, v in os.environ.items()
                if not k.startswith("FLAB_") and k not in ("PYTHONPATH", "PYTHONHOME")},
             "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
             "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sum(out["attempted"].values()) > 0
    assert not out["failed"] and not out["failures"]
    return out


def test_benchmark_child_reads_free_lie_metrics():
    # the bracket memo is reported
    out = run_benchmark_child("lie-rewrite")
    entries, absent = out["layers"]["free_lie.bracket_memo.entries"]
    assert absent is None and entries > 0


def test_benchmark_child_traces_table_groups():
    # the tracer wraps FiniteGroup.__init__, cyclic_group and dihedral_group
    # by name, so a rename shows here as a zero count
    out = run_benchmark_child("fixed-point-checks")
    calls, absent = out["layers"]["group_engine.FiniteGroup.init.calls"]
    assert absent is None and calls > 0
