"""Index arithmetic: the (prim) gate, r-dependence, D-sets, and the
capacity and characteristic bounds."""

from __future__ import annotations

import functools
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flab import combinatorics as comb
from flab import free_lie as fl
from flab import graded_lie as gl
from flab.combinatorics import (
    DependenceWitness,
    FrobeniusParams,
    additive_order,
    capacity_n,
    char0_exhaust,
    charp_bound,
    check_prim,
    common_root_moduli,
    d_set,
    engel_width,
    find_independent_subseq,
    is_r_dependent,
    prim_failure,
)
from flab.errors import CapacityError, InputError
from flab.rings import PrimeFieldRing, multiplicative_order, sylvester_resultant


def params(n, q, r):
    return FrobeniusParams(n, q, r)


# --- the (prim) gate ---


def test_check_prim_examples():
    assert check_prim(7, 3, 2)
    assert check_prim(3, 2, 2)
    assert not check_prim(15, 4, 2)


def test_check_prim_definition_small():
    # r must have multiplicative order exactly q modulo every divisor > 1
    for n in range(2, 40):
        for q in range(1, 5):
            for r in range(1, n):
                expected = all(
                    multiplicative_order(r % d, d) == q
                    for d in range(2, n + 1)
                    if n % d == 0
                )
                assert check_prim(n, q, r) == expected


def test_prim_failure_matches_the_definitional_scan():
    # the least failing divisor, by walking every d in 2..n
    order_mod = functools.cache(multiplicative_order)
    for n in range(2, 301):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for r in range(1, n):
            for q in {1, 2, order_mod(r, n) or 3}:
                expected = None
                for d in divisors:
                    order = order_mod(r % d, d)
                    if order != q:
                        expected = (d, order)
                        break
                assert prim_failure(n, q, r) == expected, (n, q, r)


def test_prim_failure_at_a_large_prime_is_fast():
    t0 = time.perf_counter()
    assert prim_failure(10_000_019, 2, 10_000_018) is None
    assert prim_failure(10**9 + 7, 2, 10**9 + 6) is None
    assert prim_failure(2 * (10**9 + 7), 2, 10**9 + 6) == (2, None)
    assert time.perf_counter() - t0 < 0.5


def test_params_validation():
    with pytest.raises(InputError):
        FrobeniusParams(1, 3, 2)
    with pytest.raises(InputError):
        FrobeniusParams(7, 3, 0)
    with pytest.raises(InputError):
        FrobeniusParams(7, 3, 7)
    with pytest.raises(InputError):
        FrobeniusParams(7, 0, 2)
    assert FrobeniusParams(7, 3, 2).passes_prim()
    assert not FrobeniusParams(8, 2, 3).passes_prim()


def test_additive_order():
    assert additive_order(0, 7) == 1
    assert additive_order(3, 7) == 7
    assert additive_order(6, 15) == 5


# --- r-dependence ---


def test_dependence_examples():
    p = params(7, 3, 2)
    dep, wit = is_r_dependent((1, 2), p)
    assert dep and wit is not None
    assert wit.verify((1, 2), p)
    dep, wit = is_r_dependent((1, 1), p)
    assert not dep and wit is None


def test_dependence_witness_checks_out():
    rng = random.Random(5)
    p = params(7, 3, 2)
    for _ in range(200):
        seq = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        dep, wit = is_r_dependent(seq, p)
        if dep:
            assert wit.verify(seq, p)
            assert any(wit.exponents)
        else:
            # brute confirmation over all exponent tuples
            n, q, r = 7, 3, 2
            total = sum(seq) % n
            for exps in itertools.product(range(q), repeat=len(seq)):
                if not any(exps):
                    continue
                assert sum(a * pow(r, e, n) for a, e in zip(seq, exps)) % n != total


def test_dependence_rejects_zero_entries():
    with pytest.raises(InputError):
        is_r_dependent((0, 1), params(7, 3, 2))


def test_dependence_capacity():
    with pytest.raises(CapacityError):
        is_r_dependent(tuple([1] * 9), params(7, 3, 2))


# the first input past each length cap, which callers once could raise, and
# the message it is refused with
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: is_r_dependent((1,) * 9, params(7, 3, 2)),
                 "sequence length 9 exceeds cap 8", id="is_r_dependent"),
    pytest.param(lambda: d_set((1,) * 8, params(7, 3, 2)),
                 "extension length 9 exceeds cap 8", id="d_set"),
    pytest.param(lambda: gl.check_selective_nilpotency(
                     gl.GradedLieRing(PrimeFieldRing(5), 3, {(0, 1): {2: 1}},
                                      grading=[1, 2, 3], grade_modulus=7),
                     8, params(7, 3, 2)),
                 "sequence length 9 exceeds cap 8", id="check_selective_nilpotency"),
    pytest.param(lambda: char0_exhaust(3, 7), "m=7 exceeds cap 6", id="char0_exhaust"),
    pytest.param(lambda: fl.hall_basis([fl.IndexedGenerator("a")], 9),
                 "max_weight 9 exceeds cap 8", id="hall_basis"),
])
def test_refusals_at_the_length_caps(call, message):
    with pytest.raises(CapacityError) as info:
        call()
    assert str(info.value) == message


def _first_solution(seq, n, q, r):
    """The first nonzero exponent tuple in the odometer's lexicographic order
    whose twisted sum is the plain sum, by plain search."""
    plain = sum(seq) % n
    for exps in itertools.product(range(q), repeat=len(seq)):
        if any(exps) and sum(pow(r, e, n) * a for e, a in zip(exps, seq)) % n == plain:
            return exps
    return None


@st.composite
def _dependence_cases(draw):
    q = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    assume(q**k <= 1296)
    # reach sets below edge, the odometer from edge up
    edge = comb.ROTATION_BITS_PER_STEP * -(-q ** (k - 1) // k)
    if q**k <= 16 and draw(st.booleans()):
        n = draw(st.integers(edge, edge + 300))
    else:
        n = draw(st.integers(2, 700))
    r = draw(st.integers(1, n - 1))
    seq = tuple(draw(st.lists(st.integers(-3 * n, 3 * n).filter(lambda a: a % n),
                              min_size=k, max_size=k)))
    return n, q, r, seq


@settings(max_examples=250, deadline=None)
@given(_dependence_cases())
@example((4096, 2, 3, (2048, 1)))  # odometer route, witness (1, 0) ends in exponent 0
def test_dependence_and_d_set_match_the_odometer_oracle(case):
    n, q, r, seq = case
    p = params(n, q, r)
    dep, wit = is_r_dependent(seq, p)
    want = _first_solution([a % n for a in seq], n, q, r)
    assert (wit.exponents if dep else None) == want
    if not dep and len(seq) < 8:
        assert d_set(seq, p) == d_set(seq, p, method="brute")


def test_dependence_length_8_at_q_14_is_fast():
    # the odometer would walk 14**8 tuples; a meet-in-the-middle search over
    # two halves of 14**4 sums each finds no nonzero solution
    p = params(1000133, 14, 199730)
    t0 = time.perf_counter()
    assert is_r_dependent((1,) * 8, p) == (False, None)
    assert time.perf_counter() - t0 < 0.5


def test_length_1_dependence_at_a_million_exponents_is_fast():
    # r = 2 has order q = n - 1: the odometer walks q tuples, where q
    # rotations of million-bit reach sets would take about half a minute
    p = params(1_000_003, 1_000_002, 2)
    t0 = time.perf_counter()
    assert is_r_dependent((1,), p) == (False, None)
    assert time.perf_counter() - t0 < 5


def test_exponent_tables_for_large_q_are_not_kept():
    tracemalloc.start()
    try:
        assert is_r_dependent((1,), params(7, 300_000, 2)) == (True, DependenceWitness((3,)))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20  # the 300,000 powers alone take 2.4 MB


def _distinct_powers(n, r):
    """How many values r**e mod n takes for e >= 1: the order of r when r is
    a unit, the tail plus the cycle otherwise."""
    seen, p = set(), r % n
    while p not in seen:
        seen.add(p)
        p = p * r % n
    return len(seen)


def powers_by_seen_set(n, q, r):
    """Oracle: r**e mod n for 0 <= e < q up to the first power of e >= 1
    that was already seen at some 1 <= j < e."""
    out, seen, p = [1], set(), 1
    for _ in range(q - 1):
        p = p * r % n
        if p in seen:
            break
        seen.add(p)
        out.append(p)
    return tuple(out)


def test_powers_tables_match_the_seen_set_definition():
    # a table never exceeds n + 1 entries, so q = n + 2 reaches every length
    for n in range(1, 101):
        for r in range(n):
            full = powers_by_seen_set(n, n + 2, r)
            for q in range(1, n + 3):
                assert comb._powers(n, q, r) == full[:q], (n, q, r)
    # a unit stops at r**ord(r) = 1: 4 has order 500,001 mod 1,000,003
    table = comb._powers(1_000_003, 1_000_002, 4)
    assert len(table) == 500_002 and table[-1] == 1


def test_exponents_past_the_first_repeated_power_change_nothing():
    # q from one past the powers' cycle to three times it, units and non-units
    for n in (6, 7, 8, 9, 10, 12):
        for r in range(2, n):
            cycle = _distinct_powers(n, r)
            for q in range(cycle + 1, 3 * cycle + 1):
                p = params(n, q, r)
                for k in (1, 2):
                    for seq in itertools.combinations_with_replacement(range(1, n), k):
                        dep, wit = is_r_dependent(seq, p)
                        want = _first_solution(seq, n, q, r)
                        assert (wit.exponents if dep else None) == want, (n, q, r, seq)
                        if dep or k > 1:
                            continue
                        assert d_set(seq, p) == {
                            j for j in range(1, n)
                            if _first_solution((j,) + seq, n, q, r) is not None}, (n, q, r, seq)


def test_exponent_count_far_past_the_order_is_fast():
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        assert is_r_dependent((1,), params(7, 10**9, 2)) == (True, DependenceWitness((3,)))
        # 2 is no unit mod 12: its powers 2, 4, 8, 4, ... repeat from e = 4
        assert d_set((1,), params(12, 10**9, 2)) == d_set((1,), params(12, 4, 2))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20


def test_d_set_names_an_unknown_method_before_any_work():
    # a dependent sequence, and an over-cap search that builds its powers first
    t0 = time.perf_counter()
    for seq, p in (((1, 2), params(7, 3, 2)), ((1,), params(1_000_003, 1_000_002, 2))):
        with pytest.raises(InputError, match="unknown d_set method 'bogus'"):
            d_set(seq, p, method="bogus")
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("n, q, r", [(4_000_037, 4_000_036, 2), (10**9 + 7, 10**9, 5)])
def test_exponent_tables_past_the_cap_are_refused_while_built(n, q, r):
    # r has more than POWERS_CAP distinct powers mod n; building them all
    # would take hundreds of MB (tens of GB at n = 10**9 + 7)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match=rf"\({n}, {q}, {r}\).*POWERS_CAP = 1048576"):
        is_r_dependent((1,), params(n, q, r))
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("call", [
    # 9**8 odometer tuples past BITSET_MAX_N
    pytest.param(lambda: is_r_dependent((1,) * 8, params(10**9 + 7, 9, 2)), id="odometer"),
    # 2 * 40,000 rotations of million-bit reach sets
    pytest.param(lambda: is_r_dependent((1, 2), params(1_000_003, 40_000, 2)), id="reach-sets"),
    # 5,000 sums times 4,999 inverses
    pytest.param(lambda: d_set((1,), params(10**9 + 7, 5_000, 2)), id="d-set-formula"),
    # a billion length-2 searches
    pytest.param(lambda: d_set((1,), params(10**9 + 7, 2, 10**9 + 6), method="brute"),
                 id="d-set-brute"),
])
def test_searches_past_the_step_cap_are_refused(call):
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="SEARCH_STEP_CAP = 16777216"):
        call()
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("n, q, r", [
    (4_099, 4_098, 2),  # 4,098 powers: the odometer route, 4,098 * 4,097 steps
    (10**9 + 7, 5_000, 2),  # past BITSET_MAX_N
])
def test_d_set_refuses_before_building_the_inverses(monkeypatch, n, q, r):
    def inverses(*args):
        pytest.fail("the inverses were built before the step cap was checked")

    monkeypatch.setattr(comb, "_inverses", inverses)
    with pytest.raises(CapacityError, match="SEARCH_STEP_CAP = 16777216"):
        d_set((1,), params(n, q, r))


def test_a_length_1_search_walks_a_whole_table_under_the_step_cap():
    assert comb.SEARCH_STEP_CAP >= comb.POWERS_CAP


@pytest.mark.parametrize("n", [1_000_003, 1_000_000_007])
def test_dependence_memory_does_not_grow_with_n(n):
    # 2**3 exponent tuples: a million-bit reach set would dwarf the search
    p = params(n, 2, n - 1)
    tracemalloc.start()
    try:
        assert is_r_dependent((1, 2, 3), p) == (False, None)
        assert d_set((1, 2, 3), p) == {n - j for j in range(1, 7)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dependence_keeps_no_per_sequence_state():
    p = params(31, 5, 2)
    seqs = list(itertools.islice(itertools.combinations_with_replacement(range(1, 31), 4), 2000))
    is_r_dependent(seqs[0], p)  # the powers table is built and kept before tracing
    tracemalloc.start()
    try:
        for seq in seqs:
            is_r_dependent(seq, p)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4096


def test_dependence_invariant_under_permutation():
    rng = random.Random(9)
    p = params(31, 5, 2)
    for _ in range(60):
        seq = [rng.randint(1, 30) for _ in range(3)]
        base, _ = is_r_dependent(tuple(seq), p)
        rng.shuffle(seq)
        again, _ = is_r_dependent(tuple(seq), p)
        assert base == again


# --- D-sets ---


def test_d_set_frozen_values():
    p = params(7, 3, 2)
    assert d_set((1,), p) == {2, 4, 6}
    assert d_set((2,), p) == {1, 4, 5}
    assert d_set((3,), p) == {4, 5, 6}
    assert d_set((4,), p) == {1, 2, 3}


def test_d_set_at_larger_modulus():
    p = params(131, 3, 2)
    assert d_set((1,), p) == {87, 128, 130}


def test_d_set_routes_agree():
    rng = random.Random(13)
    for (n, q, r) in ((7, 3, 2), (3, 2, 2), (31, 5, 2), (7, 2, 6)):
        p = params(n, q, r)
        for _ in range(40):
            seq = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 2)))
            dep, _ = is_r_dependent(seq, p)
            if dep:
                continue
            assert d_set(seq, p, method="brute") == d_set(seq, p, method="formula")


def test_d_set_routes_agree_on_reach_sets_too_large_to_cache():
    p = params(2053, 6, 2)
    assert p.n < comb.ROTATION_BITS_PER_STEP
    for seq in ((1, 5), (7, 100)):
        assert is_r_dependent(seq, p) == (False, None)
        assert d_set(seq, p) == d_set(seq, p, method="brute")


@pytest.mark.parametrize("n, q, r, seq, size, passes", [
    # 27 twisted sums off the plain sum; the eleventh fills D
    (29, 7, 7, (1, 2), 28, 11),
    # composite n, D short of full: every sum off the plain one is used
    (65, 4, 8, (2, 5), 33, 15),
])
def test_the_formula_stops_once_every_nonzero_residue_is_in(monkeypatch, n, q, r, seq, size,
                                                            passes):
    plain = sum(seq) % n
    sums = {sum(pow(r, e, n) * a for e, a in zip(es, seq)) % n
            for es in itertools.product(range(q), repeat=len(seq))} - {plain}
    counted = []

    class Inverses(tuple):
        def __iter__(self):
            counted.append(1)
            return super().__iter__()

    inverses = Inverses(comb._inverses(n, q, r))
    monkeypatch.setattr(comb, "_inverses", lambda *args: inverses)
    ds = d_set(seq, params(n, q, r), method="formula")
    assert len(ds) == size
    assert len(counted) == passes
    assert (size == n - 1) == (passes < len(sums))
    assert ds == d_set(seq, params(n, q, r), method="brute")


def _bits(residues):
    return sum(1 << s for s in residues)


def length_1_d_sets_by_definition(n, q, r):
    """Oracle: a -> D((a,)) for every r-independent a.  (j, a) is dependent
    when s*j + t*a = 0 mod n for s, t in {r**e - 1 : 0 <= e < q}, not both
    from e = 0 (which gives 0, bit 0 below); a alone is independent when no
    t from e > 0 has t*a = 0."""
    steps = {pow(r, e, n) - 1 for e in range(1, q)}
    hit = [_bits({s * x % n for s in steps}) for x in range(n)]
    back = [_bits({-s * x % n for s in steps}) for x in range(n)]
    return {a: {j for j in range(1, n) if hit[j] & (back[a] | 1)}
            for a in range(1, n) if not back[a] & 1}


def length_1_d_set_by_sums(a, n, q, r):
    """Oracle: d_set's formula loop on the sums p * a of (a,)."""
    inverses, found = comb._inverses(n, q, r), set()
    for s in {p * a % n for p in comb._powers(n, q, r)} - {a}:
        found.update([(s - a) * u % n for u in inverses])
        if len(found) == n - 1:
            break
    return found


def _triples_with_inverses():
    """n < 64, every r, and q one short of, at and one past the count of
    distinct powers r**e, e >= 1 (r's order for a unit), where every
    1 - r**i is a unit: 2,210 triples."""
    for n in range(2, 64):
        for r in range(1, n):
            distinct = _distinct_powers(n, r)
            for q in sorted({max(1, distinct - 1), distinct, distinct + 1}):
                if comb._inverses(n, q, r) is not None:
                    yield n, q, r


def test_length_1_d_sets_are_scaled_copies_of_one_table():
    triples = sequences = 0
    for n, q, r in _triples_with_inverses():
        p = params(n, q, r)
        want = length_1_d_sets_by_definition(n, q, r)
        assert len(want) == n - 1  # invertible 1 - r**i: every a is independent
        assert {a: d_set((a,), p) for a in want} == want, (n, q, r)
        assert all(length_1_d_set_by_sums(a, n, q, r) == want[a] for a in want)
        a = 1 + triples % (n - 1)  # units and non-units in turn
        assert d_set((a,), p, method="brute") == want[a], (n, q, r, a)
        triples += 1
        sequences += len(want)
    assert (triples, sequences) == (2210, 88893)


def test_length_1_sequences_with_the_inverses_are_independent_without_a_search(monkeypatch):
    # every r**e * a - a = a * (r**e - 1) is a nonzero multiple of a unit
    def search(*args):
        pytest.fail("a length-1 sequence was searched though the inverses exist")

    monkeypatch.setattr(comb, "_first_dependence", search)
    triples = 0
    for n, q, r in _triples_with_inverses():
        p = params(n, q, r)
        for a in range(1, n):
            assert _first_solution([a], n, q, r) is None, (n, q, r, a)
            assert is_r_dependent((a,), p) == (False, None)
        triples += 1
    assert triples == 2210


@pytest.mark.parametrize("n, q, r, a, want", [
    (15, 4, 2, 5, (2,)),  # 1 - 4 is not a unit mod 15: no inverses
    (1031, 300, 14, 5, None),  # q past TABLE_CACHE_MAX_Q
])
def test_length_1_sequences_without_the_cached_inverses_are_searched(monkeypatch, n, q, r, a,
                                                                      want):
    calls = []
    search = comb._first_dependence

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(comb, "_first_dependence", counted)
    dep, wit = is_r_dependent((a,), params(n, q, r))
    assert (wit.exponents if dep else None) == want == _first_solution([a], n, q, r)
    assert len(calls) == 1


def test_cached_length_1_tables_stay_under_their_stated_size():
    # a prime n far past 255**2: the table cannot fill Z/n - 0 and holds
    # nearly 255**2 ids
    p = params(1_000_003, comb.TABLE_CACHE_MAX_Q, 2)
    tracemalloc.start()
    try:
        assert len(d_set((5,), p)) <= 255**2
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    table = comb._d_set_of_one(p.n, p.q, p.r)
    assert table.itemsize == 4 and 60_000 < len(table) <= 255**2
    # 4 bytes per id, plus the powers and inverses tables of 256 ints each
    assert kept < 255**2 * 4 + (1 << 15)


@pytest.mark.parametrize("q", [300, 1030])
def test_uncached_length_1_d_sets_keep_the_formula_loop(monkeypatch, q):
    # 14 is a primitive root mod 1,031: past TABLE_CACHE_MAX_Q the table
    # would be rebuilt on every call, which costs more than the sums loop
    def table(*args):
        pytest.fail("a length-1 table was built for an uncached triple")

    want = length_1_d_sets_by_definition(1031, q, 14)
    monkeypatch.setattr(comb, "_d_set_of_one", table)
    for a in (1, 5, 1030):
        assert d_set((a,), params(1031, q, 14)) == want[a]


def test_the_length_1_table_stops_once_every_nonzero_residue_is_in(monkeypatch):
    # q past TABLE_CACHE_MAX_Q, so the table is built afresh: 1,029 ids per
    # power, and the second power fills Z/1031 - 0
    passes = []

    class Inverses(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    inverses = Inverses(comb._inverses(1031, 1030, 14))
    monkeypatch.setattr(comb, "_inverses", lambda *args: inverses)
    assert sorted(comb._d_set_of_one(1031, 1030, 14)) == list(range(1, 1031))
    assert len(passes) == 2


@pytest.mark.parametrize("n, q, r, k", [
    (1_000_003, 1_000_002, 2, 2),  # 2 has order 1,000,002
    (1_000_003, 10**9, 2, 2),  # the table ends at 2**1,000,002 = 1
    (1_000_003, 50_000, 2, 3),
    (1 << 20, 10**9, 3, 2),  # 3 has order 2**18 mod 2**20
])
def test_over_cap_searches_refuse_before_building_the_powers(monkeypatch, n, q, r, k):
    table = comb._powers(n, q, r)
    with pytest.raises(CapacityError) as built:
        comb._first_dependence((1,) * k, n, q, r, table)  # the cap on the built table

    def powers(*args):
        pytest.fail("the powers were built before the step cap was checked")

    monkeypatch.setattr(comb, "_powers", powers)
    for search in (is_r_dependent, d_set):
        with pytest.raises(CapacityError) as early:
            search((1,) * (k - 1) + (2,), params(n, q, r))
        assert str(early.value) == str(built.value)
    assert "SEARCH_STEP_CAP = 16777216" in str(built.value)


@pytest.mark.parametrize("n, q, r, a", [
    (1_000_003, 1_000_002, 2, 1),  # 2 has order q = n - 1
    (1_000_003, 1_000_002, 2, 5),
    (4_507, 4_506, 2, 4_506),  # 2 has order q: 4,506 * 4,505 formula steps
])
def test_over_cap_length_1_d_sets_refuse_before_building_the_powers(monkeypatch, n, q, r, a):
    # a unit entry at a unit r whose order is at least q is independent, and
    # its q distinct sums fix the cost of either route before any table
    def powers(*args):
        pytest.fail("the powers were built before the step cap was checked")

    monkeypatch.setattr(comb, "_powers", powers)
    for method, steps in (("auto", q * (q - 1)), ("formula", q * (q - 1)),
                          ("brute", (n - 1) * q * q)):
        with pytest.raises(CapacityError, match=rf"needs about {steps} search steps, over "
                                                rf"SEARCH_STEP_CAP = 16777216"):
            d_set((a,), params(n, q, r), method=method)


@pytest.mark.parametrize("method", ["auto", "formula", "brute"])
def test_a_dependent_length_1_sequence_keeps_its_error_past_the_step_cap(method):
    # 2 has order 4,506 = q - 1 mod 4,507, so 2**4506 * 1 = 1 and (1,) is
    # dependent, though its table holds q powers as an independent one's would
    with pytest.raises(InputError, match="d_set requires an r-independent sequence"):
        d_set((1,), params(4_507, 4_507, 2), method=method)


def test_d_set_requires_independent_input():
    with pytest.raises(InputError):
        d_set((1, 2), params(7, 3, 2))  # (1,2) is r-dependent


def test_d_set_size_bound():
    # |D| <= q^(k+1) for every independent sequence at prim parameters
    for (n, q, r) in ((7, 3, 2), (3, 2, 2), (7, 2, 6)):
        p = params(n, q, r)
        for k in (1, 2):
            for seq in itertools.product(range(1, n), repeat=k):
                dep, _ = is_r_dependent(seq, p)
                if dep:
                    continue
                assert len(d_set(seq, p)) <= q ** (k + 1)


def test_d_set_definition():
    # j is in D(seq) exactly when appending j breaks independence
    p = params(7, 3, 2)
    for seq in ((1,), (3,), (1, 3)):
        dep, _ = is_r_dependent(seq, p)
        if dep:
            continue
        ds = d_set(seq, p)
        for j in range(1, 7):
            appended, _ = is_r_dependent(seq + (j,), p)
            assert (j in ds) == appended


# --- independent subsequence extraction ---


def test_find_independent_subseq():
    p26 = params(7, 2, 6)
    assert find_independent_subseq((1, 2, 3, 4, 5, 6), 2, p26) == (1, 2)
    assert find_independent_subseq((1, 1, 1), 2, p26) is None
    p = params(7, 3, 2)
    got = find_independent_subseq((3, 5, 6, 1), 2, p)
    assert got is not None and got[0] == 3
    dep, _ = is_r_dependent(got, p)
    assert not dep


def test_find_independent_subseq_keeps_first():
    rng = random.Random(17)
    p = params(31, 5, 2)
    for _ in range(60):
        seq = tuple(rng.randint(1, 30) for _ in range(6))
        got = find_independent_subseq(seq, 2, p)
        if got is None:
            continue
        assert got[0] == seq[0]
        dep, _ = is_r_dependent(got, p)
        assert not dep


# --- numeric bounds ---


def test_capacity_and_engel_width_frozen():
    assert capacity_n(1, 2) == 4
    assert capacity_n(2, 2) == 8
    assert capacity_n(1, 3) == 128
    assert engel_width(1, 2) == 5
    assert engel_width(2, 2) == 10
    assert engel_width(1, 3) == 10


def test_capacity_formula():
    for c in range(1, 4):
        for q in range(2, 4):
            e = 2 ** (2 * q - 3)
            assert capacity_n(c, q) == max(2 ** (e - 1) * c**e, q ** (c + 1))
            assert engel_width(c, q) == c + q ** (c + 1)


# --- characteristic bounds ---


def test_charp_bound_frozen():
    assert charp_bound((2,), (0, 1)) == 2
    assert charp_bound((1, 2), (3, 4)) == 2 * 4**2
    assert charp_bound((1,), (1,)) == 1


def test_charp_bound_respected():
    # pairs without a common complex root; brute moduli stay within bound
    pairs = [
        ((1, 0, 1), (-2, 1)),
        ((1, 1), (2, 1)),
        ((3, 1), (1, 0, 0, 1)),
        ((5,), (0, 1)),
    ]
    for g1, g2 in pairs:
        bound = charp_bound(g1, g2)
        for m in common_root_moduli(g1, g2, 2000):
            assert m <= bound


def test_common_root_moduli_frozen():
    assert common_root_moduli((1, 0, 1), (-2, 1), 100) == {5}
    assert common_root_moduli((1, 1), (2, 1), 100) == set()
    # x and x+2 share the root x=1 mod 3... no: g1 = x -> root 0 excluded
    assert common_root_moduli((0, 1), (2, 1), 100) == set()


def test_a_vanishing_resultant_scans_up_to_the_cap_and_refuses_past_it():
    # x + 1 with itself: the scan meets the root -1 last, at every modulus
    cap = comb.ROOT_SCAN_CAP
    assert common_root_moduli((1, 1), (1, 1), cap) == set(range(2, cap + 1))
    with pytest.raises(CapacityError, match=rf"limit {cap + 1} .* ROOT_SCAN_CAP = {cap}$"):
        common_root_moduli((1, 1), (1, 1), cap + 1)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="limit 10000 "):
        common_root_moduli((1, 0, 1), (1, 0, 1), 10_000)
    assert time.perf_counter() - t0 < 0.5


def test_common_root_moduli_brute_agreement():
    rng = random.Random(19)
    for _ in range(30):
        g1 = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        g2 = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        if not any(g1) or not any(g2):
            continue
        got = common_root_moduli(g1, g2, 60)
        brute = set()
        from flab.rings import poly_eval_mod

        for m in range(2, 61):
            for x in range(1, m):
                if poly_eval_mod(g1, x, m) == 0 and poly_eval_mod(g2, x, m) == 0:
                    brute.add(m)
                    break
        assert got == brute


def test_lifted_roots_match_the_direct_scan():
    rng = random.Random(2026)
    pairs = [((4, 4), (8, 4)), ((0, 0, 1), (64, 0, 1)), ((8, 8, 8), (16, 8)),
             ((1, 0, 1), (-2, 1)), ((27, 0, 9), (9, 9))]
    while len(pairs) < 120:
        g1 = [rng.randint(-12, 12) for _ in range(rng.randint(2, 4))]
        g2 = [rng.randint(-12, 12) for _ in range(rng.randint(2, 4))]
        if any(g1[1:]) and any(g2[1:]) and sylvester_resultant(g1, g2):
            pairs.append((g1, g2))
    for g1, g2 in pairs:
        assert common_root_moduli(g1, g2, 100) == comb._common_root_moduli_scan(g1, g2, 100), (g1, g2)


def test_lifting_reads_two_residues_per_power_of_two(monkeypatch):
    # x + 1 and x + 1 + 2^k share the root -1 modulo 2^e for e <= k alone;
    # reading every residue below each power of 2 took about 2^(k+1) reads
    calls = []
    evaluate = comb.poly_eval_mod
    monkeypatch.setattr(comb, "poly_eval_mod",
                        lambda p, x, mod: calls.append(1) or evaluate(p, x, mod))
    for k in (10, 20):
        calls.clear()
        assert common_root_moduli((1, 1), (1 + 2**k, 1), 2**k) == {2**e for e in range(1, k + 1)}
        assert len(calls) <= 4 * k


def test_root_reads_are_refused_past_the_cap(monkeypatch):
    cap = comb.ROOT_LIFT_CAP
    with pytest.raises(CapacityError, match=rf"limit 2000000000 need at least 1000000007 "
                                            rf"residue reads, over ROOT_LIFT_CAP = {cap}$"):
        common_root_moduli((0, 1), (1_000_000_007, 1), 2 * 10**9)
    # the reads of the first levels are the sum of the candidate primes;
    # modulo 97^2 the root 0 of x and x + 97 lifts to 97 more
    monkeypatch.setattr(comb, "ROOT_LIFT_CAP", 100)
    assert common_root_moduli((0, 1), (97, 1), 97**2 - 1) == set()
    with pytest.raises(CapacityError, match="need at least 194 residue reads"):
        common_root_moduli((0, 1), (97, 1), 97**2)
    with pytest.raises(CapacityError, match="need at least 101 residue reads"):
        common_root_moduli((0, 1), (101, 1), 101)
    # the lifts count too: 128 (x + 1) and 128 (x + 2) vanish at every residue
    # modulo 2^e for e <= 7, which takes 2 + 4 + ... + 2^e reads
    assert common_root_moduli((128, 128), (256, 128), 32) == {2, 4, 8, 16, 32}
    with pytest.raises(CapacityError, match="limit 64 need at least 126 residue reads"):
        common_root_moduli((128, 128), (256, 128), 64)


# --- characteristic-zero exhaustion ---


def test_char0_exhaust_only_zero():
    assert char0_exhaust(3, 2) == {(0, 0)}
    assert char0_exhaust(5, 1) == {(0,)}
    assert char0_exhaust(12, 3) == {(0, 0, 0)}


def test_char0_exhaust_refuses_what_cannot_finish():
    with pytest.raises(CapacityError, match=r"95746959700 .*cap 2000000"):
        char0_exhaust(200, 6)
    with pytest.raises(CapacityError, match="cap"):
        char0_exhaust(10**18, 1)
    with pytest.raises(CapacityError, match="cap"):
        char0_exhaust(5000, 1)  # 5000 ring elements of 2000 coefficients


def test_char0_exhaust_small_sweep():
    for n in range(2, 9):
        for m in range(1, 4):
            sols = char0_exhaust(n, m)
            assert sols == {tuple([0] * m)}
