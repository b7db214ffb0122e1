"""The orbit-restricted lattice and the whole-array table kernels against
scalar oracles: invariant and invariant normal subgroups against the
filtered full lattice, exponents against element orders, quotients against
a coset scan, and the field checks on GF(2^7) and GF(3^5) within a budget."""
from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flab
from flab import graded_lie as gl
from flab import group_engine as ge
from flab.errors import CapacityError, InputError
from flab.rings import poly_mulmod, poly_powmod

C, D, E, P = (ge.cyclic_group, ge.dihedral_group, ge.elementary_abelian_group,
              ge.direct_product)

BUILDERS = {
    "C1": lambda: C(1),
    "C12": lambda: C(12),
    "C60": lambda: C(60),
    "D6": lambda: D(6),
    "D15": lambda: D(15),
    "D32": lambda: D(32),
    "E2^4": lambda: E(2, 4),
    "E2^5": lambda: E(2, 5),
    "E3^3": lambda: E(3, 3),
    "C2xD4": lambda: P(C(2), D(4)),
    "C3xS3": lambda: P(C(3), D(3)),
    "Q8xC3": lambda: P(ge.quaternion_group(), C(3)),
    "D4xC4": lambda: P(D(4), C(4)),
    "S3xS3": lambda: P(D(3), D(3)),
    "Heis3xC2": lambda: P(ge.heisenberg_group(3), C(2)),
    "D4xD4": lambda: P(D(4), D(4)),
    "Q8xQ8": lambda: P(ge.quaternion_group(), ge.quaternion_group()),
}
BUILDERS.update(ge.NAMED_GROUPS)
FIELDS = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2))


@functools.cache
def field(name: str):
    p, k = map(int, name[2:].split("^"))
    return ge.build_field_action(p, k)


@functools.cache
def group(name: str):
    return field(name).group if name.startswith("GF") else BUILDERS[name]()


@functools.cache
def lattice(name: str) -> list:
    return ge.all_subgroups(group(name))


def invariant_under(S, autos) -> bool:
    return all(frozenset(a[x] for x in S) == S for a in autos)


@st.composite
def groups_with_automorphisms(draw):
    """A builder or named group with inner automorphisms, or a field's
    additive group with powers of f and h."""
    name = draw(st.sampled_from(sorted(BUILDERS) + [f"GF{p}^{k}" for p, k in FIELDS]))
    G = group(name)
    if name.startswith("GF"):
        f, h = field(name).action.f, field(name).action.h
        exps = draw(st.lists(st.tuples(st.integers(0, len(f)), st.integers(0, 5)),
                             max_size=3))
        autos = [ge.perm_compose(ge.perm_power(f, i), ge.perm_power(h, j)) for i, j in exps]
    else:
        conj = draw(st.lists(st.integers(0, G.order - 1), max_size=3))
        autos = [tuple(G.conjugate(g, x) for x in range(G.order)) for g in conj]
    return name, G, autos


@settings(max_examples=80, deadline=None)
@given(groups_with_automorphisms())
def test_orbit_lattice_matches_the_filtered_full_lattice(drawn):
    name, G, autos = drawn
    invariant = [S for S in lattice(name) if invariant_under(S, autos)]
    assert ge.invariant_subgroups(G, autos) == invariant
    assert ge.invariant_normal_subgroups(G, autos) == [
        S for S in invariant if ge.is_normal(G, S)]


@pytest.mark.parametrize("name", ["D4xC4", "GF2^5", "Q8xC3"])
def test_normal_lattice_needs_no_normality_filter(name, monkeypatch):
    G = group(name)
    expected = [S for S in lattice(name) if ge.is_normal(G, S)]

    def refuse(*args):
        raise AssertionError("is_normal called")

    monkeypatch.setattr(ge, "is_normal", refuse)
    assert ge.invariant_normal_subgroups(G, []) == expected


def test_invariant_subgroups_refuse_non_automorphisms():
    G = C(4)
    with pytest.raises(InputError):
        ge.invariant_subgroups(G, [(0, 2, 1, 3)])
    with pytest.raises(InputError):
        ge.invariant_normal_subgroups(G, [(0, 1, 2)])


def test_lattice_calls_refuse_past_the_cap_before_any_map_is_built(monkeypatch):
    G = ge.BCHGroup(gl.example_pm(7, 2).lie)
    assert G.order == 7**6 > ge.EXHAUSTIVE_CAP
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    monkeypatch.setattr(G, "conjugate", counted("conjugate", G.conjugate))
    monkeypatch.setattr(ge, "is_automorphism", counted("is_automorphism", ge.is_automorphism))
    identity = tuple(range(G.order))
    for enumerate_subgroups in (ge.all_subgroups,
                                lambda G: ge.invariant_subgroups(G, [identity]),
                                lambda G: ge.invariant_normal_subgroups(G, []),
                                lambda G: ge.invariant_normal_subgroups(G, [identity])):
        with pytest.raises(CapacityError, match=r"^subgroup enumeration capped at order 512$"):
            enumerate_subgroups(G)
    assert calls == []


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["C510", "D250"])
def test_exponent_is_the_lcm_of_element_orders(name):
    if name in BUILDERS:
        G = group(name)
    else:
        G = (C if name[0] == "C" else D)(int(name[1:]))
    assert G.exponent() == math.lcm(*(G.element_order(x) for x in range(G.order)))


def scalar_quotient(G, N):
    """Oracle: open a coset at each id not yet covered, in id order, and
    fill the table one representative product at a time."""
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] < 0:
            for t in N:
                coset_of[G.mul(x, t)] = len(reps)
            reps.append(x)
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    return table, tuple(coset_of), tuple(reps)


@pytest.mark.parametrize("name", ["D32", "S3xS3", "Q8xC3", "Heis3xC2", "D8", "Q8", "C60"])
def test_quotients_match_the_scalar_coset_scan(name):
    G = group(name)
    normal = [S for S in lattice(name) if ge.is_normal(G, S)]
    assert len(normal) > 2
    for N in normal:
        Q, coset_of, reps = ge.quotient_group(G, N)
        table, want_cosets, want_reps = scalar_quotient(G, N)
        assert Q.table.tolist() == table
        assert (coset_of, reps) == (want_cosets, want_reps)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_heisenberg_table_matches_the_digit_formula(p):
    G = ge.heisenberg_group(p)

    def mul(x, y):
        a1, b1, c1 = ge._digits(x, p, 3)
        a2, b2, c2 = ge._digits(y, p, 3)
        return ge._from_digits((a1 + a2, b1 + b2, c1 + c2 + a1 * b2), p)

    n = p**3
    assert G.table.tolist() == [[mul(x, y) for y in range(n)] for x in range(n)]


def _formula_table(n, mul):
    return [[mul(x, y) for y in range(n)] for x in range(n)]


# orders on both sides of 256, where the stored id type widens
@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 255, 256, 257])
def test_cyclic_and_dihedral_tables_match_their_formulas(n):
    assert C(n).table.tolist() == _formula_table(n, lambda x, y: (x + y) % n)

    def dihedral(x, y):
        (e1, i1), (e2, i2) = divmod(x, n), divmod(y, n)
        return (i1 + (1 - 2 * e1) * i2) % n + n * ((e1 + e2) % 2)

    assert D(n).table.tolist() == _formula_table(2 * n, dihedral)


@pytest.mark.parametrize("p, k", [(2, 0), (2, 1), (2, 8), (3, 5), (17, 2), (257, 1)])
def test_elementary_abelian_table_matches_the_digit_formula(p, k):
    def add(x, y):
        return ge._from_digits([a + b for a, b in zip(ge._digits(x, p, k), ge._digits(y, p, k))], p)

    assert E(p, k).table.tolist() == _formula_table(p**k, add)


@pytest.mark.parametrize("g, h", [("C12", "D6"), ("D15", "Q8"), ("Q8", "D32"), ("D32", "D8")])
def test_direct_product_table_matches_the_componentwise_formula(g, h):
    G, H = BUILDERS[g](), BUILDERS[h]()
    m = H.order

    def mul(x, y):
        return G.mul(x // m, y // m) * m + H.mul(x % m, y % m)

    assert P(G, H).table.tolist() == _formula_table(G.order * m, mul)


@pytest.mark.parametrize("p, k", [(2, 2), (2, 7), (3, 5), (5, 3), (7, 3), (13, 2)])
def test_field_maps_match_polynomial_arithmetic(p, k):
    """Oracle: f and h evaluated id by id with F_p[x] arithmetic mod g."""
    res = ge.build_field_action(p, k)
    g, gen = res.poly, ge._digits(res.generator, p, k)

    def field_id(poly):
        return ge._from_digits(poly, p)

    size = p**k
    digits = [ge._digits(x, p, k) for x in range(size)]
    assert res.action.f == tuple(field_id(poly_mulmod(gen, d, g, p)) for d in digits)
    assert res.action.h == tuple(field_id(poly_powmod(d, p, g, p)) for d in digits)


def test_field_checks_on_gf128_and_gf243_finish_within_budget():
    checks = (ge.verify_order_formula, ge.verify_coverage, ge.verify_generation,
              ge.verify_invariant_sylow, ge.verify_nilpotency_transfer,
              ge.exponent_relation_report)
    t0 = time.perf_counter()
    for p, k in ((2, 7), (3, 5)):
        res = ge.build_field_action(p, k)
        G, action = res.group, res.action
        reports = {rep.name: rep for rep in (check(G, action) for check in checks)}
        assert all(rep.status == "pass" for rep in reports.values())
        assert reports["coverage"].witness == {"quotients_checked": 2}
        assert reports["order-formula"].witness["fixed_by_h"] == p
        free = ge.free_module_check(G, action.h, action.params.q)
        assert free.status == "pass" and free.witness["fixed_dim"] == 1
        assert len(ge.fixed_points(G, [action.h])) == p  # C(h) = GF(p)
    assert time.perf_counter() - t0 < 2.0


def _child_peak_kib(build: str) -> tuple[int, int]:
    """(order, peak RSS in KiB) of `G = build` in a fresh interpreter.

    The peak is the child's own VmHWM, which exec resets; ru_maxrss would
    carry over this process's peak when that is higher."""
    src = str(Path(flab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("from flab import group_engine as ge; "
            f"G = {build}; "
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')); "
            "print(G.order, hwm.split()[1])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.split()
    return int(out[0]), int(out[1])


def test_heisenberg_17_peak_rss_stays_under_300_mb():
    order, peak = _child_peak_kib("ge.heisenberg_group(17)")
    assert order == 17**3
    assert peak <= 300 * 1024


@pytest.mark.parametrize("build, order, cap_mb", [
    # each cap is the measured peak plus 15 MB, rounded up to 5 MB: 70, 80,
    # 128 and 126 MB with FiniteGroup's checks in row blocks, against 97,
    # 152, 201 and 199 MB when they sorted whole copies of the table, and
    # 337, 252, 324 and 249 MB when the builders made order x order temporaries
    ("ge.elementary_abelian_group(5, 5)", 5**5, 85),
    ("ge.cyclic_group(4999)", 4999, 95),
    ("ge.dihedral_group(2499)", 4998, 145),
    ("ge.direct_product(ge.cyclic_group(70), ge.cyclic_group(71))", 4970, 145),
])
def test_table_builders_peak_rss_stays_under_their_caps(build, order, cap_mb):
    got, peak = _child_peak_kib(build)
    assert got == order
    assert peak <= cap_mb * 1024
