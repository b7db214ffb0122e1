"""Inputs, jobs and verdict checks of the four workloads.

Each workload has make_inputs(rng, size), which builds every input from the
seeded generator, and run(inputs, verdicts), which drives flab's public
functions over those inputs and checks each verdict they produce. flab is
imported inside the functions, so that importing this module costs nothing
that set-up time should show.

The amount of work in a job is fixed by the size, not by the seed: the seed
picks which cases are run, never how many, and cases are drawn within
strata of equal cost, so that run-to-run spread measures the program and
not the draw.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

SIZES = {
    "full": {
        "dset_per_length": 150, "dset_cost_cap": 20000, "dset_brute_cap": 6000,
        "dset_brute_share": 0.05,
        "bch_pairs": ((5, 1), (11, 1), (5, 2)), "bch_words": 1, "bch_elements": 40,
        "fields": ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 5), (11, 2), (5, 3)),
        "table_below": (508, 512), "table_above": (513, 520), "field_pairs": 20,
        "lie_rewrites": 2, "lie_trees": 1000, "lie_jacobi": 300, "lie_razresh": 4,
        "lie_names": "ab",
    },
    "smoke": {
        "dset_per_length": 1, "dset_cost_cap": 200, "dset_brute_cap": 400,
        "dset_brute_share": 0.5,
        "bch_pairs": ((5, 1), (11, 1)), "bch_words": 1, "bch_elements": 4,
        "fields": ((2, 2), (3, 2)),
        "table_below": (16, 16), "table_above": (600, 600), "field_pairs": 4,
        "lie_rewrites": 1, "lie_trees": 10, "lie_jacobi": 5, "lie_razresh": 1,
        "lie_names": "ab",
    },
}


class Verdicts:
    """Counts verdicts checked and verdicts failed, per item kind."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.failures: list[str] = []

    def check(self, kind: str, ok: bool, label) -> None:
        self.attempted[kind] += 1
        if not ok:
            self._fail(kind, f"{kind} {label}")

    def raised(self, kind: str, label, exc: Exception) -> None:
        """A verdict that raised counts as attempted and failed."""
        self.attempted[kind] += 1
        self._fail(kind, f"{kind} {label} raised {exc!r}")

    def _fail(self, kind: str, text: str) -> None:
        self.failed[kind] += 1
        if len(self.failures) < 20:
            self.failures.append(text)


def _fixture(name: str) -> dict:
    import flab

    return json.loads((Path(flab.__file__).parent / "fixtures" / f"{name}.json").read_text())


# --- dset-sweep: ROADMAP hot path A, combinatorics does the work ---


def dset_inputs(rng, size):
    """Half of the qualifying triples with n < 32 in every q stratum, and
    per triple a fixed number of multisets of each length 1-4 whose D-set
    cost q**(k+1) is under the cap; a seeded share is also checked against
    the brute-force route."""
    from flab.combinatorics import check_prim
    from flab.rings import multiplicative_order

    by_q: dict[int, list] = {}
    for n in range(2, 32):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is not None and check_prim(n, q, r):
                by_q.setdefault(q, []).append((n, q, r))
    items = []
    for q in sorted(by_q):
        stratum = by_q[q]
        for n, q, r in sorted(rng.sample(stratum, (len(stratum) + 1) // 2)):
            for k in range(1, 5):
                if q ** (k + 1) > size["dset_cost_cap"]:
                    continue
                for _ in range(size["dset_per_length"]):
                    seq = tuple(sorted(rng.randrange(1, n) for _ in range(k)))
                    brute = (n * q ** (k + 1) <= size["dset_brute_cap"]
                             and rng.random() < size["dset_brute_share"])
                    items.append((n, q, r, seq, brute))
    return items


def _first_dependence(seq, n, q, r):
    """The lexicographically first nonzero exponent tuple, by plain search."""
    plain = sum(seq) % n
    for exps in itertools.product(range(q), repeat=len(seq)):
        if any(exps) and sum(pow(r, e, n) * a for e, a in zip(exps, seq)) % n == plain:
            return exps
    return None


def dset_run(items, verdicts):
    from flab import combinatorics as comb

    for n, q, r, seq, brute in items:
        label = (n, q, r, seq)
        try:
            params = comb.FrobeniusParams(n, q, r)
            dependent, witness = comb.is_r_dependent(seq, params)
            if dependent:
                verdicts.check("witness", witness.verify(seq, params), label)
            else:
                dset = comb.d_set(seq, params)
                verdicts.check("dset-bound", len(dset) <= q ** (len(seq) + 1)
                               and all(0 < j < n for j in dset), label)
                if brute:
                    verdicts.check("formula-brute",
                                   comb.d_set(seq, params, method="brute") == dset, label)
            if brute:
                got = witness.exponents if dependent else None
                verdicts.check("dependence-oracle", got == _first_dependence(seq, n, q, r),
                               label)
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("dset-item", label, exc)


# --- bch-transport: ROADMAP hot path B, Hausdorff products and transport ---


def bch_inputs(rng, size):
    """Fixed (p, m) pairs on both sides of EXHAUSTIVE_CAP = 512, with seeded
    words in the automorphisms f1, f2, f3, h and seeded group elements."""
    jobs = []
    for p, m in size["bch_pairs"]:
        order = p ** (3 * m)
        words = [tuple(rng.randrange(4) for _ in range(rng.randrange(2, 5)))
                 for _ in range(size["bch_words"])]
        elements = [rng.randrange(order) for _ in range(size["bch_elements"])]
        jobs.append((p, m, words, elements))
    return jobs


def bch_run(jobs, verdicts):
    from flab import graded_lie as gl
    from flab import group_engine as ge
    from flab import linalg

    for p, m, words, elements in jobs:
        label = (p, m)
        try:
            ex = gl.example_pm(p, m)
            autos = list(ex.f) + [ex.h]
            out = ge.lazard_group_from_lie(ex.lie, autos)
            G, moved = out.group, out.transported
            verdicts.check("order", G.order == p ** (3 * m), label)
            verdicts.check("lie-class", out.lie_class == m, label)
            fixed_f = [g for g in range(G.order) if all(t[g] == g for t in moved[:3])]
            verdicts.check("fixed-by-f", fixed_f == [G.identity], label)
            fixed_h = [g for g in range(G.order) if moved[3][g] == g]
            verdicts.check("fixed-by-h", len(fixed_h) == p ** m, label)
            closed = set(fixed_h)
            verdicts.check("fixed-closure", all(G.mul(a, b) in closed
                                                for a in fixed_h for b in fixed_h), label)
            orders = [G.element_order(g) for g in fixed_h]
            verdicts.check("fixed-orders", max(orders) == p ** m
                           and all(p ** m % o == 0 for o in orders), label)
            verdicts.check("group-class", ge.bch_nilpotency_class(G) == m, label)
            ring = ex.lie.ring
            for word in words:
                matrix = [list(row) for row in autos[word[0]]]
                composed = moved[word[0]]
                for letter in word[1:]:
                    matrix = linalg.mat_mul(ring, matrix, autos[letter])
                    composed = ge.perm_compose(composed, moved[letter])
                verdicts.check("word-transport", G.transport(matrix) == composed,
                               (p, m, word))
            for g in elements:
                verdicts.check("element-order", p ** m % G.element_order(g) == 0,
                               (p, m, g))
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("bch-group", label, exc)


# --- fixed-point-checks: the table engine of group_engine ---

_FIELD_CHECKS = (
    ("order-formula", "verify_order_formula"),
    ("coverage", "verify_coverage"),
    ("generation", "verify_generation"),
    ("invariant-sylow", "verify_invariant_sylow"),
    ("nilpotency-transfer", "verify_nilpotency_transfer"),
    ("exponent-relation", "exponent_relation_report"),
)


def _field_expectations(p, k):
    """What the theorems give for GF(p^k) with multiplication by a
    primitive element and the Frobenius map: C(h) is GF(p), only 0 and the
    whole field are invariant, and GF(p^k) is a free module of rank one
    over the Frobenius group (normal basis theorem)."""
    witness = {
        "order-formula": {"fixed_by_h": p, "order": p**k, "q": k},
        "coverage": {"quotients_checked": 2},
        "generation": {"generated_order": p**k, "order": p**k},
        "invariant-sylow": {"invariant_counts": {str(p): 1}},
        "nilpotency-transfer": {"fixed_class": 1, "group_class": 1},
        "exponent-relation": {"fixed_exponent": p, "group_exponent": p},
        "free-module": {"dim": k, "fixed_dim": 1, "free": True, "rank": 1,
                        "invariant_factors": [[p - 1] + [0] * (k - 1) + [1]]},
    }
    return {name: ("pass", w) for name, w in witness.items()}


def _golden_expectations():
    """The bundled field_actions.json goldens, keyed by (p, k, check)."""
    out = {}
    for task in _fixture("field_actions")["tasks"]:
        args, expected = task["args"], task["expected"]
        if task["kind"] == "field-verify":
            key = (args["p"], args["k"], args["check"])
        elif task["kind"] == "free-module-field":
            key = (args["p"], args["k"], "free-module")
        else:
            continue
        out[key] = (expected["status"], expected.get("witness"))
    return out


def fixed_inputs(rng, size):
    """Every field with p^k <= 125 except GF(2^7), in seeded order, with
    seeded element pairs; the P-group corpus with its goldens; and one
    table group at or just below the 512 cap and one just above it."""
    from flab import group_engine as ge

    goldens = _golden_expectations()
    fields = []
    for p, k in rng.sample(list(size["fields"]), len(size["fields"])):
        expected = _field_expectations(p, k)
        expected.update({c: v for (gp, gk, c), v in goldens.items() if (gp, gk) == (p, k)})
        pairs = [(rng.randrange(p**k), rng.randrange(p**k)) for _ in range(size["field_pairs"])]
        fields.append((p, k, expected, pairs))
    corpus = {}
    for task in _fixture("filtrations")["tasks"]:
        args = task["args"]
        corpus.setdefault((args["group"], args["p"]), {})[task["kind"]] = args
    corpus_jobs = [(name, p, corpus[(name, p)]) for name, p in ge.P_GROUP_CORPUS]
    rng.shuffle(corpus_jobs)
    lo, hi = size["table_below"]
    below = rng.randint(lo, hi)
    lo, hi = size["table_above"]
    above = rng.randint(lo, hi)
    tables = [("cyclic", below), (rng.choice(["cyclic", "dihedral"]) if above % 2 == 0
                                  else "cyclic", above)]
    return fields, corpus_jobs, tables


def fixed_run(inputs, verdicts):
    from flab import group_engine as ge

    fields, corpus_jobs, tables = inputs
    for p, k, expected, pairs in fields:
        label = f"GF({p}^{k})"
        try:
            res = ge.build_field_action(p, k)
            G, action = res.group, res.action
            f, h = action.f, action.h
            verdicts.check("field-action",
                           all(f[G.mul(x, y)] == G.mul(f[x], f[y])
                               and h[G.mul(x, y)] == G.mul(h[x], h[y]) for x, y in pairs),
                           label)
            for name, fn in _FIELD_CHECKS:
                rep = getattr(ge, fn)(G, action)
                verdicts.check("field-report", (rep.status, rep.witness) == expected[name],
                               (label, name, rep.status, rep.witness))
            rep = ge.free_module_check(G, h, action.params.q)
            verdicts.check("field-report", (rep.status, rep.witness) == expected["free-module"],
                           (label, "free-module", rep.status, rep.witness))
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("field", label, exc)
    for name, p, tasks in corpus_jobs:
        try:
            G = ge.named_group(name)
            rep = ge.lazard_lemma_check(G, p)
            verdicts.check("lazard-lemma", rep.status == "pass"
                           and rep.witness == {"elements": G.order}, name)
            dims = list(ge.jz_filtration(G, p).dims())
            verdicts.check("jz-dims", dims == tasks["jz-dims"]["dims"], name)
            verdicts.check("powerful", ge.is_powerful(G, p) == tasks["powerful"]["expected"],
                           name)
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("corpus", name, exc)
    for kind, order in tables:
        label = (kind, order)
        try:
            if kind == "cyclic":
                G = ge.cyclic_group(order)
                expect = (order, order, True)
            else:
                G = ge.dihedral_group(order // 2)
                expect = (order, math.lcm(order // 2, 2), order <= 4)
            verdicts.check("table-group", (G.order, G.exponent(), G.is_abelian()) == expect,
                           label)
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("table-group", label, exc)


# --- lie-rewrite: free_lie normalization and its bracket memo ---

# (n, q, r) triples passing check_prim, each with r-independent heads
_REWRITE_CONFIGS = {
    (7, 3, 2): ((1,), (3,), (1, 3)),
    (7, 2, 6): ((1,), (2,), (3,)),
    (13, 3, 3): ((1,), (2,)),
    (9, 2, 8): ((1,), (2,)),
}


def _random_tree(rng, gens, weight):
    if weight == 1:
        return rng.choice(gens)
    left = rng.randrange(1, weight)
    return (_random_tree(rng, gens, left), _random_tree(rng, gens, weight - left))


def _relabel(tree, relabel):
    if isinstance(tree, tuple):
        return (_relabel(tree[0], relabel), _relabel(tree[1], relabel))
    return relabel[tree]


def lie_inputs(rng, size):
    """A fixed pool of rewrites with tails of length 5-8 in seeded order;
    random bracket trees of weight 6-8 and Jacobi triples over a fixed
    alphabet, a delta_3 on eight generators, 4-index membership questions
    and a Hall basis.

    Rewrite and normalization costs are heavy-tailed: one rewrite in a
    thousand can take as long as the other 999, and a seeded draw of 1,000
    trees and 300 Jacobi triples made their time swing by a factor of 1.7
    between seeds. So both are fixed pools, drawn from fixed seeds (the
    rewrites evenly over triple, tail length and procedure). The run's seed
    orders each pool and renames the trees' twelve generators to a seeded
    choice of twelve from a larger alphabet. The renaming keeps the
    generators' order, on which the Hall forms depend, so it changes the
    inputs but not the amount of work; a renaming that permuted the order
    still moved the Jacobi time by a factor of 1.5 between seeds."""
    from flab.free_lie import IndexedGenerator

    pool_rng = random.Random("lie-rewrite/rewrite-pool")
    rewrites = []
    for key in sorted(_REWRITE_CONFIGS):
        heads = _REWRITE_CONFIGS[key]
        for length in range(5, 9):
            for procedure in ("odin", "dva"):
                for _ in range(size["lie_rewrites"]):
                    head = heads[pool_rng.randrange(len(heads))]
                    tail = tuple(IndexedGenerator(f"t{i}", pool_rng.randrange(1, key[0]))
                                 for i in range(length))
                    w = pool_rng.randrange(2, 5) if procedure == "dva" else None
                    rewrites.append((key, head, tail, w))
    rng.shuffle(rewrites)
    gens = [IndexedGenerator(name, i) for name in size["lie_names"] for i in range(1, 7)]
    pool_rng = random.Random("lie-rewrite/tree-pool")
    trees = [_random_tree(pool_rng, gens, 6 + i % 3) for i in range(size["lie_trees"])]
    jacobi = []
    for i in range(size["lie_jacobi"]):
        total = 6 + i % 3
        a = pool_rng.randrange(1, total - 1)
        b = pool_rng.randrange(1, total - a)
        jacobi.append(tuple(_random_tree(pool_rng, gens, w) for w in (a, b, total - a - b)))
    alphabet = [IndexedGenerator(name, i) for name in "abcd" for i in range(1, 10)]
    relabel = dict(zip(sorted(gens), sorted(rng.sample(alphabet, len(gens)))))
    trees = [_relabel(t, relabel) for t in trees]
    jacobi = [tuple(_relabel(t, relabel) for t in triple) for triple in jacobi]
    rng.shuffle(trees)
    rng.shuffle(jacobi)
    delta_gens = [IndexedGenerator(f"y{i + 1}", rng.randrange(1, 7)) for i in range(8)]
    razresh = [(1, 2, 4, 1)] + [tuple(rng.randrange(1, 7) for _ in range(4))
                                for _ in range(size["lie_razresh"])]
    hall_gens = [IndexedGenerator(name) for name in "abc"[:rng.randrange(2, 4)]]
    return rewrites, trees, jacobi, delta_gens, razresh, hall_gens


def _mobius(d):
    out, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


def _witt(k, w):
    """Rank of the weight-w part of the free Lie ring on k generators."""
    return sum(_mobius(d) * k ** (w // d) for d in range(1, w + 1) if w % d == 0) // w


def lie_run(inputs, verdicts):
    from fractions import Fraction

    from flab import combinatorics as comb
    from flab import free_lie as fl

    rewrites, trees, jacobi, delta_gens, razresh, hall_gens = inputs
    dsets = {}
    for key, head, tail, w in rewrites:
        label = (key, head, [g.index for g in tail], w)
        try:
            params = comb.FrobeniusParams(*key)
            if w is None:
                out = fl.odin_rewrite(head, tail, len(head), params)
            else:
                out = fl.dva_rewrite(head, tail, len(head), params, w)
            verdicts.check("rewrite-verify", out.verify(), label)
            if (key, head) not in dsets:
                dsets[(key, head)] = comb.d_set(head, params)
            dset = dsets[(key, head)]
            verdicts.check("rewrite-kept-in-dset",
                           all(fl.tree_index_sum(e) % key[0] in dset
                               for term in out.kept_terms for e in term.elems), label)
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("rewrite", label, exc)
    for tree in trees:
        try:
            elem = fl.normalize(tree)
            swapped = fl.normalize((tree[1], tree[0]))
            verdicts.check("antisymmetry", (elem + swapped).is_zero(), tree)
            verdicts.check("hall-form", all(fl.is_hall(w) for w in elem.terms), tree)
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("tree", tree, exc)
    for x, y, z in jacobi:
        try:
            total = (fl.normalize(((x, y), z)) + fl.normalize(((y, z), x))
                     + fl.normalize(((z, x), y)))
            verdicts.check("jacobi", total.is_zero(), (x, y, z))
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("jacobi", (x, y, z), exc)
    try:
        halves = fl.bracket(fl.delta(2, delta_gens[:4]), fl.delta(2, delta_gens[4:]))
        verdicts.check("delta", fl.delta(3, delta_gens) == halves, delta_gens)
    except Exception as exc:  # a raising verdict is a failed verdict
        verdicts.raised("delta", delta_gens, exc)
    params = comb.FrobeniusParams(7, 3, 2)
    for i, indices in enumerate(razresh):
        try:
            rep = fl.razresh_membership(1, 3, params, list(indices))
            if i == 0:  # the bundled rewriting.json golden
                verdicts.check("razresh-golden", rep.member and rep.qualifying_count == 13
                               and len(rep.certificate) == 2, indices)
            if rep.member:
                gens = [fl.IndexedGenerator(f"y{t + 1}", v % 7) for t, v in enumerate(indices)]
                denom = math.lcm(*(Fraction(c).denominator for c, _ in rep.certificate))
                acc = fl.FreeLieElement.zero()
                for coeff, tree in rep.certificate:
                    acc = acc + fl.normalize(tree).scale(int(coeff * denom))
                verdicts.check("razresh-certificate", acc == fl.delta(2, gens).scale(denom),
                               indices)
            else:
                verdicts.check("razresh-refusal", rep.certificate is None, indices)
        except Exception as exc:  # a raising verdict is a failed verdict
            verdicts.raised("razresh", indices, exc)
    try:
        basis = fl.hall_basis(hall_gens, 8)
        by_weight = Counter(w.weight for w in basis)
        verdicts.check("hall-basis",
                       all(by_weight[w] == _witt(len(hall_gens), w) for w in range(1, 9)),
                       len(hall_gens))
    except Exception as exc:  # a raising verdict is a failed verdict
        verdicts.raised("hall-basis", len(hall_gens), exc)


WORKLOADS = {
    "dset-sweep": (dset_inputs, dset_run),
    "bch-transport": (bch_inputs, bch_run),
    "fixed-point-checks": (fixed_inputs, fixed_run),
    "lie-rewrite": (lie_inputs, lie_run),
}
