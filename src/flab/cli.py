"""Command-line front end.

Query commands print one JSON object (or aligned text); check commands
stream VerificationReport records, newline-delimited in json format.
Exit codes: 0 all pass, 1 any violation, 2 input or capacity trouble.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from . import combinatorics as comb
from . import free_lie as fl
from . import graded_lie as gl
from . import group_engine as ge
from .errors import CapacityError, InputError
from .reports import (
    CAPACITY_ERROR,
    INPUT_ERROR,
    PASS,
    VIOLATION,
    VerificationReport,
    error_report,
    report_check,
    verdict,
)
from .rings import ring_from_json

# --- argument parsing helpers ---


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")


def _int_pair(text: str) -> tuple[int, int]:
    vals = _int_list(text)
    if len(vals) != 2:
        raise InputError(f"expected two comma-separated integers, got {text!r}")
    return vals[0], vals[1]


def _parse_generators(text: str) -> list[fl.IndexedGenerator]:
    """name or name@index entries, comma separated."""
    gens = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "@" in part:
            name, _, idx = part.partition("@")
            try:
                gens.append(fl.IndexedGenerator(name, int(idx)))
            except ValueError:
                raise InputError(f"bad generator {part!r}")
        else:
            gens.append(fl.IndexedGenerator(part))
    if not gens:
        raise InputError("no generators given")
    return gens


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_group(args) -> ge.FiniteGroup:
    if getattr(args, "name", None):
        return ge.named_group(args.name)
    if getattr(args, "file", None):
        return ge.build_group(_load_json(args.file))
    raise InputError("provide --name or --file")


def _infer_prime(G, p: int | None) -> int:
    if p is not None:
        return p
    if G.order == 1:
        raise InputError("--p is required for the trivial group")
    fac = ge.factorize(G.order)
    if len(fac) == 1:
        return next(iter(fac))
    raise InputError("--p is required when the order has several prime factors")


# --- output ---


def _emit_data(obj: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True), file=out)
        return
    width = max((len(k) for k in obj), default=0)
    for key in sorted(obj):
        val = obj[key]
        if not isinstance(val, str):
            val = json.dumps(val, sort_keys=True)
        print(f"{key:<{width}}  {val}", file=out)


def _emit_reports(reports, fmt: str, out) -> None:
    if fmt == "json":
        for rep in reports:
            print(rep.json_line(), file=out)
        return
    nw = max((len(r.name) for r in reports), default=0)
    sw = max((len(r.status) for r in reports), default=0)
    for rep in reports:
        extra = rep.reason or ""
        if not extra and rep.witness is not None:
            extra = json.dumps(rep.witness, sort_keys=True)
        line = f"{rep.name:<{nw}}  {rep.status:<{sw}}  {extra}"
        print(line.rstrip(), file=out)


def _exit_code(reports) -> int:
    statuses = {rep.status for rep in reports}
    if INPUT_ERROR in statuses or CAPACITY_ERROR in statuses:
        return 2
    if VIOLATION in statuses:
        return 1
    return 0


# --- report adapters, shared by subcommands and the fixture suite ---


def _adapter(body):
    """The report_check, under the name passed first, of a check body(name,
    ...) -> (status, witness, reason); the adapter keeps body's signature."""
    @functools.wraps(body)
    def adapter(name: str, *args, **kwargs) -> VerificationReport:
        return report_check(name, lambda: body(name, *args, **kwargs))

    return adapter


def _as_expected(key: str, found, expected, reason: str) -> tuple:
    """PASS with {key: found} when found == expected, else VIOLATION with
    the expected value beside it."""
    if found == expected:
        return PASS, {key: found}, None
    return VIOLATION, {key: found, "expected": expected}, reason


@_adapter
def report_prim(name: str, n: int, q: int, r: int):
    failure = comb.prim_failure(n, q, r)
    if failure is None:
        return PASS, {"n": n, "q": q, "r": r}, None
    d, order = failure
    witness = {"n": n, "q": q, "r": r, "divisor": d, "order": order}
    return VIOLATION, witness, "r lacks multiplicative order q modulo a divisor of n"


@_adapter
def report_dset(name, seq, n, q, r, expected):
    found = sorted(comb.d_set(seq, comb.FrobeniusParams(n, q, r)))
    return _as_expected("d_set", found, sorted(expected),
                        "computed D-set differs from the expected one")


@_adapter
def report_charp(name: str, g1, g2, limit: int):
    bound = comb.charp_bound(g1, g2)
    moduli = sorted(comb.common_root_moduli(g1, g2, limit))
    exceeding = [m for m in moduli if m > bound]
    witness = {"bound": bound, "moduli": moduli}
    if exceeding:
        witness["exceeding"] = exceeding
        return VIOLATION, witness, (
            "a common-root modulus exceeds the bound; "
            "the polynomials likely share a complex root"
        )
    return PASS, witness, None


@_adapter
def report_rewrite(name, u, tail, c, n, q, r, w=None):
    """The guarantees of odin_rewrite when w is None, else of dva_rewrite."""
    params = comb.FrobeniusParams(n, q, r)
    head = fl.UAtom(tuple(u))
    gens = tuple(fl.IndexedGenerator(f"x{t}", idx) for t, idx in enumerate(tail))
    if w is None:
        result = fl.odin_rewrite(head, gens, c, params)
    else:
        result = fl.dva_rewrite(head, gens, c, params, w)
    identity = result.verify()
    dset = comb.d_set(tuple(u), params)
    in_dset = all(
        fl.tree_index_sum(elem) % n in dset
        for term in result.kept_terms
        for elem in term.elems
    )
    witness = {
        "kept_terms": len(result.kept_terms),
        "dropped_terms": len(result.dropped_terms),
        "drop_reasons": sorted(
            {t.reason for t in result.dropped_terms if t.reason}
        ),
        "identity": identity,
        "kept_indices_in_dset": in_dset,
    }
    return verdict(identity and in_dset, witness, "rewrite guarantees fail")


def _razresh_data(rez: fl.RazreshReport) -> dict:
    return {
        "member": rez.member,
        "qualifying_count": rez.qualifying_count,
        "certificate_size": len(rez.certificate) if rez.certificate else 0,
    }


@_adapter
def report_razresh(name, c, q, n, r, indices, member):
    rez = fl.razresh_membership(c, q, comb.FrobeniusParams(n, q, r), indices)
    return verdict(rez.member == member, _razresh_data(rez),
                   "membership answer differs from the expected one")


@_adapter
def report_lie_validate(name: str, data):
    L = gl.GradedLieRing.from_json(data)
    rep = gl.validate(L)
    if rep.valid:
        return PASS, {"rank": L.rank}, None
    issues = [[iss.kind, list(iss.indices)] for iss in rep.issues]
    return VIOLATION, {"issues": issues}, "bracket laws fail"


@_adapter
def report_selective(name, data, c, n, q, r):
    L = gl.GradedLieRing.from_json(data)
    holds, witness = gl.check_selective_nilpotency(L, c, comb.FrobeniusParams(n, q, r))
    if holds:
        return PASS, {"c": c}, None
    return VIOLATION, {
        "grades": list(witness.grades),
        "basis_chain": list(witness.basis_chain),
    }, "an r-independent bracket survives"


@_adapter
def report_simple3(name: str, ring):
    ex = gl.example_simple3(ring_from_json(ring))
    L = ex.lie
    fixed_f = gl.fixed_subring(L, ex.f)
    fixed_h = gl.fixed_subring(L, (ex.h,))
    full = L.span([L.basis_vector(i) for i in range(L.rank)])
    gamma2 = gl.lower_central_series(L).member(2)
    witness = {
        "fixed_f_dim": fixed_f.rank(),
        "fixed_h_dim": fixed_h.rank(),
        "gamma2_full": gamma2 == full,
    }
    return verdict(fixed_f.is_zero() and fixed_h.rank() == 1 and gamma2 == full,
                   witness, "example invariants fail")


@_adapter
def report_pm(name: str, p: int, m: int):
    ex = gl.example_pm(p, m)
    L = ex.lie
    R = L.ring
    fixed_f = gl.fixed_subring(L, ex.f)
    fixed_h = gl.fixed_subring(L, (ex.h,))
    diagonal = L.span([[R.one(), R.one(), R.one()]])
    cls = gl.lower_central_series(L).nilpotency_class()
    witness = {
        "fixed_f_dim": fixed_f.rank(),
        "fixed_h_is_diagonal": fixed_h == diagonal,
        "class": cls,
    }
    return verdict(fixed_f.is_zero() and fixed_h == diagonal and cls == m,
                   witness, "example invariants fail")


# this order is the report order of `group verify all` and of its choices
_FIELD_CHECKS = {check.name: check for check in (
    ge.verify_order_formula,
    ge.verify_coverage,
    ge.verify_generation,
    ge.verify_invariant_sylow,
    ge.verify_nilpotency_transfer,
    ge.exponent_relation_report,
)}


def _field_check(check: str, group, action) -> tuple:
    """The outcome of a _FIELD_CHECKS entry: the CLI's one path to them."""
    if check not in _FIELD_CHECKS:
        raise InputError(f"unknown check {check!r}")
    return _FIELD_CHECKS[check].body(group, action)


@_adapter
def report_field_verify(name: str, p: int, k: int, check: str):
    res = ge.build_field_action(p, k)
    return _field_check(check, res.group, res.action)


@_adapter
def report_free_module_field(name: str, p: int, k: int):
    res = ge.build_field_action(p, k)
    return ge.free_module_check.body(res.group, res.action.h, k)


@_adapter
def report_free_module_trivial(name: str, p: int, dim: int, q: int):
    group = ge.elementary_abelian_group(p, dim)
    return ge.free_module_check.body(group, ge.perm_identity(group.order), q)


@_adapter
def report_jz_dims(name: str, group: str, p: int, dims):
    found = list(ge.jz_filtration(ge.named_group(group), p).dims())
    return _as_expected("dims", found, list(dims), "filtration dimensions differ")


@_adapter
def report_lazard_lemma(name: str, group: str, p: int):
    return ge.lazard_lemma_check.body(ge.named_group(group), p)


@_adapter
def report_powerful(name: str, group: str, p: int, expected: bool):
    return _as_expected("powerful", ge.is_powerful(ge.named_group(group), p), bool(expected),
                        "powerfulness answer differs from the expected one")


def _lazard_data(lz: ge.LazardGroup) -> dict:
    P = lz.group
    return {
        "order": P.order,
        "modulus": P.modulus,
        "rank": P.rank,
        "lie_class": lz.lie_class,
        "group_class": ge.bch_nilpotency_class(P),
    }


def _bch_data(p: int, m: int, sweep: bool) -> dict:
    ex = gl.example_pm(p, m)
    lz = ge.lazard_group_from_lie(ex.lie, automorphisms=ex.f + (ex.h,))
    P = lz.group
    out = _lazard_data(lz)
    if sweep:
        fixed_f = ge.fixed_points(P, lz.transported[:3])
        fixed_h = ge.fixed_points(P, (lz.transported[3],))
        out["fixed_f"] = len(fixed_f)
        out["fixed_h"] = len(fixed_h)
        out["fixed_h_cyclic"] = any(
            P.element_order(x) == len(fixed_h) for x in fixed_h
        )
    return out


@_adapter
def report_bch_pm(name: str, p: int, m: int, sweep: bool = True):
    data = _bch_data(p, m, sweep)
    ok = data["group_class"] == data["lie_class"]
    if sweep:
        ok = ok and data["fixed_f"] == 1 and data["fixed_h_cyclic"]
    return verdict(ok, data, "transported group invariants fail")


# --- query command handlers: return ("data", dict) ---


def cmd_rdep(args):
    params = comb.FrobeniusParams(args.n, args.q, args.r)
    dependent, witness = comb.is_r_dependent(_int_list(args.seq), params)
    return "data", {
        "dependent": dependent,
        "exponents": list(witness.exponents) if witness else None,
    }


def cmd_dset(args):
    params = comb.FrobeniusParams(args.n, args.q, args.r)
    found = comb.d_set(_int_list(args.seq), params, method=args.method)
    return "data", {"d_set": sorted(found)}


def cmd_nbound(args):
    return "data", {
        "capacity": comb.capacity_n(args.c, args.q),
        "engel_width": comb.engel_width(args.c, args.q),
    }


def cmd_lie_series(args):
    L = gl.GradedLieRing.from_json(_load_json(args.file))
    if args.kind == "lower":
        chain = gl.lower_central_series(L)
        depth = {"class": chain.nilpotency_class()}
    else:
        chain = gl.derived_series(L)
        depth = {"derived_length": chain.derived_length()}
    out = {"kind": args.kind, "dims": [m.rank() for m in chain.members]}
    out.update(depth)
    return "data", out


def cmd_lie_eigen(args):
    data = _load_json(args.file)
    L = gl.GradedLieRing.from_json(data["lie"])
    if "phi" not in data or "n" not in data:
        raise InputError("eigen input needs 'lie', 'phi', and 'n'")
    phi = [[L.ring.from_json(c) for c in row] for row in data["phi"]]
    omega = L.ring.from_json(data["omega"]) if "omega" in data else None
    components, defect = gl.eigenspace_decomposition(L, phi, int(data["n"]), omega)
    return "data", {
        "dims": [comp.rank() for comp in components],
        "spans": defect.spans,
        "direct": defect.direct,
        "scaled_contained": defect.scaled_contained,
        "dependencies_annihilated": defect.dependencies_annihilated,
    }


def cmd_free_basis(args):
    words = fl.hall_basis(_parse_generators(args.gens), args.max_weight)
    return "data", {
        "count": len(words),
        "words": [fl.format_tree(w) for w in words],
    }


def cmd_free_normalize(args):
    elem = fl.normalize(fl.parse_expression(args.expression))
    return "data", {"normalized": fl.format_element(elem)}


def cmd_free_delta(args):
    gens = _parse_generators(args.args)
    elem = fl.delta(args.k, gens)
    return "data", {"element": fl.format_element(elem)}


def cmd_free_razresh(args):
    params = comb.FrobeniusParams(args.n, args.q, args.r)
    rez = fl.razresh_membership(
        args.c, args.q, params, _int_list(args.indices), args.weight_cap
    )
    return "data", _razresh_data(rez)


def cmd_group_build(args):
    G = _load_group(args)
    return "data", {
        "order": G.order,
        "identity": G.identity,
        "abelian": G.is_abelian(),
        "exponent": G.exponent(),
        "nilpotency_class": ge.nilpotency_class(G),
        "center_order": len(ge.center(G)),
    }


def cmd_group_jz(args):
    G = _load_group(args)
    p = _infer_prime(G, args.p)
    filt = ge.jz_filtration(G, p)
    return "data", {
        "prime": p,
        "dims": list(filt.dims()),
        "term_orders": [len(t) for t in filt.terms],
    }


def cmd_group_powerful(args):
    G = _load_group(args)
    p = _infer_prime(G, args.p)
    return "data", {"prime": p, "powerful": ge.is_powerful(G, p)}


def cmd_group_bch(args):
    if args.pm is not None:
        p, m = _int_pair(args.pm)
        return "data", _bch_data(p, m, sweep=not args.no_sweep)
    if not args.file:
        raise InputError("provide --pm or --file")
    L = gl.GradedLieRing.from_json(_load_json(args.file))
    return "data", _lazard_data(ge.lazard_group_from_lie(L))


# --- check command handlers: return ("reports", [...]) named by their label ---


def cmd_prim(args):
    return "reports", [report_prim(args.label, args.n, args.q, args.r)]


def cmd_charp(args):
    return "reports", [
        report_charp(args.label, _int_list(args.g1), _int_list(args.g2), args.limit)
    ]


def cmd_lie_validate(args):
    return "reports", [report_lie_validate(args.label, _load_json(args.file))]


def cmd_lie_select(args):
    return "reports", [
        report_selective(
            args.label, _load_json(args.file),
            args.c, args.n, args.q, args.r,
        )
    ]


def cmd_lie_examples(args):
    reports = [
        report_simple3("simple3-f5", {"kind": "PrimeField", "modulus": 5}),
        report_simple3("simple3-rational", {"kind": "Rationals"}),
    ]
    for p, m in ((5, 1), (5, 2), (7, 2)):
        reports.append(report_pm(f"pm-{p}-{m}", p, m))
    return "reports", reports


def cmd_free_rewrite(args):
    return "reports", [
        report_rewrite(args.label, _int_list(args.u), _int_list(args.tail),
                       args.c, args.n, args.q, args.r, getattr(args, "w", None))
    ]


def cmd_group_verify(args):
    if args.field is not None:
        p, k = _int_pair(args.field)
        res = ge.build_field_action(p, k)
        group, action = res.group, res.action
    elif args.file:
        data = _load_json(args.file)
        if not isinstance(data, dict) or "group" not in data or "action" not in data:
            raise InputError("verify input needs 'group' and 'action'")
        group = ge.build_group(data["group"])
        action = ge.action_from_json(group, data["action"])
    else:
        raise InputError("provide --field or --file")
    names = list(_FIELD_CHECKS) if args.check == "all" else [args.check]
    # a refused check is its own report, the others still run
    return "reports", [report_check(name, functools.partial(_field_check, name, group, action))
                       for name in names]


def cmd_group_lazard(args):
    G = _load_group(args)
    p = _infer_prime(G, args.p)

    def body():
        dl = ge.lazard_algebra(G, p)
        status, witness, reason = ge.lazard_lemma(dl)
        if status == PASS:
            witness = {**witness,
                       "dims": list(dl.filtration.dims()),
                       "degrees": list(dl.degrees),
                       "lp_rank": dl.lp.rank(),
                       "lp_spans": dl.lp.rank() == dl.lie.rank}
        return status, witness, reason

    return "reports", [report_check(args.label, body)]


# --- the bundled fixture suite ---

TASK_KINDS = {
    "prim": report_prim,
    "dset": report_dset,
    "odin": report_rewrite,
    "dva": report_rewrite,
    "razresh": report_razresh,
    "example-simple3": report_simple3,
    "example-pm": report_pm,
    "bch-pm": report_bch_pm,
    "field-verify": report_field_verify,
    "free-module-field": report_free_module_field,
    "free-module-trivial": report_free_module_trivial,
    "jz-dims": report_jz_dims,
    "lazard-lemma": report_lazard_lemma,
    "powerful": report_powerful,
}


def load_fixtures() -> list[dict]:
    root = resources.files("flab").joinpath("fixtures")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append(json.loads(entry.read_text(encoding="utf-8")))
    if not out:
        raise InputError("no bundled fixtures found")
    return out


def _run_task(task) -> VerificationReport:
    kind = task.get("kind")
    if kind not in TASK_KINDS:
        raise InputError(f"unknown task kind {kind!r}")
    return TASK_KINDS[kind](task["id"], **task.get("args", {}))


def run_suite() -> list[VerificationReport]:
    """Run every fixture task in id order and compare against its golden
    report."""
    tasks = []
    for fixture in load_fixtures():
        tasks.extend(fixture.get("tasks", ()))
    tasks.sort(key=lambda t: t["id"])
    out = []
    for task in tasks:
        actual = _run_task(task)
        golden = task["expected"]
        got = actual.to_json(with_timing=False)
        if got == golden:
            out.append(VerificationReport(
                task["id"], PASS, got, None, actual.seconds))
        else:
            out.append(VerificationReport(
                task["id"], VIOLATION, {"expected": golden, "actual": got},
                "report differs from the golden", actual.seconds))
    return out


def cmd_suite(args):
    if args.target != "paper":
        raise InputError(f"unknown suite {args.target!r}")
    return "reports", run_suite()


# --- parser wiring ---


def _required_int(flag: str) -> tuple:
    return flag, {"type": int, "required": True}


_FORMAT = ("--format", {"choices": ("json", "table"), "default": "table"})
_PARAMS = tuple(_required_int(flag) for flag in ("--n", "--q", "--r"))
_SEQ = ("--seq", {"required": True, "help": "comma-separated residues"})
_HEAD = (("--u", {"required": True, "help": "head index tuple"}),
         ("--tail", {"required": True, "help": "tail indices"}),
         _required_int("--c"))
_GROUP_SOURCE = (("--name", {"help": "bundled group name, e.g. D8"}),
                 ("--file", {"help": "JSON group file"}),
                 ("--p", {"type": int, "help": "prime (inferred for p-groups)"}))
_FILE = ("file", {})


def _command(group, name: str, help: str, func, label: str, *arguments) -> None:
    """Add the leaf subcommand `name` to the subparsers `group`: its
    (flag, argparse keywords) arguments in order, then --format, with func
    and label as its defaults."""
    sub = group.add_parser(name, help=help)
    for flag, keywords in arguments + (_FORMAT,):
        sub.add_argument(flag, **keywords)
    sub.set_defaults(func=func, label=label)


def _subcommands(top, name: str, help: str):
    return top.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flab",
        description="Exact computations on graded Lie rings, free Lie "
                    "rewriting, and finite group actions.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    _command(top, "prim", "test the order condition on (n, q, r)", cmd_prim, "prim", *_PARAMS)
    _command(top, "rdep", "exhaustive r-dependence test", cmd_rdep, "rdep", _SEQ, *_PARAMS)
    _command(top, "dset", "residues whose adjunction breaks independence", cmd_dset, "dset",
             _SEQ, ("--method", {"choices": ("auto", "brute", "formula"), "default": "auto"}),
             *_PARAMS)
    _command(top, "nbound", "capacity and Engel-width bounds", cmd_nbound, "nbound",
             _required_int("--c"), _required_int("--q"))
    _command(top, "charp", "common-root moduli against the bound", cmd_charp, "charp",
             ("--g1", {"required": True, "help": "ascending coefficients"}),
             ("--g2", {"required": True, "help": "ascending coefficients"}),
             ("--limit", {"type": int, "default": 10000}))

    lie = _subcommands(top, "lie", "graded Lie ring tools")
    _command(lie, "validate", "check the bracket laws of a JSON ring", cmd_lie_validate,
             "lie-validate", _FILE)
    _command(lie, "series", "lower central or derived series", cmd_lie_series, "lie-series",
             _FILE, ("--kind", {"choices": ("lower", "derived"), "default": "lower"}))
    _command(lie, "select", "selective nilpotency check", cmd_lie_select,
             "selective-nilpotency", _FILE, _required_int("--c"), *_PARAMS)
    _command(lie, "eigen", "eigenspace decomposition of a JSON action", cmd_lie_eigen,
             "lie-eigen", _FILE)
    _command(lie, "examples", "recheck the bundled ring examples", cmd_lie_examples,
             "lie-examples")

    free = _subcommands(top, "free", "free Lie ring tools")
    _command(free, "basis", "Hall basis up to a weight", cmd_free_basis, "free-basis",
             ("--gens", {"required": True, "help": "name or name@index list"}),
             _required_int("--max-weight"))
    _command(free, "normalize", "rewrite an expression in the Hall basis", cmd_free_normalize,
             "free-normalize", ("expression", {}))
    _command(free, "delta", "balanced bracket on 2**k generators", cmd_free_delta,
             "free-delta", _required_int("--k"),
             ("--args", {"required": True, "help": "name@index list"}))
    _command(free, "odin", "head rewrite keeping D-set indices", cmd_free_rewrite, "odin",
             *_HEAD, *_PARAMS)
    _command(free, "dva", "head rewrite with reordered long terms", cmd_free_rewrite, "dva",
             *_HEAD, _required_int("--w"), *_PARAMS)
    _command(free, "razresh", "span membership for delta commutators", cmd_free_razresh,
             "razresh", _required_int("--c"), ("--indices", {"required": True}),
             ("--weight-cap", {"type": int, "default": None}), *_PARAMS)

    group = _subcommands(top, "group", "finite group tools")
    _command(group, "build", "order, exponent, class of a group", cmd_group_build,
             "group-build", *_GROUP_SOURCE)
    _command(group, "verify", "fixed-point theorems on an action", cmd_group_verify,
             "group-verify", ("check", {"choices": tuple(_FIELD_CHECKS) + ("all",)}),
             ("--field", {"help": "p,k for the bundled field action"}),
             ("--file", {"help": "JSON file with 'group' and 'action'"}))
    _command(group, "jz", "dimension-subgroup filtration", cmd_group_jz, "group-jz",
             *_GROUP_SOURCE)
    _command(group, "lazard", "graded algebra and the power lemma", cmd_group_lazard,
             "lazard-lemma", *_GROUP_SOURCE)
    _command(group, "powerful", "commutators inside the power subgroup", cmd_group_powerful,
             "group-powerful", *_GROUP_SOURCE)
    _command(group, "bch", "Hausdorff-product group of a Lie ring", cmd_group_bch,
             "group-bch",
             ("--pm", {"help": "p,m for the bundled cyclic-bracket ring"}),
             ("--file", {"help": "JSON Lie ring file"}),
             ("--no-sweep", {"action": "store_true", "help": "skip the fixed-point sweeps"}))

    _command(top, "suite", "run the bundled fixture corpus", cmd_suite, "suite",
             ("target", {"choices": ("paper",)}))
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = getattr(args, "format", "table")
    label = getattr(args, "label", "flab")
    try:
        kind, payload = args.func(args)
    except (InputError, CapacityError) as exc:
        _emit_reports([error_report(label, exc)], fmt, sys.stdout)
        return 2
    if kind == "data":
        _emit_data(payload, fmt, sys.stdout)
        return 0
    _emit_reports(payload, fmt, sys.stdout)
    return _exit_code(payload)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
