"""Opt-in tracing of flab's layers from outside the package.

Tracer.install() replaces chosen flab functions and methods with timing
wrappers. Nothing under src/ changes: a module-level function is replaced
under every name that any flab module bound to it (flab modules import
names directly, e.g. group_engine does `from .linalg import mat_apply`),
and a method is replaced on its class.

Entry points record a span (name, start, end, parent). Per-element
primitives (canon, mat_apply, BCHGroup.mul) run millions of times, so they
record no span; they are still timed on the same call stack, so the time
they take is charged to their own layer and not to the caller's span.
A layer's self time is the time its wrapped calls took minus the time
their wrapped children took. Spans are kept in compact arrays in memory
and written out only after the timed job, by write_spans().

Everything here is single-threaded and there is no queue, so no layer
ever waits for another: "time waited" does not exist for these layers.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute path, record a span). Methods use "Class.method".
SPANS = "span"
PRIMITIVE = "count"
WRAPPED = (
    ("combinatorics", "check_prim", SPANS),
    ("combinatorics", "is_r_dependent", SPANS),
    ("combinatorics", "d_set", SPANS),
    ("rings", "factorize", SPANS),
    ("rings", "multiplicative_order", SPANS),
    ("rings", "IntegersModRing.canon", PRIMITIVE),
    ("linalg", "rref", SPANS),
    ("linalg", "rref_with_transform", SPANS),
    ("linalg", "kernel", SPANS),
    ("linalg", "field_kernel", SPANS),
    ("linalg", "ring_det", SPANS),
    ("linalg", "mat_mul", SPANS),
    ("linalg", "frac_rational_solve", SPANS),
    ("linalg", "mat_apply", PRIMITIVE),
    ("graded_lie", "example_pm", SPANS),
    ("graded_lie", "lower_central_series", SPANS),
    ("graded_lie", "automorphism_issues", SPANS),
    ("graded_lie", "fixed_subring", SPANS),
    ("group_engine", "lazard_group_from_lie", SPANS),
    ("group_engine", "BCHGroup.__init__", SPANS),
    ("group_engine", "BCHGroup.transport", SPANS),
    ("group_engine", "BCHGroup.to_finite_group", SPANS),
    ("group_engine", "BCHGroup.mul", PRIMITIVE),
    ("group_engine", "bch_nilpotency_class", SPANS),
    ("group_engine", "FiniteGroup.__init__", SPANS),
    ("group_engine", "cyclic_group", SPANS),
    ("group_engine", "dihedral_group", SPANS),
    ("group_engine", "subgroup_closure", SPANS),
    ("group_engine", "all_subgroups", SPANS),
    ("group_engine", "quotient_group", SPANS),
    ("group_engine", "build_field_action", SPANS),
    ("group_engine", "verify_order_formula", SPANS),
    ("group_engine", "verify_coverage", SPANS),
    ("group_engine", "verify_generation", SPANS),
    ("group_engine", "verify_invariant_sylow", SPANS),
    ("group_engine", "verify_nilpotency_transfer", SPANS),
    ("group_engine", "exponent_relation_report", SPANS),
    ("group_engine", "free_module_check", SPANS),
    ("group_engine", "jz_filtration", SPANS),
    ("group_engine", "lazard_lemma_check", SPANS),
    ("group_engine", "is_powerful", SPANS),
    ("free_lie", "normalize", SPANS),
    ("free_lie", "bracket", SPANS),
    ("free_lie", "delta", SPANS),
    ("free_lie", "hall_basis", SPANS),
    ("free_lie", "odin_rewrite", SPANS),
    ("free_lie", "dva_rewrite", SPANS),
    ("free_lie", "razresh_membership", SPANS),
)
LAYERS = ("combinatorics", "rings", "linalg", "graded_lie", "group_engine", "free_lie")


def _key(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


class Tracer:
    """Call counts, seconds, layer self times, result counters and spans."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.counters: dict[str, int] = {}
        self.span_names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._current = -1
        # one child-time accumulator per open wrapped call; [0] is the root
        self._stack = [[0.0]]

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def active(self, key: str) -> bool:
        return self.depth.get(key, 0) > 0

    def _wrap(self, layer: str, key: str, fn, record_span: bool, on_result):
        calls, seconds, depth = self.calls, self.seconds, self.depth
        layer_self, stack = self.layer_self, self._stack
        calls[key] = 0
        seconds[key] = 0.0
        depth[key] = 0
        name_id = len(self.span_names)
        self.span_names.append(key)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = depth[key] == 0
            depth[key] += 1
            if record_span:
                span = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(tracer._current)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                parent, tracer._current = tracer._current, span
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0
                stack[-1][0] += took
                layer_self[layer] += took - frame[0]
                calls[key] += 1
                depth[key] -= 1
                if outer:
                    seconds[key] += took
                if record_span:
                    tracer.span_start[span] = t0
                    tracer.span_end[span] = t1
                    tracer._current = parent
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks=None) -> None:
        """Wrap every entry of WRAPPED; hooks maps a key to a callback
        called with (tracer, result) after each call."""
        hooks = hooks or {}
        flab_modules = [m for n, m in list(sys.modules.items())
                        if n == "flab" or n.startswith("flab.")]
        for module, path, kind in WRAPPED:
            mod = sys.modules[f"flab.{module}"]
            key = _key(module, path)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[attr]
            wrapper = self._wrap(module, key, original, kind == SPANS, hooks.get(key))
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in flab_modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def write_spans(self, path) -> None:
        """Spans as columns: name index, parent span (-1 at the root),
        start and end on the perf_counter clock."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.span_names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            }, fh)
