"""One round of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED SIZE TRACE SPAWN_TIME [SPANS_PATH]

SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took just before it
started this process; set-up time runs from there until the inputs are
ready, so it includes interpreter start, `import flab.cli` (numpy and the
whole package) and input generation. Prints one JSON object on stdout.

setup_s and wall_s are in seconds at reference speed: the host's speed is
sampled with a calibration loop right after set-up and, on a timer, while
the job runs, and each stretch of time is scaled by it (hostspeed.py).
setup_raw_s and wall_raw_s are the same spans by the stopwatch.
"""
import time

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with the parent

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_flab():
    """Import numpy, then flab.cli, from this checkout's src/ only."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = _clock()
    import numpy

    t1 = _clock()
    import flab.cli  # noqa: F401
    import flab

    t2 = _clock()
    if Path(flab.__file__).resolve().parent != ROOT / "src" / "flab":
        raise SystemExit(f"flab imported from {flab.__file__}, not from {ROOT / 'src'}")
    return numpy.__version__, t1 - t0, t2 - t1


def _ratio_hooks():
    def independent(tracer, result):
        if not result[0]:
            tracer.bump("independent")

    def subgroups(tracer, result):
        tracer.bump("subgroups", len(result))
        if tracer.active("group_engine.verify_coverage"):
            tracer.bump("coverage_subgroups", len(result))

    def quotients(tracer, result):
        tracer.bump("coverage_quotients", (result.witness or {}).get("quotients_checked", 0))

    def kept(tracer, result):
        tracer.bump("kept_terms", len(result.kept_terms))
        tracer.bump("rewrite_terms", len(result.kept_terms) + len(result.dropped_terms))

    return {
        "combinatorics.is_r_dependent": independent,
        "group_engine.all_subgroups": subgroups,
        "group_engine.verify_coverage": quotients,
        "free_lie.odin_rewrite": kept,
        "free_lie.dva_rewrite": kept,
    }


def _ratio(num, den, what):
    return (num / den, None) if den else (0.0, f"no {what} on this workload")


def _layer_metrics(tracer):
    """Per-layer metrics of one traced round; each is (value, absent reason)."""
    from flab import free_lie

    calls, secs, c = tracer.calls, tracer.seconds, tracer.counters
    out = {f"{layer}.self_s": (t, None) for layer, t in tracer.layer_self.items()}
    for key in ("combinatorics.is_r_dependent", "combinatorics.d_set",
                "rings.IntegersModRing.canon", "linalg.mat_apply", "linalg.rref",
                "graded_lie.lower_central_series", "graded_lie.automorphism_issues",
                "group_engine.BCHGroup.mul", "group_engine.FiniteGroup.init",
                "group_engine.subgroup_closure", "free_lie.normalize", "free_lie.bracket"):
        out[f"{key}.calls"] = (calls[key], None)
    for key in ("combinatorics.is_r_dependent", "combinatorics.d_set",
                "group_engine.BCHGroup.transport", "group_engine.lazard_group_from_lie",
                "group_engine.FiniteGroup.init"):
        out[f"{key}.s"] = (secs[key], None)
    out["combinatorics.independent_ratio"] = _ratio(
        c.get("independent", 0), calls["combinatorics.is_r_dependent"], "is_r_dependent calls")
    out["group_engine.all_subgroups.subgroups"] = (c.get("subgroups", 0), None)
    out["group_engine.coverage.useful_ratio"] = _ratio(
        c.get("coverage_quotients", 0), c.get("coverage_subgroups", 0),
        "subgroups enumerated by verify_coverage")
    out["free_lie.bracket_memo.entries"] = (len(free_lie._BRACKET_MEMO), None)
    out["free_lie.rewrite.kept_ratio"] = _ratio(
        c.get("kept_terms", 0), c.get("rewrite_terms", 0), "rewrite terms")
    return out


def main(argv):
    workload, seed, size_name, trace, spawned = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    numpy_version, numpy_s, flab_s = _import_flab()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed
    import workloads

    t0 = _clock()
    make_inputs, run = workloads.WORKLOADS[workload]
    inputs = make_inputs(random.Random(f"{workload}/{seed}"), workloads.SIZES[size_name])
    ready = _clock()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(_ratio_hooks())
    verdicts = workloads.Verdicts()
    sampler = hostspeed.Sampler()
    for _ in range(hostspeed.WINDOW):
        sampler.sample()
    setup = ready - float(spawned)
    sampler.start()
    start = _clock()
    run(inputs, verdicts)
    end = _clock()
    sampler.stop()
    wall, wall_scaled = sampler.scaled(start, end)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": setup * hostspeed.REF_S / sampler.speed_near(hostspeed.WINDOW // 2),
        "wall_s": wall_scaled,
        "setup_raw_s": setup,
        "wall_raw_s": wall,
        "slowdown": statistics.median(b - a for a, b in sampler.samples) / hostspeed.REF_S,
        "peak_rss_mb": peak_kb / 1024,
        "setup.import_numpy_s": numpy_s,
        "setup.import_flab_s": flab_s,
        "setup.inputs_s": ready - t0,
        "attempted": dict(verdicts.attempted),
        "failed": dict(verdicts.failed),
        "failures": verdicts.failures,
        "numpy": numpy_version,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer)
        out["spans"] = len(tracer.span_start)
        if spans_path:
            tracer.write_spans(spans_path)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
