"""Benchmark runner for flab.

    python3 perfbench/run.py --workload dset-sweep --seed 1 --seconds 20 --trace 0

Runs rounds of one workload for about --seconds seconds. Every round is a
fresh single-threaded interpreter (perfbench/child.py) that imports flab
from this checkout's src/, builds its inputs from the seed, runs the
workload's fixed job and checks every verdict. End-to-end metrics are the
medians over the untraced rounds, in seconds at reference speed (see
perfbench/hostspeed.py). With --trace 1 the runner alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones, plus the tracing overhead.

Prints one line per metric, a metadata line, and as the last line one JSON
object with the keys correct, attempted, failed and metrics. Exits 0 when
every verdict held, 1 when any failed, 2 when a round could not run (for
example when src/flab is missing).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
ROUND_TIMEOUT_S = 150

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Seed 7919 is held out: claims of a gain are re-checked on it, and
# nothing is ever tuned on it.
DEFAULT_SEED = 1


class RoundError(RuntimeError):
    pass


def child_env() -> dict:
    """No flab knob, one BLAS/OpenMP thread, fixed hashing."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FLAB_") and k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_round(workload, seed, size, trace, spans_path=None) -> dict:
    args = [sys.executable, str(HERE / "child.py"), workload, str(seed), size,
            "1" if trace else "0"]
    spawned = time.perf_counter()
    args.append(repr(spawned))
    if spans_path:
        args.append(str(spans_path))
    try:
        proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundError(f"a {workload} round ran past {ROUND_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"a {workload} round exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def warm_up():
    """Import flab once, untimed, so every timed round finds compiled
    bytecode, as a user's repeated CLI calls do."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import flab.cli", str(ROOT / "src")],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"cannot import flab from {ROOT / 'src'}:\n{proc.stderr.strip()[-2000:]}")


def measure(workload, seed, seconds, trace, size) -> tuple[list, list]:
    """Rounds until the next one would end past the deadline; at least one
    untraced round, and one traced round when tracing."""
    plain, traced = [], []
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    last = {}
    i = 0
    while True:
        is_traced = kinds[i % len(kinds)]
        spans = OUT / f"spans-{workload}.json" if is_traced and not traced else None
        t0 = time.perf_counter()
        result = run_round(workload, seed, size, is_traced, spans)
        last[is_traced] = time.perf_counter() - t0
        (traced if is_traced else plain).append(result)
        i += 1
        nxt = kinds[i % len(kinds)]
        if plain and (traced or not trace):
            if time.perf_counter() - start + last.get(nxt, last[is_traced]) > seconds:
                return plain, traced


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the library sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def summarize(workload, seed, seconds, trace, size, plain, traced) -> dict:
    rounds = plain + traced
    attempted, failed = {}, {}
    for r in rounds:
        for kind, n in r["attempted"].items():
            attempted[kind] = attempted.get(kind, 0) + n
        for kind, n in r["failed"].items():
            failed[kind] = failed.get(kind, 0) + n
    metrics, notes = {}, {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median(plain, name), "unit": unit}
    else:
        for name, unit in PER_LAYER.items():
            if name.startswith("setup."):
                value = median(rounds, name)
            elif name == "trace.overhead_ratio":
                value = median(traced, "wall_s") / median(plain, "wall_s")
            else:
                value = statistics.median(r["layers"][name][0] for r in traced)
                reason = traced[0]["layers"][name][1]
                if reason:
                    notes[name] = reason
            metrics[name] = {"value": value, "unit": unit}
    meta = {
        **source_identity(),
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "attempted_per_round": {k: v // len(rounds) for k, v in attempted.items()},
        "spans_per_traced_round": traced[0]["spans"] if traced else None,
        "wall_s_untraced_rounds": [r["wall_s"] for r in plain],
        "wall_raw_s_untraced_rounds": [r["wall_raw_s"] for r in plain],
        "setup_raw_s_untraced_rounds": [r["setup_raw_s"] for r in plain],
        "host_slowdown_rounds": [r["slowdown"] for r in rounds],
        "failures": [f for r in rounds for f in r["failures"]][:20],
    }
    return {"attempted": sum(attempted.values()), "failed": sum(failed.values()),
            "metrics": metrics, "notes": notes, "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed; 7919 is held out for checking claimed gains")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs a tiny job, for checking the harness itself")
    args = parser.parse_args(argv)
    try:
        warm_up()
        OUT.mkdir(exist_ok=True)
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.size)
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    summary = summarize(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                        plain, traced)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    attempted, failed = summary["attempted"], summary["failed"]
    for name, m in summary["metrics"].items():
        note = summary["notes"].get(name)
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}"
              + (f"   absent: {note}" if note else ""))
    meta = summary["meta"]
    walls = sorted(meta["wall_s_untraced_rounds"])
    print(f"untraced rounds: {len(walls)}, wall_s fastest {walls[0]:.6g} s, "
          f"median {statistics.median(walls):.6g} s, slowest {walls[-1]:.6g} s")
    print(f"by the stopwatch: wall {statistics.median(meta['wall_raw_s_untraced_rounds']):.6g} s, "
          f"setup {statistics.median(meta['setup_raw_s_untraced_rounds']):.6g} s; "
          f"host slowdown {statistics.median(meta['host_slowdown_rounds']):.3g}x reference speed")
    print(f"{'fail_ratio':42s} {failed / attempted:14.6g} ratio   "
          f"({failed} failed of {attempted} verdicts)")
    if args.trace:
        print("time waited: none; every round is one thread with no queue between layers")
    print("meta " + json.dumps(summary["meta"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
