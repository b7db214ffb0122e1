"""What the cyclic garbage collector costs one lie-rewrite job.

cProfile cannot see the collector: a collection runs inside whichever
allocation crosses a generation's threshold, and its time is charged to
that call.  This script times the collections themselves.  Each run is a
fresh interpreter that imports numpy and flab.cli from this checkout's
src/, as a perfbench round does, builds the seeded lie-rewrite inputs of
perfbench/workloads.py, and runs the job once with the collector on or
off.  As in a perfbench round, nothing is collected before the job.  With
the collector on, a gc.callbacks hook counts the collections of each
generation and the seconds spent in them.  Runs alternate on and off.

    python scripts/gc_cost.py [--seed 1] [--runs 6]

It prints one line per run and then the medians.  Times are stopwatch
seconds, not perfbench's seconds at reference speed.  The run is not part
of the test suite.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# argv[1] is the checkout's root, argv[2] the seed, argv[3] "on" or "off"
CHILD = """
import gc, json, random, sys, time
root, seed, mode = sys.argv[1:4]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import numpy, flab.cli, workloads
from flab import free_lie
inputs = workloads.lie_inputs(random.Random(f"lie-rewrite/{seed}"),
                              workloads.SIZES["full"])
counts, seconds, start = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

def hook(phase, info):
    if phase == "start":
        start[0] = time.perf_counter()
    else:
        counts[info["generation"]] += 1
        seconds[info["generation"]] += time.perf_counter() - start[0]

if mode == "off":
    gc.disable()
else:
    gc.callbacks.append(hook)
verdicts = workloads.Verdicts()
t0 = time.perf_counter()
workloads.lie_run(inputs, verdicts)
job = time.perf_counter() - t0
gc.callbacks[:] = []
json.dump({"job_s": job, "collections": counts, "gc_s": seconds,
           "tracked": len(gc.get_objects()), "memo": len(free_lie._BRACKET_MEMO),
           "failed": sum(verdicts.failed.values())}, sys.stdout)
"""


def run_child(seed: int, mode: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(seed), mode],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
                              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=6, help="runs with the collector on, and off")
    args = ap.parse_args(argv)
    results = {"on": [], "off": []}
    for i in range(2 * args.runs):
        mode = ("on", "off")[i % 2]
        got = run_child(args.seed, mode)
        if got["failed"]:
            print(f"run {i + 1}: {got['failed']} failed verdicts", file=sys.stderr)
            return 1
        results[mode].append(got)
        line = f"run {i + 1:2d} gc {mode:3s} job {got['job_s']:.3f} s"
        if mode == "on":
            line += "  collections gen0/1/2 {}/{}/{}  gc {:.1f}/{:.1f}/{:.1f} ms".format(
                *got["collections"], *(1000 * s for s in got["gc_s"]))
        else:
            line += f"  tracked objects after the job {got['tracked']:,}"
        print(line)
    on, off = results["on"], results["off"]
    print(f"median job with the collector on  {statistics.median(r['job_s'] for r in on):.3f} s"
          f" (range {min(r['job_s'] for r in on):.3f}-{max(r['job_s'] for r in on):.3f})")
    print(f"median job with the collector off {statistics.median(r['job_s'] for r in off):.3f} s"
          f" (range {min(r['job_s'] for r in off):.3f}-{max(r['job_s'] for r in off):.3f})")
    for g in range(3):
        print(f"generation {g}: median {statistics.median(r['collections'][g] for r in on):g}"
              f" collections, {1000 * statistics.median(r['gc_s'][g] for r in on):.1f} ms")
    print(f"median time in the collector {1000 * statistics.median(sum(r['gc_s']) for r in on):.1f} ms;"
          f" memo entries {on[0]['memo']:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
