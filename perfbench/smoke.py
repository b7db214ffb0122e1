"""Smoke check of the benchmark harness at a tiny size.

    python3 perfbench/smoke.py

For every workload it runs one untraced and one traced tiny run and checks
that each end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that a per-layer metric without a value carries a
reason, that every verdict held, and that the runner refuses to run,
without printing a result, in a directory holding only the benchmark.
Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as runner  # noqa: E402


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(workload, trace, problems):
    proc = run(ROOT, "--workload", workload, "--seed", str(runner.DEFAULT_SEED),
               "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    where = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: verdicts {result['failed']} failed of {result['attempted']}")
    want = runner.PER_LAYER if trace else runner.END_TO_END
    for name, unit in want.items():
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} missing or without unit {unit}: {got}")
            continue
        printed = [line.split() for line in lines[:-1] if line.split()[:1] == [name]]
        if not printed or printed[0][2] != unit:
            problems.append(f"{where}: metric {name} not printed with its unit")
        elif "absent:" in printed[0] and (got["value"] != 0 or printed[0][-1] == "absent:"):
            problems.append(f"{where}: metric {name} marked absent without a reason or with a value")
    if set(result["metrics"]) != set(want):
        problems.append(f"{where}: unexpected metrics {sorted(set(result['metrics']) - set(want))}")
    if not any(line.startswith("fail_ratio ") for line in lines):
        problems.append(f"{where}: fail_ratio not printed")


def check_bare(problems):
    """A directory with only BENCHMARK.json and perfbench/ must make the
    runner fail without printing a result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "--workload", runner.WORKLOADS[0], "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    problems: list[str] = []
    for workload in runner.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    check_bare(problems)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
