"""Self-test of the benchmark: toy-size workloads, untraced and traced.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py once untraced and once traced on
toy inputs and checks that the oracles pass and that the emitted metric
names and units are exactly those in BENCHMARK.json.  It then copies the
benchmark alone (BENCHMARK.json and perfbench/) into perfbench/out/bare/
and checks that there it exits with an error and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def check_workload(name, spec) -> list:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(
            ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "toy",
        )
        tag = f"{name} trace={trace}"
        if proc.returncode != 0:
            problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{tag}: oracle or digest check failed:\n{proc.stdout}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
            problems.append(f"{tag}: metric names or units differ; missing {missing}, extra {extra}")
    return problems


def check_bare() -> list:
    """Without the sources beside it the benchmark must fail, printing nothing."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "conic-points", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        found = check_workload(workload["name"], spec)
        print(f"{workload['name']}: {'ok' if not found else 'FAILED'}")
        problems += found
    found = check_bare()
    print(f"bare copy fails cleanly: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
