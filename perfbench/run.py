"""The ffsubspace benchmark: seeded scenarios, fresh-process CLI samples, oracles.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark generates the workload's
scenario from the seed (see workloads.py), then runs samples in a closed
loop with one client: one sample at a time, each a new `python -I` process
that imports `ffsubspace` from this checkout's `src/` and runs the
workload's CLI task.  A fresh process per sample is deliberate: every CLI
call a user makes starts with cold caches.  A new sample starts only while
the run's median sample still fits in `--seconds`, so a run takes about
`--seconds` and never much longer (one sample at least, two when traced).

Every sample is checked: exit codes, the report against the independent
oracles, and the digest of the CLI output, which must match the first
sample of the run and, for the default seed, the digest pinned in
pinned.json.  A sample that fails any check counts in `failed`.

--trace 0 prints the end-to-end metrics, medians over the samples:
task_cal_s (CLI task after import), wall_cal_s (spawn to exit, timed here),
setup_s (import of ffsubspace.cli) and peak_rss_mb (the child's ru_maxrss).
The two `_cal_s` times are scaled to a reference speed: each sample's time
is multiplied by CALIBRATION_REF_S over the mean of the two calibration
times the child took around its task (see child.py).  On a shared host the
speed of a core can change by up to 2x within a minute, and the task's time
follows the calibration's closely, so the scaled times vary far less
between runs; a slower program still shows in full, since the calibration
does not run its code.  The unscaled medians task_s and wall_s are printed
as well and kept in the results file.
--trace 1 alternates untraced and traced samples and prints the per-layer
metrics of the traced ones (medians) plus trace.overhead_frac.
--workload all runs every workload in turn and ends with one JSON line
mapping each workload to its result.

Human-readable lines come first; the last line of standard output is the
JSON result.  A results file with the environment record, every sample and
the spans of one traced sample is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 1
# Every child is stopped by this many seconds after the run starts, so a run
# ends within its 180 s allowance even if the program slows down badly.
RUN_DEADLINE_S = 165
# Import-only children top up the setup_s samples of a run to this many, so
# long workloads with few samples still report a median of several set-ups.
MIN_SETUP_SAMPLES = 7

# Time of child.calibrate() on an idle core of the 2.1 GHz Xeon the benchmark
# was defined on; it only sets the scale of the `_cal_s` times.
CALIBRATION_REF_S = 0.25

END_TO_END_UNITS = {"task_cal_s": "s", "wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNSCALED = ("task_s", "wall_s")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(name, args) -> dict:
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "jsonschema": metadata.version("jsonschema"),
        "loadavg_before": _loadavg(),
    }


def spawn(scenario: str, tasks: str, trace: bool, deadline: float) -> dict:
    """One child process; returns its JSON record plus wall_s, or an error."""
    cmd = [sys.executable, "-I", str(CHILD), str(ROOT), scenario, tasks, "1" if trace else "0"]
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - t0, 1)
        )
    except subprocess.TimeoutExpired:
        return {"error": "stopped at the run deadline", "trace": trace}
    wall_s = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}", "trace": trace}
    record = json.loads(lines[-1])
    record["wall_s"] = wall_s
    record["trace"] = trace
    if "calibration_s" in record:
        calibration = record["calibration_s"]
        record["wall_s"] -= sum(calibration)
        speed = CALIBRATION_REF_S / statistics.mean(calibration)
        record["task_cal_s"] = record["task_s"] * speed
        record["wall_cal_s"] = record["wall_s"] * speed
    return record


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def check_sample(workload, record, reference) -> list:
    """Problems with one sample: exit codes, oracles, digest, tree under test."""
    if "error" in record:
        return [record["error"]]
    problems = []
    expected_file = ROOT / "src" / "ffsubspace" / "__init__.py"
    if Path(record["file"]) != expected_file:
        problems.append(f"imported {record['file']}, not {expected_file}")
    try:
        report = json.loads(record["outputs"][-1])
    except ValueError:
        return problems + ["check output is not JSON"]
    expected_codes = [0] * (len(record["outputs"]) - 1)
    expected_codes.append(workloads.expected_exit(report))
    if record["codes"] != expected_codes:
        problems.append(f"exit codes {record['codes']} != {expected_codes}")
    problems += workloads.check_report(workload, report)
    if reference is not None and record["digest"] != reference:
        problems.append("report digest differs from the reference")
    return problems


def pinned_digest(name, args):
    if args.seed != DEFAULT_SEED or args.size != "full":
        return None
    return json.loads(PINNED.read_text())["digests"][name]


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def run(name, args) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    env = environment(name, args)
    workload = workloads.generate(name, args.seed, args.size)
    out_dir = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}"
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = out_dir / "scenario.json"
    tasks = out_dir / "tasks.json"
    scenario.write_text(json.dumps(workload.scenario, indent=1) + "\n")
    tasks.write_text(json.dumps(workload.tasks) + "\n")

    # Untimed import: compiles the package's bytecode once per checkout.
    warm = spawn("-", "-", False, deadline)
    if "error" in warm:
        raise SystemExit(f"cannot import ffsubspace from {ROOT / 'src'}: {warm['error']}")

    reference = pinned_digest(name, args)
    records, durations = [], []
    start = perf_counter()
    while True:
        sample_start = perf_counter()
        traced = bool(args.trace) and len(records) % 2 == 1
        record = spawn(str(scenario), str(tasks), traced, deadline)
        if "outputs" in record:
            record["digest"] = digest(record["outputs"])
            if reference is None:
                reference = record["digest"]
        record["problems"] = check_sample(workload, record, reference)
        records.append(record)
        durations.append(perf_counter() - sample_start)
        next_end = perf_counter() - start + statistics.median(durations)
        done = next_end > args.seconds and (not args.trace or len(records) >= 2)
        if done or perf_counter() >= deadline:
            break

    setups = [r["setup_s"] for r in records if "task_s" in r and not r["trace"]]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        probe = spawn("-", "-", False, deadline)
        if "error" in probe:
            break
        setups.append(probe["setup_s"])

    env["loadavg_after"] = _loadavg()
    env["ffsubspace_file"] = sorted({r["file"] for r in records if "file" in r})
    failed = sum(1 for r in records if r["problems"])
    timed = [r for r in records if "task_s" in r]
    plain = [r for r in timed if not r["trace"]]
    metrics, counts, unscaled = {}, {}, {}
    if args.trace:
        traced = [r for r in timed if r["trace"]]
        if traced and plain:
            for metric in traced[0]["layers"]:
                metrics[metric] = statistics.median(r["layers"][metric] for r in traced)
                counts[metric] = len(traced)
            base = median_of(plain, "task_cal_s")
            metrics["trace.overhead_frac"] = (median_of(traced, "task_cal_s") - base) / base
            counts["trace.overhead_frac"] = f"{len(traced)}+{len(plain)}"
    elif plain:
        for metric in END_TO_END_UNITS:
            metrics[metric] = median_of(plain, metric)
            counts[metric] = len(plain)
        metrics["setup_s"] = statistics.median(setups)
        counts["setup_s"] = len(setups)
        unscaled = {metric: median_of(plain, metric) for metric in UNSCALED}

    spans = next((r["spans"] for r in timed if r.get("spans")), [])
    for r in records:
        r.pop("outputs", None)
        r.pop("spans", None)
    results = {
        "environment": env,
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "metrics": metrics,
        "unscaled": unscaled,
        "samples": records,
        "setup_samples": setups,
        "spans": spans,
    }
    (out_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    results["counts"] = counts
    results["out_dir"] = out_dir
    return results


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def report(name, res) -> dict:
    """Print the human-readable lines of one run; return its result line."""
    for r in res["samples"]:
        for problem in r["problems"]:
            print(f"FAILED sample: {problem}")
    unpatched = sorted({t for r in res["samples"] for t in r.get("unpatched", [])})
    if unpatched:
        print(f"trace targets missing from the package (their metrics read 0): {unpatched}")
    for metric, value in res["metrics"].items():
        print(f"{name:14} {metric:42} {value:14.6g} {unit_of(metric):6} n={res['counts'][metric]}")
    for metric, value in res["unscaled"].items():
        print(f"{name:14} {metric:42} {value:14.6g} {'s':6} n={res['counts']['task_cal_s']} (unscaled)")
    print(
        f"{name:14} {'failed_frac':42} {res['failed_frac']:14.6g} {'ratio':6} "
        f"n={res['attempted']}  (results in {res['out_dir'].relative_to(ROOT)})"
    )
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in res["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["full", "toy"], default="full",
        help="toy inputs exist for the self-test",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ffsubspace" / "__init__.py").is_file():
        print(f"error: no ffsubspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(report(args.workload, run(args.workload, args))))
        return 0
    lines = {name: report(name, run(name, args)) for name in workloads.BUILDERS}
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
