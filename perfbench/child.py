"""One benchmark sample: a fresh interpreter running the workload's CLI task.

    python -I perfbench/child.py <checkout root> <scenario.json> <task.json> <trace 0|1>

The package is imported from the checkout's `src/`, never from an installed
copy, so the tree under test is the one timed.  The task file holds a list
of argument lists for `ffsubspace.cli.main`; "{scenario}" in them stands for
the scenario path.  The child prints one JSON line with its timings, the
captured output of every CLI call and, when traced, the per-layer metrics
and spans.  An argument of "-" for the scenario only imports the package,
which warms the bytecode cache before timing.

Right before and right after the task the child times `calibrate()`, a
fixed computation that does not touch the package.  Its time tracks how
fast the shared host runs this process at that moment, so the parent can
scale the task's time to a reference speed.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def calibrate() -> float:
    """Seconds taken by exact rational sums and dict updates, as the checker does."""
    from fractions import Fraction

    t0 = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 60000):
        total += Fraction(i % 97 + 1, i % 89 + 1)
        table[i % 1013] = table.get(i % 1013, 0) + i * i
    return perf_counter() - t0


def main(root, scenario, task_file, trace):
    t0 = perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import ffsubspace.cli as cli

    setup_s = perf_counter() - t0
    import ffsubspace

    result = {"file": os.path.abspath(ffsubspace.__file__), "setup_s": setup_s}
    if scenario == "-":
        print(json.dumps(result))
        return 0

    with open(task_file, encoding="utf-8") as fh:
        tasks = json.load(fh)
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer().install()

    outputs, codes = [], []
    calibration = [calibrate()]
    t1 = perf_counter()
    for argv in tasks:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main([a.replace("{scenario}", scenario) for a in argv]))
        outputs.append(buf.getvalue())
    result["task_s"] = perf_counter() - t1
    calibration.append(calibrate())
    result["calibration_s"] = calibration
    result["codes"] = codes
    result["outputs"] = outputs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
        result["unpatched"] = tracer.unpatched
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    root_dir, scenario_path, task_path, trace_flag = sys.argv[1:5]
    sys.exit(main(root_dir, scenario_path, task_path, trace_flag == "1"))
