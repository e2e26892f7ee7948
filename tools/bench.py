"""In-process op times and memory of perfbench's seed-0 workloads.

Usage, from the root of a source checkout:

    python3 tools/bench.py --out BENCH_<n>.json [--warm 5]

For each workload of ``perfbench/workloads.py`` (solve, sweep, evaluate) a
fresh interpreter, with BLAS and OpenMP pinned to one thread before numpy
loads, imports numpy, scipy and every ``sol_lab`` module (``import_s``),
writes the workload's seed-0 configs, and runs its op through
``sol_lab.cli.main`` as perfbench's worker does: one cold op
(``cold_op_s``), then ``--warm`` timed warm ops (``warm_op_s``, with their
min and median), then one more warm op under ``tracemalloc``, whose peak
of traced allocations is ``tracemalloc_peak_mib``; ``max_rss_mib`` is the
process's peak resident set (``ru_maxrss``) after all of its ops, imports
included.  ``correct`` is true when every op passes the workload's oracle.  The configs and reports go to
a temporary directory; ``perfbench/`` is read, never written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve", "sweep", "evaluate")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "closed_forms", "identity_checks", "mt_functional",
           "singular_geometry", "sphere_grid", "subcritical_solver")


def measure(workload: str, warm: int, workdir: str) -> dict:
    """One workload's numbers, in this process (started fresh)."""
    import importlib
    import io
    import resource
    import tracemalloc
    from contextlib import redirect_stdout

    t = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    for name in MODULES:
        importlib.import_module(f"sol_lab.{name}")
    import_s = time.perf_counter() - t
    cli = sys.modules["sol_lab.cli"]
    import workloads

    _, runs, oracle = workloads.prepare(workload, 0, workdir)
    failures = []

    def op() -> float:
        t = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            codes = [cli.main([kind, "--config", config])
                     for kind, config, _ in runs]
        wall = time.perf_counter() - t
        _, reason = workloads.check_op(runs, codes, oracle)
        if reason:
            failures.append(reason)
        return wall

    cold = op()
    walls = [op() for _ in range(warm)]
    tracemalloc.start()
    try:
        op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"import_s": import_s, "cold_op_s": cold, "warm_op_s": walls,
            "warm_op_s_min": min(walls),
            "warm_op_s_median": statistics.median(walls),
            "tracemalloc_peak_mib": peak / 2 ** 20,
            "max_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 2 ** 10,  # KiB on Linux
            "correct": not failures, "failures": failures}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def child(workload: str, warm: int, result: str):
    sys.dont_write_bytecode = True  # leave no bytecode in perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory(prefix=f"bench-{workload}-") as workdir:
        numbers = measure(workload, warm, workdir)
    numbers["env"] = environment()
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(numbers, fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--warm", type=int, default=5,
                    help="timed warm ops per workload (default 5)")
    ap.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.warm < 1:
        ap.error("--warm must be at least 1")
    if args.child:
        child(args.child, args.warm, args.result)
        return 0
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    report = {"warm_ops": args.warm, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        for workload in WORKLOADS:
            result = os.path.join(tmp, f"{workload}.json")
            subprocess.run([sys.executable, __file__, "--out", args.out,
                            "--warm", str(args.warm), "--child", workload,
                            "--result", result], env=env, check=True)
            with open(result, encoding="utf-8") as fh:
                numbers = json.load(fh)
            report["env"] = numbers.pop("env")
            report["workloads"][workload] = numbers
            print(f"{workload}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in numbers.items()
                if isinstance(v, float)))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
