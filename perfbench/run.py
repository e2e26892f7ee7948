"""sol-lab benchmark: solve, sweep and evaluate through the CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve|sweep|evaluate --seed N \
        --seconds S --trace 0|1

Runs the workload as a closed loop (one worker process, one op at a time)
for a fixed number of ops sized to last about S seconds, and prints every
metric with its unit and sample count, then, as the last line, one JSON
object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` a separate traced run
gives its per-layer ones, and the span trace is written to
``.perfbench_work/traces/``.

The worker's environment pins BLAS and OpenMP to one thread before numpy
loads.  ``setup_s`` is the median over several fresh workers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_WORKERS = 4  # fresh workers that only set up; with the measuring one, 5 samples
RUN_LIMIT_S = 170.0


def worker(args, workdir, result, env, timeout, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result, *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(result):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, root):
    work = os.path.join(root, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    started = time.monotonic()
    try:
        setups = []
        for i in range(SETUP_WORKERS):
            d = os.path.join(run_dir, f"setup{i}")
            os.makedirs(d)
            setups.append(worker(args, d, os.path.join(d, "result.json"), env,
                                 timeout=15, extra=["--setup-only"])["setup_s"])
        extra = []
        if args.trace:
            traces = os.path.join(work, "traces")
            os.makedirs(traces, exist_ok=True)
            extra = ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.csv")]
        d = os.path.join(run_dir, "measure")
        os.makedirs(d)
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
        res = worker(args, d, os.path.join(d, "result.json"), env, timeout, extra)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res["setup_samples"] = setups + [res["setup_s"]]
    return res


def end_to_end(res):
    """{name: (value, sample count)} of every end-to-end metric."""
    return {
        "op_s_p50": (statistics.median(res["walls"]), len(res["walls"])),
        "setup_s": (statistics.median(res["setup_samples"]), len(res["setup_samples"])),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "sol_lab", "cli.py")):
        print("perfbench: no sol_lab source tree (src/sol_lab) in the working "
              "directory; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    res = measure(args, root)
    env = res["env"]
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} "
          f"loadavg={' '.join(f'{x:.2f}' for x in env['loadavg'])} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']} threads={env['threads']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={res['params']}")
    print("op wall (s): " + " ".join(f"{w:.3f}" for w in res["walls"]))
    print("op cpu  (s): " + " ".join(f"{c:.3f}" for c in res["cpus"]))
    attempted, failed = res["attempted"], res["failed"]
    for e in res["errors"]:
        print(f"FAILED {e}")

    oracle = res["oracle_err"]
    values = {"failed_frac": (failed / attempted, attempted),
              "oracle_err": (statistics.median(oracle) if oracle else float("nan"),
                             len(oracle))}
    if args.trace:
        n = res["traced_ops"]
        values.update({k: (v, n) for k, v in res["layers"].items()})
        for name, ok in res["checks"].items():
            print(f"check {'holds' if ok else 'DOES NOT HOLD'}: {name}")
    else:
        values.update(end_to_end(res))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    units.setdefault("failed_frac", "ratio")
    units.setdefault("oracle_err", "1")
    print(f"{'metric':48s} {'value':>16s} {'unit':8s} samples")
    for name, unit in units.items():
        value, n = values[name]
        print(f"{name:48s} {value:16.6g} {unit:8s} {n}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
