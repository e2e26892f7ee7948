"""One measuring process: set up, then run a fixed number of ops in a closed loop.

Started by run.py in a fresh interpreter whose environment pins BLAS and
OpenMP to one thread before numpy loads.  Writes its measurements as JSON
to the --result path.

Each op calls ``sol_lab.cli.main`` in process with the generated configs,
so config validation, the experiment and report/trace writing all fall
inside the timed op.  One ``gc.collect()`` runs before the first op and none
between ops: memory the program leaves to the cyclic collector shows in the
peak RSS.
"""

import time

T0 = time.perf_counter()  # set-up starts before sol_lab (and numpy) load

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_op(cli, runs):
    """Exit codes of the op's CLI runs; an exception counts as code -1."""
    codes = []
    for kind, config, report in runs:
        if os.path.exists(report):
            os.remove(report)
        try:
            codes.append(cli.main([kind, "--config", config]))
        except Exception as exc:  # any escape from the CLI is a failed op
            print(f"{kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(-1)
    return codes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import sol_lab.cli as cli
    import workloads

    params, runs, oracle = workloads.prepare(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "params": params}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    walls, cpus, traced_ops, untraced_walls, oracles, errors = [], [], [], [], [], []
    failed = 0
    # a fixed number of ops per run, so the work (and the memory the cyclic
    # collector has not yet freed) does not depend on machine speed; the
    # traced run alternates traced and untraced ops and makes at least one
    # of each
    n_ops = workloads.ops_per_run(args.workload, args.seconds)
    if tracer is not None:
        n_ops = max(2, n_ops)
    gc.collect()  # same collector state at the first op in every run
    for op in range(n_ops):
        traced = tracer is not None and op % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_op(op)
        t, c = time.perf_counter(), time.process_time()
        codes = run_op(cli, runs)
        wall = time.perf_counter() - t
        cpus.append(time.process_time() - c)
        if traced:
            tracer.end_op()
            tracer.uninstall()
            traced_ops.append(op)
        elif tracer is not None:
            untraced_walls.append(wall)
        walls.append(wall)
        err, reason = workloads.check_op(runs, codes, oracle)
        if reason:
            failed += 1
            errors.append(f"op {op}: {reason}")
        if err is not None:
            oracles.append(err)

    result.update({
        "walls": walls, "cpus": cpus, "attempted": n_ops, "failed": failed, "errors": errors,
        "oracle_err": oracles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    if tracer is not None:
        from tracer import layer_metrics
        layers, checks = layer_metrics(tracer, traced_ops, untraced_walls)
        result.update({"layers": layers, "checks": checks,
                       "traced_ops": len(traced_ops)})
        if args.trace_out:
            tracer.write(args.trace_out)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
