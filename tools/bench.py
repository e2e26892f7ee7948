"""In-process op times and memory of perfbench's seed-0 workloads, of
one radial test-function sweep and of one cap mass.

Usage, from the root of a source checkout:

    python3 tools/bench.py --out BENCH_<n>.json [--warm 5]

Each workload runs in a fresh interpreter, with BLAS and OpenMP pinned
to one thread before numpy loads, which imports numpy and every
``sol_lab`` module (``import_s``).  The workloads of
``perfbench/workloads.py`` (solve, sweep, evaluate) and
``test-function-sweep`` (the radial J of the test functions at order -1/2
on the north pole, default epsilons 1e-2, 1e-3 and 1e-4, checked against
J(1e-4) of a 25-digit mpmath oracle) write their seed-0 configs and run
their op through ``sol_lab.cli.main`` as perfbench's worker does.
``cap-mass`` is ``diagnose``'s cap mass alone,
``subcritical_solver.cap_density_integral`` of radius 1 about a point of
order -1/4 at the north pole, on a seeded zonal field at L = 1024
(coefficients N(0, 1) / (1 + l)) built before its ops, checked against
the mass on 4 and on 8 times its radial panels.  ``cap-mass-full`` is the
same cap mass on a non-zonal field at L = 256, the seed-0 field of
``mt_functional.sample_gaps`` scaled to RMS 0.7, checked against its mass
on 4 times the grid's longitudes.  The ``log-integral-*`` workloads are
the stages of the ``evaluate`` workload's stacked log integral
(``SingularIntegrator.log_exp_integral``) at L = 256, on its seed-0
two-cap weight and its seed-0 stack of 20 fields, drawn and scaled as
``mt_functional.sample_gaps`` does, the integrator and its ring groups
built before the ops: ``-recurrence-groups`` streams the Legendre
recurrence (``sphere_grid._legendre_groups``) over each ring group's
representative rings, ``-recurrence-block`` over the whole block's,
``-synthesis`` is each group's ``synthesis_values`` of the stack and
``-group-terms`` each group's ``SingularIntegrator._group_terms``.  Their
oracle, checked once before the ops, is that the stacked log integral
agrees with the density's, formed two fields at a time, within 4 ulp of
max(1, |log I|).  Each workload runs one
cold op (``cold_op_s``), then ``--warm`` timed warm ops (``warm_op_s``,
with their min and median), then one more warm op under ``tracemalloc``,
whose peak of traced allocations is ``tracemalloc_peak_mib``;
``max_rss_mib`` is the process's peak resident set (``ru_maxrss``) after
all of its ops, imports included.  ``correct`` is true when every op
passes the workload's oracle.  ``src_lines``, beside the workloads, is
the line count of ``src/sol_lab/*.py`` (as ``wc -l`` totals it).  The
configs and reports go to a temporary directory; ``perfbench/`` is read,
never written.
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
STAGES = ("log-integral-recurrence-groups", "log-integral-recurrence-block",
          "log-integral-synthesis", "log-integral-group-terms")
WORKLOADS = ("solve", "sweep", "evaluate", "test-function-sweep",
             "cap-mass", "cap-mass-full") + STAGES
# J(phi_eps) at order -1/2, eps = 1e-4, by mpmath at 25 digits
RADIAL_J = -8.653225552898961
# the cap-mass workload's mass on 4 and on 8 times its radial panels, and
# the cap-mass-full workload's mass on 4 and on 8 times its longitudes,
# each with the relative error its op may read: on the grid's own
# longitudes the non-zonal mass reads 2.3e-10 off
CAP_MASS = {"cap-mass": (4.69604939494023, 1e-11),
            "cap-mass-full": (5.191579748871679, 1e-9)}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "closed_forms", "identity_checks", "mt_functional",
           "singular_geometry", "sphere_grid", "subcritical_solver")


def measure(workload: str, warm: int, workdir: str) -> dict:
    """One workload's numbers, in this process (started fresh)."""
    import importlib
    import resource
    import tracemalloc

    t = time.perf_counter()
    import numpy  # noqa: F401
    for name in MODULES:
        importlib.import_module(f"sol_lab.{name}")
    import_s = time.perf_counter() - t
    timed = (cap_mass(workload) if workload in CAP_MASS
             else log_integral_stage(workload, workdir) if workload in STAGES
             else cli_op(workload, workdir))
    failures = []

    def op() -> float:
        wall, reason = timed()
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


def cli_op(workload: str, workdir: str):
    """One op of the workload through ``sol_lab.cli.main``, as a callable
    that returns (wall time, failure reason or None)."""
    import io
    from contextlib import redirect_stdout
    import workloads

    cli = sys.modules["sol_lab.cli"]
    runs, oracle = (radial_sweep(workdir) if workload == "test-function-sweep"
                    else workloads.prepare(workload, 0, workdir)[1:])

    def op():
        t = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            codes = [cli.main([kind, "--config", config])
                     for kind, config, _ in runs]
        wall = time.perf_counter() - t
        return wall, workloads.check_op(runs, codes, oracle)[1]

    return op


def cap_mass(workload: str):
    """The op of a cap-mass workload as a callable that returns (wall
    time, failure reason or None): the mass must lie within its relative
    error of its value in ``CAP_MASS``."""
    import numpy as np
    from sol_lab.singular_geometry import SingularWeight
    from sol_lab.sphere_grid import (SHCoefficients, build_grid,
                                     random_band_limited_batch)
    from sol_lab.subcritical_solver import cap_density_integral

    want, tolerance = CAP_MASS[workload]
    full = workload == "cap-mass-full"
    L, north = (256 if full else 1024), np.array([0.0, 0.0, 1.0])
    grid = build_grid(L + 1, 2 * L + 2)
    if full:  # as mt_functional.sample_gaps draws and scales
        v = random_band_limited_batch(grid, np.random.default_rng(0),
                                      1).values[:, 0]
        coeffs = v * 0.7 / np.sqrt(np.sum(v * v) / (4.0 * np.pi))
    else:
        l = np.arange(L + 1)
        coeffs = (np.random.default_rng(0).normal(size=l.size)
                  / (1.0 + l))[:, None]
    coeffs = SHCoefficients(coeffs)
    w = SingularWeight.from_orders([(north, -0.25)])

    def op():
        t = time.perf_counter()
        mass = cap_density_integral(coeffs, grid, w, north, 1.0)
        wall = time.perf_counter() - t
        err = abs(mass - want) / want
        return wall, None if err <= tolerance else (
            f"cap mass {mass!r} lies {err:.2g} from {want!r}")

    return op


def log_integral_stage(workload: str, workdir: str):
    """The op of a ``log-integral-*`` workload as a callable that returns
    (wall time, failure reason or None), after the set-up and the oracle
    described in the module docstring."""
    import numpy as np
    import workloads
    from sol_lab.mt_functional import integrator_for
    from sol_lab.singular_geometry import SingularWeight
    from sol_lab.sphere_grid import (FOUR_PI, LEGENDRE_FLOOR, SHCoefficients,
                                     _legendre_groups, build_grid,
                                     random_band_limited_batch)

    _, runs, _ = workloads.prepare("evaluate", 0, workdir)
    with open(runs[0][1], encoding="utf-8") as fh:
        config = json.load(fh)
    grid = build_grid(config["grid"]["n_theta"], config["grid"]["n_phi"])
    integ = integrator_for(grid, SingularWeight.from_orders(
        [(p["position"], p["order"]) for p in config["weight"]["points"]]))
    count = config["experiment"]["samples"]
    stack = random_band_limited_batch(
        grid, np.random.default_rng(config["seed"]), count)
    v = stack.values  # scaled to RMS 0.7, as sample_gaps scales a stack
    rms = np.sqrt([np.square(v[:, i]).sum() / FOUR_PI for i in range(count)])
    v.reshape(v.shape[0], -1)[...] *= np.repeat(0.7 / rms, 2)
    log_i = integ.log_exp_integral(stack)
    want = np.concatenate([integ.density(SHCoefficients(v[:, i:i + 2]))
                           .log_integral for i in range(0, count, 2)])
    ulps = np.abs(log_i - want) / np.spacing(np.maximum(1.0, np.abs(want)))
    failure = (None if ulps.max() <= 4 else
               f"stacked log integral {ulps.max():.0f} ulp from the density's")
    groups, L = integ._ring_groups, grid.band_limit

    def op():
        t = time.perf_counter()
        if workload.endswith("-synthesis"):
            for group, _ in groups:
                group.synthesis_values(stack)
        elif workload.endswith("-group-terms"):
            for group in groups:
                integ._group_terms(stack, *group)
        else:
            for tr in ((integ.transform,) if workload.endswith("-block")
                       else [group for group, _ in groups]):
                for _ in _legendre_groups(L, tr.t[tr._order[:tr._reps]], L,
                                          LEGENDRE_FLOOR):
                    pass
        return time.perf_counter() - t, failure

    return op


def radial_sweep(workdir: str):
    """(runs, oracle) of the ``test-function-sweep`` workload, in the form
    of ``workloads.prepare``: its one config and a check that the run
    passes and its last J lies within 1e-9 of ``RADIAL_J``."""
    config = os.path.join(workdir, "radial.config.json")
    report = os.path.join(workdir, "radial.report.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"weight": {"points": [{"position": [0, 0, 1],
                                          "order": -0.5}]},
                   "experiment": {"kind": "test-function-sweep"},
                   "output": {"report": report}}, fh)

    def oracle(reports):
        rep = reports["test-function-sweep"]
        err = abs(rep["records"][-1]["J"] - RADIAL_J) / abs(RADIAL_J)
        return err, rep["passed"] and err < 1e-9

    return [("test-function-sweep", config, report)], oracle


def environment() -> dict:
    import numpy
    import scipy  # a test dependency, recorded, never imported by sol_lab
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
    src_lines = sum(path.read_bytes().count(b"\n") for path in
                    (ROOT / "src" / "sol_lab").glob("*.py"))
    report = {"warm_ops": args.warm, "src_lines": src_lines, "workloads": {}}
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
