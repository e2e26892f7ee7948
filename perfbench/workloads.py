"""Seeded inputs for the three workloads and the oracles that check each op.

The seed fixes one config per run; every op of the run repeats it on fresh
grids, so per-op counters repeat exactly and op times differ only by noise.
The program sees only the generated config files.

* solve:    one ``kw-check`` run, L = 128, antipodal axis pair (-1/4 north,
            -1/10 south), epsilon ~ U(0.29, 0.31), cold start from zero.
            Oracle: the axis Pohozaev identity, recomputed here from the
            reported moment.
* sweep:    one ``sweep`` run, L = 128, alpha = -1/2 at the north pole,
            epsilons (0.5, 0.2, 0.1, 0.05), init_epsilon ~ U(0.008, 0.012).
            Oracle: the closed-form blow-up value rho_bar log(1 + alpha).
* evaluate: an ``inequality-sample`` run (L = 256, 20 seeded fields,
            alpha1 ~ U(-0.9, -0.1) north, alpha2 ~ U(alpha1 + 0.05, 1.5)
            south, sharp constant computed at set-up) and a
            ``verify-extremal`` run (L = 256, alpha ~ U(-0.5, -0.3)).
            Oracle: J(u_{1,0}) against 8 pi (1+alpha)(log(1+alpha) - alpha).
"""

from __future__ import annotations

import json
import math
import os
import random

L128 = {"n_theta": 129, "n_phi": 258}
L256 = {"n_theta": 257, "n_phi": 514}
NORTH, SOUTH = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
WORKLOADS = ("solve", "sweep", "evaluate")
# op wall time (s), rounded up, on a shared 2-core x86 box with 1 BLAS thread
# at the commit that introduced the benchmark; sizes the fixed op count of a run
NOMINAL_OP_S = {"solve": 15.0, "sweep": 14.0, "evaluate": 4.0}


def ops_per_run(workload: str, seconds: float) -> int:
    """Ops in a run of about ``seconds`` at the nominal op time (at least 1)."""
    return max(1, int(seconds / NOMINAL_OP_S[workload] + 1e-9))


def _config(grid, points, experiment, seed=0):
    return {"schema_version": 1, "grid": grid,
            "weight": {"points": [{"position": p, "order": a} for p, a in points]},
            "experiment": experiment, "seed": seed}


def _solve(rng):
    eps = rng.uniform(0.29, 0.31)
    a_n, a_s = -0.25, -0.1
    cfg = _config(L128, [(NORTH, a_n), (SOUTH, a_s)],
                  {"kind": "kw-check", "epsilon": eps})
    rho = 8.0 * math.pi * (1.0 + min(a_n, a_s)) - eps

    def oracle(reports):
        s = reports["kw-check"]["summary"]
        poho = (a_s - a_n) - (2.0 - rho / (4.0 * math.pi) + a_n + a_s) * s["moment"]
        agrees = abs(poho - s["poho_residual"]) <= 1.0e-9
        return abs(poho), agrees and abs(poho) <= 1.0e-3

    return {"epsilon": eps}, [cfg], oracle


def _sweep(rng):
    init_eps = rng.uniform(0.008, 0.012)
    alpha = -0.5
    cfg = _config(L128, [(NORTH, alpha)],
                  {"kind": "sweep", "epsilons": [0.5, 0.2, 0.1, 0.05],
                   "init_epsilon": init_eps})
    target = 8.0 * math.pi * (1.0 + alpha) * math.log1p(alpha)

    def oracle(reports):
        s = reports["sweep"]["summary"]
        err = abs(s["extrapolated_J"] - target) / abs(target)
        return err, abs(s["blowup_target"] - target) <= 1.0e-9 and err <= 0.05

    return {"init_epsilon": init_eps}, [cfg], oracle


def _evaluate(rng):
    from sol_lab.identity_checks import sphere_sharp_constant

    a1 = rng.uniform(-0.9, -0.1)
    a2 = 0.0
    while abs(a2) < 1.0e-3:  # orders must be nonzero
        a2 = rng.uniform(a1 + 0.05, 1.5)
    constant = sphere_sharp_constant(a1, a2, antipodal=True).C
    alpha = rng.uniform(-0.5, -0.3)
    sample = _config(L256, [(NORTH, a1), (SOUTH, a2)],
                     {"kind": "inequality-sample", "samples": 20,
                      "constant": constant}, seed=rng.randrange(2**31))
    extremal = _config(L256, [], {"kind": "verify-extremal", "alpha": alpha})
    exact = 8.0 * math.pi * (1.0 + alpha) * (math.log1p(alpha) - alpha)

    def oracle(reports):
        s = reports["verify-extremal"]["summary"]
        err = abs(s["J_extremal"] - exact) / abs(exact)
        gap_ok = reports["inequality-sample"]["summary"]["worst_gap"] >= -1.0e-6
        return err, gap_ok and err <= 0.005

    params = {"alpha1": a1, "alpha2": a2, "constant": constant, "alpha": alpha}
    return params, [sample, extremal], oracle


def prepare(workload: str, seed: int, workdir: str):
    """Write the seeded configs; returns (params, [(kind, config, report)], oracle)."""
    params, configs, oracle = {"solve": _solve, "sweep": _sweep,
                               "evaluate": _evaluate}[workload](random.Random(seed))
    runs = []
    for cfg in configs:
        kind = cfg["experiment"]["kind"]
        report = os.path.join(workdir, f"{kind}.report.json")
        cfg["output"] = {"report": report,
                         "traces": os.path.join(workdir, f"{kind}.trace.csv")}
        path = os.path.join(workdir, f"{kind}.config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        runs.append((kind, path, report))
    return params, runs, oracle


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def check_op(runs, codes, oracle):
    """(oracle error or None, failure reason or None) for one finished op."""
    for (kind, _, _), code in zip(runs, codes):
        if code != 0:
            return None, f"{kind} exited with code {code}"
    reports = {}
    for kind, _, path in runs:
        try:
            with open(path, encoding="utf-8") as fh:
                reports[kind] = json.load(fh)
        except (OSError, ValueError) as exc:
            return None, f"{kind} report unreadable: {exc}"
        if not _all_finite(reports[kind].get("summary")):
            return None, f"{kind} reported a non-finite value"
    err, ok = oracle(reports)
    if not (math.isfinite(err) and ok):
        return err, f"oracle check failed (err={err:.3g})"
    return err, None
