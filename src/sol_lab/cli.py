"""Command-line front end: JSON-configured experiments with pass/fail checks.

Usage:
    sol-lab <kind> --config experiment.json [--out report.json]
                   [--threads N] [--seed S]

The experiment kind must match the "experiment.kind" field of the config.
Reports are deterministic for a fixed (config, seed, threads=1): JSON keys
are sorted and floats use full repr; the only nondeterministic field is
"wall_clock_s".  CSV traces use 17 significant digits.

Exit codes: 0 all checks passed, 1 a tolerance check failed, 2 invalid
configuration, 3 numerical failure (non-convergence or overflow).

The environment variable SOL_LAB_LOG ("debug", "info", "quiet") controls
logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

log = logging.getLogger("sol_lab")

KINDS = (
    "constants",
    "verify-extremal",
    "inequality-sample",
    "minimize",
    "sweep",
    "kw-check",
    "profile-collapse",
    "test-function-sweep",
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_number(errors, obj, path, lo=None, hi=None, integer=False,
                  gt=None, lt=None):
    """The number at ``path`` if it lies in range, else None and an error.

    ``lo`` and ``hi`` are inclusive bounds, ``gt`` and ``lt`` strict ones.
    """
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        errors.append(f"{path}: expected a number, got {type(obj).__name__}")
        return None
    if isinstance(obj, float) and not math.isfinite(obj):
        errors.append(f"{path}: expected a finite number, got {obj}")
        return None
    if integer and int(obj) != obj:
        errors.append(f"{path}: expected an integer")
        return None
    if lo is not None and obj < lo:
        errors.append(f"{path}: must be >= {lo}, got {obj}")
        return None
    if hi is not None and obj > hi:
        errors.append(f"{path}: must be <= {hi}, got {obj}")
        return None
    if gt is not None and not obj > gt:
        errors.append(f"{path}: must be > {gt}, got {obj}")
        return None
    if lt is not None and not obj < lt:
        errors.append(f"{path}: must be < {lt:.6g}, got {obj}")
        return None
    return int(obj) if integer else float(obj)


def _experiment_numbers(rho_bar: float) -> dict:
    """kind -> {name: range} for every number its runner reads from the
    "experiment" section, as keyword arguments of ``_check_number``;
    ``list`` marks a list of such numbers and gives its fewest entries.  A
    number left out takes its default, which lies in range.  ``epsilon``
    keeps rho = rho_bar - epsilon positive; a schedule of ``epsilons`` needs
    two values, since its checks compare consecutive entries."""
    tol = {"lo": 0.0}
    eps = {"gt": 0.0, "lt": rho_bar}
    solver = {"max_iterations": {"lo": 1, "integer": True},
              "tol_factor": {"gt": 0.0},
              "init_epsilon": {"gt": 0.0, "lt": 1.0}}
    extremal_alpha = {"gt": -1.0, "lt": 0.0}
    return {
        "constants": {"consistency_tol": tol},
        "verify-extremal": {"alpha": extremal_alpha, "lambda": {"gt": 0.0},
                            "c": {}, "rel_tol": tol, "invariance_tol": tol},
        "inequality-sample": {"samples": {"lo": 1, "integer": True},
                              "constant": {}, "gap_floor": {},
                              "family_dilations": {"gt": 0.0, "list": 0},
                              "family_tol": tol},
        "minimize": {"epsilon": eps, **solver},
        "sweep": {"epsilons": {**eps, "list": 2}, **solver,
                  "cap_mass_rel_tol": tol, "extrapolation_rel_tol": tol},
        "kw-check": {"alpha": extremal_alpha, "epsilon": eps, **solver,
                     "residual_tol": tol},
        "profile-collapse": {"epsilons": {**eps, "list": 2}, **solver,
                             "noise": {"lo": 0.0}},
        "test-function-sweep": {"epsilons": {"gt": 0.0, "lt": 1.0,
                                             "list": 2},
                                "upper_gap_tol": tol, "exp_tol": tol},
    }


def validate(raw_text: str):
    """Parse and validate a JSON config; returns (config dict, error list).

    Error messages carry JSON-path (and for parse errors, line) references.
    """
    errors: list[str] = []
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        return None, [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
    if not isinstance(data, dict):
        return None, ["top level: expected a JSON object"]

    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

    grid = data.get("grid", {})
    if not isinstance(grid, dict):
        errors.append("grid: expected an object")
        grid = {}
    n_theta = _check_number(errors, grid.get("n_theta", 65), "grid.n_theta",
                            lo=2, integer=True)
    n_phi = _check_number(errors, grid.get("n_phi", 130), "grid.n_phi",
                          lo=4, integer=True)

    weight = data.get("weight", {"points": []})
    if not isinstance(weight, dict):
        errors.append("weight: expected an object")
        weight = {"points": []}
    points = weight.get("points", [])
    if not isinstance(points, list):
        errors.append("weight.points: expected a list")
        points = []
    parsed_points = []
    for i, entry in enumerate(points):
        path = f"weight.points[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        pos = entry.get("position")
        if not isinstance(pos, list) or len(pos) != 3:
            errors.append(f"{path}.position: expected a 3-vector")
            continue
        pos = [_check_number(errors, v, f"{path}.position[{k}]")
               for k, v in enumerate(pos)]
        if None in pos:
            continue
        norm = math.hypot(*pos)
        if norm < 1.0e-12:
            errors.append(f"{path}.position: zero vector")
            continue
        order = _check_number(errors, entry.get("order"), f"{path}.order")
        if order is None:
            continue
        if order <= -1.0:
            errors.append(f"{path}.order: order must exceed -1, got {order}")
            continue
        if order == 0.0:
            errors.append(f"{path}.order: order must be nonzero")
            continue
        parsed_points.append({"position": [v / norm for v in pos],
                              "order": order})
    for i in range(len(parsed_points)):
        for j in range(i + 1, len(parsed_points)):
            pi, pj = parsed_points[i]["position"], parsed_points[j]["position"]
            if sum((a - b) ** 2 for a, b in zip(pi, pj)) < 1.0e-20:
                errors.append(
                    f"weight.points[{j}]: coincides with weight.points[{i}]; "
                    "singular points must be pairwise distinct")

    k_spec = weight.get("K")
    if k_spec is not None:
        if not isinstance(k_spec, dict):
            errors.append("weight.K: expected an object or null")
            k_spec = None
        else:
            _check_number(errors, k_spec.get("base", 1.0), "weight.K.base")
            harmonics = k_spec.get("harmonics", [])
            if not isinstance(harmonics, list):
                errors.append("weight.K.harmonics: expected a list")
            else:
                for i, term in enumerate(harmonics):
                    pth = f"weight.K.harmonics[{i}]"
                    if not isinstance(term, dict):
                        errors.append(f"{pth}: expected an object")
                        continue
                    l = _check_number(errors, term.get("l"), f"{pth}.l",
                                      lo=0, integer=True)
                    m = _check_number(errors, term.get("m"), f"{pth}.m",
                                      integer=True)
                    _check_number(errors, term.get("coeff"), f"{pth}.coeff")
                    if l is not None and m is not None and abs(m) > l:
                        errors.append(f"{pth}: |m| must not exceed l")

    experiment = data.get("experiment", {})
    if not isinstance(experiment, dict):
        errors.append("experiment: expected an object")
        experiment = {}
    kind = experiment.get("kind")
    if kind not in KINDS:
        errors.append(f"experiment.kind: expected one of {', '.join(KINDS)}; "
                      f"got {kind!r}")

    # one pole, or both poles, of the grid axis
    z = [p["position"][2] for p in parsed_points]
    antipodal_axis = ((len(z) == 1 or (len(z) == 2 and z[0] * z[1] <= 0))
                      and all(abs(abs(v) - 1.0) <= 1.0e-10 for v in z))
    use_extremal = experiment.get("use_extremal", False)
    if kind == "kw-check" and not isinstance(use_extremal, bool):
        errors.append("experiment.use_extremal: expected true or false, "
                      f"got {use_extremal!r}")
    elif kind == "kw-check" and not use_extremal and not antipodal_axis:
        errors.append(
            "experiment: kw-check requires singularities at antipodal "
            "points on the grid axis (the identity only holds in the "
            "axis direction for antipodal pairs)")
    rho_bar = 8.0 * math.pi * (1.0 + min(
        0.0, min((p["order"] for p in parsed_points), default=0.0)))
    for name, spec in _experiment_numbers(rho_bar).get(kind, {}).items():
        if name not in experiment:
            continue
        path, value, spec = f"experiment.{name}", experiment[name], dict(spec)
        fewest = spec.pop("list", None)
        if fewest is None:
            _check_number(errors, value, path, **spec)
        elif not isinstance(value, list):
            errors.append(f"{path}: expected a list")
        elif len(value) < fewest:
            errors.append(f"{path}: expected at least {fewest} values, "
                          f"got {len(value)}")
        else:
            for i, v in enumerate(value):
                _check_number(errors, v, f"{path}[{i}]", **spec)
    init = experiment.get("init", "test-function")  # SolverConfig.init
    if (kind in ("minimize", "sweep", "kw-check", "profile-collapse")
            and init not in ("zero", "test-function")):
        errors.append("experiment.init: expected one of zero, "
                      f"test-function; got {init!r}")
    if kind in ("sweep", "profile-collapse"):
        eps_list = [e for e in experiment.get("epsilons", [])
                    if isinstance(e, (int, float))]
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            errors.append("experiment.epsilons: must be strictly decreasing")

    seed = _check_number(errors, data.get("seed", 0), "seed", integer=True)

    output = data.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: expected an object")
        output = {}

    if errors:
        return None, errors
    config = {
        "schema_version": SCHEMA_VERSION,
        "grid": {"n_theta": n_theta, "n_phi": n_phi},
        "weight": {"points": parsed_points, "K": k_spec},
        "experiment": experiment,
        "seed": seed,
        "output": {"report": output.get("report"),
                   "traces": output.get("traces")},
    }
    return config, []


def serialize(config: dict) -> str:
    return json.dumps(config, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _build_weight(config):
    import numpy as np
    from .singular_geometry import SingularWeight
    from .sphere_grid import SHCoefficients, synthesis_at_points

    section = config["weight"]
    K = None
    if section.get("K") is not None:
        base = float(section["K"].get("base", 1.0))
        harmonics = section["K"].get("harmonics", [])
        if harmonics:
            coeffs = SHCoefficients.zeros(max(int(t["l"]) for t in harmonics))
            for t in harmonics:
                coeffs.order(int(t["m"]))[int(t["l"])] = float(t["coeff"])

            def K(points, _c=coeffs, _b=base):
                return _b + synthesis_at_points(_c, points)
        else:
            def K(points, _b=base):
                return _b * np.ones(np.asarray(points).shape[:-1])
    return SingularWeight.from_orders(
        [(p["position"], p["order"]) for p in section["points"]], K)


def _check(checks, name, value, tolerance, ok):
    checks.append({"name": name, "value": value, "tolerance": tolerance,
                   "passed": bool(ok)})
    log.info("check %-42s %-6s (value=%.6g tol=%.6g)",
             name, "PASS" if ok else "FAIL", value, tolerance)


def run(config: dict) -> dict:
    """Dispatch a validated config and return the report dictionary."""
    import numpy as np

    t_start = time.time()
    if config["weight"].get("K") is not None:
        # the smooth factor must be positive; probe it on a coarse grid
        from .sphere_grid import build_grid
        probe = _build_weight(config).smooth_factor(build_grid(33, 66).nodes)
        if float(np.min(probe)) <= 0.0:
            raise ConfigError(["weight.K: the smooth factor must be "
                               "positive on the sphere"])
    kind = config["experiment"]["kind"]
    runner = _RUNNERS[kind]
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "records": [],
        "summary": {},
        "checks": [],
    }
    runner(config, report)
    report["passed"] = all(c["passed"] for c in report["checks"])
    report["wall_clock_s"] = time.time() - t_start
    return report


def _grid_for(config):
    from .sphere_grid import build_grid
    return build_grid(config["grid"]["n_theta"], config["grid"]["n_phi"])


def _run_constants(config, report):
    from .identity_checks import (RegimeError, blowup_infimum,
                                  sphere_sharp_constant)

    w = _build_weight(config)
    grid = _grid_for(config) if w.alpha == 0.0 else None
    rep = blowup_infimum(w, grid)
    report["summary"] = rep.to_dict()
    exp = config["experiment"]
    checks = report["checks"]
    orders = [p["order"] for p in config["weight"]["points"]]
    antipodal = True
    if len(orders) == 2:
        p0 = config["weight"]["points"][0]["position"]
        p1 = config["weight"]["points"][1]["position"]
        antipodal = abs(sum(a * b for a, b in zip(p0, p1)) + 1.0) < 1.0e-10
    if config["weight"]["K"] is None and len(orders) == 0:
        _check(checks, "onofri constant", rep.C, 1.0e-9, abs(rep.C) <= 1.0e-9)
    elif config["weight"]["K"] is None and len(orders) <= 2 and antipodal:
        try:
            closed = sphere_sharp_constant(
                *sorted(orders),
                antipodal=len(orders) == 2)
            report["summary"]["closed_form_C"] = closed.C
            report["summary"]["closed_form_theorem"] = closed.theorem
            tol = float(exp.get("consistency_tol",
                                1.0e-12 if w.alpha < 0.0 else 1.0e-3))
            _check(checks, "closed-form consistency", abs(rep.C - closed.C),
                   tol, abs(rep.C - closed.C) <= tol)
        except RegimeError as exc:
            report["summary"]["closed_form_C"] = None
            report["summary"]["notes"] = str(exc)


def _run_verify_extremal(config, report):
    import numpy as np
    from .closed_forms import ExtremalParams, extremal_u, extremal_weight
    from .mt_functional import FunctionalParams, eval_J

    exp = config["experiment"]
    alpha = float(exp.get("alpha", -0.5))
    lam = float(exp.get("lambda", 2.0))
    c = float(exp.get("c", 3.0))
    grid = _grid_for(config)
    w = extremal_weight(alpha)
    params = FunctionalParams(rho=w.rho_bar, weight=w)
    J_10 = eval_J(extremal_u(ExtremalParams(alpha=alpha), grid), params)
    J_lc = eval_J(extremal_u(ExtremalParams(lam=lam, c=c, alpha=alpha), grid),
                  params)
    exact = 8.0 * np.pi * (1.0 + alpha) * (np.log1p(alpha) - alpha)
    report["summary"] = {"alpha": alpha, "J_extremal": J_10,
                         "J_shifted": J_lc, "closed_form": exact}
    rel = abs(J_10 - exact) / abs(exact)
    rel_tol = float(exp.get("rel_tol", 0.005))
    inv_tol = float(exp.get("invariance_tol", 1.0e-3))
    _check(report["checks"], "extremal value", rel, rel_tol, rel <= rel_tol)
    _check(report["checks"], "lambda-c invariance", abs(J_lc - J_10), inv_tol,
           abs(J_lc - J_10) <= inv_tol)


def _run_inequality_sample(config, report):
    import numpy as np
    from .closed_forms import conformal_pullback
    from .mt_functional import troyanov_gap, troyanov_gap_coeffs
    from .sphere_grid import ScalarField, batch_size, random_band_limited_batch

    exp = config["experiment"]
    w = _build_weight(config)
    grid = _grid_for(config)
    n_samples = int(exp.get("samples", 20))
    constant = float(exp.get("constant", 0.0))
    gap_floor = float(exp.get("gap_floor", -1.0e-6))
    rng = np.random.default_rng(config["seed"])
    worst = np.inf
    chunk = batch_size(grid)
    for start in range(0, n_samples, chunk):
        coeffs = random_band_limited_batch(grid, rng,
                                           min(chunk, n_samples - start))
        gaps = troyanov_gap_coeffs(coeffs, grid, w, constant)
        for i, gap in enumerate(gaps, start):
            report["records"].append({"sample": i, "gap": float(gap)})
            worst = min(worst, float(gap))
    report["summary"] = {"samples": n_samples, "worst_gap": worst}
    _check(report["checks"], "inequality gap floor", worst, gap_floor,
           worst >= gap_floor)
    if not w.points and w.K is None:
        family_tol = float(exp.get("family_tol", 1.0e-5))
        worst_fam = 0.0
        for t in exp.get("family_dilations", [1.0, 2.0, 4.0]):
            u = conformal_pullback(ScalarField.constant(grid, 0.0), float(t),
                                   0.0)
            gap = troyanov_gap(u, w, constant)
            report["records"].append({"dilation": t, "gap": gap})
            worst_fam = max(worst_fam, abs(gap))
        report["summary"]["worst_family_gap"] = worst_fam
        _check(report["checks"], "conformal family equality", worst_fam,
               family_tol, worst_fam <= family_tol)


def _solver_config(exp, schedule):
    from .subcritical_solver import SolverConfig
    return SolverConfig(
        epsilon_schedule=tuple(schedule),
        max_iterations=int(exp.get("max_iterations", 4000)),
        tol_factor=float(exp.get("tol_factor", 1.0e-6)),
        init=exp.get("init", "test-function"),
        init_epsilon=float(exp.get("init_epsilon", 0.01)),
    )


def _solve_from_zero(exp, w, grid, default_epsilon):
    """Minimize J at rho_bar - epsilon from u = 0; raises unless converged."""
    from .mt_functional import FunctionalParams
    from .sphere_grid import ScalarField
    from .subcritical_solver import NonConvergedError, minimize

    eps = float(exp.get("epsilon", default_epsilon))
    cfg = _solver_config(exp, [eps])
    params = FunctionalParams(rho=w.rho_bar - eps, weight=w)
    state = minimize(params, cfg, ScalarField.constant(grid, 0.0), grid)
    if not state.converged:
        raise NonConvergedError(
            f"residual {state.residual_norm:.3e} after "
            f"{state.iterations} iterations")
    return eps, cfg, params, state


def _run_minimize(config, report):
    from .subcritical_solver import diagnose

    exp = config["experiment"]
    w = _build_weight(config)
    eps, cfg, params, state = _solve_from_zero(exp, w, _grid_for(config), 0.1)
    diag = diagnose(state, w)
    report["records"] = [dict(r) for r in state.trace]
    report["summary"] = {
        "epsilon": eps, "rho": params.rho, "J": state.J,
        "residual": state.residual_norm, "iterations": state.iterations,
        "converged": state.converged, "lambda": diag.lambda_eps,
        "t_eps": diag.t_eps, "compact_case": diag.compact_case,
        "under_resolved": diag.under_resolved,
    }
    _check(report["checks"], "converged", state.residual_norm,
           cfg.tol_factor * params.rho, state.converged)


def _sweep_common(config, report):
    from .identity_checks import blowup_infimum
    from .subcritical_solver import epsilon_sweep

    exp = config["experiment"]
    w = _build_weight(config)
    grid = _grid_for(config)
    schedule = exp.get("epsilons", [0.5, 0.2, 0.1, 0.05])
    cfg = _solver_config(exp, schedule)
    sweep = epsilon_sweep(w, grid, cfg)
    target = blowup_infimum(w, grid).inf_J
    report["records"] = [e.row() for e in sweep.entries]
    report["summary"] = {
        "extrapolated_J": sweep.extrapolated_J,
        "extrapolation_exponent": sweep.extrapolation_exponent,
        "blowup_target": target,
    }
    return w, sweep, target


def _run_sweep(config, report):
    exp = config["experiment"]
    w, sweep, target = _sweep_common(config, report)
    checks = report["checks"]
    lams = sweep.column("lambda")
    incr = all(b > a for a, b in zip(lams, lams[1:]))
    _check(checks, "lambda strictly increasing", min(
        b - a for a, b in zip(lams, lams[1:])), 0.0, incr)
    decay = [abs(v) for v in sweep.column("mean_decay")]
    _check(checks, "t^2 mean decreasing toward 0", max(
        b - a for a, b in zip(decay, decay[1:])), 0.0,
        all(b < a for a, b in zip(decay, decay[1:])))
    mass_frac = sweep.column("cap_mass_10t")[-1] / w.rho_bar
    mass_tol = float(exp.get("cap_mass_rel_tol", 0.15))
    _check(checks, "cap mass fraction at 10 t_eps", abs(mass_frac - 1.0),
           mass_tol, abs(mass_frac - 1.0) <= mass_tol)
    rel = abs(sweep.extrapolated_J - target) / abs(target)
    rel_tol = float(exp.get("extrapolation_rel_tol", 0.05))
    _check(checks, "extrapolated J vs blow-up value", rel, rel_tol,
           rel <= rel_tol)


def _run_profile_collapse(config, report):
    import numpy as np

    exp = config["experiment"]
    w, sweep, target = _sweep_common(config, report)
    noise = float(exp.get("noise", 0.02))
    errs = sweep.column("profile_error")
    ok = all(b < a + noise for a, b in zip(errs, errs[1:]))
    _check(report["checks"], "profile collapse monotone", max(
        b - a for a, b in zip(errs, errs[1:])), noise, ok)
    # radial profile traces for plotting
    from .closed_forms import planar_bubble
    from .sphere_grid import synthesis_at_angles
    for entry, state in zip(sweep.entries, sweep.states):
        d = entry.diagnostics
        c_p = w.bubble_constant(d.center) if w.alpha < 0 else 1.0
        radii = np.linspace(0.0, 5.0, 26)[1:] * d.t_eps
        u_axis = synthesis_at_angles(state.coeffs, np.cos(radii),
                                     np.zeros_like(radii))
        for r, uv in zip(radii, u_axis):
            report["records"].append({
                "epsilon": entry.epsilon, "r": float(r),
                "u_minus_lambda": float(uv - d.lambda_eps),
                "bubble": float(planar_bubble(r / d.t_eps, c_p, w.alpha)),
            })


def _run_kw_check(config, report):
    from .closed_forms import ExtremalParams, extremal_u, extremal_weight
    from .identity_checks import kazdan_warner_residual
    from .sphere_grid import sh_analysis

    exp = config["experiment"]
    w = _build_weight(config)
    grid = _grid_for(config)
    if exp.get("use_extremal", False):
        alpha = float(exp.get("alpha", -0.5))
        w = extremal_weight(alpha)
        coeffs = sh_analysis(extremal_u(ExtremalParams(alpha=alpha), grid))
        rho = w.rho_bar
        tol = float(exp.get("residual_tol", 1.0e-6))
    else:
        _, _, params, state = _solve_from_zero(exp, w, grid, 0.3)
        coeffs, rho = state.coeffs, params.rho
        tol = float(exp.get("residual_tol", 1.0e-3))
    rep = kazdan_warner_residual(coeffs, grid, rho, w)
    report["summary"] = {
        "moment": rep.moment, "poho_residual": rep.poho_residual,
        "kw_vector_residual": rep.kw_vector_residual,
        "prefactor": rep.prefactor, "orders": list(rep.orders), "rho": rho,
    }
    _check(report["checks"], "axis identity residual",
           abs(rep.poho_residual), tol, abs(rep.poho_residual) <= tol)


def _run_test_function_sweep(config, report):
    import numpy as np
    from .closed_forms import concentration_sweep
    from .identity_checks import blowup_infimum
    from .singular_geometry import REGULAR_PART, green
    from .sphere_grid import FOUR_PI

    exp = config["experiment"]
    w = _build_weight(config)
    epsilons = exp.get("epsilons", [1.0e-2, 1.0e-3, 1.0e-4])
    p0 = w.minimal_points()[0].position if w.alpha < 0.0 else \
        np.array([0.0, 0.0, 1.0])
    records = concentration_sweep(w, epsilons, p0)
    target = blowup_infimum(w).inf_J if w.alpha < 0.0 else None
    for rec in records:
        report["records"].append(
            {k: float(v) for k, v in rec.items()})
    Js = [rec["J"] for rec in records]
    checks = report["checks"]
    _check(checks, "upper bound decreasing", max(
        b - a for a, b in zip(Js, Js[1:])), 0.0,
        all(b < a for a, b in zip(Js, Js[1:])))
    if target is not None:
        gap = (Js[-1] - target) / abs(target)
        gap_tol = float(exp.get("upper_gap_tol", 0.10))
        _check(checks, "upper bound above blow-up value", gap, gap_tol,
               0.0 <= gap <= gap_tol)
        # limit of the exponential integral at the smallest epsilon
        alpha = w.alpha
        h_tilde = 1.0
        for sp in w.points:
            d = np.arccos(np.clip(sp.position @ p0, -1.0, 1.0))
            if d > 1.0e-12:
                h_tilde *= np.exp(-FOUR_PI * sp.order * green(sp.position, p0))
        limit = (np.pi * h_tilde * np.exp(-FOUR_PI * alpha * REGULAR_PART)
                 / (1.0 + alpha))
        rel = abs(records[-1]["exp_integral"] - limit) / limit
        exp_tol = float(exp.get("exp_tol", 0.05))
        report["summary"] = {"target": target, "exp_limit": limit,
                             "final_J": Js[-1]}
        _check(checks, "exponential integral limit", rel, exp_tol,
               rel <= exp_tol)


_RUNNERS = {
    "constants": _run_constants,
    "verify-extremal": _run_verify_extremal,
    "inequality-sample": _run_inequality_sample,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "kw-check": _run_kw_check,
    "profile-collapse": _run_profile_collapse,
    "test-function-sweep": _run_test_function_sweep,
}


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def write_report(report: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_traces(report: dict, path: str):
    """CSV trace of the per-step records, 17 significant digits."""
    records = report.get("records", [])
    if not records:
        return
    keys = sorted({k for r in records for k in r})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for r in records:
            fh.write(",".join(_csv_cell(r.get(k, "")) for k in keys) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    return "%.17g" % v if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sol-lab",
        description="verification experiments for the singular "
                    "Moser-Trudinger functional on the sphere")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="report JSON path "
                       "(overrides output.report)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    level = os.environ.get("SOL_LAB_LOG", "warning").lower()
    logging.basicConfig(
        level={"debug": logging.DEBUG, "info": logging.INFO,
               "quiet": logging.ERROR}.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")

    # numpy (and its BLAS pool) is first loaded after this point, so an
    # inherited environment value cannot win over --threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    config, errors = validate(raw)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if config["experiment"]["kind"] != args.kind:
        print(f"config error: experiment.kind is "
              f"{config['experiment']['kind']!r} but the subcommand is "
              f"{args.kind!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config["seed"] = args.seed

    from .mt_functional import UnnormalizedBlowupError
    from .subcritical_solver import NonConvergedError

    try:
        report = run(config)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NonConvergedError, UnnormalizedBlowupError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    out_path = args.out or config["output"].get("report")
    if out_path:
        write_report(report, out_path)
    traces = config["output"].get("traces")
    if traces:
        write_traces(report, traces)
    for c in report["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
              f"value={c['value']:.6g} tol={c['tolerance']:.6g}")
    print(f"{'passed' if report['passed'] else 'FAILED'} "
          f"({report['wall_clock_s']:.2f}s)")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
