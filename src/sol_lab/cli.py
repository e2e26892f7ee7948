"""Command-line front end: JSON-configured experiments with pass/fail checks.

Usage:
    sol-lab <kind> --config experiment.json [--out report.json]
                   [--threads N]

The experiment kind must match the "experiment.kind" field of the config.
Reports are deterministic for a fixed (config, threads=1): JSON keys
are sorted and floats use full repr; the only nondeterministic field is
"wall_clock_s".  CSV traces use 17 significant digits.

Exit codes: 0 all checks passed, 1 a tolerance check failed, 2 invalid
configuration, 3 numerical failure (non-convergence, overflow or out of
memory).

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
    "test-function-sweep",
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_number(errors, obj, path, lo=None, integer=False, gt=None,
                  lt=None):
    """The number at ``path`` if it lies in range, else None and an error.

    ``lo`` is an inclusive bound, ``gt`` and ``lt`` are strict ones.
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
    if gt is not None and not obj > gt:
        errors.append(f"{path}: must be > {gt}, got {obj}")
        return None
    if lt is not None and not obj < lt:
        errors.append(f"{path}: must be < {lt:.6g}, got {obj}")
        return None
    return int(obj) if integer else float(obj)


# A check takes (errors, value, path) and returns the value typed, or None
# after appending an error for each fault.

def _number(**bounds):
    """A number in range, bounds as keyword arguments of ``_check_number``."""
    return lambda errors, v, path: _check_number(errors, v, path, **bounds)


def _any(errors, v, path):
    """Any value, checked by the caller."""
    return v


def _output_path(errors, v, path):
    """null, or a file path to write in a directory that exists."""
    if v is None or (isinstance(v, str) and v and not os.path.isdir(v)
                     and os.path.isdir(os.path.dirname(v) or ".")):
        return v
    errors.append(f"{path}: expected a file path in a directory that "
                  f"exists, got {v!r}")
    return None


def _choice(*options):
    """One of the strings ``options``."""
    def check(errors, v, path):
        if v in options:
            return v
        errors.append(f"{path}: expected one of {', '.join(options)}; "
                      f"got {v!r}")
        return None
    return check


def _each(item, fewest=0, decreasing=False):
    """A list of at least ``fewest`` values, each checked by ``item``, and
    strictly decreasing if ``decreasing``."""
    def check(errors, v, path):
        if not isinstance(v, list):
            errors.append(f"{path}: expected a list")
            return None
        if len(v) < fewest:
            errors.append(f"{path}: expected at least {fewest} values, "
                          f"got {len(v)}")
            return None
        v = [item(errors, e, f"{path}[{i}]") for i, e in enumerate(v)]
        if decreasing and None not in v and any(
                b >= a for a, b in zip(v, v[1:])):
            errors.append(f"{path}: must be strictly decreasing")
            return None
        return v
    return check


def _section(schema, expected="an object"):
    """A JSON object with the keys of ``schema`` = {name: (default, check)}.

    A key outside ``schema`` is an error; a missing key takes its default,
    which goes through the same check as a given value.
    """
    def check(errors, obj, path):
        if not isinstance(obj, dict):
            errors.append(f"{path}: expected {expected}")
            return None
        prefix = f"{path}." if path else ""
        errors.extend(f"{prefix}{k}: unknown key; expected one of "
                      f"{', '.join(schema)}" for k in obj if k not in schema)
        return {name: item(errors, obj.get(name, default), prefix + name)
                for name, (default, item) in schema.items()}
    return check


def _position(errors, v, path):
    """A nonzero 3-vector, normalized."""
    if not isinstance(v, list) or len(v) != 3:
        errors.append(f"{path}: expected a 3-vector")
        return None
    v = [_check_number(errors, x, f"{path}[{k}]") for k, x in enumerate(v)]
    if None in v:
        return None
    norm = math.hypot(*v)
    if norm < 1.0e-12:
        errors.append(f"{path}: zero vector")
        return None
    return [x / norm for x in v]


def _order(errors, v, path):
    """A conical order: above -1 and nonzero."""
    order = _check_number(errors, v, path)
    if order is not None and order <= -1.0:
        errors.append(f"{path}: order must exceed -1, got {order}")
        return None
    if order == 0.0:
        errors.append(f"{path}: order must be nonzero")
        return None
    return order


def _harmonic(errors, v, path):
    """One term {l, m, coeff} of the smooth factor K, |m| <= l."""
    term = _section({"l": (None, _number(lo=0, integer=True)),
                     "m": (None, _number(integer=True)),
                     "coeff": (None, _number())})(errors, v, path)
    if term and None not in term.values() and abs(term["m"]) > term["l"]:
        errors.append(f"{path}: |m| must not exceed l")
    return term


_K = _section({"base": (1.0, _number()), "harmonics": ([], _each(_harmonic))},
              "an object or null")
# every key of a config but the experiment's, which depend on its kind
_CONFIG = _section({
    "schema_version": (SCHEMA_VERSION, _any),
    "grid": ({}, _section({"n_theta": (65, _number(lo=2, integer=True)),
                           "n_phi": (130, _number(lo=4, integer=True))})),
    "weight": ({}, _section({
        "points": ([], _each(_section({"position": (None, _position),
                                       "order": (None, _order)}))),
        "K": (None, lambda errors, v, path:
              None if v is None else _K(errors, v, path))})),
    "experiment": ({}, _any),
    "seed": (0, _number(integer=True)),
    "output": ({}, _section({"report": (None, _output_path),
                             "traces": (None, _output_path)})),
})
# the solver's settings in the experiments that solve
_SOLVER = {"max_iterations": (4000, _number(lo=1, integer=True))}


def _experiment_schema(alpha: float) -> dict:
    """kind -> {name: (default, check)}: the one place that names a key of
    the "experiment" section besides "kind", its default and its range.

    ``alpha`` is min(0, orders): an ``epsilon`` keeps rho = 8 pi (1 +
    alpha) - epsilon positive, and a schedule of ``epsilons`` decreases
    strictly and needs two values, since its checks compare consecutive
    entries; a sweep's needs three, the unknowns of its limit model.
    """
    eps = {"gt": 0.0, "lt": 8.0 * math.pi * (1.0 + alpha)}
    epsilons = ([0.5, 0.2, 0.1, 0.05], _each(_number(**eps), 3, True))
    return {
        "constants": {},
        "verify-extremal": {"alpha": (-0.5, _number(gt=-1.0, lt=0.0))},
        "inequality-sample": {"samples": (20, _number(lo=1, integer=True)),
                              "constant": (0.0, _number())},
        "minimize": {"epsilon": (0.1, _number(**eps)), **_SOLVER},
        # a sweep's first entry starts from the test function of scale
        # init_epsilon, or at null from zero, as minimize and kw-check start
        "sweep": {"epsilons": epsilons, **_SOLVER, "init_epsilon": (
            0.01, lambda errors, v, path: None if v is None else
            _check_number(errors, v, path, gt=0.0, lt=1.0))},
        "kw-check": {"epsilon": (0.3, _number(**eps)), **_SOLVER},
        "test-function-sweep": {"epsilons": ([1.0e-2, 1.0e-3, 1.0e-4],
                                             _each(_number(gt=0.0, lt=1.0),
                                                   2, True))},
    }


def validate(raw_text: str):
    """Parse and validate a JSON config; returns (config dict, error list).

    A key outside the schema is an error at every level.  The config
    returned has every key filled in and typed, so a report records the
    values its run used, and a config that a rule of the run would refuse
    is an error too (``_rule_errors``).  Error messages carry JSON-path (and
    for parse errors, line) references.
    """
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        return None, [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
    if not isinstance(data, dict):
        return None, ["top level: expected a JSON object"]
    errors: list[str] = []
    config = _CONFIG(errors, data, "")
    version = config["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {version!r}")

    points = [p for p in (config["weight"] or {}).get("points") or ()
              if p and None not in p.values()]
    experiment = config["experiment"]
    kind = experiment.get("kind") if isinstance(experiment, dict) else None
    if kind in KINDS:
        alpha = min(0.0, min((p["order"] for p in points), default=0.0))
        config["experiment"] = _section(
            {"kind": (kind, _any), **_experiment_schema(alpha)[kind]})(
                errors, experiment, "experiment")
    else:
        if not isinstance(experiment, dict):
            errors.append("experiment: expected an object")
        _choice(*KINDS)(errors, kind, "experiment.kind")
    if not errors:
        errors = _rule_errors(config)
    return (None, errors) if errors else (config, [])


def _rule_errors(config) -> list:
    """What the run would refuse of a valid config, by each rule's own
    check, each error naming its key: any weight of a verify-extremal,
    which runs on its own pair, coincident points, a weight that no
    rotation puts on the axis for a kind that integrates it, a K not
    positive where sampled (a sampling rule, not a proof), a kw-check
    weight off the axis identity's (any K, or a layout off the axis), and
    for the kinds that build test functions a weight the radial J cannot
    evaluate, a singular test-function point or an epsilon too large for
    its point."""
    import numpy as np
    from .closed_forms import concentration_scales, radial_faults
    from .identity_checks import RegimeError, _axis_orders
    from .singular_geometry import coincident_points
    from .sphere_grid import build_grid, normalized

    exp = config["experiment"]
    if exp["kind"] == "verify-extremal":
        return [f"weight.{key}: verify-extremal uses the equal pair of order "
                "experiment.alpha at +-e3 and no other weight"
                for key in ("points", "K") if config["weight"][key]]
    positions = [normalized(p["position"]) for p in config["weight"]["points"]]
    errors = [f"weight.points[{j}]: coincides with weight.points[{i}]; "
              "singular points must be pairwise distinct"
              for i, j in coincident_points(positions)]
    if errors:  # no weight to ask the other rules
        return errors
    try:
        w = _build_weight(config)
    except ValueError as exc:  # no axis frame
        return [f"weight.points: {exc}"]
    # K on a Gauss grid twice as fine each way as K's own (never below
    # 33 x 66) and at +-e3 of the weight the run integrates, where its
    # caps' rings crowd and a Gauss grid has no node
    if w.K is not None:
        n = max(33, 2 * (w.K.band_limit + 1))
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        if min(np.min(w.smooth_factor(x)) for x in
               (build_grid(n, 2 * n).nodes, poles)) <= 0.0:
            errors.append("weight.K: the smooth factor must be positive on "
                          "the sphere")
    if exp["kind"] == "kw-check":
        try:
            _axis_orders(w)
        except RegimeError as exc:
            key = "points" if w.K is None else "K"
            errors.append(f"weight.{key}: kw-check: {exc}")
    p, seeds = _test_function_point(w), []
    if exp["kind"] == "test-function-sweep":
        errors += [f"weight.{key}: {why}" for key, why in radial_faults(w, p)]
        seeds = [(f"experiment.epsilons[{i}]", e)
                 for i, e in enumerate(exp["epsilons"])]
    elif exp.get("init_epsilon") is not None and w.alpha < 0.0:
        seeds = [("experiment.init_epsilon", exp["init_epsilon"])]
    if seeds and w.beta(p) != w.alpha:  # every order positive, one at p
        return errors + [f"weight.points[{w.index_at(p)}]: test functions "
                         "concentrate at the north pole when every order is "
                         "positive; it must not be a singular point"]
    for path, epsilon in seeds:
        try:
            concentration_scales(w, epsilon, p)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
    return errors


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _build_weight(config):
    """The config's weight; K is the coefficients of base + the harmonics
    (base folded into a_00 as a shift), zonal when every harmonic
    has m = 0; in its ``axis_frame`` for a kind that integrates it."""
    import numpy as np
    from .singular_geometry import SingularWeight, axis_frame
    from .sphere_grid import SHCoefficients

    section = config["weight"]
    K = None
    if section["K"] is not None:
        harmonics = section["K"]["harmonics"]
        L = max((t["l"] for t in harmonics), default=0)
        zonal = all(t["m"] == 0 for t in harmonics)
        K = (SHCoefficients(np.zeros((L + 1, 1))) if zonal
             else SHCoefficients.zeros(L))
        for t in harmonics:
            K.order(t["m"])[t["l"] - abs(t["m"])] = t["coeff"]
        K = K.shifted(section["K"]["base"])
    w = SingularWeight.from_orders(
        [(p["position"], p["order"]) for p in section["points"]], K)
    exp = config["experiment"]
    keep = exp["kind"] in ("constants", "test-function-sweep")
    return w if keep else axis_frame(w)


def _test_function_point(w):
    """Where test functions concentrate: the first minimal-order point, or
    the north pole when every order is positive."""
    import numpy as np
    return (w.minimal_points()[0].position if w.alpha < 0.0
            else np.array([0.0, 0.0, 1.0]))


def _check(checks, name, value, tolerance, ok=None):
    """Record the check; it passes if ``ok``, by default value <= tolerance."""
    ok = value <= tolerance if ok is None else ok
    checks.append({"name": name, "value": value, "tolerance": tolerance,
                   "passed": bool(ok)})
    log.info("check %-42s %-6s (value=%.6g tol=%.6g)",
             name, "PASS" if ok else "FAIL", value, tolerance)


def run(config: dict) -> dict:
    """Run a validated config on its weight and grid; return the report."""
    from .sphere_grid import build_grid

    t_start = time.time()
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
    w = _build_weight(config)
    grid = build_grid(config["grid"]["n_theta"], config["grid"]["n_phi"])
    runner(config, w, grid, report)
    report["passed"] = all(c["passed"] for c in report["checks"])
    report["wall_clock_s"] = time.time() - t_start
    return report


ONOFRI_TOL = 1.0e-9  # |C| with no point and no K
CONSISTENCY_TOL = 1.0e-12  # |C - closed form| with a negative order
GRID_CONSISTENCY_TOL = 1.0e-3  # the same with C read on the grid


def _run_constants(config, w, grid, report):
    from .identity_checks import (RegimeError, blowup_infimum,
                                  sphere_sharp_constant)
    from .singular_geometry import antipodal

    rep = blowup_infimum(w, grid)
    report["summary"] = rep.to_dict()
    checks = report["checks"]
    orders = [p["order"] for p in config["weight"]["points"]]
    if config["weight"]["K"] is None and len(orders) == 0:
        _check(checks, "onofri constant", rep.C, ONOFRI_TOL,
               abs(rep.C) <= ONOFRI_TOL)
    elif config["weight"]["K"] is None and (
            len(orders) == 1
            or len(orders) == 2 and antipodal(*w.positions)):
        try:
            closed = sphere_sharp_constant(
                *sorted(orders),
                antipodal=len(orders) == 2)
            report["summary"]["closed_form_C"] = closed.C
            report["summary"]["closed_form_theorem"] = closed.theorem
            _check(checks, "closed-form consistency", abs(rep.C - closed.C),
                   CONSISTENCY_TOL if w.alpha < 0.0 else GRID_CONSISTENCY_TOL)
        except RegimeError as exc:
            report["summary"]["closed_form_C"] = None
            report["summary"]["notes"] = str(exc)


EXTREMAL_LAMBDA = 1.5  # u_{lambda,c}: 65 x 130 resolves 1.5, not 2
EXTREMAL_C = 3.0
EXTREMAL_REL_TOL = 0.005  # J(u_{1,0}) against the closed form, relative
INVARIANCE_TOL = 1.0e-3  # |J(u_{lambda,c}) - J(u_{1,0})|


def _run_verify_extremal(config, _w, grid, report):
    from .closed_forms import extremal_u, extremal_weight
    from .identity_checks import sphere_sharp_constant
    from .mt_functional import eval_J

    alpha = config["experiment"]["alpha"]
    w = extremal_weight(alpha)
    J_10, J_lc = (eval_J(extremal_u(grid, alpha, *lc), grid, w, w.rho_bar)
                  for lc in ((), (EXTREMAL_LAMBDA, EXTREMAL_C)))
    exact = sphere_sharp_constant(alpha, alpha, antipodal=True).inf_J
    report["summary"] = {"alpha": alpha, "J_extremal": J_10,
                         "J_shifted": J_lc, "closed_form": exact}
    rel = abs(J_10 - exact) / abs(exact)
    _check(report["checks"], "extremal value", rel, EXTREMAL_REL_TOL)
    _check(report["checks"], "lambda-c invariance", abs(J_lc - J_10),
           INVARIANCE_TOL)


GAP_FLOOR = -1.0e-6  # the least gap a sample may show
FAMILY_DILATIONS = (1.0, 2.0, 4.0)  # of u_t, with no point and no K
FAMILY_TOL = 1.0e-5  # |gap| of u_t


def _run_inequality_sample(config, w, grid, report):
    import numpy as np
    from .closed_forms import conformal_pullback
    from .mt_functional import sample_gaps, troyanov_gap
    from .sphere_grid import SHCoefficients

    exp = config["experiment"]
    n_samples = exp["samples"]
    gaps = sample_gaps(grid, np.random.default_rng(config["seed"]),
                       n_samples, w, exp["constant"])
    report["records"] += [{"sample": i, "gap": float(gap)}
                          for i, gap in enumerate(gaps)]
    worst = float(gaps.min())
    report["summary"] = {"samples": n_samples, "worst_gap": worst}
    _check(report["checks"], "inequality gap floor", worst, GAP_FLOOR,
           worst >= GAP_FLOOR)
    if not w.points and w.K is None:
        worst_fam = 0.0
        zero = SHCoefficients(np.zeros((grid.band_limit + 1, 1)))
        for t in FAMILY_DILATIONS:
            u = conformal_pullback(zero, grid, t, 0.0)
            gap = float(troyanov_gap(u, grid, w, exp["constant"]))
            report["records"].append({"dilation": t, "gap": gap})
            worst_fam = max(worst_fam, abs(gap))
        report["summary"]["worst_family_gap"] = worst_fam
        _check(report["checks"], "conformal family equality", worst_fam,
               FAMILY_TOL)


def _solve_from_zero(exp, w, grid, rho):
    """Minimize J_rho from u = 0; raises unless converged."""
    import numpy as np
    from .sphere_grid import SHCoefficients
    from .subcritical_solver import NonConvergedError, _shortfall, minimize

    zero = SHCoefficients(np.zeros((grid.band_limit + 1, 1)))  # zonal
    state = minimize(zero, grid, w, rho, max_iterations=exp["max_iterations"])
    if not state.converged:
        raise NonConvergedError(_shortfall(state))
    return state


def _run_minimize(config, w, grid, report):
    from .subcritical_solver import diagnose

    exp = config["experiment"]
    rho = w.rho_bar - exp["epsilon"]
    state = _solve_from_zero(exp, w, grid, rho)
    diag = diagnose(state.coeffs, grid, w, rho)
    report["records"] = [dict(r) for r in state.trace]
    report["summary"] = {
        "epsilon": exp["epsilon"], "rho": rho, "J": state.J,
        "residual": state.residual_norm, "iterations": state.iterations,
        "lambda": diag.lambda_eps, "t_eps": diag.t_eps,
        "compact_case": diag.compact_case,
        "under_resolved": diag.under_resolved,
    }


CAP_MASS_REL_TOL = 0.15  # last cap mass at 10 t_eps against rho_bar
EXTRAPOLATION_REL_TOL = 0.05  # extrapolated J against the blow-up value
PROFILE_NOISE = 0.02  # a profile error's rise from one entry to the next


def _run_sweep(config, w, grid, report):
    from .identity_checks import blowup_infimum
    from .subcritical_solver import epsilon_sweep

    exp = config["experiment"]
    sweep = epsilon_sweep(
        w, grid, exp["epsilons"], max_iterations=exp["max_iterations"],
        init_epsilon=exp["init_epsilon"])
    target, J0 = blowup_infimum(w, grid).inf_J, sweep.extrapolated_J
    report["records"] = [e.row() for e in sweep.entries]
    report["summary"] = {"extrapolated_J": J0, "blowup_target": target}
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
    _check(checks, "cap mass fraction at 10 t_eps", abs(mass_frac - 1.0),
           CAP_MASS_REL_TOL)
    # no blow-up value to approach (the plain sphere's 0) reads inf
    rel = abs(J0 - target) / abs(target) if target else math.inf
    _check(checks, "extrapolated J vs blow-up value", rel,
           EXTRAPOLATION_REL_TOL)
    # a compact entry has no profile (its error is NaN)
    errs = [e for e in sweep.column("profile_error") if math.isfinite(e)]
    if len(errs) >= 2:
        _check(checks, "profile collapse monotone", max(
            b - a for a, b in zip(errs, errs[1:])), PROFILE_NOISE,
            all(b < a + PROFILE_NOISE for a, b in zip(errs, errs[1:])))


RESIDUAL_TOL = 1.0e-3  # |axis identity residual| at the solve


def _run_kw_check(config, w, grid, report):
    from dataclasses import asdict
    from .identity_checks import kazdan_warner_residual

    exp = config["experiment"]
    rho = w.rho_bar - exp["epsilon"]
    state = _solve_from_zero(exp, w, grid, rho)
    rep = kazdan_warner_residual(state.coeffs, grid, w, rho)
    report["records"] = [dict(r) for r in state.trace]
    report["summary"] = {**asdict(rep), "orders": list(rep.orders),
                         "rho": rho}
    _check(report["checks"], "axis identity residual",
           abs(rep.poho_residual), RESIDUAL_TOL)


UPPER_GAP_TOL = 0.10  # last upper bound above the blow-up value, relative
EXP_TOL = 0.05  # last exponential integral from its limit, relative


def _run_test_function_sweep(config, w, grid, report):
    import numpy as np
    from .closed_forms import concentration_sweep
    from .identity_checks import blowup_infimum

    p0 = _test_function_point(w)
    records = concentration_sweep(w, config["experiment"]["epsilons"], p0)
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
        gap = (Js[-1] - target) / abs(target) if target else math.inf
        _check(checks, "upper bound above blow-up value", gap, UPPER_GAP_TOL,
               0.0 <= gap <= UPPER_GAP_TOL)
        # limit of the exponential integral at the smallest epsilon
        limit = np.pi * w.bubble_constant(p0) / (1.0 + w.alpha)
        rel = abs(records[-1]["exp_integral"] - limit) / limit
        report["summary"] = {"target": target, "exp_limit": limit,
                             "final_J": Js[-1]}
        _check(checks, "exponential integral limit", rel, EXP_TOL)


_RUNNERS = {
    "constants": _run_constants,
    "verify-extremal": _run_verify_extremal,
    "inequality-sample": _run_inequality_sample,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "kw-check": _run_kw_check,
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
        prog="sol-lab", usage="%(prog)s <kind> [-h] --config CONFIG "
        "[--out OUT] [--threads THREADS]",
        description="verification experiments for the singular "
                    "Moser-Trudinger functional on the sphere")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="report JSON path "
                        "(overrides output.report)")
    parser.add_argument("--threads", type=_thread_count, default=1)
    return parser


def _thread_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


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
    if args.out is not None:
        _output_path(errors, args.out, "--out")
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if config["experiment"]["kind"] != args.kind:
        print(f"config error: experiment.kind is "
              f"{config['experiment']['kind']!r} but the subcommand is "
              f"{args.kind!r}", file=sys.stderr)
        return 2

    from .mt_functional import UnnormalizedBlowupError
    from .subcritical_solver import NonConvergedError

    try:
        report = run(config)
    except (NonConvergedError, UnnormalizedBlowupError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc or 'no detail'}); "
              "try a smaller grid", file=sys.stderr)
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
