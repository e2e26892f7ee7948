"""Span tracer that wraps sol_lab's layer functions from outside the package.

Each wrapped function records a span (name, start, end, parent span, op id)
in memory; the spans are written out once, at the end of the run.  A span's
self time is its duration minus the time covered by its child spans.

Besides the spans the wrappers keep deterministic counters: transforms and
their computed kernel costs, Legendre table bytes, integrator builds and
cache hits, composite quadrature nodes, and per-iteration work of the
solver loop.  flop and bytes are computed from the array shapes of each
transform, not measured.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time
from collections import defaultdict

# layer metric prefix -> functions it covers, as (module, attribute path)
LAYERS = {
    "sphere_grid.synthesis": [("sphere_grid", "ProductTransform.synthesis_values")],
    "sphere_grid.analysis": [("sphere_grid", "ProductTransform.analysis_coeffs")],
    "sphere_grid.legendre": [("sphere_grid", "normalized_legendre")],
    "sphere_grid.point_synthesis": [("sphere_grid", "synthesis_at_angles"),
                                    ("sphere_grid", "gradient_at_angles")],
    "singular_geometry.log_weight": [("singular_geometry", "SingularWeight.log_weight"),
                                     ("singular_geometry", "SingularWeight.smooth_factor")],
    "mt_functional.integrator_build": [("mt_functional", "SingularIntegrator.__init__")],
    "mt_functional.integrator_cache": [("mt_functional", "integrator_for")],
    "mt_functional.log_exp_integral": [("mt_functional", "SingularIntegrator.log_exp_integral")],
    "mt_functional.density_projection": [("mt_functional", "SingularIntegrator.density_projection")],
    "mt_functional.field_peak": [("mt_functional", "SingularIntegrator.field_peak")],
    "mt_functional.eval_J_coeffs": [("mt_functional", "eval_J_coeffs")],
    "subcritical_solver.minimize": [("subcritical_solver", "minimize")],
    "subcritical_solver.diagnose": [("subcritical_solver", "diagnose")],
    "subcritical_solver.cap_density_integral": [("subcritical_solver", "cap_density_integral")],
    "closed_forms.concentration_field": [("closed_forms", "concentration_field")],
    "identity_checks.blowup_infimum": [("identity_checks", "blowup_infimum")],
    "identity_checks.kazdan_warner_residual": [("identity_checks", "kazdan_warner_residual")],
    "cli.validate": [("cli", "validate")],
    "cli.run": [("cli", "run")],
    "cli.write": [("cli", "write_report"), ("cli", "write_traces")],
}

MODULES = ("sphere_grid", "singular_geometry", "mt_functional", "closed_forms",
           "subcritical_solver", "identity_checks", "cli")


def transform_cost(tr, analysis: bool) -> tuple[int, int]:
    """(flop, bytes) of one ProductTransform pass, computed from its shapes.

    Legendre stage: one (L+1-m) x n_t GEMV per order and trig part, i.e.
    2 n_t (L+1)^2 flop.  Fourier stage: two (L+1) x n_phi products per
    node row.  Bytes count each table, input and output array once (8-byte
    floats), the compulsory traffic of a pass.
    """
    n_t, n_p, L1 = tr.t.size, tr.phi.size, tr.band_limit + 1
    legendre_entries = n_t * L1 * (L1 + 1) // 2
    trig_entries = 2 * L1 * n_p
    coeff_entries = L1 * (2 * L1 - 1)
    values = n_t * n_p
    flop = 2 * n_t * L1 * L1 + 4 * n_t * L1 * n_p + values
    entries = legendre_entries + trig_entries + coeff_entries + values
    if analysis:
        entries += values  # the quadrature weights
    return flop, 8 * entries


class Tracer:
    """Wraps every binding site of the LAYERS functions; install/uninstall."""

    def __init__(self, package: str = "sol_lab"):
        self.mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        self._namespaces = [importlib.import_module(package), *self.mods.values()]
        self.spans: list[tuple] = []        # (op, name, start, end, parent)
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = None
        self._solver = None                 # per-minimize iteration bookkeeping
        self._sites = []                    # (owner, attribute, original, wrapper)
        for layer, targets in LAYERS.items():
            for mod, path in targets:
                self._collect_sites(layer, mod, path)

    # -- wrapping ------------------------------------------------------------

    def _collect_sites(self, layer, mod, path):
        owner = self.mods[mod]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = self._make_wrapper(layer, f"{mod}.{path}", original)
        self._sites.append((owner, attr, original, wrapper))
        if outer:
            return  # a method: the class is its only binding site
        for other in self._namespaces:
            for name, value in list(vars(other).items()):
                if value is original and other is not owner:
                    self._sites.append((other, name, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _make_wrapper(self, layer, name, fn):
        before = getattr(self, "_pre_" + layer.replace(".", "_"), None)
        after = getattr(self, "_post_" + layer.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            self.counters[self._op][layer + ".calls"] += 1
            ctx = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self._op, name, start, end, parent)
            if after:
                after(args, result, ctx)
            return result

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of one operation."""
        self._op = op_id
        self.spans.append((op_id, "op", time.perf_counter(), None, -1))
        self._stack.append(len(self.spans) - 1)

    def end_op(self):
        idx = self._stack.pop()
        op, name, start, _, parent = self.spans[idx]
        self.spans[idx] = (op, name, start, time.perf_counter(), parent)
        self._op = None

    # -- counters ------------------------------------------------------------

    def _add(self, key, value):
        self.counters[self._op][key] += value

    def _post_sphere_grid_synthesis(self, args, result, ctx):
        flop, nbytes = transform_cost(args[0], analysis=False)
        self._add("sphere_grid.synthesis.flop", flop)
        self._add("sphere_grid.synthesis.bytes", nbytes)
        if self._solver is not None:
            self._solver["syn"][self._solver["k"]] += 1

    def _post_sphere_grid_analysis(self, args, result, ctx):
        flop, nbytes = transform_cost(args[0], analysis=True)
        self._add("sphere_grid.analysis.flop", flop)
        self._add("sphere_grid.analysis.bytes", nbytes)
        if self._solver is not None:
            self._solver["ana"][self._solver["k"]] += 1

    def _post_sphere_grid_legendre(self, args, result, ctx):
        self._add("sphere_grid.legendre.table_bytes", sum(b.nbytes for b in result))

    def _post_mt_functional_integrator_build(self, args, result, ctx):
        integ = args[0]
        self._add("mt_functional.composite_nodes",
                  sum(b.weights.size for b in integ.blocks))

    def _pre_mt_functional_integrator_cache(self, args):
        return self.counters[self._op]["mt_functional.integrator_build.calls"]

    def _post_mt_functional_integrator_cache(self, args, result, builds_before):
        if self.counters[self._op]["mt_functional.integrator_build.calls"] == builds_before:
            self._add("mt_functional.integrator_cache.hits", 1)
        if self._solver is not None and self._solver["blocks"] is None:
            self._solver["blocks"] = len(result.blocks)

    def _pre_mt_functional_field_peak(self, args):
        if self._solver is not None:
            self._solver["k"] += 1

    def _pre_mt_functional_eval_J_coeffs(self, args):
        if self._solver is not None:
            self._solver["evals"][self._solver["k"]] += 1

    def _pre_subcritical_solver_minimize(self, args):
        self._solver = {"k": 0, "blocks": None, "syn": defaultdict(int),
                        "ana": defaultdict(int), "evals": defaultdict(int)}

    def _post_subcritical_solver_minimize(self, args, state, ctx):
        s, self._solver = self._solver, None
        # loop iterations 1..k-1 each accepted one trial; iteration k is the
        # converged one (no trials), iteration 0 the initial normalization
        steps = range(1, s["k"])
        iters = len(steps)
        trials = sum(s["evals"][k] for k in steps)
        syn = sum(s["syn"][k] for k in steps)
        self._add("subcritical_solver.iterations", iters)
        self._add("subcritical_solver.reported_iterations", state.iterations)
        self._add("subcritical_solver.trials", trials)
        self._add("subcritical_solver.loop_synthesis", syn)
        self._add("subcritical_solver.loop_analysis", sum(s["ana"][k] for k in steps))
        self._add("subcritical_solver.model_synthesis",
                  (s["blocks"] or 0) * (2 * iters + 2 * trials))

    # -- summary -------------------------------------------------------------

    def self_times(self):
        """{op: {layer: self seconds}} and {op: wall seconds} of the root span."""
        child = defaultdict(float)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = {f"{m}.{p}": layer for layer, t in LAYERS.items() for m, p in t}
        per_op = defaultdict(lambda: defaultdict(float))
        wall = {}
        for idx, (op, name, start, end, parent) in enumerate(self.spans):
            if name == "op":
                wall[op] = end - start
                per_op[op]["op.self_s"] += end - start - child[idx]
            else:
                per_op[op][layer_of[name]] += end - start - child[idx]
        return per_op, wall

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "span", "parent", "name", "start_s", "end_s"])
            for idx, (op, name, start, end, parent) in enumerate(self.spans):
                out.writerow([op, idx, parent, name, repr(start), repr(end)])


def layer_metrics(tracer: Tracer, ops: list, untraced_walls: list) -> tuple[dict, dict]:
    """Per-op layer metrics over the traced ops, plus consistency checks."""
    per_op, wall = tracer.self_times()
    counts = [tracer.counters[op] for op in ops]
    repeat = all(dict(c) == dict(counts[0]) for c in counts[1:])
    c = counts[0]
    out = {}
    for layer in LAYERS:
        out[layer + ".calls"] = int(c[layer + ".calls"])
        out[layer + ".self_s"] = statistics.median(per_op[op][layer] for op in ops)
    for key in ("sphere_grid.synthesis.flop", "sphere_grid.synthesis.bytes",
                "sphere_grid.analysis.flop", "sphere_grid.analysis.bytes",
                "sphere_grid.legendre.table_bytes", "mt_functional.composite_nodes",
                "subcritical_solver.iterations"):
        out[key] = int(c[key])
    calls = c["mt_functional.integrator_cache.calls"]
    out["mt_functional.integrator_cache.hit_ratio"] = (
        c["mt_functional.integrator_cache.hits"] / calls if calls else 0.0)
    iters, trials = c["subcritical_solver.iterations"], c["subcritical_solver.trials"]
    out["subcritical_solver.trials_per_iteration"] = trials / iters if iters else 0.0
    out["subcritical_solver.accept_ratio"] = iters / trials if trials else 0.0
    out["subcritical_solver.synthesis_per_iteration"] = (
        c["subcritical_solver.loop_synthesis"] / iters if iters else 0.0)
    out["subcritical_solver.analysis_per_iteration"] = (
        c["subcritical_solver.loop_analysis"] / iters if iters else 0.0)
    traced = statistics.median(wall[op] for op in ops)
    out["trace.overhead_frac"] = traced / statistics.median(untraced_walls) - 1.0
    # share of op wall time explained by self time of layers below the CLI
    out["trace.coverage"] = statistics.median(
        sum(v for k, v in per_op[op].items()
            if not k.startswith(("cli.", "op."))) / wall[op] for op in ops)
    checks = {
        "counters repeat across traced ops": repeat,
        "iterations match the solver's own count":
            c["subcritical_solver.iterations"] == c["subcritical_solver.reported_iterations"],
        "synthesis per iteration == blocks * (2 + 2 * trials)":
            c["subcritical_solver.loop_synthesis"] == c["subcritical_solver.model_synthesis"],
    }
    return out, checks
