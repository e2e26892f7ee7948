"""Subcritical minimization, diagnostics, sweeps, gradient exponents."""

import dataclasses
import itertools
import logging

import numpy as np
import pytest

from sol_lab import subcritical_solver
from sol_lab.closed_forms import ExtremalParams, extremal_u, extremal_weight
from sol_lab.mt_functional import (
    FunctionalParams,
    SingularIntegrator,
    UnnormalizedBlowupError,
    eval_J,
    eval_J_coeffs,
    integrator_for,
    troyanov_gap,
)
from sol_lab.identity_checks import kazdan_warner_residual
from sol_lab.singular_geometry import (SingularPoint, SingularWeight,
                                       axis_frame)
from sol_lab.sphere_grid import (
    SHCoefficients,
    build_grid,
    dirichlet_energy,
)
from sol_lab.subcritical_solver import (
    InsufficientAnnulusError,
    NonConvergedError,
    SolverConfig,
    cap_density_integral,
    diagnose,
    epsilon_sweep,
    gradient_singularity_exponent,
    minimize,
    richardson_extrapolate,
)

from conftest import affine_K, random_band_limited, zero

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def quick_config(*eps, **kw):
    defaults = dict(max_iterations=3000, init="zero")
    defaults.update(kw)
    return SolverConfig(epsilon_schedule=eps or (0.1,), **defaults)


def on_zonal_path(grid):
    """True when the grid has cached one integrator and neither it nor the
    grid transform has built more than the m = 0 Legendre block: only
    one-column passes have run."""
    integs = list(grid._integrator_cache.values())
    transforms = [grid.transform] + [integ.transform for integ in integs]
    return len(integs) == 1 and all(len(tr._plm) <= 1 for tr in transforms)


def column_densities(grid, w, coeffs):
    """True when the density of the field is one column."""
    return integrator_for(grid, w).density(coeffs).values.shape[-1] == 1


class TestTransformWork:
    def test_one_synthesis_per_block_per_trial(self, transform_counts,
                                               monkeypatch):
        """Per outer step: one analysis for the residual, one synthesis and
        one analysis for each Hessian product and one synthesis for each
        line-search trial, nothing more: the axis rule is one transform.
        The zero start takes the zonal path."""
        grid = build_grid(65, 130)
        self.check_step_work(grid, zero(grid), True, transform_counts,
                             monkeypatch)

    def test_one_synthesis_per_block_per_trial_full_path(
            self, transform_counts, monkeypatch):
        """The same counts on the full path, from a non-zonal start."""
        grid = build_grid(65, 130)
        init = grid.transform.analysis_coeffs(0.1 * grid.nodes[..., 0])
        self.check_step_work(grid, init, False, transform_counts, monkeypatch)

    @staticmethod
    def check_step_work(grid, init, zonal, transform_counts, monkeypatch):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        # per outer step: [syntheses, analyses, trials, Hessian products]
        marks = []
        peak = SingularIntegrator.field_peak
        J = subcritical_solver.eval_J_coeffs
        hessian = subcritical_solver.hessian_product

        def field_peak(self, *args):
            marks.append([transform_counts["synthesis"],
                          transform_counts["analysis"], 0, 0])
            return peak(self, *args)

        def eval_J_coeffs(*args):
            if not marks:
                return J(*args)
            marks[-1][2] += 1
            # Newton steps are accepted at full length: force two rejections
            if len(marks) in (2, 4) and marks[-1][2] <= 2:
                return np.inf
            return J(*args)

        def hessian_product(*args):
            marks[-1][3] += 1
            return hessian(*args)

        monkeypatch.setattr(SingularIntegrator, "field_peak", field_peak)
        monkeypatch.setattr(subcritical_solver, "eval_J_coeffs", eval_J_coeffs)
        monkeypatch.setattr(subcritical_solver, "hessian_product",
                            hessian_product)
        state = minimize(params, quick_config(0.3, max_iterations=12),
                         init, grid)
        assert on_zonal_path(grid) == zonal
        assert state.converged and len(marks) == state.iterations + 1
        steps = [(nxt[0] - cur[0], nxt[1] - cur[1], cur[2], cur[3])
                 for cur, nxt in zip(marks, marks[1:])]
        assert [trials for _, _, trials, _ in steps].count(3) == 2
        assert max(products for *_, products in steps) > 1
        for (syn, ana, trials, products), rec in zip(steps, state.trace):
            assert (syn, ana) == (products + trials, 1 + products)
            assert (rec["cg_iterations"], rec["backtracks"]) == \
                (products, trials - 1)
            assert rec["step"] == 0.5 ** (trials - 1)
        assert marks[-1][2:] == [0, 0]
        last = state.trace[-1]
        assert (last["step"], last["backtracks"], last["cg_iterations"]) == \
            (0.0, 0, 0)


def zonal_and_full_J(grid, params, coeffs):
    """J of a zonal column of coefficients on the zonal path and, widened
    to every order, on the full path."""
    integ = SingularIntegrator(grid, params.weight)
    assert coeffs.values.shape[-1] == 1
    J_zonal = eval_J_coeffs(dirichlet_energy(coeffs), coeffs.mean,
                            integ.density(coeffs).log_integral, params)
    full = coeffs.widened()
    J_full = eval_J_coeffs(dirichlet_energy(full), full.mean,
                           integ.density(full).log_integral, params)
    return J_zonal, J_full


# (pole, K, init) -> zonal path expected, init None for the zero column;
# the weight is taken in its axis frame, so a point off the pole is the
# pole; the last two break the symmetry
PATH_CASES = {
    "zero-init": (NORTH, None, None, True),
    "zonal-K": (NORTH, affine_K(0), None, True),
    "off-pole-weight": ((1.0e-6, 0.0, 1.0), None, None, True),
    "non-zonal-init": (NORTH, None, lambda x: 0.1 * x[..., 1], False),
    "non-zonal-K": (NORTH, affine_K(1), None, False),
}


class TestZonalPath:
    @pytest.mark.parametrize("L", [64, 128])
    def test_solve_config_matches_full(self, L):
        """The solve config (alpha = -1/4 north, -1/10 south, eps = 0.3)
        takes the zonal path, and its J is the full integrator's J."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        state = minimize(params, quick_config(0.3), zero(grid), grid)
        assert state.converged and on_zonal_path(grid)
        assert state.iterations <= 15
        J_zonal, J_full = zonal_and_full_J(grid, params, state.coeffs)
        assert J_zonal == pytest.approx(J_full, rel=1e-12)
        assert state.J == pytest.approx(J_full, rel=1e-12)

    @pytest.mark.parametrize("L", [64, 128])
    def test_sweep_config_matches_full(self, L):
        """The sweep config (alpha = -1/2 north, test-function start, warm
        starts down to eps = 0.05): every solve and diagnosis is zonal."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        cfg = SolverConfig(epsilon_schedule=(0.5, 0.2, 0.1, 0.05))
        report = epsilon_sweep(w, grid, cfg)
        assert on_zonal_path(grid)
        for state in [e.state for e in report.entries]:
            assert state.iterations <= 15
            J_zonal, J_full = zonal_and_full_J(grid, state.params,
                                               state.coeffs)
            assert J_zonal == pytest.approx(J_full, rel=1e-12)
            assert state.J == pytest.approx(J_full, rel=1e-12)

    def test_same_iterates_as_full_path(self):
        """Forced onto the full path (the start widened to every order),
        the solve config takes the same steps."""
        grid = build_grid(65, 130)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        zonal = minimize(params, quick_config(0.3), zero(grid), grid)
        assert on_zonal_path(grid)
        full = minimize(params, quick_config(0.3), zero(grid).widened(), grid)
        assert not on_zonal_path(grid)
        assert full.coeffs.values.shape[-1] == 2 * grid.band_limit + 1
        assert zonal.iterations == full.iterations
        assert zonal.J == pytest.approx(full.J, rel=1e-12)
        assert np.max(np.abs(zonal.coeffs.widened().values
                             - full.coeffs.values)) < 1e-12

    def test_off_axis_solve_is_its_axis_twin(self, grid128):
        """One point of order -1/2 at (0.3, 0.5, 0.81), L = 128, rho_bar -
        0.5, zero start, solved in its axis frame: the zonal path, with its
        pole twin's 7 steps and J bit for bit."""
        states = []
        for pole in ((0.3, 0.5, 0.81), NORTH):
            w = axis_frame(SingularWeight.from_orders([(pole, -0.5)]))
            params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
            states.append(minimize(params, quick_config(0.5), zero(grid128),
                                   grid128))
        framed, twin = states
        assert framed.coeffs.values.shape[-1] == 1
        assert framed.iterations == twin.iterations == 7
        assert framed.J == twin.J
        assert framed.J == pytest.approx(-6.984572772030, abs=5e-13)

    @pytest.mark.parametrize("pole, K, init, zonal", PATH_CASES.values(),
                             ids=PATH_CASES.keys())
    def test_path_selection(self, pole, K, init, zonal):
        """minimize and kazdan_warner_residual take the zonal path exactly
        when the framed weight, log h and the field are invariant about the
        axis."""
        w = axis_frame(SingularWeight([SingularPoint(np.asarray(pole), -0.5)],
                                      K))
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        grid = build_grid(17, 34)
        start = zero(grid) if init is None else \
            grid.transform.analysis_coeffs(init(grid.nodes))
        state = minimize(params, quick_config(0.3, max_iterations=3), start,
                         grid)
        assert on_zonal_path(grid) == zonal
        assert column_densities(grid, w, state.coeffs) == zonal
        grid = build_grid(17, 34)
        if init is None:  # 0.5 x3^2, one column
            u = 0.5 * grid.t[:, None] ** 2
        else:
            u = init(grid.nodes) + 0.5 * grid.nodes[..., 2] ** 2
        coeffs = grid.transform.analysis_coeffs(u)
        rep = kazdan_warner_residual(coeffs, grid, params.rho, w)
        assert column_densities(grid, w, coeffs) == zonal
        full = kazdan_warner_residual(coeffs.widened(), grid, params.rho, w)
        assert not on_zonal_path(grid)
        assert rep.moment == pytest.approx(full.moment, rel=1e-12)

    @pytest.mark.parametrize("L", [64, 128])
    def test_extremal_field_evaluations(self, L):
        """eval_J, troyanov_gap and log_exp_integral take the zonal path
        on the extremal field and agree with the full path."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = extremal_weight(-0.5)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        zonal = extremal_u(ExtremalParams(alpha=-0.5), grid)
        coeffs = zonal.widened()
        dens = SingularIntegrator(grid, w).density(coeffs)
        J_full = eval_J_coeffs(dirichlet_energy(coeffs), coeffs.mean,
                               dens.log_integral, params)
        assert eval_J(zonal, grid, params) == pytest.approx(J_full, rel=1e-12)
        assert troyanov_gap(zonal, grid, w, 0.0) == pytest.approx(
            J_full / w.rho_bar, rel=1e-12)
        assert integrator_for(grid, w).log_exp_integral(zonal) == \
            pytest.approx(dens.log_integral, rel=1e-12)
        assert on_zonal_path(grid)

    def test_zonal_ops_skip_the_full_grid_transform(self):
        """A zonal solve, the axis identity on its state and its diagnosis
        (whole-sphere mass included) never build a Legendre table of every
        order, for the grid or for the integrator, and the grid's
        transform, which a weight with a singular point never reads,
        builds none; the first non-zonal density keeps the integrator's
        table of every order, which fits LEGENDRE_BYTES at L = 64."""
        grid = build_grid(65, 130)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        state = minimize(params, quick_config(0.3), zero(grid), grid)
        kazdan_warner_residual(state.coeffs, grid, params.rho, w)
        diagnose(state)
        assert on_zonal_path(grid)
        assert grid.transform._plm == []
        # a cap about an axis point reads the zonal state on one bearing
        full = dataclasses.replace(state, coeffs=state.coeffs.widened())
        for centre, r in itertools.product((NORTH, SOUTH), (0.05, 0.5)):
            one_bearing = cap_density_integral(state, np.array(centre), r)
            assert one_bearing == pytest.approx(
                cap_density_integral(full, np.array(centre), r), rel=1e-14)
        integ = integrator_for(grid, w)
        c = state.coeffs.widened()
        c.order(1)[1] = 1.0e-3
        integ.density(c)
        assert len(integ.transform._plm) == grid.band_limit + 1
        assert grid.transform._plm == []


class TestMemory:
    def test_zonal_solve_stays_off_the_full_grid(self):
        """A zonal solve (alpha = -1/2, eps = 0.05, zero start) at L = 512:
        the first integrator build traces at most 8 MiB (28.6 MiB when axis
        invariance read log h over the whole grid at once) and diagnose at
        most 16 MiB above its entry (136.9 MiB when the state kept its
        field on the full grid), and the grid holds no Legendre table
        after it (diagnose reads the integrator's rule)."""
        import tracemalloc

        grid = build_grid(513, 1026)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.05, weight=w)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            integrator_for(grid, w)
            build = tracemalloc.get_traced_memory()[1] - entry
            tracemalloc.stop()  # the solve itself runs untraced
            state = minimize(params, quick_config(0.05), zero(grid), grid)
            assert state.converged
            tracemalloc.start()
            entry = tracemalloc.get_traced_memory()[0]
            diagnose(state)
            diagnosis = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert build <= 8 << 20
        assert diagnosis <= 16 << 20
        assert grid.transform._plm == []


class TestTruncatedCG:
    """Steihaug's truncated PCG of the Newton step, on synthetic operators:
    the cap CG_MAX and the curvature exit, which the benchmark solves
    (at most 5 products a step) never reach."""

    @staticmethod
    def counted(apply):
        calls = []

        def hess(d):
            calls.append(1)
            return apply(d)
        return hess, calls

    def test_stops_at_the_cap_with_a_descent_direction(self):
        """A diagonal SPD operator with 200 distinct eigenvalues over
        [1, 1e4] needs far more than CG_MAX products for a residual of
        1e-12, so the step stops after exactly CG_MAX, at a descent
        direction."""
        n = 200
        spectrum = np.geomspace(1.0, 1.0e4, n)
        resid = np.random.default_rng(4).normal(size=n)
        hess, calls = self.counted(lambda d: spectrum * d)
        s, products = subcritical_solver._truncated_cg(
            resid, hess, np.ones(n), 1.0e-12 * np.linalg.norm(resid))
        assert products == len(calls) == subcritical_solver.CG_MAX
        assert np.linalg.norm(spectrum * s + resid) > \
            1.0e-12 * np.linalg.norm(resid)
        assert float(np.dot(s, resid)) < 0.0

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_non_positive_curvature_returns_preconditioned_residual(
            self, sign):
        """Non-positive curvature on the first product: the iterate would
        be zero, so the step is -precond r, after one product."""
        n = 12
        resid = np.random.default_rng(5).normal(size=n)
        precond = 1.0 / (1.0 + np.arange(n))
        hess, calls = self.counted(lambda d: sign * d)
        s, products = subcritical_solver._truncated_cg(resid, hess, precond,
                                                       1.0e-12)
        assert products == len(calls) == 1
        assert np.array_equal(s, -precond * resid)


class TestMinimize:
    def test_regular_case_constants(self, grid64):
        """m = 0: constants solve the equation, J = 0, immediate stop."""
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        state = minimize(params, quick_config(1.0), zero(grid64), grid64)
        assert state.converged
        assert abs(state.J) < 1e-8
        assert np.abs(state.coeffs.values[1:]).max() < 1e-8

    def test_beats_extremal_competitor(self, grid64):
        """The attained minimum beats the critical family at rho < rho_bar."""
        alpha = -0.5
        w = extremal_weight(alpha)
        params = FunctionalParams(rho=w.rho_bar - 0.1, weight=w)
        state = minimize(params, quick_config(0.1),
                         zero(grid64), grid64)
        assert state.converged
        competitor = eval_J(extremal_u(ExtremalParams(alpha=alpha), grid64),
                            grid64, params)
        assert state.J <= competitor + 1e-6

    def test_descent_and_normalization(self, grid64, monkeypatch):
        """J decreases, and the state is normalized once, at the return:
        every iterate keeps the start's a_00 and every candidate its mean
        (here those of u = 3), each step's lambda is its record's normalized peak, and
        the returned state has int h e^u = 1."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        iterates, candidates = [], []
        residual = subcritical_solver.density_residual
        J = subcritical_solver.eval_J_coeffs

        def density_residual(coeffs, dens, *args):
            iterates.append((coeffs.order(0)[0], dens))
            return residual(coeffs, dens, *args)

        def eval_J_coeffs(energy, mean, *args):
            candidates.append(mean)
            return J(energy, mean, *args)

        monkeypatch.setattr(subcritical_solver, "density_residual",
                            density_residual)
        monkeypatch.setattr(subcritical_solver, "eval_J_coeffs",
                            eval_J_coeffs)
        start = zero(grid64).shifted(3.0)
        state = minimize(params, quick_config(0.2), start, grid64)
        assert state.converged
        js = [rec["J"] for rec in state.trace]
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
        a00 = start.order(0)[0]
        assert len(candidates) >= len(iterates) == len(state.trace) > 1
        assert all(mean == start.mean for mean in candidates)
        for rec, (c, dens) in zip(state.trace, iterates):
            assert c == a00
            assert rec["lambda"] == dens.peak - dens.log_integral
        log_E = integrator_for(grid64, w).log_exp_integral(state.coeffs)
        assert abs(log_E) <= 1e-14

    def test_second_order_optimality(self, grid64, rng):
        """J(u + s v) >= J(u) - 1e-6 for small H^1-normalized probes."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        state = minimize(params, quick_config(0.2),
                         zero(grid64), grid64)
        a = state.coeffs.widened().values
        for _ in range(5):
            c = grid64.transform.analysis_coeffs(
                random_band_limited(grid64, rng, amplitude=1.0))
            h1 = np.sqrt(dirichlet_energy(c) + np.sum(c.values**2))
            v = c.values * (1.0 / h1)
            for s in (1e-3, -1e-3):
                probe = SHCoefficients(a + v * s)
                assert eval_J(probe, grid64, params) >= state.J - 1e-6

    def test_negative_curvature_falls_back_to_descent(self, grid64,
                                                      monkeypatch):
        """A Hessian of negative curvature stops CG at its first product,
        and the direction is the preconditioned descent direction
        -(-Delta)^{-1} r: on l >= 1 the iterate moves by the accepted step
        length times it."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        seen = []  # (coefficients, residual) at the start of each step
        residual = subcritical_solver.density_residual

        def density_residual(coeffs, *args):
            r = residual(coeffs, *args)
            seen.append((coeffs.values, r.values))
            return r

        monkeypatch.setattr(subcritical_solver, "density_residual",
                            density_residual)
        monkeypatch.setattr(subcritical_solver, "hessian_product",
                            lambda v, *args: -v)
        state = minimize(params, quick_config(0.2, max_iterations=3),
                         zero(grid64), grid64)
        assert [rec["cg_iterations"] for rec in state.trace] == [1, 1, 1]
        assert state.trace[-1]["J"] < state.trace[0]["J"]
        l = np.arange(grid64.band_limit + 1)[1:, None]
        for rec, (a0, r0), (a1, _) in zip(state.trace, seen, seen[1:]):
            descent = -r0[1:] / (l * (l + 1.0))
            assert np.abs(a1[1:] - a0[1:] - rec["step"] * descent).max() \
                <= 1e-12 * np.abs(descent).max()

    def test_solver_logging(self, grid64, caplog):
        """The sol_lab.solver logger writes one debug line per outer step,
        matching its trace record, and one info line per solve."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        with caplog.at_level(logging.DEBUG, logger="sol_lab.solver"):
            state = minimize(params, quick_config(0.2),
                             zero(grid64), grid64)
        lines = [r for r in caplog.records if r.name == "sol_lab.solver"]
        debug = [r.getMessage() for r in lines if r.levelno == logging.DEBUG]
        info = [r.getMessage() for r in lines if r.levelno == logging.INFO]
        assert state.converged and len(debug) == state.iterations > 1
        for rec, msg in zip(state.trace, debug):
            assert msg.startswith(f"step {rec['iteration']}: J={rec['J']:.15g}")
            assert f"backtracks={rec['backtracks']} " \
                f"cg={rec['cg_iterations']}" in msg
        products = sum(rec["cg_iterations"] for rec in state.trace)
        assert len(info) == 1 and info[0].startswith("minimize rho=")
        assert f"converged after {state.iterations} steps ({products} " \
            "Hessian products)" in info[0]

    def test_nonconverged_flagged(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        cfg = quick_config(0.2, max_iterations=3)
        state = minimize(params, cfg, zero(grid64),
                         grid64)
        assert not state.converged
        assert state.residual_norm > cfg.tol_factor * params.rho

    def test_supercritical_rejected(self, grid16):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar + 1.0, weight=w)
        with pytest.raises(ValueError):
            minimize(params, quick_config(0.1),
                     zero(grid16), grid16)

    def test_overflow_signalled(self, grid16, monkeypatch):
        # the normalized peak of 12 x3 is ~0.65; a ceiling below it trips
        w = SingularWeight()
        params = FunctionalParams(rho=8.0 * np.pi - 1.0, weight=w)
        monkeypatch.setattr(subcritical_solver, "DEFAULT_CEILING", 0.5)
        with pytest.raises(UnnormalizedBlowupError):
            minimize(params, quick_config(1.0),  # 12 x3, one column
                     grid16.transform.analysis_coeffs(
                         12.0 * grid16.t[:, None]), grid16)


class TestDiagnose:
    @staticmethod
    def unsolved(coeffs, grid, w):
        """A state of these coefficients at rho = rho_bar - 0.5."""
        from sol_lab.subcritical_solver import MinimizerState
        return MinimizerState(
            coeffs=coeffs, grid=grid,
            params=FunctionalParams(rho=w.rho_bar - 0.5, weight=w),
            J=0.0, residual_norm=0.0, iterations=0, converged=True)

    def test_compact_case(self, grid64):
        """m = 0 run: bounded, flagged compact, cap mass = area fraction."""
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        state = minimize(params, quick_config(1.0),
                         zero(grid64), grid64)
        diag = diagnose(state)
        assert diag.compact_case
        expected = (1.0 - np.cos(0.5)) / 2.0
        assert cap_density_integral(state, diag.center, 0.5) == \
            pytest.approx(expected, rel=1e-6)

    def test_peak_position_owns_its_data(self, grid16):
        """A peak on a node is a copy, not a view that keeps the whole
        node array of the rule alive: with no point, and with one of
        positive order, where the centre is the peak itself."""
        from sol_lab.subcritical_solver import MinimizerState
        for w in (SingularWeight(),
                  SingularWeight.from_orders([(NORTH, 0.5)])):
            state = MinimizerState(
                coeffs=grid16.transform.analysis_coeffs(grid16.nodes[..., 0]),
                grid=grid16, params=FunctionalParams(rho=1.0, weight=w),
                J=0.0, residual_norm=0.0, iterations=0, converged=True)
            diag = diagnose(state)
            assert diag.p_eps[0] > 0.9  # on a node, near +e1
            assert diag.p_eps.base is None and diag.center.base is None

    def test_under_resolved_flag(self, grid16):
        """A bubble scale below 4 pi/L must raise the resolution flag; the
        constant minimizer of the problem without singular points is
        resolved on any grid."""
        flat = SingularWeight()
        state = minimize(FunctionalParams(rho=8.0 * np.pi - 1.0, weight=flat),
                         quick_config(1.0), zero(grid16), grid16)
        diag = diagnose(state)  # u = -log 4 pi, t_eps = sqrt(4 pi)
        assert diag.lambda_eps == pytest.approx(-np.log(4.0 * np.pi))
        assert not diag.under_resolved
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        spiky = grid16.transform.analysis_coeffs(  # 6 x3 - 3, one column
            6.0 * grid16.t[:, None] - 3.0)
        diag = diagnose(self.unsolved(spiky, grid16, w))  # t_eps = e^{-3}
        assert diag.t_eps < 4.0 * np.pi / grid16.band_limit
        assert diag.under_resolved

    def test_non_zonal_diagnosis_is_one_pass_on_the_rule(self,
                                                         monkeypatch):
        """A non-zonal state's values and the three coefficient sets of
        its gradient are synthesized as one stack on the integrator's
        transform, whose table fits LEGENDRE_BYTES and is kept from that
        pass, and that stack is the only pass: the grid's transform makes
        none, and the whole-sphere mass (t_eps = 0.68, so 10 t_eps covers
        the sphere) reads the stack's values.  The values and gradient
        are bit for bit those of separate passes."""
        from sol_lab import sphere_grid
        from sol_lab.sphere_grid import (gradient_magnitude,
                                         random_band_limited_batch)
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        coeffs = random_band_limited_batch(grid, np.random.default_rng(4), 1)
        state = self.unsolved(SHCoefficients(coeffs.values[0]), grid, w)
        tr = integrator_for(grid, w).transform
        passes = []
        synthesis = sphere_grid.ProductTransform.synthesis_values

        def recorded(self, c):
            passes.append((self, c.values.shape))
            return synthesis(self, c)

        monkeypatch.setattr(sphere_grid.ProductTransform, "synthesis_values",
                            recorded)
        diag = diagnose(state)
        monkeypatch.undo()
        assert 10.0 * diag.t_eps >= np.pi - 0.2
        assert passes == [(tr, (4,) + state.coeffs.values.shape)]
        assert len(tr._plm) == grid.band_limit + 1
        assert grid.transform._plm == []
        vals, grad = gradient_magnitude(state.coeffs, tr.synthesis_values,
                                        tr.t[:, None], values=True)
        assert np.array_equal(vals, tr.synthesis_values(state.coeffs))
        assert np.array_equal(grad, gradient_magnitude(
            state.coeffs, tr.synthesis_values, tr.t[:, None]))
        assert diag.lambda_eps >= np.max(vals)

    def test_wide_profile_stays_on_the_sphere(self):
        """The profile is u - lambda at the rule's nodes on a meridian
        through the centre, ascending in true distance within [0, pi],
        also for a state wider than pi/5, where 5 t_eps passes the
        antipode."""
        from sol_lab.sphere_grid import random_band_limited_batch
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        wide = random_band_limited_batch(grid, np.random.default_rng(4), 1)
        diag = diagnose(self.unsolved(SHCoefficients(wide.values[0]), grid,
                                      w))
        assert 5.0 * diag.t_eps > np.pi
        r = diag.profile_radii
        assert r.size > 0 and np.all(np.diff(r) >= 0.0)
        assert 0.0 <= r[0] and r[-1] <= np.pi

    @pytest.mark.parametrize("orders", [[], [(NORTH, 0.5)]],
                             ids=["no-point", "positive-order"])
    def test_off_axis_profile_starts_at_the_center(self, orders):
        """About a centre off the axis (a spiky state peaking near +e2,
        with no point or one of positive order, so the centre is the peak
        node) the profile runs along the peak's meridian from the centre
        itself, at distance exactly 0 (arccos of the dot would read up to
        2.6e-8 on this grid, where the node's squared norm rounds below 1),
        to 5 t_eps."""
        grid = build_grid(33, 66)
        spiky = grid.transform.analysis_coeffs(  # 6 x2 + 2 x3
            6.0 * grid.nodes[..., 1] + 2.0 * grid.nodes[..., 2])
        diag = diagnose(self.unsolved(spiky, grid,
                                      SingularWeight.from_orders(orders)))
        assert not diag.compact_case and diag.center[1] > 0.9
        r = diag.profile_radii
        assert r.size > 1 and np.all(np.diff(r) >= 0.0)
        assert r[0] == 0.0 and diag.profile[0] == 0.0
        assert r[-1] <= 5.0 * diag.t_eps

    def test_profile_error_is_a_max_over_the_rule_nodes(self):
        """profile_error is the largest |u - lambda - bubble(d / t_eps)|
        over every node of the rule within 5 t_eps of the centre (a
        spiky zonal state, t_eps = e^-3), here from a separate one-field
        pass (a zonal pass alone rounds other last bits than the stack)."""
        from sol_lab.closed_forms import planar_bubble
        from sol_lab.sphere_grid import ring_points
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        state = self.unsolved(grid.transform.analysis_coeffs(
            6.0 * grid.t[:, None] - 3.0), grid, w)
        diag = diagnose(state)
        assert diag.t_eps == pytest.approx(np.exp(-3.0))
        tr = integrator_for(grid, w).transform
        nodes = ring_points(tr.t, tr.phi)
        u = np.broadcast_to(tr.synthesis_values(state.coeffs),
                            nodes.shape[:-1])
        d = np.arccos(np.clip(nodes @ diag.center, -1.0, 1.0))
        near = d <= 5.0 * diag.t_eps
        bubble = planar_bubble(d[near] / diag.t_eps,
                               w.bubble_constant(diag.center), w.alpha)
        assert diag.profile_error == pytest.approx(
            np.max(np.abs(u[near] - diag.lambda_eps - bubble)), rel=1e-12)

    def test_zonal_point_syntheses(self, monkeypatch):
        """A zonal alpha = -1/2 state is synthesized at points only on the
        cap's polar rule, when 10 t_eps < pi - 0.2 (its value at the
        singular point is ``axis_values``, which runs no recurrence):
        never for the flat state (t_eps = 1) and once for a spiky one
        (t_eps = e^-3)."""
        from sol_lab import sphere_grid
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        calls = []
        at_angles = sphere_grid.synthesis_at_angles

        def recorded(c, t, phi):
            calls.append(c.values.shape[-1])
            return at_angles(c, t, phi)

        monkeypatch.setattr(sphere_grid, "synthesis_at_angles", recorded)
        for coeffs, count in ((zero(grid), 0), (
                grid.transform.analysis_coeffs(6.0 * grid.t[:, None] - 3.0),
                1)):
            calls.clear()
            diagnose(self.unsolved(coeffs, grid, w))
            assert calls == [1] * count

    def test_non_zonal_sweep_runs_the_rule_recurrence_once(self,
                                                           monkeypatch):
        """A non-zonal sweep solves and diagnoses every entry on the
        integrator's rule, whose table of every order is kept (it fits
        LEGENDRE_BYTES): the Legendre recurrence runs over its rings once
        in a sweep, and over the grid's rings never."""
        from sol_lab import sphere_grid
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)], K=affine_K(1))
        tr = integrator_for(grid, w).transform
        rings = {name: t.t[t._order[:t._reps]]
                 for name, t in (("rule", tr), ("grid", grid.transform))}
        runs = []
        groups = sphere_grid._legendre_groups

        def recorded(L, t, m_max, floor, work=0):
            runs.extend((name, m_max) for name, r in rings.items()
                        if np.array_equal(t, r))
            return groups(L, t, m_max, floor, work)

        monkeypatch.setattr(sphere_grid, "_legendre_groups", recorded)
        report = epsilon_sweep(w, grid, quick_config(0.5, 0.3, 0.2))
        assert len(report.entries) == 3
        assert all(e.state.coeffs.values.shape[-1] > 1
                   for e in report.entries)
        assert runs == [("rule", 0), ("rule", grid.band_limit)]

    def test_cap_density_integral_constant(self, grid64):
        """Against the closed form for h = 1, u = const."""
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        state = minimize(params, quick_config(1.0),
                         zero(grid64), grid64)
        center = np.array([0.0, 0.3, np.sqrt(1.0 - 0.09)])
        for r in (0.3, 1.0):
            val = cap_density_integral(state, center, r)
            # u = -log(4 pi): the density is 1/(4 pi), mass = cap area frac
            assert val == pytest.approx((1.0 - np.cos(r)) / 2.0, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5])
    def test_cap_density_integral_on_singular_point(self, grid16, alpha):
        """Cap centred on the singularity, u = 0, against the closed form.

        At alpha = -0.9 the radial nodes reach r ~ 1e-19, where
        1 - <p, x> rounds to 0 unless it is taken as 2 sin^2(r/2).
        """
        w = SingularWeight.from_orders([(NORTH, alpha)])
        state = self.unsolved(SHCoefficients.zeros(grid16.band_limit),
                              grid16, w)
        for r in (1e-3, 0.3, 1.0):
            exact = (2.0 * np.pi * (np.e / 2.0) ** alpha
                     * (2.0 * np.sin(0.5 * r) ** 2) ** (1.0 + alpha)
                     / (1.0 + alpha))
            val = cap_density_integral(state, np.array(NORTH), r)
            assert val == pytest.approx(exact, rel=1e-12)


class TestSweep:
    def test_blowup_trends(self, grid64):
        """Single negative-order mini sweep: amplitude grows, mean decay shrinks."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        cfg = SolverConfig(epsilon_schedule=(0.4, 0.2), max_iterations=3000)
        report = epsilon_sweep(w, grid64, cfg)
        lams = report.column("lambda")
        assert lams[1] > lams[0]
        decay = [abs(v) for v in report.column("mean_decay")]
        assert decay[1] < decay[0]
        errs = report.column("profile_error")
        assert errs[1] < errs[0] + 0.02
        fracs = [e.row()["cap_mass_10t"] / w.rho_bar for e in report.entries]
        assert fracs[1] > fracs[0] - 0.02  # mass quantization trend

    def test_rows_report_the_farfield_error(self, grid64):
        """Each sweep row holds the far-field error that diagnose computes
        for its state."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        report = epsilon_sweep(w, grid64, SolverConfig(
            epsilon_schedule=(0.4, 0.2), max_iterations=3000))
        rows = report.column("farfield_error")
        assert rows == [diagnose(e.state).farfield_error
                        for e in report.entries]
        assert all(np.isfinite(rows))

    def test_regular_sweep_stays_bounded(self, grid64):
        """m = 0: constants minimize at every epsilon and J stays 0."""
        w = SingularWeight()
        cfg = SolverConfig(epsilon_schedule=(1.0, 0.5), max_iterations=500,
                           init="zero")
        report = epsilon_sweep(w, grid64, cfg)
        assert max(abs(v) for v in report.column("J")) < 1e-8
        assert max(report.column("lambda")) < 1.0

    def test_nonconvergence_flags_sweep(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        cfg = SolverConfig(epsilon_schedule=(0.4,), max_iterations=2,
                           init="zero")
        with pytest.raises(NonConvergedError):
            epsilon_sweep(w, grid64, cfg)

    def test_unknown_init_rejected(self):
        """A misspelt start is an error, not a silent start from zero."""
        with pytest.raises(ValueError, match="init"):
            SolverConfig(init="test_function")

    def test_richardson_recovers_power_law(self):
        eps = np.array([0.5, 0.2, 0.1, 0.05])
        J = -7.0 + 3.0 * eps**0.8
        j0, p = richardson_extrapolate(eps, J)
        assert j0 == pytest.approx(-7.0, abs=1e-9)
        assert p == pytest.approx(0.8, abs=1e-6)

    @staticmethod
    def brentq_extrapolate(eps, J):
        """The fit of ``richardson_extrapolate`` with scipy's brentq on the
        same bracket and xtol, and the same linear fallback."""
        from scipy.optimize import brentq
        (e1, e2, e3), (j1, j2, j3) = eps[-3:], J[-3:]

        def mismatch(p):
            return (j1 - j2) / (j2 - j3) - (e1**p - e2**p) / (e2**p - e3**p)

        try:
            p = brentq(mismatch, 0.05, 4.0, xtol=1.0e-10)
        except ValueError:
            return j3 - (j2 - j3) / (e2 - e3) * e3, 1.0
        return j3 - (j2 - j3) / (e2**p - e3**p) * e3**p, p

    def test_richardson_root_matches_brentq(self):
        """p and J0 agree with brentq: to rounding on the seed-0 benchmark
        sweep, where brentq's last step lands on the root, and within its
        xtol of 1e-10 on random triples, fallbacks included."""
        eps = np.array([0.5, 0.2, 0.1, 0.05])
        J = np.array([-6.9845727720295265, -7.734550042319945,
                      -8.018415067584861, -8.166925237142511])
        j0, p = richardson_extrapolate(eps, J)
        want_j0, want_p = self.brentq_extrapolate(eps, J)
        assert p == pytest.approx(want_p, abs=1e-13)
        assert j0 == pytest.approx(want_j0, rel=1e-14)
        rng = np.random.default_rng(5)
        fallbacks = 0
        for _ in range(200):
            eps = np.sort(rng.uniform(0.01, 1.0, 3))[::-1]
            J = (-8.0 + rng.uniform(0.1, 3.0) * eps ** rng.uniform(0.2, 3.0)
                 + rng.normal(0.0, 1.0e-3, 3))
            j0, p = richardson_extrapolate(eps, J)
            want_j0, want_p = self.brentq_extrapolate(eps, J)
            fallbacks += want_p == 1.0
            assert p == pytest.approx(want_p, abs=1.5e-10)
            assert j0 == pytest.approx(want_j0, rel=1e-9)
        assert 0 < fallbacks < 200


class TestGradientExponent:
    def test_annulus_guard(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        state = minimize(params, quick_config(0.5),
                         zero(grid64), grid64)
        with pytest.raises(InsufficientAnnulusError):
            gradient_singularity_exponent(state, NORTH)

    def test_positive_order_rejected(self, grid192):
        w = SingularWeight.from_orders([(NORTH, 0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-4, max_iterations=1500)
        state = minimize(params, cfg, zero(grid192),
                         grid192)
        with pytest.raises(ValueError):
            gradient_singularity_exponent(state, NORTH)

    def test_mild_order_bounded_gradient(self, grid192):
        """alpha = -1/4: 2 alpha + 1 > 0, the gradient stays bounded and the
        fitted slope is far from the singular range."""
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-5, max_iterations=2000)
        state = minimize(params, cfg, zero(grid192),
                         grid192)
        fit = gradient_singularity_exponent(state, NORTH)
        assert fit["slope"] >= -0.05
        assert fit["bound"] == 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="the fitted slope near the band-limit scale overshoots the "
               "gradient-growth exponent: measured -1.42 @ L=192, -0.88 @ "
               "L=256, -0.82 @ L=320, -0.80 @ L=384 against the [-0.7, 0] "
               "window; the window is unreachable at desk-scale band limits")
    def test_strong_order_window(self, grid192):
        w = SingularWeight.from_orders([(NORTH, -0.75)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-5, max_iterations=2000)
        state = minimize(params, cfg, zero(grid192),
                         grid192)
        fit = gradient_singularity_exponent(state, NORTH)
        assert fit["bound"] == pytest.approx(-0.5)
        assert fit["bound"] - 0.2 <= fit["slope"] <= 0.0

    def test_log_order_reported(self, grid192):
        """alpha = -1/2 carries a log factor; record the fit, no assertion."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-5, max_iterations=2000)
        state = minimize(params, cfg, zero(grid192),
                         grid192)
        fit = gradient_singularity_exponent(state, NORTH)
        assert np.isfinite(fit["slope"])
        assert fit["bound"] == 0.0
