"""Subcritical minimization, diagnostics, sweeps, gradient exponents."""

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
    exp_integral,
    integrator_for,
    log_exp_integral,
    troyanov_gap,
)
from sol_lab.identity_checks import kazdan_warner_residual
from sol_lab.singular_geometry import SingularPoint, SingularWeight
from sol_lab.sphere_grid import (
    SHCoefficients,
    ScalarField,
    build_grid,
    dirichlet_energy,
    sh_analysis,
    sh_synthesis,
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

from conftest import random_band_limited

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
    transforms = [grid.transform] + [b.transform for integ in integs
                                     for b in integ.blocks
                                     if hasattr(b, "transform")]
    return len(integs) == 1 and all(len(tr._plm) <= 1 for tr in transforms)


def column_densities(grid, w, u):
    """True when every block density of u is one column."""
    dens = integrator_for(grid, w).density(sh_analysis(u))
    return all(d.shape[-1] == 1 for d in dens.values)


class TestTransformWork:
    def test_one_synthesis_per_block_per_trial(self, transform_counts,
                                               monkeypatch):
        """A step synthesizes each line-search trial once and analyses the
        accepted density once, nothing more: the axis rule is one block.
        The zero start takes the zonal path."""
        init = ScalarField.constant(build_grid(65, 130), 0.0)
        self.check_step_work(init, True, transform_counts, monkeypatch)

    def test_one_synthesis_per_block_per_trial_full_path(
            self, transform_counts, monkeypatch):
        """The same counts on the full path, from a non-zonal start."""
        init = ScalarField.from_function(build_grid(65, 130),
                                         lambda x: 0.1 * x[..., 0])
        self.check_step_work(init, False, transform_counts, monkeypatch)

    @staticmethod
    def check_step_work(init, zonal, transform_counts, monkeypatch):
        grid = init.grid
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        assert len(SingularIntegrator(grid, w).blocks) == 1
        marks = []  # per loop iteration: [syntheses, analyses, trials]
        peak = SingularIntegrator.field_peak
        J = subcritical_solver.eval_J_coeffs

        def field_peak(self, *args):
            marks.append([transform_counts["synthesis"],
                          transform_counts["analysis"], 0])
            return peak(self, *args)

        def eval_J_coeffs(*args):
            if not marks:
                return J(*args)
            marks[-1][2] += 1
            # the solver never backtracks this early: force two rejections
            if len(marks) in (3, 6) and marks[-1][2] <= 2:
                return np.inf
            return J(*args)

        monkeypatch.setattr(SingularIntegrator, "field_peak", field_peak)
        monkeypatch.setattr(subcritical_solver, "eval_J_coeffs", eval_J_coeffs)
        state = minimize(params, quick_config(0.3, max_iterations=12),
                         init, grid)
        assert on_zonal_path(grid) == zonal
        assert state.iterations == 11 and len(marks) == 12
        steps = [(nxt[0] - cur[0], nxt[1] - cur[1], cur[2])
                 for cur, nxt in zip(marks, marks[1:])]
        assert [trials for _, _, trials in steps].count(3) == 2
        for syn, ana, trials in steps:
            assert (syn, ana) == (trials, 1)


def zonal_and_full_J(grid, params, coeffs, monkeypatch):
    """J of the same coefficients on the zonal path and, with their
    zonality hidden, on the full path."""
    integ = SingularIntegrator(grid, params.weight)
    J_zonal = eval_J_coeffs(coeffs, integ.density(coeffs), params)
    with monkeypatch.context() as patch:
        patch.setattr(SHCoefficients, "is_zonal", False)
        J_full = eval_J_coeffs(coeffs, integ.density(coeffs), params)
    return J_zonal, J_full


# (pole, K, init) -> zonal path expected; the last three break the symmetry
PATH_CASES = {
    "zero-init": (NORTH, None, lambda x: 0.0 * x[..., 2], True),
    "zonal-K": (NORTH, lambda x: 1.0 + 0.1 * x[..., 2],
                lambda x: 0.0 * x[..., 2], True),
    "non-zonal-init": (NORTH, None, lambda x: 0.1 * x[..., 1], False),
    "off-pole-weight": ((1.0e-6, 0.0, 1.0), None,
                        lambda x: 0.0 * x[..., 2], False),
    "non-zonal-K": (NORTH, lambda x: 1.0 + 0.1 * x[..., 0],
                    lambda x: 0.0 * x[..., 2], False),
}


class TestZonalPath:
    @pytest.mark.parametrize("L", [64, 128])
    def test_solve_config_matches_full(self, L, monkeypatch):
        """The solve config (alpha = -1/4 north, -1/10 south, eps = 0.3)
        takes the zonal path, and its J is the full integrator's J."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        state = minimize(params, quick_config(0.3),
                         ScalarField.constant(grid, 0.0), grid)
        assert state.converged and on_zonal_path(grid)
        J_zonal, J_full = zonal_and_full_J(grid, params, state.coeffs,
                                           monkeypatch)
        assert J_zonal == pytest.approx(J_full, rel=1e-12)
        assert state.J == pytest.approx(J_full, rel=1e-12)

    @pytest.mark.parametrize("L", [64, 128])
    def test_sweep_config_matches_full(self, L, monkeypatch):
        """The sweep config (alpha = -1/2 north, test-function start, warm
        starts down to eps = 0.05): every solve and diagnosis is zonal."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        cfg = SolverConfig(epsilon_schedule=(0.5, 0.2, 0.1, 0.05))
        report = epsilon_sweep(w, grid, cfg)
        assert on_zonal_path(grid)
        for state in report.states:
            J_zonal, J_full = zonal_and_full_J(grid, state.params,
                                               state.coeffs, monkeypatch)
            assert J_zonal == pytest.approx(J_full, rel=1e-12)
            assert state.J == pytest.approx(J_full, rel=1e-12)

    def test_same_iterates_as_full_path(self, monkeypatch):
        """Forced onto the full path, the solve config takes the same steps."""
        grid = build_grid(65, 130)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        zero = ScalarField.constant(grid, 0.0)
        zonal = minimize(params, quick_config(0.3), zero, grid)
        assert on_zonal_path(grid)
        monkeypatch.setattr(SHCoefficients, "is_zonal", False)
        full = minimize(params, quick_config(0.3), zero, grid)
        assert not on_zonal_path(grid)
        assert zonal.iterations == full.iterations
        assert zonal.J == pytest.approx(full.J, rel=1e-12)
        assert np.max(np.abs(zonal.coeffs.values - full.coeffs.values)) < 1e-12

    def test_off_axis_weight_has_no_zonal_integrator(self, grid16):
        """log h of an off-axis weight covers every longitude, so even a
        zonal field has no one-column density."""
        w = SingularWeight.from_orders([((0.6, 0.0, 0.8), -0.5)])
        assert not column_densities(grid16, w,
                                    ScalarField.constant(grid16, 0.0))

    @pytest.mark.parametrize("pole, K, init, zonal", PATH_CASES.values(),
                             ids=PATH_CASES.keys())
    def test_path_selection(self, pole, K, init, zonal, monkeypatch):
        """minimize and kazdan_warner_residual take the zonal path exactly
        when the weight, log h and the field are invariant about the axis."""
        w = SingularWeight([SingularPoint(np.asarray(pole), -0.5)], K)
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        grid = build_grid(17, 34)
        state = minimize(params, quick_config(0.3, max_iterations=3),
                         ScalarField.from_function(grid, init), grid)
        assert on_zonal_path(grid) == zonal
        assert column_densities(grid, w, state.u) == zonal
        grid = build_grid(17, 34)
        u = ScalarField.from_function(grid, init) + ScalarField.from_function(
            grid, lambda x: 0.5 * x[..., 2] ** 2)
        rep = kazdan_warner_residual(u, params.rho, w)
        assert column_densities(grid, w, u) == zonal
        monkeypatch.setattr(SHCoefficients, "is_zonal", False)
        full = kazdan_warner_residual(u, params.rho, w)
        assert not on_zonal_path(grid)
        assert rep.moment == pytest.approx(full.moment, rel=1e-12)

    @pytest.mark.parametrize("L", [64, 128])
    def test_extremal_field_evaluations(self, L, monkeypatch):
        """eval_J, troyanov_gap and log_exp_integral take the zonal path
        on the extremal field and agree with the full path."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = extremal_weight(-0.5)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        u = extremal_u(ExtremalParams(alpha=-0.5), grid)
        coeffs = sh_analysis(u)
        with monkeypatch.context() as patch:
            patch.setattr(SHCoefficients, "is_zonal", False)
            dens = SingularIntegrator(grid, w).density(coeffs)
        J_full = eval_J_coeffs(coeffs, dens, params)
        assert eval_J(u, params) == pytest.approx(J_full, rel=1e-12)
        assert troyanov_gap(u, w, 0.0) == pytest.approx(J_full / w.rho_bar,
                                                        rel=1e-12)
        assert log_exp_integral(u, w) == pytest.approx(dens.log_integral,
                                                       rel=1e-12)
        assert on_zonal_path(grid)

    def test_zonal_ops_skip_the_full_grid_transform(self):
        """A zonal solve, the axis identity on its state and its diagnosis
        (whole-sphere mass included) never build a Legendre table of every
        order, for the grid or for the integrator; the first non-zonal
        density builds the integrator's."""
        grid = build_grid(65, 130)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        state = minimize(params, quick_config(0.3),
                         ScalarField.constant(grid, 0.0), grid)
        kazdan_warner_residual(state.u, params.rho, w)
        diagnose(state, w, cap_radii=(0.5, 3.5))
        assert on_zonal_path(grid)
        integ = integrator_for(grid, w)
        c = state.coeffs.copy()
        c.values[1, grid.band_limit + 1] = 1.0e-3
        integ.density(c)
        assert [len(b.transform._plm) for b in integ.blocks] == \
            [grid.band_limit + 1] * len(integ.blocks)
        assert len(grid.transform._plm) == 1


class TestMinimize:
    def test_regular_case_constants(self, grid64):
        """m = 0: constants solve the equation, J = 0, immediate stop."""
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        state = minimize(params, quick_config(1.0),
                         ScalarField.constant(grid64, 0.0), grid64)
        assert state.converged
        assert abs(state.J) < 1e-8
        assert np.ptp(state.u.values) < 1e-8

    def test_beats_extremal_competitor(self, grid64):
        """The attained minimum beats the critical family at rho < rho_bar."""
        alpha = -0.5
        w = extremal_weight(alpha)
        params = FunctionalParams(rho=w.rho_bar - 0.1, weight=w)
        state = minimize(params, quick_config(0.1),
                         ScalarField.constant(grid64, 0.0), grid64)
        assert state.converged
        competitor = eval_J(extremal_u(ExtremalParams(alpha=alpha), grid64),
                            params)
        assert state.J <= competitor + 1e-6

    def test_descent_and_normalization(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        state = minimize(params, quick_config(0.2),
                         ScalarField.constant(grid64, 0.0), grid64)
        assert state.converged
        js = [rec["J"] for rec in state.trace]
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
        assert abs(exp_integral(state.u, w) - 1.0) < 1e-8

    def test_second_order_optimality(self, grid64, rng):
        """J(u + s v) >= J(u) - 1e-6 for small H^1-normalized probes."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        state = minimize(params, quick_config(0.2),
                         ScalarField.constant(grid64, 0.0), grid64)
        for _ in range(5):
            v = random_band_limited(grid64, rng, amplitude=1.0)
            c = sh_analysis(v)
            h1 = np.sqrt(dirichlet_energy(c) + np.sum(c.values**2))
            v = v * (1.0 / h1)
            for s in (1e-3, -1e-3):
                assert eval_J(state.u + v * s, params) >= state.J - 1e-6

    def test_nonconverged_flagged(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.2, weight=w)
        cfg = quick_config(0.2, max_iterations=3)
        state = minimize(params, cfg, ScalarField.constant(grid64, 0.0),
                         grid64)
        assert not state.converged
        assert state.residual_norm > cfg.tol_factor * params.rho

    def test_supercritical_rejected(self, grid16):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar + 1.0, weight=w)
        with pytest.raises(ValueError):
            minimize(params, quick_config(0.1),
                     ScalarField.constant(grid16, 0.0), grid16)

    def test_overflow_signalled(self, grid16, monkeypatch):
        # the normalized peak of 12 x3 is ~0.65; a ceiling below it trips
        w = SingularWeight()
        params = FunctionalParams(rho=8.0 * np.pi - 1.0, weight=w)
        monkeypatch.setattr(subcritical_solver, "DEFAULT_CEILING", 0.5)
        with pytest.raises(UnnormalizedBlowupError):
            minimize(params, quick_config(1.0),
                     ScalarField.from_function(grid16,
                                               lambda x: 12.0 * x[..., 2]),
                     grid16)


class TestDiagnose:
    def test_compact_case(self, grid64):
        """m = 0 run: bounded, flagged compact, cap mass = area fraction."""
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        state = minimize(params, quick_config(1.0),
                         ScalarField.constant(grid64, 0.0), grid64)
        diag = diagnose(state, params.weight, cap_radii=(0.5,))
        assert diag.compact_case
        expected = params.rho * (1.0 - np.cos(0.5)) / 2.0
        assert diag.cap_masses[0.5] == pytest.approx(expected, rel=1e-6)

    def test_under_resolved_flag(self, grid16):
        """A bubble scale below 4 pi/L must raise the resolution flag."""
        from sol_lab.subcritical_solver import MinimizerState
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        state = minimize(params, quick_config(0.5),
                         ScalarField.constant(grid16, 0.0), grid16)
        assert not diagnose(state, w).under_resolved  # mild peak, resolved
        spiky = ScalarField.from_function(
            grid16, lambda x: 6.0 * x[..., 2] - 3.0)
        fake = MinimizerState(u=spiky, coeffs=sh_analysis(spiky),
                              params=params, epsilon=0.5, J=0.0,
                              residual_norm=0.0, iterations=0, converged=True)
        diag = diagnose(fake, w)  # t_eps = e^{-3} < 4 pi / 16
        assert diag.t_eps < 4.0 * np.pi / grid16.band_limit
        assert diag.under_resolved

    def test_cap_density_integral_constant(self, grid64):
        """Against the closed form for h = 1, u = const."""
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        state = minimize(params, quick_config(1.0),
                         ScalarField.constant(grid64, 0.0), grid64)
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
        from sol_lab.subcritical_solver import MinimizerState
        w = SingularWeight.from_orders([(NORTH, alpha)])
        state = MinimizerState(
            u=ScalarField.constant(grid16, 0.0),
            coeffs=SHCoefficients.zeros(grid16.band_limit),
            params=FunctionalParams(rho=w.rho_bar - 0.5, weight=w),
            epsilon=0.5, J=0.0, residual_norm=0.0, iterations=0,
            converged=True)
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


class TestGradientExponent:
    def test_annulus_guard(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        state = minimize(params, quick_config(0.5),
                         ScalarField.constant(grid64, 0.0), grid64)
        with pytest.raises(InsufficientAnnulusError):
            gradient_singularity_exponent(state, NORTH)

    def test_positive_order_rejected(self, grid192):
        w = SingularWeight.from_orders([(NORTH, 0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-4, max_iterations=1500)
        state = minimize(params, cfg, ScalarField.constant(grid192, 0.0),
                         grid192)
        with pytest.raises(ValueError):
            gradient_singularity_exponent(state, NORTH)

    def test_mild_order_bounded_gradient(self, grid192):
        """alpha = -1/4: 2 alpha + 1 > 0, the gradient stays bounded and the
        fitted slope is far from the singular range."""
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-5, max_iterations=2000)
        state = minimize(params, cfg, ScalarField.constant(grid192, 0.0),
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
        state = minimize(params, cfg, ScalarField.constant(grid192, 0.0),
                         grid192)
        fit = gradient_singularity_exponent(state, NORTH)
        assert fit["bound"] == pytest.approx(-0.5)
        assert fit["bound"] - 0.2 <= fit["slope"] <= 0.0

    def test_log_order_reported(self, grid192):
        """alpha = -1/2 carries a log factor; record the fit, no assertion."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        params = FunctionalParams(rho=w.rho_bar - 0.5, weight=w)
        cfg = quick_config(0.5, tol_factor=1e-5, max_iterations=2000)
        state = minimize(params, cfg, ScalarField.constant(grid192, 0.0),
                         grid192)
        fit = gradient_singularity_exponent(state, NORTH)
        assert np.isfinite(fit["slope"])
        assert fit["bound"] == 0.0
