"""Subcritical minimization, diagnostics, sweeps, gradient exponents."""

import itertools
import logging

import numpy as np
import pytest

from sol_lab import mt_functional, sphere_grid, subcritical_solver
from sol_lab.closed_forms import extremal_u, extremal_weight
from sol_lab.mt_functional import (
    CAP_RADIAL_NODES,
    SingularIntegrator,
    UnnormalizedBlowupError,
    axis_integrator,
    cap_radial_nodes,
    eval_J,
    eval_J_coeffs,
    integrator_for,
    radial_rule,
    troyanov_gap,
)
from sol_lab.identity_checks import RegimeError, kazdan_warner_residual
from sol_lab.singular_geometry import (SingularPoint, SingularWeight,
                                       axis_frame)
from sol_lab.sphere_grid import (
    ProductTransform,
    SHCoefficients,
    _orthonormal_frame,
    build_grid,
    dirichlet_energy,
    normalized,
    on_axis,
    random_band_limited_batch,
    ring_points,
    rotated,
    synthesis_at_points,
)
from sol_lab.subcritical_solver import (
    InsufficientAnnulusError,
    NonConvergedError,
    cap_density_integral,
    diagnose,
    epsilon_sweep,
    extrapolate_blowup,
    gradient_singularity_exponent,
    minimize,
)

from conftest import affine_K, random_band_limited, zero

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


QUICK = {"max_iterations": 3000}  # the solver's settings for a quick solve


def on_zonal_path(grid):
    """True when the grid holds an integrator and neither it nor the grid
    transform has built more than the m = 0 Legendre block: only
    one-column passes have run."""
    if grid._integrator is None:
        return False
    _, integ = grid._integrator
    return all(len(tr._plm) <= 1 for tr in (grid.transform, integ.transform))


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
        state = minimize(init, grid, w, w.rho_bar - 0.3, max_iterations=12)
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


def zonal_and_full_J(grid, w, rho, coeffs):
    """J_rho of a zonal column of coefficients on the zonal path and,
    widened to every order, on the full path."""
    integ = axis_integrator(grid, w)
    assert coeffs.values.shape[-1] == 1
    J_zonal = eval_J_coeffs(coeffs, integ.density(coeffs).log_integral, rho)
    full = coeffs.widened()
    J_full = eval_J_coeffs(full, integ.density(full).log_integral, rho)
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
        rho = w.rho_bar - 0.3
        state = minimize(zero(grid), grid, w, rho, **QUICK)
        assert state.converged and on_zonal_path(grid)
        assert state.iterations <= 15
        J_zonal, J_full = zonal_and_full_J(grid, w, rho, state.coeffs)
        assert J_zonal == pytest.approx(J_full, rel=1e-12)
        assert state.J == pytest.approx(J_full, rel=1e-12)

    @pytest.mark.parametrize("L", [64, 128])
    def test_sweep_config_matches_full(self, L):
        """The sweep config (alpha = -1/2 north, test-function start, warm
        starts down to eps = 0.05): every solve and diagnosis is zonal."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        report = epsilon_sweep(w, grid, (0.5, 0.2, 0.1, 0.05),
                               max_iterations=4000, init_epsilon=0.01)
        assert on_zonal_path(grid)
        for rho, state in [(e.rho, e.state) for e in report.entries]:
            assert state.iterations <= 15
            J_zonal, J_full = zonal_and_full_J(grid, w, rho, state.coeffs)
            assert J_zonal == pytest.approx(J_full, rel=1e-12)
            assert state.J == pytest.approx(J_full, rel=1e-12)

    def test_same_iterates_as_full_path(self):
        """Forced onto the full path (the start widened to every order),
        the solve config takes the same steps."""
        grid = build_grid(65, 130)
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
        rho = w.rho_bar - 0.3
        zonal = minimize(zero(grid), grid, w, rho, **QUICK)
        assert on_zonal_path(grid)
        full = minimize(zero(grid).widened(), grid, w, rho, **QUICK)
        assert not on_zonal_path(grid)
        assert full.coeffs.values.shape[-1] == 2
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
            states.append(minimize(zero(grid128), grid128, w, w.rho_bar - 0.5,
                                   **QUICK))
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
        axis.  kazdan_warner_residual refuses a K, for which the axis
        identity does not hold; there its moment, the density's sum on the
        rule, is taken here."""
        w = axis_frame(SingularWeight([SingularPoint(np.asarray(pole), -0.5)],
                                      K))
        rho = w.rho_bar - 0.3
        grid = build_grid(17, 34)
        start = zero(grid) if init is None else \
            grid.transform.analysis_coeffs(init(grid.nodes))
        state = minimize(start, grid, w, rho, max_iterations=3)
        assert on_zonal_path(grid) == zonal
        assert column_densities(grid, w, state.coeffs) == zonal
        grid = build_grid(17, 34)
        if init is None:  # 0.5 x3^2, one column
            u = 0.5 * grid.t[:, None] ** 2
        else:
            u = init(grid.nodes) + 0.5 * grid.nodes[..., 2] ** 2
        coeffs = grid.transform.analysis_coeffs(u)

        def moment(c):
            if K is None:
                return kazdan_warner_residual(c, grid, w, rho).moment
            with pytest.raises(RegimeError, match="K == 1 only"):
                kazdan_warner_residual(c, grid, w, rho)
            integ = integrator_for(grid, w)
            dens, tr = integ.density(c), integ.transform
            return tr.integral(dens.values * tr.t[:, None]) / dens.total

        rep = moment(coeffs)
        assert column_densities(grid, w, coeffs) == zonal
        full = moment(coeffs.widened())
        assert not on_zonal_path(grid)
        assert rep == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("L", [64, 128])
    def test_extremal_field_evaluations(self, L):
        """eval_J, troyanov_gap and log_exp_integral take the zonal path
        on the extremal field and agree with the full path."""
        grid = build_grid(L + 1, 2 * L + 2)
        w = extremal_weight(-0.5)
        zonal = extremal_u(grid, -0.5)
        coeffs = zonal.widened()
        dens = axis_integrator(grid, w).density(coeffs)
        J_full = eval_J_coeffs(coeffs, dens.log_integral, w.rho_bar)
        assert eval_J(zonal, grid, w, w.rho_bar) == pytest.approx(J_full,
                                                                  rel=1e-12)
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
        rho = w.rho_bar - 0.3
        state = minimize(zero(grid), grid, w, rho, **QUICK)
        kazdan_warner_residual(state.coeffs, grid, w, rho)
        diagnose(state.coeffs, grid, w, rho)
        assert on_zonal_path(grid)
        assert grid.transform._plm == []
        # a cap about an axis point reads the zonal state on one bearing
        for centre, r in itertools.product((NORTH, SOUTH), (0.05, 0.5)):
            one_bearing, full = (
                cap_density_integral(c, grid, w, np.array(centre), r)
                for c in (state.coeffs, state.coeffs.widened()))
            assert one_bearing == pytest.approx(full, rel=1e-14)
        integ = integrator_for(grid, w)
        c = state.coeffs.widened()
        c.order(1)[0] = 1.0e-3
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
        rho = w.rho_bar - 0.05
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            integrator_for(grid, w)
            build = tracemalloc.get_traced_memory()[1] - entry
            tracemalloc.stop()  # the solve itself runs untraced
            state = minimize(zero(grid), grid, w, rho, **QUICK)
            assert state.converged
            tracemalloc.start()
            entry = tracemalloc.get_traced_memory()[0]
            diagnose(state.coeffs, grid, w, rho)
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
        state = minimize(zero(grid64), grid64, SingularWeight(),
                         8.0 * np.pi - 1.0, **QUICK)
        assert state.converged
        assert abs(state.J) < 1e-8
        assert np.abs(state.coeffs.values[1:]).max() < 1e-8

    def test_beats_extremal_competitor(self, grid64):
        """The attained minimum beats the critical family at rho < rho_bar."""
        alpha = -0.5
        w = extremal_weight(alpha)
        rho = w.rho_bar - 0.1
        state = minimize(zero(grid64), grid64, w, rho, **QUICK)
        assert state.converged
        competitor = eval_J(extremal_u(grid64, alpha), grid64, w, rho)
        assert state.J <= competitor + 1e-6

    def test_descent_and_normalization(self, grid64, monkeypatch):
        """J decreases, and the state is normalized once, at the return:
        every iterate keeps the start's a_00 and every candidate its mean
        (here those of u = 3), each step's lambda is its record's normalized peak, and
        the returned state has int h e^u = 1."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        iterates, candidates = [], []
        residual = subcritical_solver.density_residual
        J = subcritical_solver.eval_J_coeffs

        def density_residual(coeffs, dens, *args):
            iterates.append((coeffs.order(0)[0], dens))
            return residual(coeffs, dens, *args)

        def eval_J_coeffs(coeffs, *args):
            candidates.append(coeffs.mean)
            return J(coeffs, *args)

        monkeypatch.setattr(subcritical_solver, "density_residual",
                            density_residual)
        monkeypatch.setattr(subcritical_solver, "eval_J_coeffs",
                            eval_J_coeffs)
        start = zero(grid64).shifted(3.0)
        state = minimize(start, grid64, w, w.rho_bar - 0.2, **QUICK)
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
        rho = w.rho_bar - 0.2
        state = minimize(zero(grid64), grid64, w, rho, **QUICK)
        a = state.coeffs.widened().values
        for _ in range(5):
            c = grid64.transform.analysis_coeffs(
                random_band_limited(grid64, rng, amplitude=1.0))
            h1 = np.sqrt(dirichlet_energy(c) + np.sum(c.values**2))
            v = c.values * (1.0 / h1)
            for s in (1e-3, -1e-3):
                probe = SHCoefficients(a + v * s)
                assert eval_J(probe, grid64, w, rho) >= state.J - 1e-6

    def test_negative_curvature_falls_back_to_descent(self, grid64,
                                                      monkeypatch):
        """A Hessian of negative curvature stops CG at its first product,
        and the direction is the preconditioned descent direction
        -(-Delta)^{-1} r: on l >= 1 the iterate moves by the accepted step
        length times it.  The cap's last record measures the returned
        state and takes no product."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
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
        state = minimize(zero(grid64), grid64, w, w.rho_bar - 0.2,
                         max_iterations=3)
        assert [rec["cg_iterations"] for rec in state.trace] == [1, 1, 1, 0]
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
        with caplog.at_level(logging.DEBUG, logger="sol_lab.solver"):
            state = minimize(zero(grid64), grid64, w, w.rho_bar - 0.2,
                             **QUICK)
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
        rho = w.rho_bar - 0.2
        state = minimize(zero(grid64), grid64, w, rho, max_iterations=3)
        assert not state.converged
        assert state.residual_norm > subcritical_solver.TOL_FACTOR * rho

    @staticmethod
    def capped(max_iterations):
        """(grid, weight, rho, state) of a solve from zero at epsilon 0.1,
        order -1/2 at the north pole, on 33 x 66 (6 Newton steps
        uncapped)."""
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        rho = w.rho_bar - 0.1
        return grid, w, rho, minimize(zero(grid), grid, w, rho,
                                      max_iterations=max_iterations)

    def test_cap_at_the_step_count_converges(self):
        """A solve that converges in N steps converges under a cap of N,
        with the uncapped solve's state and trace."""
        *_, free = self.capped(3000)
        *_, state = self.capped(free.iterations)
        assert free.converged and free.iterations == 6
        assert state.converged and state.iterations == free.iterations
        assert np.array_equal(state.coeffs.values, free.coeffs.values)
        assert (state.J, state.residual_norm, state.trace) == \
            (free.J, free.residual_norm, free.trace)

    def test_capped_state_is_measured(self):
        """A cap of 1 takes one step and measures the state it returns:
        its residual norm is that of ``residual_coeffs`` there, and its J
        and last trace row are that state's."""
        grid, w, rho, state = self.capped(1)
        assert not state.converged and state.iterations == 1
        r = mt_functional.residual_coeffs(state.coeffs, grid, w, rho).values
        assert state.residual_norm == pytest.approx(
            np.sqrt(np.sum(r * r)), rel=1e-12)
        assert state.J == pytest.approx(eval_J(state.coeffs, grid, w, rho),
                                        rel=1e-12)
        last = state.trace[-1]
        assert len(state.trace) == 2 and last["step"] == 0.0
        assert (last["J"], last["residual"]) == (state.J, state.residual_norm)

    def test_supercritical_rejected(self, grid16):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        with pytest.raises(ValueError):
            minimize(zero(grid16), grid16, w, w.rho_bar + 1.0, **QUICK)

    def test_overflow_signalled(self, grid16, monkeypatch):
        # the normalized peak of 12 x3 is ~0.65; a ceiling below it trips
        monkeypatch.setattr(subcritical_solver, "DEFAULT_CEILING", 0.5)
        with pytest.raises(UnnormalizedBlowupError):
            minimize(grid16.transform.analysis_coeffs(  # 12 x3, one column
                12.0 * grid16.t[:, None]), grid16, SingularWeight(),
                8.0 * np.pi - 1.0, **QUICK)


class TestManufacturedSolution:
    """A known answer for the full-width solve, with no singular point: for
    a band-limited u* and K* = (1/4 pi - Delta u*/rho) e^(-u*), int K* e^u*
    = 1 (Delta u* integrates to 0), so u* solves -Delta u = rho (K e^u -
    1/4 pi) at rho, normalized.  u* is the seed-0 field of degree <= 6,
    scaled to max |Delta u*| = rho/8 pi over the L = 32 nodes, at rho =
    4 pi, where the Hessian at u = 0 is l(l + 1) - 1 >= 1 on l >= 1; K* is
    analysed at L_K = 32 and not invariant about the axis, so the zonal
    start is widened at its first step."""

    RHO = 4.0 * np.pi
    FRAME = _orthonormal_frame(normalized((0.3, 0.5, 0.81)))

    @classmethod
    def problem(cls, L):
        """(u* at band limit L, K*), K* = (1/4 pi - Delta u*/rho) e^(-u*)
        analysed at L_K = 32."""
        grid_K = build_grid(33, 66)
        nodes = grid_K.nodes
        u = random_band_limited_batch(build_grid(L + 1, 2 * L + 2),
                                      np.random.default_rng(0), 1, l_max=6)
        u = SHCoefficients(u.values[:, 0])
        lap = synthesis_at_points(
            SHCoefficients(-u.rows[0] * (u.rows[0] + 1.0) * u.values), nodes)
        scale = cls.RHO / (8.0 * np.pi) / np.max(np.abs(lap))
        K = grid_K.transform.analysis_coeffs(
            (1.0 / (4.0 * np.pi) - scale * lap / cls.RHO)
            * np.exp(-scale * synthesis_at_points(u, nodes)))
        return SHCoefficients(scale * u.values), K

    def solve(self, L, u, K):
        """(state, coefficient error, |J - J(u)|) of the solve from zero
        at band limit L with smooth factor K, against u."""
        grid, w = build_grid(L + 1, 2 * L + 2), SingularWeight(K=K)
        state = minimize(zero(grid), grid, w, self.RHO, max_iterations=50)
        assert state.converged
        return (state, np.max(np.abs(state.coeffs.values - u.values)),
                abs(state.J - eval_J(u, grid, w, self.RHO)))

    @pytest.mark.parametrize("turned", [False, True], ids=["axis", "turned"])
    @pytest.mark.parametrize("L", [32, 64])
    def test_recovers_u_star(self, L, turned, monkeypatch):
        """At a tight stopping tolerance the solve reaches u* to rounding:
        every coefficient within 1e-13 and J within 1e-13 relative of
        J(u*) (measured in 5 steps: at most 2.9e-16, and J(u*) to the
        last bit).  u* and K* turned by one frame (``rotated``) are the
        same problem in other coordinates, solved as closely (measured:
        at most 2.7e-16)."""
        monkeypatch.setattr(subcritical_solver, "TOL_FACTOR", 1e-13)
        u, K = self.problem(L)
        if turned:
            u, K = rotated(u, self.FRAME), rotated(K, self.FRAME)
        state, err, dJ = self.solve(L, u, K)
        assert err <= 1e-13 and dJ <= 1e-13 * abs(state.J)

    def test_perturbed_K_fails_the_gate(self, monkeypatch):
        """K* with its a_{1,0} scaled by 1 + 1e-6 is another problem: its
        solution is not u*, and the gate sees it (measured: 3.1e-9 in the
        coefficients)."""
        monkeypatch.setattr(subcritical_solver, "TOL_FACTOR", 1e-13)
        u, K = self.problem(32)
        K.values[1, 0] *= 1.0 + 1e-6  # row 1 of block m = 0: a_{1,0}
        state, err, dJ = self.solve(32, u, K)
        assert not (err <= 1e-13 and dJ <= 1e-13 * abs(state.J))

    def test_default_tolerance(self):
        """At the default TOL_FACTOR the stopping rule ||r|| <= TOL_FACTOR
        rho sets the error: with the Hessian >= 1 on l >= 1 near u = 0,
        the coefficients lie within about ||r|| of u* and J within its
        square (measured: 3 steps, 4.2e-9 in the coefficients and 1.1e-16
        relative in J)."""
        bound = subcritical_solver.TOL_FACTOR * self.RHO
        _, err, dJ = self.solve(32, *self.problem(32))
        assert err <= bound and dJ <= bound**2


class TestDiagnose:
    @staticmethod
    def diagnosed(coeffs, grid, w):
        """``diagnose`` of these coefficients at rho = rho_bar - 0.5."""
        return diagnose(coeffs, grid, w, w.rho_bar - 0.5)

    def test_compact_case(self, grid64):
        """m = 0 run: bounded, flagged compact, cap mass = area fraction."""
        w, rho = SingularWeight(), 8.0 * np.pi - 1.0
        state = minimize(zero(grid64), grid64, w, rho, **QUICK)
        diag = diagnose(state.coeffs, grid64, w, rho)
        assert diag.compact_case
        expected = (1.0 - np.cos(0.5)) / 2.0
        assert cap_density_integral(state.coeffs, grid64, w, diag.center,
                                    0.5) == pytest.approx(expected, rel=1e-6)

    def test_peak_position_owns_its_data(self, grid16):
        """A peak on a node is a copy, not a view that keeps the whole
        node array of the rule alive: with no point, and with one of
        positive order, where the centre is the peak itself."""
        coeffs = grid16.transform.analysis_coeffs(grid16.nodes[..., 0])
        for w in (SingularWeight(),
                  SingularWeight.from_orders([(NORTH, 0.5)])):
            diag = diagnose(coeffs, grid16, w, 1.0)
            assert diag.p_eps[0] > 0.9  # on a node, near +e1
            assert diag.p_eps.base is None and diag.center.base is None

    def test_under_resolved_flag(self, grid16):
        """A bubble scale below 4 pi/L must raise the resolution flag; the
        constant minimizer of the problem without singular points is
        resolved on any grid."""
        flat, rho = SingularWeight(), 8.0 * np.pi - 1.0
        state = minimize(zero(grid16), grid16, flat, rho, **QUICK)
        # u = -log 4 pi, t_eps = sqrt(4 pi)
        diag = diagnose(state.coeffs, grid16, flat, rho)
        assert diag.lambda_eps == pytest.approx(-np.log(4.0 * np.pi))
        assert not diag.under_resolved
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        spiky = grid16.transform.analysis_coeffs(  # 6 x3 - 3, one column
            6.0 * grid16.t[:, None] - 3.0)
        diag = self.diagnosed(spiky, grid16, w)  # t_eps = e^{-3}
        assert diag.t_eps < 4.0 * np.pi / grid16.band_limit
        assert diag.under_resolved

    def test_non_zonal_diagnosis_is_one_pass_on_the_rule(self,
                                                         monkeypatch):
        """A non-zonal state's values are one field's synthesis on the
        integrator's transform, and that is the only pass: the grid's
        transform makes none, and the whole-sphere mass (t_eps = 0.68, so
        10 t_eps covers the sphere) reads its values.  A one-field pass
        keeps the table of every order (``ProductTransform._legendre``),
        as the solver's passes on the same transform do."""
        from sol_lab.sphere_grid import random_band_limited_batch
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        coeffs = SHCoefficients(random_band_limited_batch(
            grid, np.random.default_rng(4), 1).values[:, 0])
        integ = integrator_for(grid, w)
        tr = integ.transform
        passes, synthesized = [], []
        synthesis = sphere_grid.ProductTransform.synthesis_values

        def recorded(self, c):
            passes.append((self, c.values.shape))
            synthesized.append(synthesis(self, c))
            return synthesized[-1].copy()

        monkeypatch.setattr(sphere_grid.ProductTransform, "synthesis_values",
                            recorded)
        rho = w.rho_bar - 0.5
        diag = diagnose(coeffs, grid, w, rho)
        monkeypatch.undo()
        assert 10.0 * diag.t_eps >= np.pi - 0.2
        rows, parts = coeffs.values.shape
        assert passes == [(tr, (rows, parts))]
        assert len(tr._plm) == grid.band_limit + 1
        assert grid.transform._plm == []
        vals = tr.synthesis_values(coeffs)
        assert np.array_equal(synthesized[0], vals)
        assert diag.lambda_eps >= np.max(vals)
        assert diag.cap_mass == rho * float(
            np.exp(integ.density_of(vals.copy()).log_integral))

    def test_wide_profile_stays_on_the_sphere(self):
        """The profile is u - lambda at the rule's nodes on a meridian
        through the centre, ascending in true distance within [0, pi],
        also for a state wider than pi/5, where 5 t_eps passes the
        antipode."""
        from sol_lab.sphere_grid import random_band_limited_batch
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        wide = random_band_limited_batch(grid, np.random.default_rng(4), 1)
        diag = self.diagnosed(SHCoefficients(wide.values[:, 0]), grid, w)
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
        diag = self.diagnosed(spiky, grid, SingularWeight.from_orders(orders))
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
        coeffs = grid.transform.analysis_coeffs(6.0 * grid.t[:, None] - 3.0)
        diag = self.diagnosed(coeffs, grid, w)
        assert diag.t_eps == pytest.approx(np.exp(-3.0))
        tr = integrator_for(grid, w).transform
        nodes = ring_points(tr.t, tr.phi)
        u = np.broadcast_to(tr.synthesis_values(coeffs),
                            nodes.shape[:-1])
        d = np.arccos(np.clip(nodes @ diag.center, -1.0, 1.0))
        near = d <= 5.0 * diag.t_eps
        bubble = planar_bubble(d[near] / diag.t_eps,
                               w.bubble_constant(diag.center), w.alpha)
        assert diag.profile_error == pytest.approx(
            np.max(np.abs(u[near] - diag.lambda_eps - bubble)), rel=1e-12)

    def test_zonal_point_syntheses(self, monkeypatch):
        """A zonal alpha = -1/2 state is never synthesized at points: its
        value at the singular point is ``axis_values``, which runs no
        recurrence, and a cap about the axis point, when 10 t_eps < pi -
        0.2, is a product rule of its own (once, by the 32-bearing point
        rule, for the spiky state, t_eps = e^-3)."""
        from sol_lab import sphere_grid
        grid = build_grid(33, 66)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        calls = []
        at_angles = sphere_grid.synthesis_at_angles

        def recorded(c, t, phi):
            calls.append(c.values.shape[-1])
            return at_angles(c, t, phi)

        monkeypatch.setattr(sphere_grid, "synthesis_at_angles", recorded)
        for coeffs in (zero(grid),
                       grid.transform.analysis_coeffs(6.0 * grid.t[:, None]
                                                      - 3.0)):
            diag = self.diagnosed(coeffs, grid, w)
            assert calls == []
        assert 10.0 * diag.t_eps < np.pi - 0.2  # the spiky state has a cap

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
        report = epsilon_sweep(w, grid, (0.5, 0.3, 0.2), **QUICK,
                               init_epsilon=None)
        assert len(report.entries) == 3
        assert all(e.state.coeffs.values.shape[-1] > 1
                   for e in report.entries)
        assert runs == [("rule", 0), ("rule", grid.band_limit)]

    def test_cap_density_integral_constant(self, grid64):
        """Against the closed form for h = 1, u = const."""
        w = SingularWeight()
        state = minimize(zero(grid64), grid64, w, 8.0 * np.pi - 1.0, **QUICK)
        center = np.array([0.0, 0.3, np.sqrt(1.0 - 0.09)])
        for r in (0.3, 1.0):
            val = cap_density_integral(state.coeffs, grid64, w, center, r)
            # u = -log(4 pi): the density is 1/(4 pi), mass = cap area frac
            assert val == pytest.approx((1.0 - np.cos(r)) / 2.0, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5])
    def test_cap_density_integral_on_singular_point(self, grid16, alpha):
        """Cap centred on the singularity, u = 0, against the closed form.

        At alpha = -0.9 the radial nodes reach r ~ 1e-19, where
        1 - <p, x> rounds to 0 unless it is taken as 2 sin^2(r/2).
        """
        w = SingularWeight.from_orders([(NORTH, alpha)])
        coeffs = SHCoefficients.zeros(grid16.band_limit)
        for r in (1e-3, 0.3, 1.0):
            exact = (2.0 * np.pi * (np.e / 2.0) ** alpha
                     * (2.0 * np.sin(0.5 * r) ** 2) ** (1.0 + alpha)
                     / (1.0 + alpha))
            val = cap_density_integral(coeffs, grid16, w, np.array(NORTH), r)
            assert val == pytest.approx(exact, rel=1e-12)

    @staticmethod
    def rough_zonal_field(band_limit, alpha):
        """(coefficients, grid, weight): a seeded zonal column,
        coefficients N(0, 1) / (1 + l), under one point of this order at
        the north pole."""
        grid = build_grid(band_limit + 1, 2 * band_limit + 2)
        l = np.arange(band_limit + 1)
        rng = np.random.default_rng(band_limit)
        coeffs = SHCoefficients((rng.normal(size=l.size) / (1.0 + l))[:, None])
        return coeffs, grid, SingularWeight.from_orders([(NORTH, alpha)])

    def test_cap_mass_builds_no_large_jacobi_rule(self, monkeypatch):
        """At L = 1024, order -1/4 and R = 0.76 the cap mass takes 31
        panels of 32 radial nodes; it asks ``gauss_jacobi`` for no rule of
        b != 0 above CAP_RADIAL_NODES nodes (one of 794 nodes, a dense
        eigensolve, when it took max(48, floor(R L) + 16) radii)."""
        field = self.rough_zonal_field(1024, -0.25)
        calls = []

        def spy(n, b=0.0):
            calls.append((n, b))
            return sphere_grid.gauss_jacobi(n, b)

        monkeypatch.setattr(mt_functional, "gauss_jacobi", spy)
        assert np.isfinite(cap_density_integral(*field, np.array(NORTH), 0.76))
        assert calls
        assert all(n <= CAP_RADIAL_NODES for n, b in calls if b != 0.0)

    @pytest.mark.parametrize("band_limit", [128, 1024])
    @pytest.mark.parametrize("alpha", [-0.75, -0.25, 0.5])
    def test_cap_mass_panels_converge(self, band_limit, alpha, monkeypatch):
        """The cap mass of a rough zonal state agrees with 4 x its panels
        to 1e-11 relative at R = 0.1, 0.5 and 1 (at most 1.3e-12 seen;
        one Gauss-Jacobi rule of max(48, floor(R L) + 16) radii read up
        to 7.5e-12 off)."""
        field = self.rough_zonal_field(band_limit, alpha)
        radii = (0.1, 0.5, 1.0)
        mass = [cap_density_integral(*field, np.array(NORTH), r)
                for r in radii]
        monkeypatch.setattr(subcritical_solver, "cap_radial_nodes",
                            lambda L, R: 4 * cap_radial_nodes(L, R))
        finer = [cap_density_integral(*field, np.array(NORTH), r)
                 for r in radii]
        assert mass == pytest.approx(finer, rel=1e-11)

    @staticmethod
    def rms_field(band_limit, w):
        """(coefficients, grid, weight): the seed-0 field of
        ``sample_gaps``, scaled to RMS 0.7, under w."""
        grid = build_grid(band_limit + 1, 2 * band_limit + 2)
        v = random_band_limited_batch(grid, np.random.default_rng(0),
                                      1).values[:, 0]
        v *= 0.7 / np.sqrt(np.sum(v * v) / (4.0 * np.pi))
        return SHCoefficients(v), grid, w

    @staticmethod
    def polar_rule(coeffs, grid, w, center, radius, bearings):
        """The cap mass on ``cap_density_integral``'s radii and
        ``bearings`` bearings about ``center``: u on the rings of one
        product transform about an axis point, else synthesized at each
        node."""
        panels = -(-cap_radial_nodes(grid.band_limit, radius)
                   // CAP_RADIAL_NODES)
        r, wr = radial_rule(np.linspace(0.0, radius, panels + 1),
                            CAP_RADIAL_NODES, 2.0 * w.beta(center) + 1.0)
        if on_axis(center):
            rings = ProductTransform(grid.band_limit,
                                     center[2] * np.cos(r), bearings)
            x = ring_points(rings.t, rings.phi)
            u = rings.synthesis_values(coeffs.widened())
        else:
            e1, e2, p = _orthonormal_frame(center)
            psi = 2.0 * np.pi * np.arange(bearings) / bearings
            x = (np.sin(r)[:, None, None] * (np.cos(psi)[:, None] * e1
                                             + np.sin(psi)[:, None] * e2)
                 + np.cos(r)[:, None, None] * p)
            u = synthesis_at_points(coeffs, x)
        log_h = w.log_weight(x, cap=(w.index_at(center), r[:, None]))
        return np.sum((wr * 2.0 * np.pi / bearings)[:, None]
                      * np.exp(log_h + u))

    @pytest.mark.parametrize("radius", [0.5, 1.0])
    def test_cap_mass_of_a_full_field_is_alias_free(self, radius):
        """About an axis point the cap mass of a non-zonal field at L = 128
        agrees with its radial rule on 4 x the grid's longitudes to 1e-9
        relative (1.7e-15 at R = 0.5 and 8.2e-10 at R = 1 seen; 32
        bearings read 6.4e-4 and 5.3e-3 off)."""
        coeffs, grid, w = self.rms_field(128, SingularWeight.from_orders(
            [(NORTH, -0.25)]))
        north = np.array(NORTH)
        assert cap_density_integral(coeffs, grid, w, north, radius) == \
            pytest.approx(self.polar_rule(coeffs, grid, w, north, radius,
                                          4 * grid.n_phi), rel=1e-9)

    @pytest.mark.parametrize("zonal", [True, False])
    def test_off_axis_cap_mass(self, zonal):
        """About a centre off the axis the state is turned into the
        centre's frame: at L = 64 and R = 0.5 the masses of a rough zonal
        and of a non-zonal state agree with a point rule of 8 x the grid's
        bearings to 1e-11 relative (3.4e-12 and 3.3e-14 seen)."""
        w = SingularWeight.from_orders([(SOUTH, -0.25)])
        coeffs, grid, _ = self.rms_field(64, w)
        if zonal:
            coeffs = self.rough_zonal_field(64, -0.25)[0]
        center = normalized([0.3, 0.2, 0.9])
        assert cap_density_integral(coeffs, grid, w, center, 0.5) == \
            pytest.approx(self.polar_rule(coeffs, grid, w, center, 0.5,
                                          8 * grid.n_phi), rel=1e-11)


class TestSweep:
    def test_blowup_trends(self, grid64):
        """Single negative-order mini sweep: amplitude grows, mean decay shrinks."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        report = epsilon_sweep(w, grid64, (0.4, 0.2), **QUICK,
                               init_epsilon=0.01)
        lams = report.column("lambda")
        assert lams[1] > lams[0]
        decay = [abs(v) for v in report.column("mean_decay")]
        assert decay[1] < decay[0]
        errs = report.column("profile_error")
        assert errs[1] < errs[0] + 0.02
        fracs = [e.row()["cap_mass_10t"] / w.rho_bar for e in report.entries]
        assert fracs[1] > fracs[0] - 0.02  # mass quantization trend

    def test_rows_report_the_farfield_error(self, grid64):
        """Each sweep row holds exactly its 12 keys, among them the
        far-field error that diagnose computes for its state."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        report = epsilon_sweep(w, grid64, (0.4, 0.2), **QUICK,
                               init_epsilon=0.01)
        for e in report.entries:
            assert list(e.row()) == [
                "epsilon", "rho", "J", "residual", "iterations", "lambda",
                "t_eps", "mean_decay", "cap_mass_10t", "profile_error",
                "farfield_error", "under_resolved"]
        rows = report.column("farfield_error")
        assert rows == [diagnose(e.state.coeffs, grid64, w, e.rho)
                        .farfield_error for e in report.entries]
        assert all(np.isfinite(rows))

    def test_regular_sweep_stays_bounded(self, grid64):
        """m = 0: constants minimize at every epsilon and J stays 0."""
        w = SingularWeight()
        report = epsilon_sweep(w, grid64, (1.0, 0.5), max_iterations=500,
                               init_epsilon=None)
        assert max(abs(v) for v in report.column("J")) < 1e-8
        assert max(report.column("lambda")) < 1.0

    def test_nonconvergence_flags_sweep(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        with pytest.raises(NonConvergedError):
            epsilon_sweep(w, grid64, (0.4,), max_iterations=2,
                          init_epsilon=None)

    def test_blowup_fit_needs_three_points(self):
        """The limit model has three unknowns: two entries are refused, not
        reported as their last J."""
        with pytest.raises(ValueError, match="three unknowns; got 2"):
            extrapolate_blowup([0.5, 0.2], [-7.6, -7.39])

    @pytest.mark.parametrize("eps", [(0.5, 0.2, 0.1, 0.05),
                                     (2.0, 1.0, 0.5, 0.2, 0.1)])
    def test_blowup_fit_recovers_its_model(self, eps):
        """Exact J_inf + c eps log(1/eps) + d eps data, which no J0 + c
        eps^p matches, gives J_inf back to rounding, on a schedule with
        eps >= 1 too; a constant J gives the constant."""
        eps = np.array(eps)
        J = -8.0 + 2.0 * eps * np.log(1.0 / eps) + 0.5 * eps
        assert extrapolate_blowup(eps, J) == pytest.approx(-8.0, abs=1e-12)
        assert extrapolate_blowup(eps, np.full(eps.size, -3.5)) == \
            pytest.approx(-3.5, abs=1e-12)


class TestGradientExponent:
    def test_annulus_guard(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        state = minimize(zero(grid64), grid64, w, w.rho_bar - 0.5, **QUICK)
        with pytest.raises(InsufficientAnnulusError):
            gradient_singularity_exponent(state.coeffs, grid64, w, NORTH)

    def test_off_axis_point_refused(self, grid192):
        """The annulus is built about +-e3: a point off the axis, where no
        solved state's weight has one, is refused."""
        p = (np.sin(0.3), 0.0, np.cos(0.3))
        w = SingularWeight.from_orders([(p, -0.5)])
        with pytest.raises(ValueError, match="on the axis"):
            gradient_singularity_exponent(zero(grid192), grid192, w, p)

    def test_positive_order_rejected(self, grid192, monkeypatch):
        w = SingularWeight.from_orders([(NORTH, 0.5)])
        monkeypatch.setattr(subcritical_solver, "TOL_FACTOR", 1e-4)
        state = minimize(zero(grid192), grid192, w, w.rho_bar - 0.5,
                         max_iterations=1500)
        with pytest.raises(ValueError):
            gradient_singularity_exponent(state.coeffs, grid192, w, NORTH)

    def test_mild_order_bounded_gradient(self, grid192, monkeypatch):
        """alpha = -1/4: 2 alpha + 1 > 0, the gradient stays bounded and the
        fitted slope is far from the singular range."""
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        monkeypatch.setattr(subcritical_solver, "TOL_FACTOR", 1e-5)
        state = minimize(zero(grid192), grid192, w, w.rho_bar - 0.5,
                         max_iterations=2000)
        fit = gradient_singularity_exponent(state.coeffs, grid192, w, NORTH)
        assert fit["slope"] >= -0.05
        assert fit["bound"] == 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="the fitted slope near the band-limit scale overshoots the "
               "gradient-growth exponent: measured -1.42 @ L=192, -0.88 @ "
               "L=256, -0.82 @ L=320, -0.80 @ L=384 against the [-0.7, 0] "
               "window; the window is unreachable at desk-scale band limits")
    def test_strong_order_window(self, grid192, monkeypatch):
        w = SingularWeight.from_orders([(NORTH, -0.75)])
        monkeypatch.setattr(subcritical_solver, "TOL_FACTOR", 1e-5)
        state = minimize(zero(grid192), grid192, w, w.rho_bar - 0.5,
                         max_iterations=2000)
        fit = gradient_singularity_exponent(state.coeffs, grid192, w, NORTH)
        assert fit["bound"] == pytest.approx(-0.5)
        assert fit["bound"] - 0.2 <= fit["slope"] <= 0.0

    def test_log_order_reported(self, grid192, monkeypatch):
        """alpha = -1/2 carries a log factor; record the fit, no assertion."""
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        monkeypatch.setattr(subcritical_solver, "TOL_FACTOR", 1e-5)
        state = minimize(zero(grid192), grid192, w, w.rho_bar - 0.5,
                         max_iterations=2000)
        fit = gradient_singularity_exponent(state.coeffs, grid192, w, NORTH)
        assert np.isfinite(fit["slope"])
        assert fit["bound"] == 0.0
