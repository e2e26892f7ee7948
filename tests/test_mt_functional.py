"""Functional evaluation, singular quadrature, residuals, inequality gaps."""

import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from sol_lab.closed_forms import ExtremalParams, extremal_u, extremal_weight
from sol_lab.mt_functional import (
    CAP_RADIAL_NODES,
    CAP_RADIUS,
    INTEGRATOR_CACHE_SIZE,
    FunctionalParams,
    SingularIntegrator,
    UnnormalizedBlowupError,
    cap_radial_rule,
    el_residual,
    el_residual_norm,
    eval_J,
    exp_integral,
    gradient_pairing,
    integrator_for,
    residual_coeffs,
    troyanov_gap,
)
from sol_lab.singular_geometry import SingularWeight
from sol_lab.sphere_grid import (
    FOUR_PI,
    SHCoefficients,
    ScalarField,
    build_grid,
    integrate,
    l2_norm,
    sh_analysis,
    sh_synthesis,
)

from conftest import random_band_limited

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def single_weight(alpha):
    return SingularWeight.from_orders([(NORTH, alpha)])


def full_path_coeffs(grid):
    """Coefficients with an m = 1 term: their densities need every order."""
    c = SHCoefficients.zeros(grid.band_limit)
    c.values[1, grid.band_limit + 1] = 1.0
    return c


class TestExpIntegral:
    def test_smooth_case(self, grid64):
        u0 = ScalarField.constant(grid64, 0.0)
        assert exp_integral(u0, SingularWeight()) == pytest.approx(
            FOUR_PI, rel=1e-12)

    def test_half_order_analytic(self, grid64):
        # int (e/2)^(-1/2) (1 - x3)^(-1/2) dv = 8 pi / sqrt(e)
        u0 = ScalarField.constant(grid64, 0.0)
        val = exp_integral(u0, single_weight(-0.5))
        assert val == pytest.approx(8.0 * np.pi / np.sqrt(np.e), rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.9, -0.75, -0.25, 0.5, 2.0])
    def test_one_dimensional_oracle(self, grid64, alpha):
        # analytic: 2 pi (e/2)^a int (1-t)^a dt = 2 pi (e/2)^a 2^(1+a)/(1+a)
        u0 = ScalarField.constant(grid64, 0.0)
        val = exp_integral(u0, single_weight(alpha))
        exact = 2.0 * np.pi * (np.e / 2.0) ** alpha * 2.0 ** (1 + alpha) \
            / (1.0 + alpha)
        assert val == pytest.approx(exact, rel=1e-6)

    def test_extremal_closed_form(self, grid128):
        # int h e^{u_{1,0}} = 4 e^{2a} pi / (1+a)
        alpha = -0.5
        w = extremal_weight(alpha)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        exact = 4.0 * np.exp(2 * alpha) * np.pi / (1.0 + alpha)
        assert exp_integral(u, w) == pytest.approx(exact, rel=1e-3)

    def test_nonconstant_field_oracle(self, grid64):
        # zonal integrand: h e^{x3} against adaptive 1-d quadrature
        alpha = -0.5
        w = single_weight(alpha)
        u = ScalarField.from_function(grid64, lambda x: x[..., 2])
        oracle, _ = quad(
            lambda t: 2.0 * np.pi * (np.e / 2.0) ** alpha
            * (1.0 - t) ** alpha * np.exp(t), -1.0, 1.0, limit=200)
        assert exp_integral(u, w) == pytest.approx(oracle, rel=1e-6)

    def test_overflow_guard(self, grid64):
        u = ScalarField.constant(grid64, 800.0)
        with pytest.raises(UnnormalizedBlowupError):
            exp_integral(u, SingularWeight())

    def test_cap_rule_convergence(self):
        """The radial cap rule against the closed form
        int_0^R (2 sin^2(r/2))^alpha sin r dr = (2 sin^2(R/2))^(alpha+1)
        / (alpha+1): to the rounding floor from 8 nodes on."""
        for alpha in (-0.75, -0.5):
            exact = (2.0 * np.sin(0.5 * CAP_RADIUS) ** 2) ** (alpha + 1.0) \
                / (alpha + 1.0)
            errors = []
            for n in (2, 4, 8, 16, CAP_RADIAL_NODES):
                r, w = cap_radial_rule(alpha, CAP_RADIUS, n)
                approx = np.sum(w * (2.0 * np.sin(0.5 * r) ** 2) ** alpha)
                errors.append(abs(approx - exact) / exact)
            assert errors[0] > errors[1]
            assert max(errors[2:]) <= 2.1e-16

    def test_off_axis_matches_axis(self, grid128, rng):
        """Rotation invariance ties the cutoff path to the aligned one.

        The smooth-cutoff fallback is grid-resolution limited; its measured
        accuracy is ~3e-6 at L = 128.
        """
        u0 = ScalarField.constant(grid128, 0.0)
        axis_val = exp_integral(u0, single_weight(-0.5))
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        off_val = exp_integral(u0, SingularWeight.from_orders([(q, -0.5)]))
        assert off_val == pytest.approx(axis_val, rel=1e-4)

    def test_caps_must_be_disjoint(self, grid64):
        w = SingularWeight.from_orders([(NORTH, -0.5),
                                        ((np.sin(0.15), 0, np.cos(0.15)), 0.5)])
        u0 = ScalarField.constant(grid64, 0.0)
        with pytest.raises(ValueError):
            exp_integral(u0, w)


class TestEvalJ:
    def test_zero_at_zero(self, grid64):
        params = FunctionalParams(rho=8.0 * np.pi, weight=SingularWeight())
        assert abs(eval_J(ScalarField.constant(grid64, 0.0), params)) < 1e-12

    def test_constant_invariance(self, grid64, rng):
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.25)])
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        u = random_band_limited(grid64, rng)
        base = eval_J(u, params)
        for c in (-10.0, -1.0, 0.3, 10.0):
            assert abs(eval_J(u + c, params) - base) < 1e-9

    def test_extremal_value(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        exact = 8.0 * np.pi * (1 + alpha) * (np.log1p(alpha) - alpha)
        assert eval_J(u, params) == pytest.approx(exact, rel=5e-3)
        assert exact == pytest.approx(4.0 * np.pi * (0.5 - np.log(2.0)))


class TestElResidual:
    def test_constants_solve_regular_equation(self, grid16, grid64):
        params = FunctionalParams(rho=8.0 * np.pi - 1.0,
                                  weight=SingularWeight())
        r = el_residual(ScalarField.constant(grid16, 0.4), params)
        assert np.abs(r.values).max() < 1e-10
        # roundoff grows ~ L^3 through the l(l+1) factor; stays tiny at L = 64
        r64 = el_residual(ScalarField.constant(grid64, 0.4), params)
        assert np.abs(r64.values).max() < 1e-9

    def test_zero_mean(self, grid64, rng):
        w = single_weight(-0.5)
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        r = el_residual(random_band_limited(grid64, rng), params)
        assert abs(r.mean) < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="the L2 residual of the *sampled* extremal is dominated by "
               "l(l+1)-amplified sampling aliasing of its conical profile; "
               "measured ~1.16 at L = 128 and non-decreasing in L "
               "(1.14 @ 64, 1.16 @ 192), so the 0.05 figure is unreachable "
               "for sampled inputs (solver iterates, being band-limited, "
               "do reach the 1e-6 rho stopping residual)")
    def test_extremal_residual_small(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        r = residual_coeffs(sh_analysis(u), params, grid128)
        assert l2_norm(r) < 0.05

    def test_reported_norm_matches_field(self, grid64, rng):
        w = single_weight(-0.5)
        params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        u = random_band_limited(grid64, rng)
        r = el_residual(u, params)
        by_quadrature = np.sqrt(integrate(ScalarField(r.values**2, grid64)))
        assert el_residual_norm(u, params) == pytest.approx(by_quadrature,
                                                            rel=1e-9)

    @pytest.mark.parametrize("case", ["smooth", "axis", "off-axis"])
    def test_gradient_consistency(self, grid64, rng, case):
        """dJ(u)[v] against central differences.

        The off-axis weight runs the scattered-cap analysis, which only the
        gradient exercises.
        """
        if case == "smooth":
            params = FunctionalParams(rho=8.0 * np.pi - 2.0,
                                      weight=SingularWeight())
        else:
            pole = NORTH if case == "axis" else (0.48, -0.36, 0.8)
            w = SingularWeight.from_orders([(pole, -0.5)])
            params = FunctionalParams(rho=w.rho_bar - 0.3, weight=w)
        u = random_band_limited(grid64, rng)
        step = 1e-5
        for _ in range(5):
            v = random_band_limited(grid64, rng, amplitude=1.0)
            fd = (eval_J(u + v * step, params)
                  - eval_J(u - v * step, params)) / (2.0 * step)
            pairing = gradient_pairing(u, params, v)
            assert fd == pytest.approx(pairing, rel=1e-5)


class TestTroyanovGap:
    def test_random_fields_nonnegative(self, grid64, rng):
        """Gap >= 0 with C = 0 and no singularities (sharp inequality)."""
        w = SingularWeight()
        worst = np.inf
        for _ in range(20):
            u = random_band_limited(grid64, rng)
            worst = min(worst, troyanov_gap(u, w, 0.0))
        assert worst >= -1e-6

    def test_conformal_family_equality(self, grid64):
        from sol_lab.closed_forms import conformal_pullback
        w = SingularWeight()
        for t in (1.0, 2.0, 4.0):
            u = conformal_pullback(ScalarField.constant(grid64, 0.0), t, 0.0)
            assert abs(troyanov_gap(u, w, 0.0)) < 1e-6

    def test_attained_constant_antipodal(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        C = alpha - np.log1p(alpha)
        assert C == pytest.approx(-0.5 + np.log(2.0))
        assert abs(troyanov_gap(u, w, C)) < 1e-3

    def test_matches_functional(self, grid64, rng):
        w = single_weight(-0.5)
        u = random_band_limited(grid64, rng)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        gap = troyanov_gap(u, w, 0.7)
        assert gap == pytest.approx(eval_J(u, params) / w.rho_bar + 0.7,
                                    rel=1e-10)


class TestDensityStack:
    @pytest.mark.parametrize("points", [
        [(NORTH, -0.5), (SOUTH, 0.3)],
        [((0.6, 0.0, 0.8), -0.5)],  # off axis: smooth-cutoff scatter caps
    ])
    def test_stack_matches_per_field(self, grid64, rng, points):
        """A stack of fields gives each field's density record, with its
        own shift, in one synthesis per block."""
        w = SingularWeight.from_orders(points)
        fields = [random_band_limited(grid64, rng) * s for s in (1.0, 6.0, 0.2)]
        stack = SHCoefficients(np.stack([sh_analysis(f).values
                                         for f in fields]))
        integ = integrator_for(grid64, w)
        dens = integ.density(stack)
        for i, f in enumerate(fields):
            one = integ.density(SHCoefficients(stack.values[i]))
            assert dens.shift[i] == pytest.approx(one.shift, rel=1e-14)
            assert dens.peak[i] == pytest.approx(one.peak, rel=1e-14)
            assert dens.log_integral[i] == pytest.approx(one.log_integral,
                                                         rel=1e-14)
            for got, want in zip(dens.values, one.values):
                assert np.max(np.abs(got[i] - want)) <= 1e-14 * np.max(want)


class TestIntegratorExactness:
    @pytest.mark.parametrize("points", [
        [], [(NORTH, -0.5)], [(SOUTH, 0.5)], [(NORTH, -0.25), (SOUTH, 0.5)]])
    def test_axis_rule_is_one_product_block(self, grid64, points):
        """On the axis the composite rule is one product block: one
        transform over the north cap, band and south cap colatitudes; with
        no singular point it is the grid's own transform."""
        w = SingularWeight.from_orders(points)
        (block,) = integrator_for(grid64, w).blocks
        t = block.transform.t
        if not points:
            assert block.transform is grid64.transform
        for pole, _ in points:
            in_cap = pole[2] * t > np.cos(CAP_RADIUS)
            assert in_cap.sum() == CAP_RADIAL_NODES
        assert block.weights.shape == (t.size, grid64.n_phi)

    def test_off_axis_grid_keeps_its_weights(self, grid64):
        """Off the axis: one scattered cap per point, then the grid with
        its own weights; the cutoff lives in log h, -inf at the point."""
        w = SingularWeight.from_orders([((0.6, 0.0, 0.8), -0.5)])
        integ = integrator_for(grid64, w)
        assert len(integ.blocks) == 2
        grid_block = integ.blocks[-1]
        assert grid_block.transform is grid64.transform
        assert np.array_equal(grid_block.weights, grid64.weights)
        assert np.isneginf(integ.log_h[-1]).any()
        assert np.isfinite(integ.log_h[-1]).any()

    def test_smooth_integrand_through_caps(self, grid128):
        integ = SingularIntegrator(grid128, single_weight(-0.5))
        val = sum(np.sum(b.weights * b.points[..., 2] ** 2)
                  for b in integ.blocks)
        assert val == pytest.approx(FOUR_PI / 3.0, abs=1e-11)

    def test_band_limited_exp_smooth_weight(self, grid64, rng):
        """No singularities: composite rule reduces to the plain grid."""
        u = random_band_limited(grid64, rng, amplitude=1.0)
        by_grid = integrate(ScalarField(np.exp(u.values), grid64))
        assert exp_integral(u, SingularWeight()) == pytest.approx(
            by_grid, rel=1e-13)


class TestIntegratorCache:
    @pytest.mark.parametrize("pole", [None, NORTH, (0.6, 0.0, 0.8)])
    def test_grid_freed_without_cycle_collector(self, pole):
        """A cached integrator must not keep its grid (and tables) alive."""
        w = SingularWeight.from_orders([] if pole is None else [(pole, -0.5)])
        gc.disable()
        try:
            grid = build_grid(17, 34)
            integrator_for(grid, w).density(full_path_coeffs(grid))
            ref = weakref.ref(grid)
            del grid
            assert ref() is None
        finally:
            gc.enable()

    def test_zonality_decided_once_per_weight(self, monkeypatch):
        """One integrator serves zonal and non-zonal fields; its build
        evaluates log h on the grid nodes once, however often it is asked
        for.  Zonal fields get one-column densities."""
        grid = build_grid(17, 34)
        nodes = grid.nodes
        on_nodes = []
        log_weight = SingularWeight.log_weight

        def recorded(self, x, *args, **kwargs):
            if np.shape(x) == nodes.shape and np.array_equal(x, nodes):
                on_nodes.append(self)
            return log_weight(self, x, *args, **kwargs)

        monkeypatch.setattr(SingularWeight, "log_weight", recorded)
        zonal = SHCoefficients.zeros(grid.band_limit)
        weights = [single_weight(-0.5), single_weight(-0.25)]
        for w in weights:
            first = integrator_for(grid, w)
            for c in (zonal, full_path_coeffs(grid), zonal):
                assert integrator_for(grid, w) is first
                widths = {d.shape[-1] for d in first.density(c).values}
                assert widths == ({1} if c is zonal else {grid.n_phi})
        assert on_nodes == weights

    def test_cache_is_lru(self):
        """k + 1 distinct weights keep k entries; a hit becomes most recent."""
        grid = build_grid(17, 34)
        k = INTEGRATOR_CACHE_SIZE
        weights = [SingularWeight.from_orders([(NORTH, -0.05 * (i + 1))])
                   for i in range(k + 1)]
        first = [integrator_for(grid, w) for w in weights[:k]]
        assert integrator_for(grid, weights[0]) is first[0]
        integrator_for(grid, weights[k])
        assert len(grid._integrator_cache) == k
        assert integrator_for(grid, weights[0]) is first[0]
        assert all(integrator_for(grid, w) is f
                   for w, f in zip(weights[2:k], first[2:]))
        assert integrator_for(grid, weights[1]) is not first[1]
