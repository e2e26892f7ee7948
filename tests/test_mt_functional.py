"""Functional evaluation, singular quadrature, residuals, inequality gaps."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from sol_lab import mt_functional, sphere_grid
from sol_lab.closed_forms import (
    concentration_functional,
    conformal_pullback,
    extremal_u,
    extremal_weight,
    planar_bubble,
)
from sol_lab.identity_checks import blowup_infimum
from sol_lab.mt_functional import (
    CAP_RADIAL_NODES,
    CAP_RADIUS,
    axis_integrator,
    cap_radial_nodes,
    density_residual,
    eval_J,
    hessian_product,
    integrator_for,
    radial_rule,
    residual_coeffs,
    sample_gaps,
    troyanov_gap,
)
from sol_lab.singular_geometry import SingularWeight, axis_frame
from sol_lab.subcritical_solver import (
    cap_density_integral,
    epsilon_sweep,
    minimize,
)
from sol_lab.sphere_grid import (
    FOUR_PI,
    ProductTransform,
    SHCoefficients,
    build_grid,
    normalized,
    rotated,
)

from conftest import affine_K, random_band_limited, random_coeffs, zero

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def single_weight(alpha):
    return SingularWeight.from_orders([(NORTH, alpha)])


def off_axis_weight(position=(0.48, -0.36, 0.8)):
    """One point of order -1/2 off the axis with K = 1 + 0.1 x1, in its
    axis frame: K rotated to every order."""
    return axis_frame(SingularWeight.from_orders([(position, -0.5)],
                                                 K=affine_K(1)))


def exp_integral(coeffs, grid, w):
    """int h e^u of the field with these coefficients."""
    return float(np.exp(integrator_for(grid, w).log_exp_integral(coeffs)))


def residual_field(coeffs, grid, w, rho):
    """The Euler-Lagrange residual of the field with these coefficients,
    synthesized on the grid."""
    return grid.transform.synthesis_values(residual_coeffs(coeffs, grid, w,
                                                           rho))


def full_path_coeffs(grid):
    """Coefficients with an m = 1 term: their densities need every order."""
    c = SHCoefficients.zeros(grid.band_limit)
    c.order(1)[0] = 1.0  # a_{1,1}
    return c


class TestExpIntegral:
    def test_smooth_case(self, grid64):
        val = exp_integral(zero(grid64), grid64, SingularWeight())
        assert val == pytest.approx(FOUR_PI, rel=1e-12)

    def test_half_order_analytic(self, grid64):
        # int (e/2)^(-1/2) (1 - x3)^(-1/2) dv = 8 pi / sqrt(e)
        val = exp_integral(zero(grid64), grid64, single_weight(-0.5))
        assert val == pytest.approx(8.0 * np.pi / np.sqrt(np.e), rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.9, -0.75, -0.25, 0.5, 2.0])
    def test_one_dimensional_oracle(self, grid64, alpha):
        # analytic: 2 pi (e/2)^a int (1-t)^a dt = 2 pi (e/2)^a 2^(1+a)/(1+a)
        val = exp_integral(zero(grid64), grid64, single_weight(alpha))
        exact = 2.0 * np.pi * (np.e / 2.0) ** alpha * 2.0 ** (1 + alpha) \
            / (1.0 + alpha)
        assert val == pytest.approx(exact, rel=1e-6)

    def test_extremal_closed_form(self, grid128):
        # int h e^{u_{1,0}} = 4 e^{2a} pi / (1+a)
        alpha = -0.5
        w = extremal_weight(alpha)
        u = extremal_u(grid128, alpha)
        exact = 4.0 * np.exp(2 * alpha) * np.pi / (1.0 + alpha)
        assert exp_integral(u, grid128, w) == pytest.approx(exact, rel=1e-3)

    def test_nonconstant_field_oracle(self, grid64):
        # zonal integrand: h e^{x3} against adaptive 1-d quadrature
        alpha = -0.5
        w = single_weight(alpha)
        u = grid64.transform.analysis_coeffs(grid64.t[:, None])  # x3, a column
        oracle, _ = quad(
            lambda t: 2.0 * np.pi * (np.e / 2.0) ** alpha
            * (1.0 - t) ** alpha * np.exp(t), -1.0, 1.0, limit=200)
        assert exp_integral(u, grid64, w) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("delta", [1.0e-6, 2.0e-6, 1.0e-3, 0.05, 0.6435,
                                       np.pi / 2])
    @pytest.mark.parametrize("L", [64, 128])
    def test_off_axis_oracle(self, request, L, delta):
        """int h = (e/2)^a 2 pi 2^(a+1)/(a+1) wherever the point lies: one
        point of order -1/2 at distance delta from the pole, in its axis
        frame, is its pole twin, with the axis rule's error: the rounding
        of log int h.  At delta = pi/2 the point is (1, 0, 0), a node of
        the grid's equator ring."""
        grid = request.getfixturevalue(f"grid{L}")
        alpha = -0.5
        pole = ((1.0, 0.0, 0.0) if delta == np.pi / 2
                else (np.sin(delta), 0.0, np.cos(delta)))
        w = axis_frame(SingularWeight.from_orders([(pole, alpha)]))
        assert w.is_axis_aligned()
        exact = np.log(2.0 * np.pi * (np.e / 2.0) ** alpha
                       * 2.0 ** (alpha + 1.0) / (alpha + 1.0))
        err = integrator_for(grid, w).log_exp_integral(zero(grid)) - exact
        assert abs(err) <= 1e-15

    def test_overflow_guard(self, grid64, rng):
        """J is shift invariant at any raw peak: the density subtracts
        max(u + log h) before it exponentiates, so u +- 800, past exp's
        overflow at 709.8, evaluates to J(u) within 1e-10."""
        c = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        w, rho = single_weight(-0.5), 3.0 * np.pi
        J = eval_J(c, grid64, w, rho)
        for shift in (800.0, -800.0):
            assert abs(eval_J(c.shifted(shift), grid64, w, rho) - J) <= 1e-10

    def test_cap_rule_convergence(self):
        """The radial cap rule against the closed form
        int_0^R (2 sin^2(r/2))^alpha sin r dr = (2 sin^2(R/2))^(alpha+1)
        / (alpha+1): to the rounding floor from 8 nodes on.  The closed form
        is taken in 30 digits: in floats its power alone is off by 1.2e-15
        at alpha = 1.095."""
        mp = pytest.importorskip("mpmath")
        for alpha in (-0.75, -0.5, -0.25, 1.095):
            with mp.workdps(30):
                a = mp.mpf(alpha)
                exact = (2 * mp.sin(mp.mpf(CAP_RADIUS) / 2) ** 2) ** (a + 1) \
                    / (a + 1)
            errors = []
            for n in (2, 4, 8, 16, CAP_RADIAL_NODES):
                r, w = radial_rule((0.0, CAP_RADIUS), n, 2.0 * alpha + 1.0)
                approx = np.sum(w * (2.0 * np.sin(0.5 * r) ** 2) ** alpha)
                errors.append(float(abs(approx - exact) / exact))
            assert errors[0] > errors[1]
            assert max(errors[2:]) <= 2.1e-16

    @pytest.mark.parametrize("band_limit", [512, 1024])
    @pytest.mark.parametrize("alpha", [-0.5, -0.9, -0.25, 1.095])
    def test_cap_rule_resolves_the_band_limit(self, band_limit, alpha,
                                              monkeypatch):
        """n = cap_radial_nodes and 2n radial nodes give the same log int
        h e^u of a random zonal field (coefficients ~ N(0, 1) / (1 + l)) to
        1e-13; 32 and 64 nodes differ by 4e-8 to 2e-3 here."""
        grid = build_grid(band_limit + 1, 2 * band_limit + 2)
        rng = np.random.default_rng(band_limit)
        l = np.arange(band_limit + 1)
        c = SHCoefficients((rng.normal(size=l.size) / (1.0 + l))[:, None])
        w = single_weight(alpha)
        rule = axis_integrator(grid, w).log_exp_integral(c)
        monkeypatch.setattr(mt_functional, "cap_radial_nodes",
                            lambda L, R: 2 * cap_radial_nodes(L, R))
        doubled = axis_integrator(grid, w).log_exp_integral(c)
        assert abs(rule - doubled) <= 1e-13

    def test_cap_rule_floor(self):
        """Every cap keeps 32 nodes up to L = 256, whatever its order (the
        benchmark's solve and sweep caps at L = 128 and its evaluate caps
        at L = 256 among them); larger L takes more, in proportion."""
        for band_limit in (64, 128, 256):
            assert cap_radial_nodes(band_limit, CAP_RADIUS) == \
                CAP_RADIAL_NODES
        assert cap_radial_nodes(512, CAP_RADIUS) == 64
        assert cap_radial_nodes(1024, CAP_RADIUS) == 128
        assert cap_radial_nodes(4096, CAP_RADIUS) == 512

    @pytest.mark.parametrize("band_limit", [64, 128, 256])
    @pytest.mark.parametrize("alpha", [-0.9, -0.25, 1.0947])
    def test_integrator_cap_is_one_rule(self, band_limit, alpha):
        """An integrator cap is one Gauss-Jacobi rule of
        cap_radial_nodes(L, CAP_RADIUS) nodes on [0, CAP_RADIUS], bit for
        bit, not panels: against 4 x the nodes, 2 panels of 32 read log
        int h e^u of a rough zonal field 2.3e-13 off at order -0.9 and
        L = 512, one 64-node rule 3.2e-14."""
        grid = build_grid(band_limit + 1, 2 * band_limit + 2)
        block = axis_integrator(grid, single_weight(alpha)).transform
        r, w = radial_rule((0.0, CAP_RADIUS), CAP_RADIAL_NODES,
                           2.0 * alpha + 1.0)
        assert np.array_equal(block.t[:CAP_RADIAL_NODES], np.cos(r))
        assert np.array_equal(block.ring_weights[:CAP_RADIAL_NODES, 0],
                              w * (2.0 * np.pi))

    def test_off_axis_matches_axis(self, grid128, rng):
        """Rotation invariance: a point anywhere is, in its axis frame,
        its pole twin bit for bit; off the axis it is refused."""
        u0 = zero(grid128)
        axis_val = exp_integral(u0, grid128, single_weight(-0.5))
        q = rng.normal(size=3)
        off = SingularWeight.from_orders([(q, -0.5)])
        assert exp_integral(u0, grid128, axis_frame(off)) == axis_val
        with pytest.raises(ValueError, match="off the grid axis"):
            exp_integral(u0, grid128, off)

    def test_caps_must_be_disjoint(self, grid64):
        """Caps on one axis cannot overlap; two points whose caps would,
        here 0.15 rad apart, are no antipodal pair: no rotation puts them
        on the axis, and the integrator refuses them."""
        w = SingularWeight.from_orders([(NORTH, -0.5),
                                        ((np.sin(0.15), 0, np.cos(0.15)), 0.5)])
        with pytest.raises(ValueError, match="no rotation"):
            axis_frame(w)
        with pytest.raises(ValueError, match="off the grid axis"):
            exp_integral(zero(grid64), grid64, w)


def log_exp_reference(coeffs, north, south):
    """log int h e^u by mpmath's tanh-sinh quadrature, for a zonal column
    of coefficients and h = (e/2)^(a + b) (1 - t)^a (1 + t)^b, a = north
    and b = south the orders at the poles (0 for no point).  On each end
    piece the singular factor is taken analytically, v = (1 -+ t)^(1 +
    order), so what is left to integrate is continuous; e^u is summed by
    numpy's own Legendre series.  Each piece is split into subintervals that
    hold a few of the field's oscillations (16 for the middle at L = 128;
    the three pieces whole read 3e-11 off for a rough L = 128 field)."""
    mp = pytest.importorskip("mpmath")
    L = coeffs.band_limit
    splits = max(2, L // 8)
    a = coeffs.values[:, 0] * np.sqrt((2.0 * np.arange(L + 1) + 1.0)
                                      / (4.0 * np.pi))

    def smooth(t):
        return float(np.exp(np.polynomial.legendre.legval(float(t), a)))

    def end(order, other, sign):  # int over t = sign (1 - v^(1/(1+order)))
        def f(v):
            t = sign * (1 - v ** (1 / (1 + order)))
            return (1 + sign * t) ** other * smooth(t)
        top = mp.mpf(0.5) ** (1 + order)
        return mp.quad(f, mp.linspace(0, top, splits // 2 + 1)) / (1 + order)

    middle = mp.quad(lambda t: (1 - t) ** north * (1 + t) ** south
                     * smooth(t), mp.linspace(-0.5, 0.5, splits + 1))
    return float(mp.log(2 * mp.pi * (mp.e / 2) ** (north + south) * (
        end(north, south, 1) + end(south, north, -1) + middle)))


class TestCapOracle:
    """The Gauss-Jacobi caps against mpmath."""

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.25, -0.1, 0.5, 1.0947])
    @pytest.mark.parametrize("beta", [3.0, -40.0])
    def test_cap_integral(self, alpha, beta):
        """int_0^R (2 sin^2(r/2))^alpha e^(beta cos r) sin r dr = e^beta
        sum_k (-beta)^k V^(alpha+k+1) / (k! (alpha+k+1)), V = 2 sin^2(R/2),
        to 1e-15 on the 32-node rule (the rule in s = r^(2(1+alpha)) was
        off by up to 6.2e-7 at alpha = 1.0947)."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            a, V = mp.mpf(alpha), 2 * mp.sin(mp.mpf(CAP_RADIUS) / 2) ** 2
            exact = mp.exp(beta) * mp.nsum(
                lambda k: (-beta) ** k * V ** (a + k + 1)
                / (mp.factorial(k) * (a + k + 1)), [0, mp.inf])
        r, w = radial_rule((0.0, CAP_RADIUS), CAP_RADIAL_NODES,
                           2.0 * alpha + 1.0)
        approx = np.sum(w * (2.0 * np.sin(0.5 * r) ** 2) ** alpha
                        * np.exp(beta * np.cos(r)))
        assert float(abs(approx - exact) / exact) <= 1.0e-15

    @pytest.mark.parametrize("north, south, epsilon, bound", [
        (-0.25, -0.1, 0.3, 1.0e-13),      # the benchmark's solve orders
        (-0.2245, 1.0947, 0.3, 1.0e-13),  # an evaluate-like pair
        (-0.5, 0.0, 0.05, 2.0e-14),       # the sweep's last entry
    ])
    def test_log_exp_integral_of_converged_states(self, grid128, north,
                                                  south, epsilon, bound):
        """log int h e^u of converged L = 128 zonal states: 2.9e-15,
        4.4e-16 and 4.3e-15 off (1.65e-9, 7.8e-8 and 1.1e-14 with the cap
        rule in s = r^(2(1+alpha)))."""
        points = [(NORTH, north)] + ([(SOUTH, south)] if south else [])
        w = SingularWeight.from_orders(points)
        state = minimize(zero(grid128), grid128, w, w.rho_bar - epsilon,
                         max_iterations=4000)
        assert state.converged
        got = integrator_for(grid128, w).log_exp_integral(state.coeffs)
        assert abs(got - log_exp_reference(state.coeffs, north, south)) \
            <= bound

    @pytest.mark.parametrize("north, south", [
        (-0.5, 0.0), (-0.25, -0.1), (0.5, 0.0), (1.0947, 0.0)])
    def test_log_exp_integral_of_a_rough_field(self, grid128, rng, north,
                                               south):
        """log int h e^u of a rough L = 128 zonal column, coefficients
        N(0, 1) / (1 + l): the band's one Gauss-Legendre rule is 2.0e-13,
        5.7e-13, 1.6e-12 and 2.2e-12 off (graded panels: 4.9e-9 and 3.5e-9
        at the first two).  A single point takes an order-0 cap at the
        south pole (the band run to the bare pole: 5.6e-13, 2.5e-12 and
        4.1e-12)."""
        L = grid128.band_limit
        coeffs = SHCoefficients((rng.standard_normal(L + 1)
                                 / (1.0 + np.arange(L + 1)))[:, None])
        points = [(NORTH, north)] + ([(SOUTH, south)] if south else [])
        w = SingularWeight.from_orders(points)
        got = integrator_for(grid128, w).log_exp_integral(coeffs)
        assert abs(got - log_exp_reference(coeffs, north, south)) <= 1.0e-11


class TestEvalJ:
    def test_zero_at_zero(self, grid64):
        assert abs(eval_J(zero(grid64), grid64, SingularWeight(),
                          8.0 * np.pi)) < 1e-12

    def test_constant_invariance(self, grid64, rng):
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.25)])
        u = random_band_limited(grid64, rng)
        base = eval_J(grid64.transform.analysis_coeffs(u), grid64, w,
                      w.rho_bar)
        for c in (-10.0, -1.0, 0.3, 10.0):
            J = eval_J(grid64.transform.analysis_coeffs(u + c), grid64, w,
                       w.rho_bar)
            assert abs(J - base) < 1e-9

    def test_extremal_value(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        u = extremal_u(grid128, alpha)
        exact = 8.0 * np.pi * (1 + alpha) * (np.log1p(alpha) - alpha)
        assert eval_J(u, grid128, w, w.rho_bar) == pytest.approx(exact,
                                                                 rel=5e-3)
        assert exact == pytest.approx(4.0 * np.pi * (0.5 - np.log(2.0)))


class TestElResidual:
    def test_constants_solve_regular_equation(self, grid16, grid64):
        w, rho = SingularWeight(), 8.0 * np.pi - 1.0
        r = residual_field(zero(grid16).shifted(0.4), grid16, w, rho)
        assert np.abs(r).max() < 1e-10
        # roundoff grows ~ L^3 through the l(l+1) factor; stays tiny at L = 64
        r64 = residual_field(zero(grid64).shifted(0.4), grid64, w, rho)
        assert np.abs(r64).max() < 1e-9

    def test_zero_mean(self, grid64, rng):
        w = single_weight(-0.5)
        u = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        r = residual_field(u, grid64, w, w.rho_bar - 0.3)
        assert abs(grid64.transform.integral(r) / FOUR_PI) < 1e-8

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
        u = extremal_u(grid128, alpha)
        r = residual_coeffs(u, grid128, w, w.rho_bar)
        assert np.sqrt(np.sum(r.values**2)) < 0.05

    def test_reported_norm_matches_field(self, grid64, rng):
        w = single_weight(-0.5)
        rho = w.rho_bar - 0.3
        a = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        r = residual_field(a, grid64, w, rho)
        by_quadrature = np.sqrt(grid64.transform.integral(r**2))
        norm = np.sqrt(np.sum(residual_coeffs(a, grid64, w, rho).values**2))
        assert norm == pytest.approx(by_quadrature, rel=1e-9)

    @pytest.mark.parametrize("case", ["smooth", "axis", "off-axis",
                                      "zonal-u"])
    def test_gradient_consistency(self, grid64, rng, case):
        """dJ(u)[v] against central differences.

        The off-axis weight, with a K that its axis frame rotates to every
        order, runs the full-width log h.  A ring-constant u has a zonal
        column of coefficients, and so has its residual under an axis
        weight; paired with a v over every order, the column must be
        widened, not broadcast against each order of v.
        """
        if case == "smooth":
            w, rho = SingularWeight(), 8.0 * np.pi - 2.0
        else:
            w = off_axis_weight() if case == "off-axis" else single_weight(-0.5)
            rho = w.rho_bar - 0.3
        u = random_band_limited(grid64, rng)
        if case == "zonal-u":  # the ring means: the m = 0 part of u
            u = u.mean(axis=1, keepdims=True)
        c = grid64.transform.analysis_coeffs(u)
        assert (c.values.shape[-1] == 1) == (case == "zonal-u")
        a = c.widened().values
        r = residual_coeffs(c, grid64, w, rho).widened()
        step = 1e-5
        for _ in range(5):
            v = grid64.transform.analysis_coeffs(
                random_band_limited(grid64, rng, amplitude=1.0))
            fd = (eval_J(SHCoefficients(a + step * v.values), grid64, w, rho)
                  - eval_J(SHCoefficients(a - step * v.values), grid64, w, rho)
                  ) / (2.0 * step)
            pairing = np.sum(r.values * v.values)
            assert fd == pytest.approx(pairing, rel=1e-5)

    @pytest.mark.parametrize("case", ["zonal", "full", "off-axis"])
    def test_hessian_product(self, grid64, rng, case):
        """Hv against central differences of the residual, on the zonal
        path (one-column densities and vectors), the full path and the
        full-width log h of an off-axis weight with a K, in its frame."""
        w = off_axis_weight() if case == "off-axis" else single_weight(-0.5)
        rho = w.rho_bar - 0.3
        integ = axis_integrator(grid64, w)
        # the blocks perfbench's tracer reads: the one transform
        assert integ.blocks == (integ.transform,)
        assert (integ.log_h.shape[-1] > 1) == (case == "off-axis")
        u = random_band_limited(grid64, rng)
        if case == "zonal":  # the ring means: the m = 0 part of u
            u = u.mean(axis=1, keepdims=True)
        a = grid64.transform.analysis_coeffs(u)

        def residual(coeffs):
            dens = integ.density(coeffs)
            proj = integ.density_projection(dens)
            return density_residual(coeffs, dens, proj, rho), dens, proj

        _, dens, proj = residual(a)
        assert (proj.values.shape[-1] == 1) == (case == "zonal")
        if case != "zonal":
            a = a.widened()
        step = 1e-5
        for _ in range(3):
            v = grid64.transform.analysis_coeffs(
                random_band_limited(grid64, rng, amplitude=1.0))
            v = SHCoefficients(v.order(0)[:, None]) if case == "zonal" \
                else v.widened()
            hv = hessian_product(v.values, dens, proj, integ, rho)
            plus, minus = (residual(SHCoefficients(a.values + s * v.values))[0]
                           for s in (step, -step))
            fd = (plus.values - minus.values) / (2.0 * step)
            assert hv.shape == fd.shape == proj.values.shape
            # against the density terms alone: Lambda v is exact
            l, _ = v.rows
            density_part = hv - l * (l + 1.0) * v.values
            assert np.linalg.norm(hv - fd) <= \
                1e-6 * np.linalg.norm(density_part)


class TestTroyanovGap:
    def test_random_fields_nonnegative(self, grid64, rng):
        """Gap >= 0 with C = 0 and no singularities (sharp inequality)."""
        w = SingularWeight()
        worst = np.inf
        for _ in range(20):
            u = grid64.transform.analysis_coeffs(
                random_band_limited(grid64, rng))
            worst = min(worst, troyanov_gap(u, grid64, w, 0.0))
        assert worst >= -1e-6

    def test_conformal_family_equality(self, grid64):
        from sol_lab.closed_forms import conformal_pullback
        w = SingularWeight()
        for t in (1.0, 2.0, 4.0):
            u = conformal_pullback(zero(grid64), grid64, t, 0.0)
            assert abs(troyanov_gap(u, grid64, w, 0.0)) < 1e-6

    def test_attained_constant_antipodal(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        u = extremal_u(grid128, alpha)
        C = alpha - np.log1p(alpha)
        assert C == pytest.approx(-0.5 + np.log(2.0))
        assert abs(troyanov_gap(u, grid128, w, C)) < 1e-3

    @staticmethod
    def budget(fields, band_limit):
        """A BATCH_BUDGET whose stacks take ``fields`` samples at band
        limit L: one Legendre group and, per field, its coefficients and
        its order rows, 24 (L + 1)^2 bytes."""
        return sphere_grid.LEGENDRE_BYTES + fields * 24 * (band_limit + 1) ** 2

    def test_sample_stacks_take_the_budget(self, grid64, monkeypatch):
        """Under a BATCH_BUDGET of one Legendre group and four fields at
        their coefficient and order-row bytes, sample_gaps evaluates 18
        samples on the L = 64 two-cap block in the fewest stacks of at most
        4, of equal heights as far as they go (4, 4, 4, 3 and 3), with the
        gaps of one stack of 18 (the draws are one stream), and holds one
        stack at a time: with the integrator's tables kept from a first
        run, its traced peak is within one field's coefficients of a run
        of 4 samples, one stack (two stacks alive would add four fields')."""
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.3)])
        field = 8 * 65 * 129
        sizes, draw = [], sphere_grid.random_band_limited_batch

        def recorded(grid, rng, count):
            sizes.append(count)
            return draw(grid, rng, count)

        def traced(count):
            tracemalloc.start()
            try:
                gaps = sample_gaps(grid64, np.random.default_rng(3), count,
                                   w, 0.0)
                return gaps, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(sphere_grid, "random_band_limited_batch", recorded)
        one, _ = traced(18)
        assert sizes == [18]
        monkeypatch.setattr(mt_functional, "BATCH_BUDGET", self.budget(4, 64))
        _, stack = traced(4)
        sizes.clear()
        gaps, peak = traced(18)
        assert sizes == [4, 4, 4, 3, 3]
        assert np.max(np.abs(gaps - one) / np.abs(one)) <= 1e-13
        assert peak <= stack + field, (peak, stack)

    def test_no_stack_of_one_trails(self, monkeypatch):
        """One sample more than a stack holds splits into two stacks of 2,
        not 3 and 1: on the L = 64 two-cap block under a 1 MiB
        LEGENDRE_BYTES, below its table's bound, every stack streams its
        Legendre blocks, so neither the block nor a ring group keeps a
        table of more than the m = 0 block, and the gaps are one stack's
        to 1e-13."""
        grid = build_grid(65, 130)
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.3)])
        one = sample_gaps(grid, np.random.default_rng(4), 4, w, 0.0)
        grid = build_grid(65, 130)
        sizes, draw = [], sphere_grid.random_band_limited_batch

        def recorded(grid, rng, count):
            sizes.append(count)
            return draw(grid, rng, count)

        monkeypatch.setattr(sphere_grid, "random_band_limited_batch", recorded)
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", 1 << 20)
        # 3 fields and 97 % of a fourth
        monkeypatch.setattr(mt_functional, "BATCH_BUDGET",
                            self.budget(3, 64) + 98280)
        gaps = sample_gaps(grid, np.random.default_rng(4), 4, w, 0.0)
        assert sizes == [2, 2]
        integ = integrator_for(grid, w)
        for tr in [integ.transform] + [g for g, _ in integ._ring_groups]:
            assert len(tr._plm) <= 1
        assert np.max(np.abs(gaps - one) / np.abs(one)) <= 1e-13

    def test_one_sample_holds_no_more_than_two(self):
        """A stack of one sample streams as every stack does
        (``ProductTransform._legendre``): on the L = 128 two-cap block,
        whose table of every order takes 14 MB, the traced peak of
        sample_gaps on one sample is no higher than on two, with the
        integrator and its ring groups kept from a first run, and neither
        the block nor a ring group keeps a table of more than the m = 0
        block."""
        grid = build_grid(129, 258)
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.3)])
        sample_gaps(grid, np.random.default_rng(5), 2, w, 0.0)
        peaks = []
        for count in (2, 1):
            tracemalloc.start()
            try:
                sample_gaps(grid, np.random.default_rng(5), count, w, 0.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks
        integ = integrator_for(grid, w)
        for tr in [integ.transform] + [g for g, _ in integ._ring_groups]:
            assert len(tr._plm) <= 1

    def test_stack_drops_its_coefficients_before_its_passes(self):
        """The 20 samples of perfbench's seed-0 evaluate config (L = 256,
        orders -0.2245 north and 1.0947 south), one stack: with the
        integrator kept from a first run, the traced peak of sample_gaps is
        below the stack's coefficients (10.6 MB) and normals (10.6 MB)
        plus the values of a third of the block's rings, 215 of 643 (17.7
        MB).  The draw writes its normals straight into the coefficients,
        which no pass copies, and each ring group holds at most as many
        values as the coefficients: 26.6 MiB in all, against 30.3 MiB when
        a dense stack was drawn and gathered into its order rows, and 45.3
        MiB when every group read the dense stack and took a third of the
        rings."""
        grid = build_grid(257, 514)
        w = SingularWeight.from_orders([(NORTH, -0.22446251877996148),
                                        (SOUTH, 1.0947037198878191)])
        first = sample_gaps(grid, np.random.default_rng(1112038970), 20, w,
                            1.3489026857384658)
        tracemalloc.start()
        try:
            gaps = sample_gaps(grid, np.random.default_rng(1112038970), 20, w,
                               1.3489026857384658)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(gaps, first)
        coeffs, third = 20 * 8 * 257 * 258 // 2, 20 * 8 * 215 * 514
        assert peak < 2 * coeffs + third, peak

    def test_matches_functional(self, grid64, rng):
        w = single_weight(-0.5)
        u = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        gap = troyanov_gap(u, grid64, w, 0.7)
        J = eval_J(u, grid64, w, w.rho_bar)
        assert gap == pytest.approx(J / w.rho_bar + 0.7, rel=1e-10)


class TestDensityStack:
    @pytest.mark.parametrize("points", [
        [(NORTH, -0.5), (SOUTH, 0.3)],
        [((0.6, 0.0, 0.8), -0.5)],  # off axis, framed with a rotated K
    ])
    def test_stack_matches_per_field(self, grid64, rng, points):
        """A stack of fields gives each field's density record, with its
        own shift, in one synthesis."""
        w = (SingularWeight.from_orders(points) if len(points) == 2
             else off_axis_weight(points[0][0]))
        fields = [random_band_limited(grid64, rng) * s for s in (1.0, 6.0, 0.2)]
        stack = SHCoefficients(np.stack(
            [grid64.transform.analysis_coeffs(f).values for f in fields],
            axis=1))
        integ = integrator_for(grid64, w)
        dens = integ.density(stack)
        for i, f in enumerate(fields):
            one = integ.density(SHCoefficients(stack.values[:, i]))
            assert dens.shift[i] == pytest.approx(one.shift, rel=1e-14)
            assert dens.peak[i] == pytest.approx(one.peak, rel=1e-14)
            assert dens.log_integral[i] == pytest.approx(one.log_integral,
                                                         rel=1e-14)
            assert np.max(np.abs(dens.values[i] - one.values)) \
                <= 1e-14 * np.max(one.values)


class TestGroupedLogIntegral:
    """``log_exp_integral`` of a full-width stack of any height
    synthesizes it one ring group at a time and sums the groups' shifted
    integrals, so it never holds the stack's values at once."""

    @staticmethod
    def stack(grid, rng, k, scale=1.0):
        c = SHCoefficients(random_coeffs(rng, grid.band_limit, k))
        l, _ = c.rows
        c.values *= scale / (1.0 + l) ** 2
        return c

    @pytest.mark.parametrize("points", [
        [(NORTH, -0.5), (SOUTH, 0.3)],
        [(NORTH, -0.4), (SOUTH, -0.4)],  # paired caps
        [(NORTH, 0.6)],
        [],  # the grid's own transform: two groups
    ])
    def test_groups_agree_with_the_density(self, grid64, rng, points):
        """Within 4 ulp of max(1, |log I|) of the one-pass density, for
        fields up to max |u| of about 10."""
        integ = axis_integrator(grid64, SingularWeight.from_orders(points))
        assert len(integ._ring_groups) > 1
        for scale in (0.5, 5.0, 40.0):
            c = self.stack(grid64, rng, 5, scale)
            got = integ.log_exp_integral(c)
            want = integ.density(c).log_integral
            assert got.shape == (5,)
            assert np.all(np.abs(got - want)
                          <= 4 * np.spacing(np.maximum(1.0, np.abs(want))))

    def test_one_group_is_the_density(self, rng):
        """A rule of one ring pair (2 x 5 nodes at L = 1, odd n_phi),
        which no group of two rings or more splits, is one group, the
        transform itself, and a stack's log integral is the density's bit
        for bit."""
        grid = build_grid(2, 5)
        integ = axis_integrator(grid, SingularWeight.from_orders([]))
        assert integ.transform.weights.size == 2 * 5
        ((group, _),) = integ._ring_groups
        assert group is integ.transform
        c = self.stack(grid, rng, 4, 5.0)
        assert np.array_equal(integ.log_exp_integral(c),
                              integ.density(c).log_integral)

    def test_one_field_and_a_column_are_the_density(self, grid64, rng):
        """On a rule of nine groups, one field and a zonal stack take the
        density, bit for bit.  A stack of one takes the ring groups, as
        every stack does, and agrees with its density within 4 ulp of
        max(1, |log I|) (as in ``test_groups_agree_with_the_density``)."""
        integ = axis_integrator(grid64, SingularWeight.from_orders(
            [(NORTH, -0.5), (SOUTH, 0.3)]))
        assert len(integ._ring_groups) == 9
        c = self.stack(grid64, rng, 3, 5.0)
        column = SHCoefficients(c.values[:65, :, :1].copy())
        for coeffs in (SHCoefficients(c.values[:, 0]), column):
            got = integ.log_exp_integral(coeffs)
            assert np.array_equal(got, integ.density(coeffs).log_integral)
        assert isinstance(integ.log_exp_integral(
            SHCoefficients(c.values[:, 0])), float)
        stack = SHCoefficients(c.values[:, :1])
        got = integ.log_exp_integral(stack)
        want = integ.density(stack).log_integral
        assert np.shape(got) == np.shape(want) == (1,)
        assert np.all(np.abs(got - want)
                      <= 4 * np.spacing(np.maximum(1.0, np.abs(want))))

    def test_rows_hold_one_group_and_the_budget(self, grid64, rng,
                                                monkeypatch):
        """The recurrence's coefficient arrays count in LEGENDRE_BYTES: the
        coefficient rows of K = 8 fields on the L = 64 two-cap block, drawn
        and the ring groups built before, under a 512 KiB budget, trace a
        log integral of at most one group's values, the budget and the two
        per-order even and odd products, 2 * 8 * 2K * reps bytes (815,872
        B; 962,026 B when a and b lay outside the budget), and give the
        default budget's values bit for bit: an entry of the recurrence
        does not depend on its group of orders."""
        L, K, budget = 64, 8, 1 << 19
        integ = axis_integrator(grid64, SingularWeight.from_orders(
            [(NORTH, -0.5), (SOUTH, 0.3)]))
        rows = self.stack(grid64, rng, K)
        most = max(8 * K * g.weights.size for g, _ in integ._ring_groups)
        bound = most + budget + 2 * 8 * 2 * K * integ.transform._reps
        assert bound == 815_872
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", budget)
        tracemalloc.start()
        try:
            got = integ.log_exp_integral(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak
        monkeypatch.undo()
        assert np.array_equal(got, integ.log_exp_integral(rows))

    def test_stack_holds_one_group(self, grid64, rng, monkeypatch):
        """A stack of K = 8 fields on the L = 64 two-cap block (264 x 130
        nodes, 2.2 MB of values) under a 512 KiB LEGENDRE_BYTES streams
        each of its 9 ring groups (at most 33 rings, 30 here): the traced
        peak of its log integral, which copies no coefficient, is at most
        one group's values (0.25 MB, no more than the stack's coefficients,
        0.27 MB), LEGENDRE_BYTES and the two per-order even and odd
        products, 2 * 8 * 2K * reps bytes, and below the stack's values;
        the groups and the cos/sin table they share are kept from the first
        stack, not this pass's memory."""
        L, K, budget = 64, 8, 1 << 19
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", budget)
        integ = axis_integrator(grid64, SingularWeight.from_orders(
            [(NORTH, -0.5), (SOUTH, 0.3)]))
        groups = [group for group, _ in integ._ring_groups]
        assert max(g.t.size for g in groups) <= (L + 1) * (L + 2) // 130
        c = self.stack(grid64, rng, K)
        rows = 8 * K * (L + 1) * (L + 2)
        most = max(8 * K * g.weights.size for g in groups)
        assert most <= rows
        tracemalloc.start()
        try:
            integ.log_exp_integral(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(g._plm == [] for g in groups)
        assert c.values.nbytes == rows
        assert peak <= (most + budget
                        + 2 * 8 * 2 * K * integ.transform._reps), peak
        assert peak < 8 * K * integ.transform.weights.size, peak


class TestIntegratorExactness:
    @pytest.mark.parametrize("points", [
        [], [(NORTH, -0.5)], [(SOUTH, 0.5)], [(NORTH, -0.25), (SOUTH, 0.5)]])
    def test_axis_rule_is_one_product_block(self, grid64, points):
        """On the axis the composite rule is one product block: one
        transform over the north cap, band and south cap colatitudes, a
        pole with no point taking a cap of order 0; with no singular point
        it is the grid's own transform.  The band is one Gauss-Legendre
        rule of max(ceil(9 (L + 1) / 4), 20 / CAP_RADIUS) nodes, between
        two caps for one point too, so each of its rings has its mirror
        and the table spans 32 + 32 + 100 representative rings."""
        w = SingularWeight.from_orders(points)
        block = integrator_for(grid64, w).transform
        t = block.t
        assert block.weights.shape == (t.size, grid64.n_phi)
        if not points:
            assert block is grid64.transform
            return
        in_band = np.ones(t.size, dtype=bool)
        for pole in (1.0, -1.0):
            in_cap = pole * t > np.cos(CAP_RADIUS)
            assert in_cap.sum() == CAP_RADIAL_NODES
            in_band &= ~in_cap
        assert in_band.sum() == 200
        band = np.sort(t[in_band])
        assert np.array_equal(band, -band[::-1])
        assert block._reps == 2 * CAP_RADIAL_NODES + 100

    def test_smooth_integrand_through_caps(self, grid128):
        integ = axis_integrator(grid128, single_weight(-0.5))
        t = integ.transform
        val = np.sum(t.weights * t.t[:, None] ** 2)
        assert val == pytest.approx(FOUR_PI / 3.0, abs=1e-11)

    def test_band_limited_exp_smooth_weight(self, grid64, rng):
        """No singularities: composite rule reduces to the plain grid."""
        u = random_band_limited(grid64, rng, amplitude=1.0)
        by_grid = grid64.transform.integral(np.exp(u))
        assert exp_integral(grid64.transform.analysis_coeffs(u), grid64,
                            SingularWeight()) == pytest.approx(by_grid,
                                                               rel=1e-13)


class TestIntegratorCache:
    @pytest.mark.parametrize("pole", [None, NORTH])
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
        decides axis invariance once, however often it is asked for, from
        the weight's data alone, and reaches the decision of log h over the
        whole grid: the weight on the axis with log h exactly constant
        along every ring.  Zonal fields under an invariant weight get
        one-column densities."""
        grid = build_grid(17, 34)
        decided = []
        decide = SingularWeight.axis_invariant.fget

        def recorded(weight):
            decided.append(weight)
            return decide(weight)

        monkeypatch.setattr(SingularWeight, "axis_invariant",
                            property(recorded))
        zonal = SHCoefficients(np.zeros((grid.band_limit + 1, 1)))
        cases = {  # weight -> today's decision
            single_weight(-0.5): True,  # K = 1 on the axis
            single_weight(-0.25): True,
            SingularWeight.from_orders(  # a zonal K, 1 + 0.1 x3
                [(NORTH, -0.5)], K=affine_K(0)): True,
            axis_frame(SingularWeight.from_orders(  # framed: the pole
                [((1.0e-6, 0.0, 1.0), -0.75)])): True,
            SingularWeight.from_orders(  # a non-zonal K, 1 + 0.1 x1
                [(NORTH, -0.5)], K=affine_K(1)): False,
            SingularWeight.from_orders(  # both poles
                [(NORTH, -0.5), (SOUTH, -0.25)]): True,
        }
        for w, invariant in cases.items():
            whole_grid = (w.is_axis_aligned() and not np.ptp(
                w.log_weight(grid.nodes), axis=1).any())
            assert whole_grid == invariant
            first = integrator_for(grid, w)
            assert (first.log_h.shape[-1] == 1) == invariant
            for c in (zonal, full_path_coeffs(grid), zonal):
                assert integrator_for(grid, w) is first
                width = first.density(c).values.shape[-1]
                assert (width == 1) == (c is zonal and invariant)
        assert decided == list(cases)

    def test_cache_keys_K_by_its_values(self):
        """Weights with equal data share an integrator; a K with other
        values, or another width, gets its own."""
        grid = build_grid(17, 34)
        first = integrator_for(grid, SingularWeight.from_orders(
            [(NORTH, -0.5)], K=affine_K(0)))
        assert integrator_for(grid, SingularWeight.from_orders(
            [(NORTH, -0.5)], K=affine_K(0))) is first
        for K in (affine_K(0, 0.2), affine_K(0).widened(), None):
            assert integrator_for(grid, SingularWeight.from_orders(
                [(NORTH, -0.5)], K=K)) is not first

    def test_grid_holds_one_integrator(self):
        """Equal weight data is served the held integrator; another weight's
        takes its place, so five weights asked in turn leave one."""
        grid = build_grid(17, 34)
        weights = [SingularWeight.from_orders([(NORTH, -0.05 * (i + 1))])
                   for i in range(5)]
        first = integrator_for(grid, weights[0])
        assert integrator_for(grid, SingularWeight.from_orders(
            [(NORTH, -0.05)])) is first
        second = integrator_for(grid, weights[1])
        assert second is not first
        assert grid._integrator == (weights[1].cache_key(), second)
        for w in weights:
            integ = integrator_for(grid, w)
            assert integrator_for(grid, w) is integ
            assert grid._integrator == (w.cache_key(), integ)
        assert integrator_for(grid, weights[0]) is not first


def _refusal_cases():
    """id -> (call, what it must do): a string is the message of the
    ValueError it raises; ``rotated`` of a constant returns its argument."""
    grid = build_grid(17, 34)
    w = SingularWeight.from_orders([(NORTH, -0.5)])
    constant = SHCoefficients(np.ones((1, 1)))
    return {
        "normalized-zero": (lambda: normalized([0.0, 0.0, 0.0]),
                            "cannot normalize the zero vector"),
        "analysis-without-weights": (
            lambda: ProductTransform(4, grid.t, grid.n_phi).analysis_coeffs(
                np.zeros((grid.n_theta, grid.n_phi))),
            "built without quadrature weights"),
        "rotated-constant": (lambda: rotated(constant, np.eye(3)) is constant,
                             True),
        "pullback-t-0": (lambda: conformal_pullback(zero(grid), grid, 0.0,
                                                    0.0),
                         "dilation parameter must be positive"),
        "bubble-c-0": (lambda: planar_bubble(0.1, 0.0, -0.5),
                       "bubble constant must be positive"),
        "radial-K": (lambda: concentration_functional(
            SingularWeight.from_orders([(NORTH, -0.5)], K=affine_K(0)), 0.01,
            NORTH),
            "K: radial evaluation supports K == 1 only"),
        "blowup-alpha-0-no-grid": (
            lambda: blowup_infimum(SingularWeight.from_orders([])),
            "the alpha = 0 branch needs a grid"),
        "rho-0": (lambda: minimize(zero(grid), grid, w, 0.0,
                                   max_iterations=1),
                  "rho must be positive"),
        "rho-negative": (lambda: minimize(zero(grid), grid, w, -1.0,
                                          max_iterations=1),
                         "rho must be positive"),
        "cap-radius-pi": (lambda: cap_density_integral(
            zero(grid), grid, w, np.array(NORTH), np.pi - 0.2),
            "cap radius too large for the polar rule"),
        "sweep-epsilon-rho-bar": (lambda: epsilon_sweep(
            w, grid, [w.rho_bar], max_iterations=1, init_epsilon=None),
            "is not below rho_bar"),
    }


REFUSALS = _refusal_cases()


@pytest.mark.parametrize("call, outcome", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_library_refusals(call, outcome):
    """Each library function refuses the input it cannot serve with a
    ValueError that says why (``rotated`` of a constant has nothing to
    turn and returns it)."""
    if outcome is True:
        assert call() is True
    else:
        with pytest.raises(ValueError, match=outcome):
            call()
