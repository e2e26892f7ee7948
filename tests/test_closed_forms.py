"""Stereographic chart, extremal family, bubble, test functions."""

import os
import subprocess
import sys

import numpy as np
import pytest

import sol_lab
from sol_lab.closed_forms import (
    ExtremalParams,
    conformal_pullback,
    dilated_dot,
    extremal_u,
    extremal_value,
    extremal_weight,
    log_det_dilation,
    log_one_plus_s_integral,
    planar_bubble,
    planar_bubble_mass,
    planar_liouville_residual,
    planar_liouville_total_mass,
)
from sol_lab.closed_forms import (
    ConcentrationParams,
    concentration_field,
    concentration_functional,
    concentration_profile,
    concentration_sweep,
)
from sol_lab.mt_functional import FunctionalParams, eval_J
from sol_lab.singular_geometry import REGULAR_PART, SingularWeight
from sol_lab.sphere_grid import FOUR_PI

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])


class TestStereographic:
    def test_green_transfer(self):
        """G_p o pi^{-1}(y) = log(1 + |y|^2)/(4 pi) - 1/(4 pi), the
        normalization ``extremal_value`` relies on; pi^{-1}(y) from the pole
        e3 is (2y, |y|^2 - 1)/(1 + |y|^2)."""
        from sol_lab.singular_geometry import green
        for radius in (0.3, 1.0, 2.7):
            x = (np.array([2.0 * radius, 0.0, radius**2 - 1.0])
                 / (1.0 + radius**2))
            expected = np.log1p(radius**2) / FOUR_PI - 1.0 / FOUR_PI
            assert green(NORTH, x) == pytest.approx(expected, rel=1e-12)


class TestExtremalFamily:
    def test_value_at_projection_pole(self):
        assert extremal_value(ExtremalParams(alpha=-0.5), NORTH) == 0.0

    def test_value_at_equator(self):
        val = extremal_value(ExtremalParams(alpha=-0.5),
                             np.array([1.0, 0.0, 0.0]))
        assert val == pytest.approx(-np.log(2.0), rel=1e-12)

    def test_finite_at_antipode(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = extremal_value(ExtremalParams(lam=3.0, c=0.7, alpha=-0.5),
                                 np.array([0.0, 0.0, -1.0]))
        assert val == pytest.approx(0.7, rel=1e-12)  # u_{lam,c}(-axis) = c

    def test_lambda_c_shift_at_pole(self):
        p = ExtremalParams(lam=3.0, c=1.2, alpha=-0.5)
        assert extremal_value(p, NORTH) == pytest.approx(
            1.2 - 2.0 * np.log(3.0), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExtremalParams(lam=-1.0)
        with pytest.raises(ValueError):
            ExtremalParams(alpha=0.5)

    def test_functional_invariance(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        J_10, J_23 = (
            eval_J(extremal_u(p, grid128), grid128, params)
            for p in (ExtremalParams(alpha=alpha),
                      ExtremalParams(lam=2.0, c=3.0, alpha=alpha)))
        assert abs(J_23 - J_10) < 1e-3

    def test_closure_under_dilation(self, grid64, rng):
        """u_{lam,c} = u_{1,0} o phi_t + (1+a) log|det d phi_t| + c - log lam
        with t = lam^{1/(2(1+a))}, pointwise through the closed forms."""
        alpha, lam, c = -0.4, 2.5, 0.7
        t = lam ** (1.0 / (2.0 * (1.0 + alpha)))
        xs = rng.normal(size=(50, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        dot = xs[:, 2]
        lhs = extremal_value(ExtremalParams(lam=lam, c=c, alpha=alpha), xs)
        new_dot = dilated_dot(t, dot)
        moved = np.stack([
            np.sqrt(np.maximum(1 - new_dot**2, 0)) * xs[:, 0]
            / np.maximum(np.sqrt(1 - dot**2), 1e-300),
            np.sqrt(np.maximum(1 - new_dot**2, 0)) * xs[:, 1]
            / np.maximum(np.sqrt(1 - dot**2), 1e-300),
            new_dot], axis=-1)
        rhs = (extremal_value(ExtremalParams(alpha=alpha), moved)
               + (1 + alpha) * log_det_dilation(t, dot) + c - np.log(lam))
        assert np.abs(lhs - rhs).max() < 1e-8


class TestConformalPullback:
    def test_identity_at_t1(self, grid64, rng):
        from conftest import random_band_limited
        u = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        pulled = conformal_pullback(u, grid64, 1.0, -0.3)
        assert np.abs(pulled.values - u.values).max() < 1e-10

    def test_onofri_equality_family(self, grid64):
        """u = log |det d phi_t| gives J_{8 pi} = 0 (smooth equality case)."""
        w = SingularWeight()
        params = FunctionalParams(rho=8.0 * np.pi, weight=w)
        from conftest import zero
        for t in (2.0, 4.0):
            u = conformal_pullback(zero(grid64), grid64, t, 0.0)
            assert abs(eval_J(u, grid64, params)) < 1e-5

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    def test_zonal_field_matches_full_synthesis(self, grid64, axis,
                                                monkeypatch):
        """A zonal u is resampled by the m = 0 synthesis and analysed as
        one column, into a column; it matches the full-order synthesis of
        its widened coefficients at the dilated colatitudes."""
        from sol_lab import sphere_grid
        u = extremal_u(ExtremalParams(alpha=-0.4), grid64)
        assert u.values.shape[-1] == 1
        orders = []
        table = sphere_grid.normalized_legendre

        def recorded(band_limit, t, m_max=None, floor=0.0):
            orders.append(m_max)
            return table(band_limit, t, m_max, floor)

        monkeypatch.setattr(sphere_grid, "normalized_legendre", recorded)
        pulled = conformal_pullback(u, grid64, 3.0, -0.4, axis=axis)
        assert orders == [0]
        assert pulled.values.shape[-1] == 1
        sign = axis[2]
        dot = sign * grid64.t
        full = sphere_grid.ProductTransform(
            grid64.band_limit, sign * dilated_dot(3.0, dot), grid64.n_phi)
        want = grid64.transform.analysis_coeffs(
            full.synthesis_values(u.widened())
            + 0.6 * log_det_dilation(3.0, dot)[:, None])
        assert np.max(np.abs(pulled.widened().values - want.values)) <= \
            1e-13 * np.max(np.abs(want.values))

    def test_extremal_invariance(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        pulled = conformal_pullback(u, grid128, 2.0, alpha)
        J_pulled, J_u = (eval_J(f, grid128, params) for f in (pulled, u))
        assert abs(J_pulled - J_u) < 1e-3


class TestPlanarBubble:
    def test_normalization_and_monotonicity(self):
        assert planar_bubble(0.0, 1.0, -0.5) == 0.0
        r = np.linspace(0.0, 5.0, 50)
        vals = planar_bubble(r, 1.3, -0.4)
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("c_p,alpha", [
        (2.0 * np.exp(-0.5), -0.5), (1.3, -0.25), (0.7, -0.75)])
    def test_unit_mass(self, c_p, alpha):
        assert abs(planar_bubble_mass(c_p, alpha) - 1.0) < 1e-8

    def test_total_liouville_mass_is_rho_bar(self):
        alpha = -0.5
        rho_bar = 8.0 * np.pi * (1.0 + alpha)
        assert abs(planar_liouville_total_mass(2.0 * np.exp(-0.5), alpha)
                   - rho_bar) < 1e-7

    def test_liouville_equation_residual(self):
        c_p = 2.0 * np.exp(-0.5)
        r = np.geomspace(1e-3, 10.0, 60)
        assert planar_liouville_residual(r, c_p, -0.5).max() < 1e-6

    def test_log_integral(self):
        assert abs(log_one_plus_s_integral() - 1.0) < 1e-10


class TestTestFunctions:
    def test_peak_value(self):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        params = ConcentrationParams(epsilon=1e-3, weight=w)
        profile = concentration_profile(params)
        assert profile(0.0) == pytest.approx(-np.log(1e-3), rel=1e-12)

    def test_branches_match_at_r_eps(self):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        for eps in (1e-2, 1e-3, 1e-4):
            params = ConcentrationParams(epsilon=eps, weight=w)
            profile = concentration_profile(params)
            r = params.r_eps
            jump = profile(r * (1 - 1e-12)) - profile(r * (1 + 1e-12))
            assert abs(jump) < 1e-9
            # the matching error allowance stays far below the 0.05 budget
            assert abs(jump) < 0.05

    def test_epsilon_guards(self):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        with pytest.raises(ValueError):
            ConcentrationParams(epsilon=1.5, weight=w)
        w2 = SingularWeight.from_orders([(tuple(NORTH), -0.5),
                                         ((0.0, np.sin(0.25), np.cos(0.25)),
                                          0.5)])
        with pytest.raises(ValueError):
            ConcentrationParams(epsilon=0.2, weight=w2)

    def test_concentration_point_must_be_minimal(self):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5),
                                        (tuple(SOUTH), 0.25)])
        with pytest.raises(ValueError):
            ConcentrationParams(epsilon=1e-3, weight=w, p=SOUTH)

    def test_sampled_field_matches_profile(self, grid64):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        params = ConcentrationParams(epsilon=1e-2, weight=w)
        field = concentration_field(params, grid64)
        assert field.values.shape[-1] == 1  # p on the axis: a zonal column
        profile = concentration_profile(params)
        d = np.arccos(np.clip(grid64.nodes @ NORTH, -1, 1))
        want = grid64.transform.analysis_coeffs(profile(d)).values
        assert np.abs(field.widened().values - want).max() < 1e-12

    def test_upper_bound_sweep(self):
        """J(phi_eps) decreases toward the blow-up value from above."""
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        records = concentration_sweep(w, [1e-2, 1e-3, 1e-4])
        Js = [rec["J"] for rec in records]
        assert Js[0] > Js[1] > Js[2]
        target = -w.rho_bar * np.log(2.0)
        assert Js[2] > target
        assert (Js[2] - target) / abs(target) < 0.10

    def test_exponential_term_limit(self):
        """int h e^{phi_eps} approaches pi e^{-4 pi a A}/(1+a)."""
        alpha = -0.5
        w = SingularWeight.from_orders([(tuple(NORTH), alpha)])
        rec = concentration_functional(
            ConcentrationParams(epsilon=1e-4, weight=w))
        limit = np.pi * np.exp(-FOUR_PI * alpha * REGULAR_PART) / (1 + alpha)
        assert rec["exp_integral"] == pytest.approx(limit, rel=0.05)

    def test_antipodal_pair_sweep_target(self):
        """Mixed antipodal pair: the sweep approaches the mixed constant."""
        a1, a2 = -0.5, 0.25
        w = SingularWeight.from_orders([(tuple(NORTH), a1), (tuple(SOUTH), a2)])
        records = concentration_sweep(w, [1e-2, 1e-3, 1e-4])
        Js = [rec["J"] for rec in records]
        target = -w.rho_bar * (a2 - np.log1p(a1))
        assert Js[0] > Js[1] > Js[2] > target
        assert (Js[2] - target) / abs(target) < 0.10


def test_fine_integral_oracle():
    """int_0^inf log(1+s)/(1+s)^2 ds = 1 underpins the extremal value."""
    assert log_one_plus_s_integral() == pytest.approx(1.0, abs=1e-10)


class TestLazyScipy:
    def test_solver_modules_load_no_scipy(self):
        """scipy.integrate loads inside the quadratures that call it, so a
        solve that never integrates radially does not pay its import."""
        script = ("import sys\n"
                  "import sol_lab.cli, sol_lab.closed_forms, "
                  "sol_lab.identity_checks, sol_lab.subcritical_solver\n"
                  "print(sorted(m for m in sys.modules if "
                  "m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sol_lab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.splitlines()
        assert out == ["[]"]
