"""Stereographic chart, extremal family, bubble, test functions."""

import ast
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import sol_lab
from sol_lab import closed_forms
from sol_lab.closed_forms import (
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
    R_EPS_MIN,
    concentration_field,
    concentration_functional,
    concentration_profile,
    concentration_scales,
    concentration_sweep,
)
from sol_lab.mt_functional import eval_J
from sol_lab.singular_geometry import REGULAR_PART, SingularWeight
from sol_lab.sphere_grid import FOUR_PI

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])


def family_calls(grid):
    """Each function of the concentration family as f(weight, epsilon, p):
    all of them refuse through ``concentration_scales``."""
    return (concentration_scales, concentration_profile,
            lambda w, eps, p: concentration_field(grid, w, eps, p),
            concentration_functional,
            lambda w, eps, p: concentration_sweep(w, [eps], p))


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
        assert extremal_value(NORTH, -0.5) == 0.0

    def test_value_at_equator(self):
        val = extremal_value(np.array([1.0, 0.0, 0.0]), -0.5)
        assert val == pytest.approx(-np.log(2.0), rel=1e-12)

    def test_finite_at_antipode(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = extremal_value(SOUTH, -0.5, lam=3.0, c=0.7)
        assert val == pytest.approx(0.7, rel=1e-12)  # u_{lam,c}(-axis) = c

    def test_lambda_c_shift_at_pole(self):
        assert extremal_value(NORTH, -0.5, lam=3.0, c=1.2) == pytest.approx(
            1.2 - 2.0 * np.log(3.0), rel=1e-12)

    def test_parameter_validation(self, grid16):
        """extremal_value refuses lambda <= 0 and alpha outside (-1, 0),
        and so does extremal_u, which samples it."""
        for alpha, lam, message in (
                (-0.5, -1.0, "^lambda must be positive$"),
                (-0.5, 0.0, "^lambda must be positive$"),
                (0.5, 1.0, r"^alpha must lie in \(-1, 0\)$")):
            with pytest.raises(ValueError, match=message):
                extremal_value(NORTH, alpha, lam)
            with pytest.raises(ValueError, match=message):
                extremal_u(grid16, alpha, lam)

    def test_functional_invariance(self, grid128):
        alpha = -0.5
        w = extremal_weight(alpha)
        J_10, J_23 = (
            eval_J(u, grid128, w, w.rho_bar)
            for u in (extremal_u(grid128, alpha),
                      extremal_u(grid128, alpha, lam=2.0, c=3.0)))
        assert abs(J_23 - J_10) < 1e-3

    def test_closure_under_dilation(self, grid64, rng):
        """u_{lam,c} = u_{1,0} o phi_t + (1+a) log|det d phi_t| + c - log lam
        with t = lam^{1/(2(1+a))}, pointwise through the closed forms."""
        alpha, lam, c = -0.4, 2.5, 0.7
        t = lam ** (1.0 / (2.0 * (1.0 + alpha)))
        xs = rng.normal(size=(50, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        dot = xs[:, 2]
        lhs = extremal_value(xs, alpha, lam, c)
        new_dot = dilated_dot(t, dot)
        moved = np.stack([
            np.sqrt(np.maximum(1 - new_dot**2, 0)) * xs[:, 0]
            / np.maximum(np.sqrt(1 - dot**2), 1e-300),
            np.sqrt(np.maximum(1 - new_dot**2, 0)) * xs[:, 1]
            / np.maximum(np.sqrt(1 - dot**2), 1e-300),
            new_dot], axis=-1)
        rhs = (extremal_value(moved, alpha)
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
        from conftest import zero
        for t in (2.0, 4.0):
            u = conformal_pullback(zero(grid64), grid64, t, 0.0)
            assert abs(eval_J(u, grid64, w, 8.0 * np.pi)) < 1e-5

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    def test_zonal_field_matches_full_synthesis(self, grid64, axis,
                                                monkeypatch):
        """A zonal u is resampled by the m = 0 synthesis and analysed as
        one column, into a column; it matches the full-order synthesis of
        its widened coefficients at the colatitudes dilated by t = 3 about
        ``axis``, an oracle that the pullback meets about -e3 at 1 / t:
        the dilation about -e3 by t is the one about +e3 by 1 / t."""
        from sol_lab import sphere_grid
        u = extremal_u(grid64, -0.4)
        assert u.values.shape[-1] == 1
        orders = []
        table = sphere_grid.normalized_legendre

        def recorded(band_limit, t, m_max=None, floor=0.0):
            orders.append(m_max)
            return table(band_limit, t, m_max, floor)

        monkeypatch.setattr(sphere_grid, "normalized_legendre", recorded)
        sign = axis[2]
        pulled = conformal_pullback(u, grid64, 3.0 ** sign, -0.4)
        assert orders == [0]
        assert pulled.values.shape[-1] == 1
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
        u = extremal_u(grid128, alpha)
        pulled = conformal_pullback(u, grid128, 2.0, alpha)
        J_pulled, J_u = (eval_J(f, grid128, w, w.rho_bar) for f in (pulled, u))
        assert abs(J_pulled - J_u) < 1e-3


class TestPlanarBubble:
    def test_normalization_and_monotonicity(self):
        assert planar_bubble(0.0, 1.0, -0.5) == 0.0
        r = np.linspace(0.0, 5.0, 50)
        vals = planar_bubble(r, 1.3, -0.4)
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("c_p,alpha", [
        (2.0 * np.exp(-0.5), -0.5), (1.3, -0.25), (0.7, -0.75), (0.9, -0.9)])
    def test_unit_mass(self, c_p, alpha):
        assert abs(planar_bubble_mass(c_p, alpha) - 1.0) < 1e-12

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
        profile = concentration_profile(w, 1e-3, NORTH)
        assert profile(0.0) == pytest.approx(-np.log(1e-3), rel=1e-12)

    def test_branches_match_at_r_eps(self):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        for eps in (1e-2, 1e-3, 1e-4):
            profile = concentration_profile(w, eps, NORTH)
            r = concentration_scales(w, eps, NORTH)[1]
            jump = profile(r * (1 - 1e-12)) - profile(r * (1 + 1e-12))
            assert abs(jump) < 1e-9
            # the matching error allowance stays far below the 0.05 budget
            assert abs(jump) < 0.05

    def test_epsilon_guards(self, grid16):
        """An epsilon outside (0, 1), a cap beyond the safe scale and one
        that reaches another singular point are refused by every function
        of the family."""
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        w2 = SingularWeight.from_orders([(tuple(NORTH), -0.5),
                                         ((0.0, np.sin(0.25), np.cos(0.25)),
                                          0.5)])
        shallow = SingularWeight.from_orders([(tuple(NORTH), -0.1)])
        for weight, eps, message in (
                (w, 1.5, r"^epsilon must lie in \(0, 1\)$"),
                (shallow, 0.3,
                 "^epsilon too large: cap exceeds the safe scale$"),
                (w2, 0.2, "^epsilon too large: cap reaches another "
                 "singular point$")):
            for call in family_calls(grid16):
                with pytest.raises(ValueError, match=message):
                    call(weight, eps, NORTH)

    def test_epsilon_floor(self, grid16):
        """At order -0.99 an epsilon whose r_eps lies just above R_EPS_MIN
        (2.4e-154) gives a J self-converged to 1e-15 under doubled panel
        nodes, below J(1e-4); one just below it (1.9e-154), the
        underflowed r_eps of 1e-8 and the 1.1e-197 of 1e-5 (J = nan) are
        refused."""
        w = SingularWeight.from_orders([(tuple(NORTH), -0.99)])
        r_eps = concentration_scales(w, 9.1e-5, NORTH)[1]
        assert R_EPS_MIN <= r_eps <= 1.2 * R_EPS_MIN
        J = concentration_functional(w, 9.1e-5, NORTH)["J"]
        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(closed_forms, "_PANEL_NODES",
                           2 * closed_forms._PANEL_NODES)
            assert J == pytest.approx(
                concentration_functional(w, 9.1e-5, NORTH)["J"], rel=1e-15)
        assert J < concentration_functional(w, 1e-4, NORTH)["J"]
        for eps in (9.05e-5, 1e-5, 1e-8):
            for call in family_calls(grid16):
                with pytest.raises(ValueError, match="epsilon too small"):
                    call(w, eps, NORTH)

    def test_concentration_point_must_be_minimal(self, grid16):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5),
                                        (tuple(SOUTH), 0.25)])
        for call in family_calls(grid16):
            with pytest.raises(ValueError, match="^test functions "
                               "concentrate at a point of minimal order$"):
                call(w, 1e-3, SOUTH)

    def test_sampled_field_matches_profile(self, grid64):
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        field = concentration_field(grid64, w, 1e-2, NORTH)
        assert field.values.shape[-1] == 1  # p on the axis: a zonal column
        profile = concentration_profile(w, 1e-2, NORTH)
        d = np.arccos(np.clip(grid64.nodes @ NORTH, -1, 1))
        want = grid64.transform.analysis_coeffs(profile(d)).values
        assert np.abs(field.widened().values - want).max() < 1e-12

    def test_upper_bound_sweep(self):
        """J(phi_eps) decreases toward the blow-up value from above."""
        w = SingularWeight.from_orders([(tuple(NORTH), -0.5)])
        records = concentration_sweep(w, [1e-2, 1e-3, 1e-4], NORTH)
        Js = [rec["J"] for rec in records]
        assert Js[0] > Js[1] > Js[2]
        target = -w.rho_bar * np.log(2.0)
        assert Js[2] > target
        assert (Js[2] - target) / abs(target) < 0.10

    def test_exponential_term_limit(self):
        """int h e^{phi_eps} approaches pi e^{-4 pi a A}/(1+a)."""
        alpha = -0.5
        w = SingularWeight.from_orders([(tuple(NORTH), alpha)])
        rec = concentration_functional(w, 1e-4, NORTH)
        limit = np.pi * np.exp(-FOUR_PI * alpha * REGULAR_PART) / (1 + alpha)
        assert rec["exp_integral"] == pytest.approx(limit, rel=0.05)

    def test_antipodal_pair_sweep_target(self):
        """Mixed antipodal pair: the sweep approaches the mixed constant."""
        a1, a2 = -0.5, 0.25
        w = SingularWeight.from_orders([(tuple(NORTH), a1), (tuple(SOUTH), a2)])
        records = concentration_sweep(w, [1e-2, 1e-3, 1e-4], NORTH)
        Js = [rec["J"] for rec in records]
        target = -w.rho_bar * (a2 - np.log1p(a1))
        assert Js[0] > Js[1] > Js[2] > target
        assert (Js[2] - target) / abs(target) < 0.10


def test_fine_integral_oracle():
    """int_0^inf log(1+s)/(1+s)^2 ds = 1 underpins the extremal value."""
    assert log_one_plus_s_integral() == pytest.approx(1.0, abs=1e-10)


class TestLazyScipy:
    def test_solver_modules_load_no_scipy(self):
        """Importing the package loads no scipy module: ``src/`` integrates
        with numpy alone (``mt_functional.radial_rule``), and scipy is a
        test dependency, the oracle of several tests."""
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

    def test_no_module_imports_scipy(self):
        """No import statement of any module of the package, at its top
        level or inside a function, names scipy."""
        package = os.path.dirname(os.path.abspath(sol_lab.__file__))
        found = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [f"{name}:{node.lineno} {m}" for m in modules
                          if m.split(".")[0] == "scipy"]
        assert found == []


def mp_concentration_functional(alpha, eps, far=0.0, dps=25):
    """J(phi_eps) and its terms for a point of order ``alpha`` at the north
    pole (and one of order ``far`` at the south pole), by mpmath's
    tanh-sinh quadrature in r at ``dps`` digits: an oracle written from the
    definitions in ``closed_forms``' docstrings, independent of its code.
    Breakpoints: 4-fold in u = r^{2(1+alpha)} inside the cap, where the
    bubble has scale eps, and 4-fold in r outside it, with the cutoff's
    ramp ending at 2 r_eps."""
    with mp.workdps(dps):
        a, eps, far = mp.mpf(alpha), mp.mpf(eps), mp.mpf(far)
        p = 2 * (1 + a)
        rho = 8 * mp.pi * (1 + a)
        A = (2 * mp.log(2) - 1) / (4 * mp.pi)
        r_eps = (-mp.log(eps) * eps) ** (1 / p)
        c_eps = -2 * mp.log1p(-1 / mp.log(eps)) - rho * A

        def log_factor(one_minus):
            return mp.log(one_minus) + 1 - mp.log(2)

        def green(r):
            return -log_factor(2 * mp.sin(r / 2) ** 2) / (4 * mp.pi)

        def sigma(r):
            return green(r) + mp.log(r) / (2 * mp.pi) - A

        def ramp(r):  # the cutoff eta and its slope
            s = min(max(r / r_eps - 1, 0), 1)
            return 1 - s * s * (3 - 2 * s), -6 * s * (1 - s) / r_eps

        def phi(r):
            if r < r_eps:
                return mp.log(eps) - 2 * mp.log(eps + r ** p)
            return (rho * (green(r) - ramp(r)[0] * sigma(r)) + c_eps
                    + mp.log(eps))

        def grad2(r):
            if r < r_eps:
                return (2 * p * r ** (p - 1) / (eps + r ** p)) ** 2
            g1 = -mp.cot(r / 2) / (4 * mp.pi)
            eta, eta1 = ramp(r)
            return (rho * (g1 - eta1 * sigma(r)
                           - eta * (g1 + 1 / (2 * mp.pi * r)))) ** 2

        def dens(r):
            return mp.exp(a * log_factor(2 * mp.sin(r / 2) ** 2)
                          + far * log_factor(2 * mp.cos(r / 2) ** 2)
                          + phi(r) + mp.log(eps))

        cuts = sorted({r_eps * mp.mpf(4) ** (-k / p) for k in range(1, 12)}
                      | {r_eps * mp.mpf(4) ** k for k in range(400)
                         if r_eps * 4 ** k < mp.pi / 2} | {2 * r_eps})

        def radial(f):
            return 2 * mp.pi * mp.quad(lambda r: f(r) * mp.sin(r),
                                       [0, *cuts, mp.pi / 2, mp.pi])

        dirichlet = radial(grad2)
        mean = radial(phi) / (4 * mp.pi)
        log_exp = -mp.log(eps) + mp.log(radial(dens))
        J = dirichlet / 2 + rho * mean - rho * (log_exp - mp.log(4 * mp.pi))
        return {"J": float(J), "dirichlet": float(dirichlet),
                "mean": float(mean), "log_exp_integral": float(log_exp)}


class TestRadialOracle:
    @pytest.mark.parametrize("alpha, far", [(-0.9, 0.0), (-0.5, 0.25)],
                             ids=["north-0.9", "pair-0.5-0.25"])
    def test_concentration_functional_matches_mpmath(self, alpha, far):
        """The radial J at eps = 1e-4 against a 25-digit oracle: adaptive
        quad read log int h e^phi = 3.70443 and J = -5.57235 at alpha =
        -0.9, against 3.78527 and -5.77553."""
        w = SingularWeight.from_orders(
            [(tuple(NORTH), alpha)] + ([(tuple(SOUTH), far)] if far else []))
        rec = concentration_functional(w, 1e-4, NORTH)
        want = mp_concentration_functional(alpha, 1e-4, far)
        for key, value in want.items():
            assert rec[key] == pytest.approx(value, rel=1e-9, abs=0.0), key

    def test_least_epsilon_near_order_zero(self):
        """At order -1e-3, eps = 1e-300 gives r_eps = 1.9e-149, above
        R_EPS_MIN, where (eps + u)^2 underflows: the Dirichlet term read
        inf.  Against the 30-digit oracle (6 s, so recorded here), the
        Dirichlet term agrees to 2.1e-16 and J to 2.1e-8, relative, the
        gap J already shows at eps = 1e-100."""
        w = SingularWeight.from_orders([(tuple(NORTH), -1e-3)])
        rec = concentration_functional(w, 1e-300, NORTH)
        # mp_concentration_functional(-1e-3, 1e-300, dps=30)
        assert rec["dirichlet"] == pytest.approx(34656.751485038505,
                                                 rel=1e-14, abs=0.0)
        assert rec["J"] == pytest.approx(-0.025093963625886916, rel=1e-7,
                                         abs=0.0)
