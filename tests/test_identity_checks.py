"""Sharp constants, pipeline consistency, the axis identity and its layout."""

import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sol_lab.closed_forms import extremal_u, extremal_weight
from sol_lab.identity_checks import (
    RegimeError,
    kazdan_warner_residual,
    blowup_infimum,
    sphere_sharp_constant,
)
from sol_lab.mt_functional import eval_J, integrator_for
from sol_lab.singular_geometry import REGULAR_PART, SingularWeight, axis_frame
from sol_lab.sphere_grid import FOUR_PI, SHCoefficients, build_grid

from conftest import random_band_limited, zero

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


class TestSharpConstants:
    def test_one_singularity_negative(self):
        rep = sphere_sharp_constant(-0.5)
        assert rep.C == pytest.approx(np.log(2.0), rel=1e-15)
        assert not rep.attained

    def test_one_singularity_positive(self):
        for a in (0.5, 1.0, 2.0):
            rep = sphere_sharp_constant(a)
            assert rep.C == pytest.approx(a, rel=1e-15)
            assert not rep.attained

    def test_mixed_antipodal(self):
        rep = sphere_sharp_constant(-0.5, 0.25, antipodal=True)
        assert rep.C == pytest.approx(0.25 + np.log(2.0), rel=1e-15)
        assert rep.C == pytest.approx(0.943147, abs=1e-6)
        assert not rep.attained

    def test_equal_antipodal_attained(self):
        rep = sphere_sharp_constant(-0.5, -0.5, antipodal=True)
        assert rep.C == pytest.approx(-0.5 + np.log(2.0), rel=1e-12)
        assert rep.attained
        assert rep.inf_J == pytest.approx(
            8.0 * np.pi * 0.5 * (np.log(0.5) + 0.5), rel=1e-12)

    @pytest.mark.parametrize("points, branch", [
        ([(NORTH, -0.5)], "minimal-order points"),
        ([(NORTH, -0.5), (SOUTH, 0.25)], "minimal-order points"),
        ([], "grid maximization"),
    ])
    def test_report_dict_states_each_field_once(self, grid64, points,
                                                branch):
        """``to_dict`` of the one-point, antipodal-pair and alpha = 0
        blow-up values has the record's fields and inf_J, its maximizer
        as a list of floats (None with no maximizer), and goes through
        JSON unchanged."""
        rep = blowup_infimum(SingularWeight.from_orders(points), grid64)
        assert rep.branch == branch
        d = rep.to_dict()
        assert sorted(d) == sorted(["theorem", "inputs", "C", "rho_bar",
                                    "inf_J", "attained", "branch",
                                    "maximizer", "notes"])
        assert d["inf_J"] == rep.inf_J == -rep.rho_bar * rep.C
        assert type(d["maximizer"]) is list and len(d["maximizer"]) == 3
        assert all(type(v) is float for v in d["maximizer"])
        assert d["maximizer"] == list(rep.maximizer)
        assert json.loads(json.dumps(d)) == d
        closed = sphere_sharp_constant(0.5).to_dict()
        assert closed["maximizer"] == [0.0, 0.0, -1.0]
        equal = sphere_sharp_constant(-0.5, -0.5, antipodal=True).to_dict()
        assert equal["maximizer"] is None
        assert json.loads(json.dumps(equal)) == equal

    def test_out_of_scope_rejected(self):
        with pytest.raises(RegimeError):
            sphere_sharp_constant(-1.2)
        with pytest.raises(RegimeError):
            sphere_sharp_constant(-0.5, 0.25, antipodal=False)
        with pytest.raises(RegimeError):
            sphere_sharp_constant(0.25, 0.5, antipodal=True)
        with pytest.raises(RegimeError):
            sphere_sharp_constant(0.25, -0.5, antipodal=True)


class TestBlowupInfimumPipeline:
    def test_matches_one_singularity_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a1 = rng.uniform(-0.99, -0.01)
            w = SingularWeight.from_orders([(NORTH, a1)])
            assert abs(blowup_infimum(w).C - sphere_sharp_constant(a1).C) \
                < 1e-12

    def test_matches_mixed_antipodal_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a1 = rng.uniform(-0.99, -0.02)
            a2 = rng.uniform(a1 + 0.01, 2.0)
            if abs(a2) < 1e-3:
                a2 = 0.5
            w = SingularWeight.from_orders([(NORTH, a1), (SOUTH, a2)])
            closed = sphere_sharp_constant(a1, a2, antipodal=True)
            assert abs(blowup_infimum(w).C - closed.C) < 1e-12

    def test_positive_branch_grid_maximization(self, grid128):
        for a1 in (0.5, 1.0, 2.0):
            w = SingularWeight.from_orders([(NORTH, a1)])
            rep = blowup_infimum(w, grid128)
            assert abs(rep.C - a1) < 1e-3
            # maximizer sits at the antipode of the singular point
            assert rep.maximizer[2] == pytest.approx(-1.0, abs=1e-3)

    def test_positive_branch_maximizer_inside_a_cap(self, grid64):
        """One point of small positive order on K = 1 + Y_10: 4 pi A +
        log h peaks 0.078 rad from the point, within the integrator's cap
        radius of it; C agrees with a bounded maximization in colatitude
        (h is zonal) to 1e-10.  It read -inf when nodes within the cap
        radius of a singular point were left out."""
        K = SHCoefficients(np.zeros((2, 1)))
        K.order(0)[1] = 1.0
        w = SingularWeight.from_orders([(NORTH, 0.001)], K=K.shifted(1.0))
        rep = blowup_infimum(w, grid64)

        def minus_log_h(theta):
            x = np.array([[np.sin(theta), 0.0, np.cos(theta)]])
            return -float(w.log_weight(x)[0])
        best = minimize_scalar(minus_log_h, bounds=(1e-9, np.pi),
                               method="bounded",
                               options={"xatol": 1e-12})
        assert 0.05 < best.x < 0.1
        assert abs(rep.C - (1.0 + np.log(0.25) + FOUR_PI * REGULAR_PART
                            - best.fun)) <= 1e-10
        assert abs(np.arccos(rep.maximizer[2]) - best.x) < 1e-4

    def test_onofri_constant_is_zero(self, grid64):
        rep = blowup_infimum(SingularWeight(), grid64)
        assert abs(rep.C) < 1e-9

    def test_attained_value_links_to_functional(self, grid128):
        """eval_J(u_{1,0}) = -rho_bar C for the equal antipodal pair."""
        alpha = -0.5
        w = extremal_weight(alpha)
        rep = sphere_sharp_constant(alpha, alpha, antipodal=True)
        u = extremal_u(grid128, alpha)
        assert abs(eval_J(u, grid128, w, w.rho_bar) - rep.inf_J) < 1e-3

    def test_smooth_factor_enters(self, grid64):
        """K with a maximum at the minimal-order point shifts C by log K."""
        a1 = -0.5
        boost = 0.4

        K = SHCoefficients(np.zeros((2, 1)))  # 1 + boost x3
        K.order(0)[1] = boost * np.sqrt(FOUR_PI / 3.0)
        w = SingularWeight.from_orders([(NORTH, a1)], K=K.shifted(1.0))
        rep = blowup_infimum(w)
        expected = -np.log1p(a1) + np.log1p(boost)
        assert rep.C == pytest.approx(expected, rel=1e-12)


class TestKazdanWarner:
    def test_extremal_identity_vanishes(self, grid64, rng):
        """The degenerate case: equal antipodal orders at rho_bar make both
        sides identically zero, alpha2 - alpha1 = 0 and the prefactor
        2 - rho/4pi + alpha1 + alpha2 = 0, whatever u is.  A random zonal
        field with a moment far from zero reads residual 0, so the
        identity checks nothing there (kw-check solves below rho_bar)."""
        w = extremal_weight(-0.5)
        u = grid64.transform.analysis_coeffs(np.polynomial.polynomial.polyval(
            grid64.t, rng.normal(size=6))[:, None])
        rep = kazdan_warner_residual(u, grid64, w, w.rho_bar)
        assert abs(rep.moment) > 0.1
        assert rep.prefactor == pytest.approx(0.0, abs=1e-14)
        assert rep.poho_residual == pytest.approx(0.0, abs=1e-14)

    def test_constant_shift_invariance(self, grid64, rng):
        """The moment is a ratio, so any additive constant cancels."""
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        u = random_band_limited(grid64, rng, amplitude=1.0)
        r1, r2 = (kazdan_warner_residual(grid64.transform.analysis_coeffs(v),
                                         grid64, w, w.rho_bar - 0.3)
                  for v in (u, u + 5.0))
        assert r1.poho_residual == pytest.approx(r2.poho_residual, abs=1e-12)

    def test_one_synthesis_per_block(self, grid64, rng, transform_counts):
        """One synthesis of the density on the integrator's one transform
        and no analysis: the moment is a sum on the rule."""
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, 0.5)])
        coeffs = grid64.transform.analysis_coeffs(
            random_band_limited(grid64, rng, amplitude=1.0))
        before = dict(transform_counts)
        kazdan_warner_residual(coeffs, grid64, w, w.rho_bar - 0.3)
        assert transform_counts["synthesis"] - before["synthesis"] == 1
        assert transform_counts["analysis"] - before["analysis"] == 0

    @pytest.mark.parametrize("band_limit", [32, 64, 128])
    @pytest.mark.parametrize("a1, a2", [
        (-0.25, 0.5), (-0.5, -0.5), (-0.9, 1.2), (0.7, None), (None, -0.3)])
    def test_moment_at_zero_is_the_jacobi_mean(self, band_limit, a1, a2):
        """At u = 0 with K = 1, orders a1 at +e3 and a2 at -e3 (None: no
        point, order 0), h is (1 - x3)^a1 (1 + x3)^a2 up to a constant, so
        int h x3 / int h is the mean of the Jacobi weight on [-1, 1],
        (a2 - a1) / (a1 + a2 + 2): an oracle the code does not share."""
        points = [(p, a) for p, a in ((NORTH, a1), (SOUTH, a2))
                  if a is not None]
        w = SingularWeight.from_orders(points)
        a1, a2 = a1 or 0.0, a2 or 0.0
        grid = build_grid(band_limit + 1, 2 * band_limit + 2)
        rep = kazdan_warner_residual(zero(grid), grid, w, w.rho_bar - 0.3)
        assert rep.orders == (a1, a2)
        assert abs(rep.moment - (a2 - a1) / (a1 + a2 + 2.0)) <= 1e-15

    @pytest.mark.parametrize("zonal", [True, False])
    def test_moment_is_the_density_quadrature(self, grid64, rng, zonal):
        """The moment equals the composite quadrature of h e^u x3 over
        int h e^u, summed here as numpy sums it: the code checked against
        itself, as the moment is that sum on the rule (the Jacobi mean
        above is the independent oracle)."""
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, 0.5)])
        u = grid64.transform.analysis_coeffs(
            0.7 * grid64.t[:, None] ** 3  # one column
            if zonal else random_band_limited(grid64, rng, amplitude=1.0))
        integ = integrator_for(grid64, w)
        dens = integ.density(u)
        block, d = integ.transform, dens.values
        assert (d.shape[-1] == 1) == zonal
        x3 = block.t[:, None]
        want = np.sum(block.weights * d * x3) / dens.total
        rep = kazdan_warner_residual(u, grid64, w, w.rho_bar - 0.3)
        assert rep.moment == pytest.approx(want, rel=1e-14)

    def test_converged_solution_mild_order(self, grid128):
        """Subcritical solution at alpha = -1/4: the identity holds to 1e-3."""
        from sol_lab.subcritical_solver import minimize
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        eps = 0.3
        rho = w.rho_bar - eps
        state = minimize(zero(grid128), grid128, w, rho, max_iterations=3000)
        assert state.converged
        rep = kazdan_warner_residual(state.coeffs, grid128, w, rho)
        assert abs(rep.poho_residual) < 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="at order -1/2 the d^{-1} density tail defeats the band-limit "
               "projection: the identity residual of the Galerkin solution "
               "decays only ~L^-0.7 (2.4e-2 @ L=64, 1.1e-2 @ L=192), so 1e-3 "
               "needs L ~ 5000; milder orders reach it (see the -1/4 test)")
    def test_converged_solution_half_order(self, grid128):
        from sol_lab.subcritical_solver import minimize
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        eps = 0.1
        rho = w.rho_bar - eps
        state = minimize(zero(grid128), grid128, w, rho, max_iterations=3000)
        assert state.converged
        rep = kazdan_warner_residual(state.coeffs, grid128, w, rho)
        assert abs(rep.poho_residual) < 1e-3

    def test_non_antipodal_rejected(self, grid64):
        w = SingularWeight.from_orders([((1.0, 0.0, 0.0), -0.5)])
        with pytest.raises(RegimeError):
            kazdan_warner_residual(zero(grid64), grid64, w, w.rho_bar)


class TestAxisLayout:
    @pytest.mark.parametrize("delta", [1.0e-6, 5.0e-6])
    def test_axis_layout_is_the_integrators(self, grid64, delta):
        """The identity and the integrator take the same layout, singular
        points exactly on the axis (``is_axis_aligned``): a point near the
        pole is refused by both as it is, and in its axis frame it is its
        pole twin, with the same residual."""
        w = SingularWeight.from_orders(
            [((np.sin(delta), 0.0, np.cos(delta)), -0.25)])
        assert not w.is_axis_aligned()
        with pytest.raises(ValueError, match="off the grid axis"):
            integrator_for(grid64, w)
        with pytest.raises(RegimeError):
            kazdan_warner_residual(zero(grid64), grid64, w, w.rho_bar)
        u = grid64.transform.analysis_coeffs(0.5 * grid64.t[:, None] ** 2)
        framed, twin = (kazdan_warner_residual(u, grid64, v, w.rho_bar - 0.3)
                        for v in (axis_frame(w), SingularWeight.from_orders(
                            [(NORTH, -0.25)])))
        assert framed == twin
