"""Sharp constants, pipeline consistency, axis identity, non-existence."""

import numpy as np
import pytest

from sol_lab.closed_forms import ExtremalParams, extremal_u, extremal_weight
from sol_lab.identity_checks import (
    RegimeError,
    kazdan_warner_residual,
    blowup_infimum,
    nonexistence_witness,
    sphere_sharp_constant,
)
from sol_lab.mt_functional import (FunctionalParams, SingularIntegrator,
                                   eval_J, integrator_for)
from sol_lab.singular_geometry import SingularWeight
from sol_lab.sphere_grid import ScalarField, sh_analysis

from conftest import random_band_limited

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

    def test_onofri_constant_is_zero(self, grid64):
        rep = blowup_infimum(SingularWeight(), grid64)
        assert abs(rep.C) < 1e-9

    def test_attained_value_links_to_functional(self, grid128):
        """eval_J(u_{1,0}) = -rho_bar C for the equal antipodal pair."""
        alpha = -0.5
        w = extremal_weight(alpha)
        rep = sphere_sharp_constant(alpha, alpha, antipodal=True)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        params = FunctionalParams(rho=w.rho_bar, weight=w)
        assert abs(eval_J(u, params) - rep.inf_J) < 1e-3

    def test_smooth_factor_enters(self, grid64):
        """K with a maximum at the minimal-order point shifts C by log K."""
        a1 = -0.5
        boost = 0.4

        def K(points):
            return 1.0 + boost * np.asarray(points)[..., 2]

        w = SingularWeight.from_orders([(NORTH, a1)], K=K)
        rep = blowup_infimum(w)
        expected = -np.log1p(a1) + np.log1p(boost)
        assert rep.C == pytest.approx(expected, rel=1e-12)


class TestKazdanWarner:
    def test_extremal_identity_vanishes(self, grid128):
        """Equal antipodal orders: both sides are identically zero."""
        alpha = -0.5
        w = extremal_weight(alpha)
        u = extremal_u(ExtremalParams(alpha=alpha), grid128)
        rep = kazdan_warner_residual(u, w.rho_bar, w)
        assert abs(rep.poho_residual) < 1e-6
        assert abs(rep.kw_vector_residual) < 1e-6
        assert rep.prefactor == pytest.approx(0.0, abs=1e-14)

    def test_constant_shift_invariance(self, grid64, rng):
        """The moment is a ratio, so any additive constant cancels."""
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        u = random_band_limited(grid64, rng, amplitude=1.0)
        r1 = kazdan_warner_residual(u, w.rho_bar - 0.3, w)
        r2 = kazdan_warner_residual(u + 5.0, w.rho_bar - 0.3, w)
        assert r1.poho_residual == pytest.approx(r2.poho_residual, abs=1e-12)

    def test_one_synthesis_per_block(self, grid64, rng, transform_counts):
        """One synthesis of the density on the one axis block; two
        analyses, of u and of the density."""
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, 0.5)])
        u = random_band_limited(grid64, rng, amplitude=1.0)
        assert len(SingularIntegrator(grid64, w).blocks) == 1
        before = dict(transform_counts)
        kazdan_warner_residual(u, w.rho_bar - 0.3, w)
        assert transform_counts["synthesis"] - before["synthesis"] == 1
        assert transform_counts["analysis"] - before["analysis"] == 2

    @pytest.mark.parametrize("zonal", [True, False])
    def test_moment_is_the_density_quadrature(self, grid64, rng, zonal):
        """The moment read from the density projection equals the
        composite quadrature of h e^u x3 over int h e^u."""
        w = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, 0.5)])
        u = (ScalarField.from_function(grid64, lambda x: 0.7 * x[..., 2] ** 3)
             if zonal else random_band_limited(grid64, rng, amplitude=1.0))
        integ = integrator_for(grid64, w)
        dens = integ.density(sh_analysis(u))
        (block,), (d,) = integ.blocks, dens.values
        assert (d.shape[-1] == 1) == zonal
        x3 = block.points[..., 2]
        want = np.sum(block.weights * d * x3) / dens.total
        rep = kazdan_warner_residual(u, w.rho_bar - 0.3, w)
        assert rep.moment == pytest.approx(want, rel=1e-14)

    def test_converged_solution_mild_order(self, grid128):
        """Subcritical solution at alpha = -1/4: the identity holds to 1e-3."""
        from sol_lab.subcritical_solver import SolverConfig, minimize
        w = SingularWeight.from_orders([(NORTH, -0.25)])
        eps = 0.3
        params = FunctionalParams(rho=w.rho_bar - eps, weight=w)
        cfg = SolverConfig(epsilon_schedule=(eps,), max_iterations=3000,
                           init="zero")
        state = minimize(params, cfg, ScalarField.constant(grid128, 0.0),
                         grid128)
        assert state.converged
        rep = kazdan_warner_residual(state.u, params.rho, w)
        assert abs(rep.poho_residual) < 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="at order -1/2 the d^{-1} density tail defeats the band-limit "
               "projection: the identity residual of the Galerkin solution "
               "decays only ~L^-0.7 (2.4e-2 @ L=64, 1.1e-2 @ L=192), so 1e-3 "
               "needs L ~ 5000; milder orders reach it (see the -1/4 test)")
    def test_converged_solution_half_order(self, grid128):
        from sol_lab.subcritical_solver import SolverConfig, minimize
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        eps = 0.1
        params = FunctionalParams(rho=w.rho_bar - eps, weight=w)
        cfg = SolverConfig(epsilon_schedule=(eps,), max_iterations=3000,
                           init="zero")
        state = minimize(params, cfg, ScalarField.constant(grid128, 0.0),
                         grid128)
        assert state.converged
        rep = kazdan_warner_residual(state.u, params.rho, w)
        assert abs(rep.poho_residual) < 1e-3

    def test_non_antipodal_rejected(self, grid64):
        w = SingularWeight.from_orders([((1.0, 0.0, 0.0), -0.5)])
        u = ScalarField.constant(grid64, 0.0)
        with pytest.raises(RegimeError):
            kazdan_warner_residual(u, w.rho_bar, w)


class TestNonexistenceWitness:
    def test_single_negative(self):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        rep = nonexistence_witness(w)
        assert rep.forced_moment == pytest.approx(1.0)
        assert rep.margin == 0.0
        assert rep.certified
        assert "impossible" in rep.message

    def test_single_positive(self):
        w = SingularWeight.from_orders([(NORTH, 1.0)])
        rep = nonexistence_witness(w)
        assert abs(rep.forced_moment) == pytest.approx(1.0)
        assert rep.certified

    def test_mixed_antipodal(self):
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.25)])
        rep = nonexistence_witness(w)
        assert rep.forced_moment == pytest.approx(1.0)
        assert rep.certified

    def test_equal_orders_vacuous(self):
        w = extremal_weight(-0.5)
        with pytest.raises(RegimeError):
            nonexistence_witness(w)

    def test_no_singularities_vacuous(self):
        with pytest.raises(RegimeError):
            nonexistence_witness(SingularWeight())
