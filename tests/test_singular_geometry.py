"""Green's function, regular part, singular weights, their axis frame
and c(p)."""

import numpy as np
import pytest
from scipy.integrate import quad

from sol_lab.singular_geometry import (
    REGULAR_PART,
    SingularEvaluationError,
    SingularPoint,
    SingularWeight,
    axis_frame,
    green,
    same_point,
)
from sol_lab.sphere_grid import (
    FOUR_PI,
    SHCoefficients,
    _orthonormal_frame,
    build_grid,
    dirichlet_energy,
    rotated,
    synthesis_at_points,
)

from conftest import random_band_limited

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])


def random_pole(rng):
    p = rng.normal(size=3)
    return p / np.linalg.norm(p)


class TestGreen:
    def test_antipodal_value(self):
        # G_p(-p) = -1/(4 pi): the value that feeds the antipodal constants
        assert green(NORTH, SOUTH) == pytest.approx(-1.0 / FOUR_PI, rel=1e-12)

    def test_orthogonal_value(self):
        expected = -(1.0 - np.log(2.0)) / FOUR_PI
        assert green(NORTH, np.array([1.0, 0.0, 0.0])) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(-0.0244186, abs=1e-6)

    def test_singularity_signalled(self):
        with pytest.raises(SingularEvaluationError):
            green(NORTH, NORTH)

    def test_raises_exactly_at_the_same_point(self):
        """green(p, q) raises where same_point(p, q) holds and nowhere
        else, across the rule's 1.4e-7 rad, point by point and on an array
        of points."""
        d = np.geomspace(1.0e-8, 1.0e-6, 201)
        q = np.stack([np.sin(d), np.zeros_like(d), np.cos(d)], axis=-1)
        same = [bool(same_point(NORTH, x)) for x in q]
        assert any(same) and not all(same)
        for x, coincide in zip(q, same):
            try:
                green(NORTH, x)
                raised = False
            except SingularEvaluationError:
                raised = True
            assert raised == coincide
        with pytest.raises(SingularEvaluationError):
            green(NORTH, q)
        assert np.isfinite(green(NORTH, q[~np.array(same)])).all()

    def test_mean_zero_analytic(self, rng):
        """Mean-zero by rotation-invariant 1-d quadrature of green() itself."""
        for _ in range(5):
            p = random_pole(rng)
            helper = np.eye(3)[np.argmin(np.abs(p))]
            e1 = np.cross(helper, p)
            e1 /= np.linalg.norm(e1)

            def zonal(t):
                x = t * p + np.sqrt(max(1.0 - t * t, 0.0)) * e1
                return 2.0 * np.pi * green(p, x)

            val, err = quad(zonal, -1.0, 1.0, limit=200)
            assert abs(val) < max(1e-10, 10.0 * err)

    @pytest.mark.xfail(
        strict=True,
        reason="plain node quadrature of the log-singular kernel has error "
               "~1e-4 at L = 64, decaying only ~N^-1.6; the 1e-8 figure is "
               "unreachable at desk scale (the mean-zero property itself is "
               "verified analytically above)")
    def test_mean_zero_grid_quadrature(self, grid64, rng):
        worst = 0.0
        for _ in range(5):
            p = random_pole(rng)
            worst = max(worst, abs(grid64.transform.integral(
                green(p, grid64.nodes))))
        assert worst < 1e-8

    def test_distributional_identity(self, grid64, rng):
        """<grad G_p, grad v> = v(p) - mean(v) for band-limited v, the
        pairing taken from ``dirichlet_energy`` by polarization."""
        for _ in range(3):
            p = random_pole(rng)
            gp = grid64.transform.analysis_coeffs(green(p, grid64.nodes))
            v = grid64.transform.analysis_coeffs(
                random_band_limited(grid64, rng, decay=3.0))
            lhs = 0.25 * (dirichlet_energy(SHCoefficients(gp.values + v.values))
                          - dirichlet_energy(SHCoefficients(gp.values - v.values)))
            rhs = synthesis_at_points(v, p[None, :])[0] - v.mean
            assert abs(lhs - rhs) < 1e-3


class TestRegularPart:
    def test_constant_value(self):
        assert REGULAR_PART == pytest.approx(
            (2.0 * np.log(2.0) - 1.0) / FOUR_PI, rel=1e-15)

    def test_two_points_identical(self, rng):
        """G_p + log(d)/(2 pi) at the same small distance d from two random
        poles: the regular part does not depend on the point (up to the
        roundoff of 1 - <p, x> ~ 5e-7, a few 1e-11 here)."""
        d = 1e-3
        limits = [green(p, np.cos(d) * p
                        + np.sin(d) * _orthonormal_frame(p)[0])
                  + np.log(d) / (2.0 * np.pi)
                  for p in (random_pole(rng), random_pole(rng))]
        assert limits[0] == pytest.approx(limits[1], abs=1e-9)

    def test_numerical_limit(self):
        """G_p(x) + log(d)/(2 pi) -> A as d -> 0 (limit oracle)."""
        d = 1e-3
        x = np.array([np.sin(d), 0.0, np.cos(d)])
        val = green(NORTH, x) + np.log(d) / (2.0 * np.pi)
        assert abs(val - REGULAR_PART) < 1e-4


class TestSingularWeight:
    def test_validation(self):
        with pytest.raises(ValueError):
            SingularPoint(NORTH, -1.0)
        with pytest.raises(ValueError):
            SingularPoint(NORTH, 0.0)
        with pytest.raises(ValueError):
            SingularWeight.from_orders([(NORTH, -0.5), (NORTH, 0.5)])

    def test_derived_quantities(self):
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.25)])
        assert w.alpha == -0.5
        assert w.rho_bar == pytest.approx(FOUR_PI)
        assert w.beta(NORTH) == -0.5
        assert w.beta(SOUTH) == 0.25
        assert w.beta([1.0, 0.0, 0.0]) == 0.0
        w2 = SingularWeight.from_orders([(NORTH, 0.5)])
        assert w2.alpha == 0.0
        assert w2.rho_bar == pytest.approx(8.0 * np.pi)

    def test_empty_weight_is_one(self, rng):
        w = SingularWeight()
        assert np.exp(w.log_weight(random_pole(rng))) == 1.0

    def test_single_pole_at_antipode(self):
        # h(-p) = (e/2)^a * 2^a = e^a
        for a in [-0.5, 0.25, 1.0]:
            w = SingularWeight.from_orders([(NORTH, a)])
            assert np.exp(w.log_weight(SOUTH)) == pytest.approx(
                np.exp(a), rel=1e-12)

    def test_antipodal_pair_on_equator(self):
        a = -0.3
        w = SingularWeight.from_orders([(NORTH, a), (SOUTH, a)])
        x = np.array([0.0, 1.0, 0.0])
        assert np.exp(w.log_weight(x)) == pytest.approx(
            (np.e / 2.0) ** (2 * a), rel=1e-12)

    def test_negative_order_evaluation_rejected(self):
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        with pytest.raises(SingularEvaluationError):
            np.exp(w.log_weight(NORTH))

    def test_positive_order_zero_limit(self):
        w = SingularWeight.from_orders([(NORTH, 0.5)])
        assert np.exp(w.log_weight(NORTH)) == 0.0

    def test_local_power_behavior(self):
        """log h(x) ~ 2 alpha_i log d near p_i, slope within 1%."""
        for a in [-0.6, 0.4]:
            w = SingularWeight.from_orders([(NORTH, a), (SOUTH, 0.2)])
            d = np.geomspace(1e-3, 1e-2, 20)
            x = np.stack([np.sin(d), np.zeros_like(d), np.cos(d)], axis=-1)
            slope = np.polyfit(np.log(d), w.log_weight(x), 1)[0]
            assert abs(slope - 2 * a) < 0.01 * abs(2 * a)

    def test_smooth_factor(self, grid64):
        """K = 2 + x3 from its coefficients, a zonal column or the same
        entries over every order; a callable K is refused."""
        column = SHCoefficients(np.zeros((2, 1))).shifted(2.0)
        column.order(0)[1] = np.sqrt(FOUR_PI / 3.0)  # x3 = sqrt(4pi/3) Y_10
        expected = 2.0 + grid64.nodes[..., 2]
        for K in (column, column.widened()):
            w = SingularWeight(K=K)
            assert w.axis_invariant == (K is column)
            assert np.abs(w.smooth_factor(grid64.nodes)
                          - expected).max() < 1e-14
        with pytest.raises(TypeError, match="SHCoefficients"):
            SingularWeight(K=lambda x: 2.0 + x[..., 2])


def skew_K():
    """K = 1 + 0.1 Y_{1,1} + 0.05 Y_{2,-1}, invariant about no axis."""
    K = SHCoefficients.zeros(2).shifted(1.0)
    K.order(1)[0], K.order(-1)[1] = 0.1, 0.05  # rows l - |m|
    return K


class TestAxisFrame:
    @pytest.mark.parametrize("points", [
        [], [(NORTH, -0.5)], [(SOUTH, 0.5)], [(NORTH, -0.25), (SOUTH, -0.1)]])
    def test_weight_on_the_axis_is_itself(self, points):
        """No rotation and no resampling for a weight already on the axis."""
        w = SingularWeight.from_orders(points, K=skew_K())
        assert axis_frame(w) is w

    @pytest.mark.parametrize("points", [
        [((0.3, 0.5, 0.81), -0.5)],
        [((1.0, 1.0, 1.0), -0.25), ((-1.0, -1.0, -1.0), -0.1)],
        [((1.0e-6, 0.0, 1.0), 0.5)],
    ])
    def test_K_resampled_exactly(self, grid64, rng, points):
        """The framed weight at R x is the weight at x, R p = e3 for the
        first point, to 1e-13 with a non-zonal K; its points are exactly
        +-e3 in order, its K covers every order and stays positive."""
        w = SingularWeight.from_orders(points, K=skew_K())
        framed = axis_frame(w)
        R = _orthonormal_frame(w.positions[0])
        assert framed.positions.tolist() == [[0.0, 0.0, 1.0],
                                             [0.0, 0.0, -1.0]][:len(points)]
        assert np.array_equal(framed.orders, w.orders)
        assert framed.K.values.shape == (6, 2)
        x = rng.normal(size=(500, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        assert np.abs(framed.log_weight(x @ R.T)
                      - w.log_weight(x)).max() <= 1e-13
        assert framed.smooth_factor(grid64.nodes).min() > 0.0

    def test_K_is_the_rotated_K(self):
        """The framed K is, bit for bit, K synthesized at the turned nodes
        of a Gauss grid at its band limit and analysed there."""
        w = SingularWeight.from_orders([((0.3, 0.5, 0.81), -0.5)], K=skew_K())
        R = _orthonormal_frame(w.positions[0])
        grid = build_grid(3, 6)
        want = grid.transform.analysis_coeffs(
            synthesis_at_points(w.K, grid.nodes @ R))
        assert np.array_equal(axis_frame(w).K.values, want.values)

    def test_turned_and_back(self, grid64, rng):
        """A band-limited field turned into a frame and back is itself to
        1e-13; a zonal column comes back over every order."""
        R = _orthonormal_frame(random_pole(rng))
        c = grid64.transform.analysis_coeffs(
            random_band_limited(grid64, rng))
        back = rotated(rotated(c, R), R.T)
        assert np.abs(back.values - c.values).max() <= 1e-13
        column = SHCoefficients(c.order(0)[:, None].copy())
        back = rotated(rotated(column, R), R.T)
        assert np.abs(back.values - column.widened().values).max() <= 1e-13

    def test_K_one_stays_none(self):
        """K == 1 stays None; the second point of a pair antipodal within
        the same-point rule is set to -e3 as well."""
        w = axis_frame(SingularWeight.from_orders([((1.0, 2.0, 3.0), -0.5)]))
        assert w.K is None and w.positions.tolist() == [[0.0, 0.0, 1.0]]
        w = axis_frame(SingularWeight.from_orders(
            [(NORTH, -0.5), ((1.0e-9, 0.0, -1.0), 0.3)]))
        assert w.K is None and w.positions.tolist() == [[0.0, 0.0, 1.0],
                                                        [0.0, 0.0, -1.0]]

    @pytest.mark.parametrize("points", [
        [(NORTH, -0.5), ((1.0, 0.0, 0.0), 0.5)],
        [(NORTH, -0.5), ((1.0e-5, 0.0, -1.0), 0.5)],
        [(NORTH, -0.5), (SOUTH, 0.5), ((1.0, 0.0, 0.0), 0.3)],
    ])
    def test_no_rotation_puts_these_on_the_axis(self, points):
        """Two points that are not antipodal, or three: no frame."""
        with pytest.raises(ValueError, match="no rotation puts these"):
            axis_frame(SingularWeight.from_orders(points))


class TestBubbleConstant:
    def test_no_singularities(self):
        assert SingularWeight().bubble_constant(NORTH) == pytest.approx(1.0)

    def test_single_negative_order(self):
        # c = exp(-4 pi a A) = exp((1 - 2 log 2) a); a = -1/2 gives 2/sqrt(e)
        w = SingularWeight.from_orders([(NORTH, -0.5)])
        assert w.bubble_constant(NORTH) == pytest.approx(
            2.0 * np.exp(-0.5), rel=1e-12)

    def test_antipodal_pair(self):
        a = -0.5
        w = SingularWeight.from_orders([(NORTH, a), (SOUTH, a)])
        expected = np.exp(-FOUR_PI * a * REGULAR_PART) * np.exp(a)
        assert w.bubble_constant(NORTH) == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_minimal_point(self):
        w = SingularWeight.from_orders([(NORTH, -0.5), (SOUTH, 0.25)])
        with pytest.raises(ValueError):
            w.bubble_constant(SOUTH)
        with pytest.raises(ValueError):
            w.bubble_constant(np.array([1.0, 0.0, 0.0]))
