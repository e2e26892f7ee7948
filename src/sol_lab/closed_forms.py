"""Closed-form families: extremal fields and conformal dilations in the
stereographic chart, the planar concentration bubble, and concentrating
test functions.

The stereographic chart projects from the pole e3: -e3 maps to the origin
and the equator to the unit circle, so that G_{e3} composed with the
inverse projection is (1/4pi) log(1+|y|^2) - 1/4pi.  Every closed form
here is zonal, so the chart enters only through |y|^2 (``_chart``).

With two antipodal singularities of equal order alpha < 0 on the axis of
projection, the critical points of the functional at the critical parameter
are the two-parameter family (``extremal_value(x, alpha, lam, c)``)

    u_{lambda,c}(pi^{-1}(y)) = 2 log( (1+|y|^2)^{1+alpha}
                                      / (1 + lambda |y|^{2(1+alpha)}) ) + c.

The planar model bubble phi0(r) = -2 log(1 + (pi c_p/(1+alpha)) r^{2(1+alpha)})
solves -Delta phi = 8 pi (1+alpha) c_p |x|^{2 alpha} e^{phi} on the plane
with unit weighted mass.

The test functions used for upper bounds glue a truncated bubble profile
inside a shrinking cap of radius r_eps onto the Green's-function far field;
the matching constant makes the two branches agree exactly at r_eps.  Each
is a function of (weight, epsilon, p), the concentration point p of minimal
order; ``concentration_scales`` refuses what the family cannot take.  For
axisymmetric weights every functional term reduces to 1-d radial integrals,
which is how the sweep evaluates J on them (the profiles are far below any
practical grid resolution).
"""

from __future__ import annotations

import numpy as np

from .sphere_grid import (
    FOUR_PI,
    ProductTransform,
    SHCoefficients,
    SphereGrid,
    geodesic_distance,
    normalized,
    on_axis,
    ring_points,
)
from .mt_functional import radial_rule
from .singular_geometry import (
    REGULAR_PART,
    SingularWeight,
    antipodal,
    green_radial,
    same_point,
)

# Gauss nodes on each ``radial_rule`` panel of a closed form; a panel is at
# most a 4-fold step in scale, so an analytic integrand converges to rounding
_PANEL_NODES = 24
R_EPS_MIN = float(np.sqrt(2.0 * np.finfo(float).tiny))  # least r_eps: 2.1e-154


def _chart(dot):
    """(log |y|^2, log(1 + |y|^2)) in the stereographic chart from the pole
    e3, at points with <e3, x> = dot: |y|^2 = (1 + dot)/(1 - dot)."""
    dot = np.clip(dot, -1.0, 1.0)
    return (np.log1p(dot) - np.log1p(-dot), np.log(2.0) - np.log1p(-dot))


# ---------------------------------------------------------------------------
# extremal family
# ---------------------------------------------------------------------------

def extremal_value(x, alpha: float, lam: float = 1.0,
                   c: float = 0.0) -> np.ndarray:
    """Pointwise u_{lambda,c} of the equal pair of order alpha at +-e3;
    finite at both poles."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if not (-1.0 < alpha < 0.0):
        raise ValueError("alpha must lie in (-1, 0)")
    dot = np.asarray(x, dtype=float)[..., 2]
    at_pole = dot > 1.0 - 1.0e-15
    safe = np.where(at_pole, 0.0, dot)
    with np.errstate(divide="ignore"):
        # log1p(-1) = -inf at the antipode flows to the right limit
        log_y2, log_1py2 = _chart(safe)
    val = (2.0 * (1.0 + alpha) * log_1py2
           - 2.0 * np.logaddexp(0.0, np.log(lam) + (1.0 + alpha) * log_y2)
           + c)
    out = np.where(at_pole, c - 2.0 * np.log(lam), val)
    return float(out) if out.ndim == 0 else out


def extremal_u(grid: SphereGrid, alpha: float, lam: float = 1.0,
               c: float = 0.0) -> SHCoefficients:
    """Coefficients of u_{lambda,c} sampled on the grid's first longitude:
    zonal."""
    return grid.transform.analysis_coeffs(extremal_value(
        ring_points(grid.t, grid.phi[:1]), alpha, lam, c))


def extremal_weight(alpha: float) -> SingularWeight:
    """The equal pair of orders alpha at +-e3."""
    e3 = np.array([0.0, 0.0, 1.0])
    return SingularWeight.from_orders([(e3, alpha), (-e3, alpha)])


# ---------------------------------------------------------------------------
# conformal dilations
# ---------------------------------------------------------------------------

def log_det_dilation(t: float, dot_axis: np.ndarray) -> np.ndarray:
    """log |det d phi_t| at points with <axis, x> = dot_axis.

    phi_t is the conformal dilation fixing +-axis, y -> t y in the
    stereographic chart from the axis pole.
    """
    log_y2, log_1py2 = _chart(dot_axis)
    log_1pt2y2 = np.logaddexp(0.0, 2.0 * np.log(t) + log_y2)
    return 2.0 * (np.log(t) + log_1py2 - log_1pt2y2)


def dilated_dot(t: float, dot_axis: np.ndarray) -> np.ndarray:
    """<axis, phi_t(x)> as a function of <axis, x> (the map is zonal)."""
    q = 2.0 * np.log(t) + _chart(dot_axis)[0]     # log(t^2 |y|^2)
    return np.tanh(0.5 * q)


def conformal_pullback(coeffs: SHCoefficients, grid: SphereGrid, t: float,
                       alpha: float) -> SHCoefficients:
    """Coefficients of u o phi_t + (1+alpha) log |det d phi_t| sampled on
    the grid, for u with coefficients ``coeffs``, phi_t the dilation
    about +e3 (the one about -e3 by t is this one by 1 / t).

    The dilation maps latitude circles to latitude circles, so the sampling
    is a product-grid synthesis at shifted colatitudes (spectrally exact for
    band-limited u); zonal coefficients give zonal ones.
    """
    if t <= 0.0:
        raise ValueError("dilation parameter must be positive")
    tr = ProductTransform(grid.band_limit, dilated_dot(t, grid.t), grid.n_phi)
    return grid.transform.analysis_coeffs(
        tr.synthesis_values(coeffs)
        + (1.0 + alpha) * log_det_dilation(t, grid.t)[:, None])


# ---------------------------------------------------------------------------
# planar bubble
# ---------------------------------------------------------------------------

def planar_bubble(r, c_p: float, alpha: float):
    """phi0(r) = -2 log(1 + (pi c_p/(1+alpha)) r^{2(1+alpha)}), phi0(0) = 0."""
    if c_p <= 0.0:
        raise ValueError("bubble constant must be positive")
    r = np.asarray(r, dtype=float)
    beta = np.pi * c_p / (1.0 + alpha)
    out = -2.0 * np.log1p(beta * r ** (2.0 * (1.0 + alpha)))
    return float(out) if out.ndim == 0 else out


def planar_bubble_mass(c_p: float, alpha: float) -> float:
    """int_{R^2} c_p |x|^{2 alpha} e^{phi0} dx by radial quadrature (= 1):
    in u = r^{2(1+alpha)}, where the measure is 2 pi c_p du / (2(1+alpha))
    and e^{phi0} rational with its pole at -u* = -(1+alpha)/(pi c_p), one
    ``radial_rule`` panel on [0, u*] and one in 1/u on [0, 1/u*]."""
    p = 2.0 * (1.0 + alpha)
    u_star = (1.0 + alpha) / (np.pi * c_p)
    u, wu = radial_rule((0.0, u_star), _PANEL_NODES, jacobian=np.ones_like)
    v, wv = radial_rule((0.0, 1.0 / u_star), _PANEL_NODES,
                        jacobian=np.ones_like)
    inner = wu @ np.exp(planar_bubble(u ** (1.0 / p), c_p, alpha))
    outer = wv @ (np.exp(planar_bubble(v ** (-1.0 / p), c_p, alpha)) / v**2)
    return float(2.0 * np.pi * c_p / p * (inner + outer))


def planar_liouville_total_mass(c_p: float, alpha: float) -> float:
    """int 8 pi (1+alpha) c_p |x|^{2 alpha} e^{phi0} dx (= rho_bar)."""
    return 8.0 * np.pi * (1.0 + alpha) * planar_bubble_mass(c_p, alpha)


def planar_liouville_residual(r_values, c_p: float, alpha: float) -> np.ndarray:
    """|Delta phi0 + 8 pi (1+alpha) c_p r^{2 alpha} e^{phi0}| by finite differences.

    Only pointwise values of phi0 enter.  Central differences at steps h and
    2h are Richardson-combined to fourth order, with h kept below r/3 so the
    stencil never crosses the origin; this certifies the equation to ~1e-8
    for moderate orders without analytic derivatives.
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    h = np.minimum(r / 3.0, 4.0e-4 * np.maximum(1.0, r))
    phi = planar_bubble(r, c_p, alpha)

    def d2_d1(step):
        up = planar_bubble(r + step, c_p, alpha)
        dn = planar_bubble(r - step, c_p, alpha)
        return ((up - 2.0 * phi + dn) / step**2,
                (up - dn) / (2.0 * step))

    d2h, d1h = d2_d1(h)
    d22, d12 = d2_d1(2.0 * h)
    d2 = (4.0 * d2h - d22) / 3.0
    d1 = (4.0 * d1h - d12) / 3.0
    lap = d2 + d1 / r
    rhs = 8.0 * np.pi * (1.0 + alpha) * c_p * r ** (2 * alpha) * np.exp(phi)
    return np.abs(lap + rhs)


def log_one_plus_s_integral() -> float:
    """int_0^infty log(1+s)/(1+s)^2 ds (= 1), in t = 1/(1+s) on
    ``radial_rule`` panels graded geometrically toward t = 0, where the
    integrand in t, -log t, has its one singularity."""
    t, w = radial_rule(np.append(0.0, np.geomspace(2.0 ** -60, 1.0, 31)),
                       _PANEL_NODES, jacobian=np.ones_like)
    s = 1.0 / t - 1.0
    return float(w @ (np.log1p(s) / (1.0 + s) ** 2 / t**2))


# ---------------------------------------------------------------------------
# concentrating test functions
# ---------------------------------------------------------------------------

def concentration_scales(weight: SingularWeight, epsilon: float, p):
    """(gamma_eps, r_eps, C_eps) of the concentration family at a
    minimal-order point p of the weight.

    gamma_eps = (-log eps)^{1/(2(1+alpha))} satisfies all the matching
    conditions; r_eps = gamma_eps eps^{1/(2(1+alpha))} is the cap radius,
    below pi / 8 and at least R_EPS_MIN, where 2 sin^2(r/2) at its edge is
    a normal double (at alpha = -0.99 J is inf at r_eps = 7.7e-157).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    p = normalized(p)
    alpha = weight.alpha
    if weight.beta(p) != alpha:
        raise ValueError(
            "test functions concentrate at a point of minimal order")
    k = 1.0 / (2.0 * (1.0 + alpha))
    scale = epsilon ** k
    # eps^k is 0 wherever gamma_eps = (-log eps)^k overflows (order -0.999
    # at eps = 1e-2), and so is r_eps
    gamma_eps = (-np.log(epsilon)) ** k if scale else np.inf
    r_eps = gamma_eps * scale if scale else 0.0
    if 2.0 * r_eps >= np.pi / 4.0:
        raise ValueError("epsilon too large: cap exceeds the safe scale")
    if not r_eps >= R_EPS_MIN:
        raise ValueError(f"epsilon too small: the cap radius r_eps = "
                         f"{r_eps:.3g} lies below {R_EPS_MIN:.3g}")
    for sp in weight.points:
        if not same_point(p, sp.position) and \
                geodesic_distance(p, sp.position) <= 2.0 * r_eps:
            raise ValueError("epsilon too large: cap reaches another "
                             "singular point")
    g2 = gamma_eps ** (2.0 * (1.0 + alpha))
    C_eps = -2.0 * np.log1p(1.0 / g2) - weight.rho_bar * REGULAR_PART
    return gamma_eps, r_eps, C_eps


def _cutoff(r: np.ndarray, r_eps: float):
    """The cubic ramp eta and eta': 1 at r <= r_eps, 0 at r >= 2 r_eps,
    |eta'| = O(1/r_eps)."""
    s = np.clip((r - r_eps) / r_eps, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s), -6.0 * s * (1.0 - s) / r_eps


def _sigma(r):
    """Smooth part G(r) + log(r)/(2 pi) - A of the radial Green's function."""
    return green_radial(r) + np.log(r) / (2.0 * np.pi) - REGULAR_PART


def _bubble(u, eps):
    """phi_eps inside the cap, in u = r^{2(1+alpha)}."""
    return -2.0 * np.log(eps + u) + np.log(eps)


def concentration_profile(weight: SingularWeight, epsilon: float, p):
    """Radial profile phi_eps(r) (r = distance to the concentration point)."""
    a, eps, rho_bar = weight.alpha, epsilon, weight.rho_bar
    _, r_eps, c_eps = concentration_scales(weight, epsilon, p)

    def profile(r):
        r = np.asarray(r, dtype=float)
        inner = _bubble(r ** (2.0 * (1.0 + a)), eps)
        rr = np.maximum(r, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = (rho_bar * (green_radial(rr)
                                - _cutoff(r, r_eps)[0] * _sigma(rr))
                     + c_eps + np.log(eps))
        out = np.where(r < r_eps, inner, outer)
        return float(out) if out.ndim == 0 else out

    return profile


def concentration_field(grid: SphereGrid, weight: SingularWeight,
                        epsilon: float, p) -> SHCoefficients:
    """Coefficients of the two-branch concentration field sampled on the
    grid: zonal when p is +-e3."""
    profile = concentration_profile(weight, epsilon, p)
    p = normalized(p)
    phi = grid.phi[:1] if on_axis(p) else grid.phi
    d = geodesic_distance(p, ring_points(grid.t, phi))
    return grid.transform.analysis_coeffs(profile(d))


def radial_faults(w: SingularWeight, p) -> list[tuple[str, str]]:
    """(attribute of ``w``, fault) for each reason that J about p is not a
    1-d radial integral (``concentration_functional``): K must be 1, and
    every singular point the same point as p or as -p, on the axis through
    p, so that all three terms of the functional are zonal about p."""
    faults = [] if w.K is None else [("K", "radial evaluation supports "
                                      "K == 1 only")]
    return faults + [
        (f"points[{i}]", "radial evaluation needs every singular point on "
         "the axis through the test-function point")
        for i, sp in enumerate(w.points)
        if not (same_point(p, sp.position) or antipodal(p, sp.position))]


def concentration_functional(weight: SingularWeight, epsilon: float,
                             p) -> dict:
    """J_{rho_bar}(phi_eps) by 1-d radial quadrature (axisymmetric weights,
    ``radial_faults``), far beyond grid resolution, on one
    ``mt_functional.radial_rule`` in the Mercator coordinate x = log tan(r/2).

    There sin r dr = sech^2 x dx and 1 -+ <p, .> = 1 +- tanh x, a dilation
    is a translation, and the endpoint singularities at +-p are exponential
    tails, on which plain Gauss panels converge geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  Edges sit at x(r_eps), the glue's kink,
    and x(2 r_eps), the end of the cutoff's ramp.  Panels are 4-fold steps
    in u = r^{2(1+alpha)} in the cap and in r outside, doubling in x past
    x = log 4; the tails end where e^{(2 + 2 alpha) x} toward p, from the
    bubble or the cap edge, and e^{-2x} and e^{-(2 + 2 alpha_far) x} toward
    -p have fallen below 2^-60.  J, its terms and log int h e^phi agree with
    a 35-digit mpmath oracle to 1e-13 relative (``TestRadialOracle``: five
    weights of orders -0.9 to -1/4, three with antipodal points).
    """
    a, eps, rho_bar = weight.alpha, epsilon, weight.rho_bar
    gamma_eps, r_eps, c_eps = concentration_scales(weight, eps, p)
    p = normalized(p)
    faults = radial_faults(weight, p)
    if faults:
        raise ValueError("; ".join(f"{key}: {why}" for key, why in faults))

    profile = concentration_profile(weight, eps, p)
    far_order = sum(sp.order for sp in weight.points
                    if not same_point(p, sp.position))
    p2a, step = 2.0 * (1.0 + a), np.log(4.0)
    shift = -np.log(eps)  # phi_eps(0) = -log eps is the peak scale
    x_eps, x_ramp = np.log(np.tan(0.5 * r_eps)), np.log(np.tan(r_eps))
    # each tail runs 30 steps of its decay by 4, to 2^-60
    n_in = np.ceil((x_eps - min(x_eps, np.log(eps) / p2a)) * p2a / step) + 30
    n_far = np.ceil(np.log2(30.0 / (2.0 + 2.0 * min(far_order, 0.0))))
    x, wx = radial_rule(np.concatenate((
        x_eps + step / p2a * np.arange(-n_in, 1),
        np.linspace(x_ramp, step, int(np.ceil(1.0 - x_ramp / step)) + 1),
        step * 2.0 ** np.arange(1, n_far + 1))), _PANEL_NODES,
        jacobian=np.ones_like)

    log_sech = np.log(2.0) - np.logaddexp(x, -x)  # sin r = sech x
    cap = x < x_eps  # the leading nodes, as the edges ascend
    # log r, not r = 2 arctan e^x, which underflows far below the bubble
    # at orders near -1; the clip moves log r by e^{2x} / 3 < 1e-26
    x_in = np.maximum(x[cap], -30.0)
    log_r = x[cap] + np.log(2.0 * np.arctan(np.exp(x_in)) / np.exp(x_in))
    u = np.exp(p2a * log_r)
    tanh, sech = np.tanh(x[~cap]), np.exp(log_sech[~cap])
    r = np.arctan2(sech, -tanh)
    eta, eta_prime = _cutoff(r, r_eps)
    phi = np.concatenate((_bubble(u, eps), profile(r)))
    # phi_x = phi_r sin r, with G_r sin r = -(1 - tanh x) / 4 pi outside;
    # in the cap divided by eps + u once, since (eps + u)^2 underflows
    # below eps = 1.5e-154 (order -1e-3 admits eps = 1e-300)
    phi_x = np.concatenate((
        -2.0 * p2a * u / (eps + u) * np.exp(log_sech[cap] - log_r),
        rho_bar * ((eta - 1.0) * (1.0 - tanh) / FOUR_PI - sech * (
            eta_prime * _sigma(r) + eta / (2.0 * np.pi * r)))))
    log_h = (a * (1.0 - np.logaddexp(0.0, -2.0 * x))
             + far_order * (1.0 - np.logaddexp(0.0, 2.0 * x)))

    dirichlet = 2.0 * np.pi * (wx @ phi_x**2)
    mean = 0.5 * (wx @ (phi * np.exp(2.0 * log_sech)))
    log_exp = shift + np.log(2.0 * np.pi * (
        wx @ np.exp(log_h + phi - shift + 2.0 * log_sech)))

    J = (0.5 * dirichlet + rho_bar * mean
         - rho_bar * (log_exp - np.log(FOUR_PI)))
    return {
        "J": J,
        "dirichlet": dirichlet,
        "mean": mean,
        "exp_integral": np.exp(log_exp),
        "log_exp_integral": log_exp,
        "r_eps": r_eps,
        "gamma_eps": gamma_eps,
        "C_eps": c_eps,
    }


def concentration_sweep(weight: SingularWeight, epsilons, p) -> list[dict]:
    """J(phi_eps) along a decreasing epsilon schedule (radial evaluation)."""
    out = []
    for eps in epsilons:
        rec = concentration_functional(weight, float(eps), p)
        rec["epsilon"] = float(eps)
        out.append(rec)
    return out

