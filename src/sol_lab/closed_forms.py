"""Closed-form families: stereographic projection, extremal fields,
the planar concentration bubble, and concentrating test functions.

Stereographic projection is normalized from the projection pole p: the
antipode maps to the origin and the equator to the unit circle, so that
G_p composed with the inverse projection is (1/4pi) log(1+|y|^2) - 1/4pi.

With two antipodal singularities of equal order alpha < 0 on the axis of
projection, the critical points of the functional at the critical parameter
are the two-parameter family

    u_{lambda,c}(pi^{-1}(y)) = 2 log( (1+|y|^2)^{1+alpha}
                                      / (1 + lambda |y|^{2(1+alpha)}) ) + c.

The planar model bubble phi0(r) = -2 log(1 + (pi c_p/(1+alpha)) r^{2(1+alpha)})
solves -Delta phi = 8 pi (1+alpha) c_p |x|^{2 alpha} e^{phi} on the plane
with unit weighted mass.

The test functions used for upper bounds glue a truncated bubble profile
inside a shrinking cap of radius r_eps onto the Green's-function far field;
the matching constant makes the two branches agree exactly at r_eps.  For
axisymmetric weights every functional term reduces to 1-d radial integrals,
which is how the sweep evaluates J on them (the profiles are far below any
practical grid resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sphere_grid import (
    FOUR_PI,
    ProductTransform,
    ScalarField,
    SphereGrid,
    _orthonormal_frame,
    geodesic_distance,
    normalized,
    sh_analysis,
)
from .singular_geometry import (
    REGULAR_PART,
    SingularWeight,
    green_radial,
)

_QUAD_OPTS = dict(limit=400, epsabs=1.0e-12, epsrel=1.0e-12)


# ---------------------------------------------------------------------------
# stereographic projection
# ---------------------------------------------------------------------------

def _frame(p_pole: np.ndarray):
    """(e1, e2, p): the chart's axes and the projection pole."""
    p = normalized(p_pole)
    return (*_orthonormal_frame(p), p)


def stereographic(p_pole, x) -> np.ndarray:
    """Project x in S^2 \\ {p_pole} to the plane; -p_pole -> origin."""
    e1, e2, p = _frame(p_pole)
    x = np.asarray(x, dtype=float)
    dot = x @ p
    if np.any(dot > 1.0 - 1.0e-14):
        raise ValueError("stereographic projection is undefined at its pole")
    denom = 1.0 - dot
    return np.stack([(x @ e1) / denom, (x @ e2) / denom], axis=-1)


def stereographic_inverse(p_pole, y) -> np.ndarray:
    e1, e2, p = _frame(p_pole)
    y = np.asarray(y, dtype=float)
    r2 = np.sum(y * y, axis=-1)
    denom = 1.0 + r2
    return ((2.0 * y[..., 0] / denom)[..., None] * e1
            + (2.0 * y[..., 1] / denom)[..., None] * e2
            + ((r2 - 1.0) / denom)[..., None] * p)


# ---------------------------------------------------------------------------
# extremal family
# ---------------------------------------------------------------------------

@dataclass
class ExtremalParams:
    """Parameters of the critical family for an equal antipodal pair."""

    lam: float = 1.0
    c: float = 0.0
    alpha: float = -0.5
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        if not (-1.0 < self.alpha < 0.0):
            raise ValueError("alpha must lie in (-1, 0)")
        self.axis = normalized(self.axis)


def extremal_value(params: ExtremalParams, x) -> np.ndarray:
    """Pointwise u_{lambda,c}; finite at both poles of the axis."""
    x = np.asarray(x, dtype=float)
    dot = np.clip(x @ params.axis, -1.0, 1.0)
    a = params.alpha
    # |y|^2 = (1+dot)/(1-dot) for projection from the axis pole
    at_pole = dot > 1.0 - 1.0e-15
    safe = np.where(at_pole, 0.0, dot)
    with np.errstate(divide="ignore"):
        # log1p(-1) = -inf at the antipode flows to the right limit
        log_1py2 = np.log(2.0) - np.log1p(-safe)      # log(1+|y|^2)
        log_y2 = np.log1p(safe) - np.log1p(-safe)     # log(|y|^2)
    val = (2.0 * (1.0 + a) * log_1py2
           - 2.0 * np.logaddexp(0.0, np.log(params.lam) + (1.0 + a) * log_y2)
           + params.c)
    limit = params.c - 2.0 * np.log(params.lam)
    out = np.where(at_pole, limit, val)
    return float(out) if out.ndim == 0 else out


def extremal_u(params: ExtremalParams, grid: SphereGrid) -> ScalarField:
    """u_{lambda,c} sampled on the grid (grid axis aligned with params.axis)."""
    return ScalarField(extremal_value(params, grid.nodes), grid)


def extremal_weight(alpha: float, axis=(0.0, 0.0, 1.0)) -> SingularWeight:
    """The equal antipodal pair of orders alpha on the given axis."""
    axis = normalized(np.asarray(axis, dtype=float))
    return SingularWeight.from_orders([(axis, alpha), (-axis, alpha)])


# ---------------------------------------------------------------------------
# conformal dilations
# ---------------------------------------------------------------------------

def log_det_dilation(t: float, dot_axis: np.ndarray) -> np.ndarray:
    """log |det d phi_t| at points with <axis, x> = dot_axis.

    phi_t is the conformal dilation fixing +-axis, y -> t y in the
    stereographic chart from the axis pole.
    """
    dot = np.clip(dot_axis, -1.0, 1.0)
    log_y2 = np.log1p(dot) - np.log1p(-dot)
    log_1py2 = np.log(2.0) - np.log1p(-dot)
    log_1pt2y2 = np.logaddexp(0.0, 2.0 * np.log(t) + log_y2)
    return 2.0 * (np.log(t) + log_1py2 - log_1pt2y2)


def dilated_dot(t: float, dot_axis: np.ndarray) -> np.ndarray:
    """<axis, phi_t(x)> as a function of <axis, x> (the map is zonal)."""
    dot = np.clip(dot_axis, -1.0, 1.0)
    log_y2 = np.log1p(dot) - np.log1p(-dot)
    q = 2.0 * np.log(t) + log_y2          # log(t^2 |y|^2)
    return np.tanh(0.5 * q)


def conformal_pullback(u: ScalarField, t: float, alpha: float,
                       axis=(0.0, 0.0, 1.0)) -> ScalarField:
    """u o phi_t + (1+alpha) log |det d phi_t| resampled on u's grid.

    The dilation maps latitude circles to latitude circles, so the resampling
    is a product-grid synthesis at shifted colatitudes (spectrally exact for
    band-limited u); a zonal u gives one column, repeated around each ring.
    """
    axis = normalized(np.asarray(axis, dtype=float))
    if abs(axis[2]) < 1.0 - 1.0e-12:
        raise ValueError("conformal_pullback requires the grid axis")
    if t <= 0.0:
        raise ValueError("dilation parameter must be positive")
    grid = u.grid
    sign = np.sign(axis[2])
    dot = sign * grid.t
    new_dot = dilated_dot(t, dot)
    tr = ProductTransform(grid.band_limit, sign * new_dot, grid.n_phi)
    pulled = tr.synthesis_values(sh_analysis(u))
    return ScalarField(
        pulled + (1.0 + alpha) * log_det_dilation(t, dot)[:, None], grid)


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
    """int_{R^2} c_p |x|^{2 alpha} e^{phi0} dx by radial quadrature (= 1)."""
    from scipy.integrate import quad
    beta = np.pi * c_p / (1.0 + alpha)
    r_star = beta ** (-1.0 / (2.0 * (1.0 + alpha)))

    def envelope(r):
        return 2.0 * np.pi * c_p / (1.0 + beta * r ** (2 * (1 + alpha))) ** 2

    # inner part carries r^{2 alpha + 1} as an explicit algebraic weight
    inner, _ = quad(envelope, 0.0, r_star, weight="alg",
                    wvar=(2.0 * alpha + 1.0, 0.0), epsabs=1e-12, epsrel=1e-12)
    outer, _ = quad(lambda r: envelope(r) * r ** (2.0 * alpha + 1.0),
                    r_star, np.inf, **_QUAD_OPTS)
    return inner + outer


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
    """int_0^infty log(1+s)/(1+s)^2 ds by adaptive quadrature (= 1)."""
    from scipy.integrate import quad
    val, _ = quad(lambda s: np.log1p(s) / (1.0 + s) ** 2, 0.0, np.inf,
                  **_QUAD_OPTS)
    return val


# ---------------------------------------------------------------------------
# concentrating test functions
# ---------------------------------------------------------------------------

@dataclass
class ConcentrationParams:
    """Concentration family at a minimal-order point p of the weight.

    gamma_eps = (-log eps)^{1/(2(1+alpha))} satisfies all the matching
    conditions; r_eps = gamma_eps eps^{1/(2(1+alpha))} is the cap radius.
    """

    epsilon: float
    weight: SingularWeight
    p: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        self.p = normalized(self.p)
        if self.weight.beta(self.p) != self.weight.alpha:
            raise ValueError(
                "test functions concentrate at a point of minimal order")
        if 2.0 * self.r_eps >= np.pi / 4.0:
            raise ValueError("epsilon too large: cap exceeds the safe scale")
        for sp in self.weight.points:
            if geodesic_distance(self.p, sp.position) > 1.0e-12 and \
                    geodesic_distance(self.p, sp.position) <= 2.0 * self.r_eps:
                raise ValueError("epsilon too large: cap reaches another "
                                 "singular point")

    @property
    def alpha(self) -> float:
        return self.weight.alpha

    @property
    def gamma_eps(self) -> float:
        return (-np.log(self.epsilon)) ** (1.0 / (2.0 * (1.0 + self.alpha)))

    @property
    def r_eps(self) -> float:
        return self.gamma_eps * self.epsilon ** (1.0 / (2.0 * (1.0 + self.alpha)))

    @property
    def C_eps(self) -> float:
        g2 = self.gamma_eps ** (2.0 * (1.0 + self.alpha))
        rho_bar = self.weight.rho_bar
        return -2.0 * np.log1p(1.0 / g2) - rho_bar * REGULAR_PART


def _cutoff_eta(r: np.ndarray, r_eps: float) -> np.ndarray:
    """Cubic ramp: 1 at r <= r_eps, 0 at r >= 2 r_eps, |eta'| = O(1/r_eps)."""
    s = np.clip((r - r_eps) / r_eps, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _cutoff_eta_prime(r: np.ndarray, r_eps: float) -> np.ndarray:
    s = np.clip((r - r_eps) / r_eps, 0.0, 1.0)
    return -6.0 * s * (1.0 - s) / r_eps


def _sigma(r):
    """Smooth part G(r) + log(r)/(2 pi) - A of the radial Green's function."""
    return green_radial(r) + np.log(r) / (2.0 * np.pi) - REGULAR_PART


def concentration_profile(params: ConcentrationParams):
    """Radial profile phi_eps(r) (r = distance to the concentration point)."""
    a = params.alpha
    eps = params.epsilon
    r_eps = params.r_eps
    rho_bar = params.weight.rho_bar
    c_eps = params.C_eps

    def profile(r):
        r = np.asarray(r, dtype=float)
        inner = -2.0 * np.log(eps + r ** (2.0 * (1.0 + a))) + np.log(eps)
        rr = np.maximum(r, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = (rho_bar * (green_radial(rr) - _cutoff_eta(r, r_eps) * _sigma(rr))
                     + c_eps + np.log(eps))
        out = np.where(r < r_eps, inner, outer)
        return float(out) if out.ndim == 0 else out

    return profile


def concentration_field(params: ConcentrationParams, grid: SphereGrid) -> ScalarField:
    """The two-branch concentration field sampled on the grid."""
    profile = concentration_profile(params)
    d = np.arccos(np.clip(grid.nodes @ params.p, -1.0, 1.0))
    return ScalarField(profile(d), grid)


def concentration_functional(params: ConcentrationParams) -> dict:
    """J_{rho_bar}(phi_eps) by 1-d radial quadrature (axisymmetric weights).

    Requires every singular point of the weight to lie on the axis through
    the concentration point, which makes all three terms of the functional
    zonal.  Accurate at any epsilon, far beyond grid resolution.
    """
    from scipy.integrate import quad

    w = params.weight
    a = params.alpha
    eps = params.epsilon
    r_eps = params.r_eps
    rho_bar = w.rho_bar
    p = params.p
    for sp in w.points:
        if abs(abs(float(sp.position @ p)) - 1.0) > 1.0e-12:
            raise ValueError("radial evaluation needs an axisymmetric weight")
    if w.K is not None:
        raise ValueError("radial evaluation supports K == 1 only")

    profile = concentration_profile(params)
    far_order = sum(sp.order for sp in w.points
                    if geodesic_distance(sp.position, p) > 1.0e-12)
    near_order = w.beta(p)

    def log_h(r):
        # orders at distance r and pi - r from the concentration point
        val = near_order * (np.log(2.0 * np.sin(0.5 * r) ** 2) + 1.0 - np.log(2.0))
        if far_order != 0.0:
            val = val + far_order * (np.log(2.0 * np.cos(0.5 * r) ** 2)
                                     + 1.0 - np.log(2.0))
        return val

    def grad_inner(r):
        p2a = 2.0 * (1.0 + a)
        return -2.0 * p2a * r ** (p2a - 1.0) / (eps + r**p2a)

    def grad_outer(r):
        g_prime = -np.sin(r) / (FOUR_PI * 2.0 * np.sin(0.5 * r) ** 2)
        sigma_prime = g_prime + 1.0 / (2.0 * np.pi * r)
        eta = _cutoff_eta(r, r_eps)
        eta_prime = _cutoff_eta_prime(r, r_eps)
        return rho_bar * (g_prime - eta_prime * _sigma(r) - eta * sigma_prime)

    def radial(f_in, f_out):
        """2 pi int_0^pi f sin r dr: f_in inside the cap, f_out outside."""
        inner, _ = quad(lambda r: f_in(r) * np.sin(r), 0.0, r_eps,
                        points=[r_eps * f for f in (1e-6, 1e-4, 1e-2, 0.5)],
                        **_QUAD_OPTS)
        outer, _ = quad(lambda r: f_out(r) * np.sin(r), r_eps, np.pi,
                        points=[2.0 * r_eps, 0.5], **_QUAD_OPTS)
        return 2.0 * np.pi * (inner + outer)

    dirichlet = radial(lambda r: grad_inner(r) ** 2,
                       lambda r: grad_outer(r) ** 2)
    mean = radial(profile, profile) / FOUR_PI
    shift = -np.log(eps)  # phi_eps(0) = -log eps is the peak scale

    def dens(r):
        return np.exp(log_h(r) + profile(r) - shift)

    log_exp = shift + np.log(radial(dens, dens))

    J = (0.5 * dirichlet + rho_bar * mean
         - rho_bar * (log_exp - np.log(FOUR_PI)))
    return {
        "J": J,
        "dirichlet": dirichlet,
        "mean": mean,
        "exp_integral": np.exp(log_exp),
        "log_exp_integral": log_exp,
        "r_eps": r_eps,
        "gamma_eps": params.gamma_eps,
        "C_eps": params.C_eps,
    }


def concentration_sweep(weight: SingularWeight, epsilons,
                        p=(0.0, 0.0, 1.0)) -> list[dict]:
    """J(phi_eps) along a decreasing epsilon schedule (radial evaluation)."""
    out = []
    for eps in epsilons:
        params = ConcentrationParams(epsilon=float(eps), weight=weight,
                                     p=np.asarray(p, dtype=float))
        rec = concentration_functional(params)
        rec["epsilon"] = float(eps)
        out.append(rec)
    return out

