"""Minimization of the subcritical functional and blow-up diagnostics.

For rho = rho_bar - eps the functional is coercive and has a minimizer.
The solver is inexact Newton on the coefficients of u: with the current
iterate u, its residual r (the exact gradient of the discrete
functional, ``density_residual``) and the exact discrete Hessian H
(``hessian_product``),

    solve  H s = -r  by truncated PCG (Steihaug, SIAM J. Numer. Anal. 20,
           1983), preconditioned by the inverse Laplacian on l >= 1, to
           the forcing tolerance ||H s + r|| <= min(1/2, sqrt(||r||/rho))
           ||r|| (Eisenstat-Walker, SIAM J. Sci. Comput. 17, 1996), or
           until CG_MAX products or a direction of negative curvature,
    step   u <- u + tau s, tau = 1, 1/2, 1/4, ... backtracking on J.

The first PCG iterate is a multiple of (-Delta)^{-1} r, the preconditioned
descent direction, and a negative curvature met on the first iteration
returns that direction itself, so every step is a descent step.  The
forcing term tightens as the residual falls, which makes the outer
convergence superlinear: a handful of steps reach the stopping test
||r|| <= tol_factor rho, and the last one usually passes it by orders of
magnitude.

Each Hessian product synthesizes its vector once and analyses the product
with the density once, on the integrator's one product rule
(``SingularIntegrator``); each line-search trial synthesizes the
candidate once (``SingularIntegrator.density``) and evaluates J from that
record, and the accepted candidate's record is reused for the next step's
peak, residual and Hessian, so the residual costs one analysis.  J, its
gradient and its Hessian are shift invariant and the l = 0 row of every
residual and direction is zero, so the iterate keeps its start's mean and
is never renormalized: the peak is read normalized, max u - log int h
e^u, and only the returned state is shifted to int h e^u = 1.  An outer
step therefore costs 1 + CG iterations analyses and CG iterations +
trials syntheses.

The logger ``sol_lab.solver`` writes one debug line per outer step and
one info line per solve.

The state is the coefficients: a solve starts from coefficients and
returns them with the grid, and a caller that needs values synthesizes
them.  Axis-symmetric problems are solved in the m = 0 subspace, by the
one rule of ``sphere_grid``: one-column data is zonal.  From a zonal
column of coefficients under a weight invariant about the axis
(``SingularIntegrator``), J and its gradient commute with rotations about
the axis, so every residual, direction and iterate is that column, every
density is one column and each transform is one (L+1) x n_t product,
O(L n_t), against O(L^2 n_t + L n_t n_phi) for all orders.  The
diagnostics read a state on the integrator's rule it was solved on, in
one pass, a zonal state on one longitude: its peak, profile, far field,
gradients and whole-sphere mass are one column of values.  A zonal start
under a weight that is not invariant is widened to every order at its
first step; any other input takes the full path, unchanged.

As eps decreases with a singular weight of negative minimal order, the
minimizers concentrate: lambda_eps = max u grows, the concentration scale
t_eps = exp(-lambda_eps/(2(1+alpha))) shrinks, the rescaled profile
collapses onto the planar bubble, and the mass rho_eps h e^u concentrates
at the minimal-order point while u - mean(u) approaches rho_bar G_p away
from it.  ``diagnose`` measures all of this; ``epsilon_sweep`` drives a
schedule, each entry (its epsilon, state and diagnosis) started from the
previous one's coefficients, and Richardson-extrapolates the functional
values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .sphere_grid import (
    SHCoefficients,
    SphereGrid,
    _degree_weights,
    axis_values,
    cap_points,
    dirichlet_energy,
    geodesic_distance,
    gradient_at_angles,
    gradient_magnitude,
    on_axis,
    ring_points,
    synthesis_at_points,
)
from .singular_geometry import SingularWeight, green_radial
from .mt_functional import (
    DEFAULT_CEILING,
    FunctionalParams,
    UnnormalizedBlowupError,
    cap_radial_rule,
    density_residual,
    eval_J_coeffs,
    hessian_product,
    integrator_for,
)
from .closed_forms import (ConcentrationParams, concentration_field,
                           planar_bubble)


class NonConvergedError(RuntimeError):
    """A sweep entry failed to converge; the whole sweep is flagged."""


class InsufficientAnnulusError(ValueError):
    """The gradient-exponent fit annulus contains no usable radii."""


BACKTRACK_MAX = 40  # step halvings per line search before the solve stalls
CG_MAX = 20  # Hessian products per Newton step (the solves here take <= 5)

log = logging.getLogger("sol_lab.solver")


@dataclass
class SolverConfig:
    epsilon_schedule: tuple = (0.5, 0.2, 0.1, 0.05)
    max_iterations: int = 4000
    tol_factor: float = 1.0e-6     # convergence at ||residual|| <= tol_factor*rho
    init: str = "test-function"    # first sweep entry: "zero" | "test-function"
    init_epsilon: float = 0.01     # epsilon of the seeding test function

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_schedule)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if any(e <= 0.0 for e in eps):
            raise ValueError("epsilon schedule must be positive")
        if self.init not in ("zero", "test-function"):
            raise ValueError("init must be 'zero' or 'test-function', "
                             f"got {self.init!r}")
        self.epsilon_schedule = eps


@dataclass
class MinimizerState:
    coeffs: SHCoefficients
    grid: SphereGrid
    params: FunctionalParams
    J: float
    residual_norm: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def _truncated_cg(resid: np.ndarray, hess, precond: np.ndarray,
                 tol: float) -> tuple[np.ndarray, int]:
    """Steihaug's truncated PCG for H s = -r, r = ``resid``: returns (s,
    Hessian products).

    ``hess`` applies H, ``precond`` is the diagonal of the preconditioner's
    inverse.  Stops when ||H s + r|| <= tol, after CG_MAX products, or on
    a direction of non-positive curvature, returning the last iterate; on
    the first product that iterate would be zero, so it returns the
    preconditioned descent direction -precond r instead.
    """
    s = np.zeros_like(resid)
    r = resid.copy()
    z = precond * r
    d = -z
    rz = np.sum(r * z)
    for k in range(1, CG_MAX + 1):
        hd = hess(d)
        curvature = np.sum(d * hd)
        if curvature <= 0.0:
            return (d if k == 1 else s), k
        alpha = rz / curvature
        s += alpha * d
        r += alpha * hd
        if np.sqrt(np.sum(r * r)) <= tol:
            break
        z = precond * r
        rz, rz_old = np.sum(r * z), rz
        d = (rz / rz_old) * d - z
    return s, k


def minimize(params: FunctionalParams, config: SolverConfig,
             init: SHCoefficients, grid: SphereGrid) -> MinimizerState:
    """Minimize J_rho by inexact Newton (truncated PCG on the exact discrete
    Hessian, backtracking on J) from the coefficients ``init``; returns a
    normalized state, the iterate shifted once, at the end.

    ``iterations`` counts outer (Newton) steps; each trace record holds
    the step's J, residual and normalized peak lambda (max u - log int
    h e^u) at its start, and the step length taken, its halvings and its
    Hessian products (all zero on the converged record).
    """
    if params.rho > params.weight.rho_bar + 1.0e-12:
        raise ValueError(
            f"rho = {params.rho:.6g} exceeds the critical value "
            f"{params.weight.rho_bar:.6g}; supercritical minimization is "
            "out of scope")
    a = init
    integ = integrator_for(grid, params.weight)
    precond = np.zeros((grid.band_limit + 1, 1))  # inverse Laplacian, l >= 1
    precond[1:, 0] = 1.0 / _degree_weights(grid.band_limit)[1:]
    tol = config.tol_factor * params.rho

    dens = integ.density(a)
    J = eval_J_coeffs(dirichlet_energy(a), a.mean, dens.log_integral,
                      params)
    trace = []
    converged = False
    iterations = 0
    rnorm = np.inf

    for it in range(config.max_iterations):
        iterations = it
        lam = integ.field_peak(dens) - dens.log_integral  # normalized peak
        if lam > DEFAULT_CEILING:
            raise UnnormalizedBlowupError(
                f"max(u) = {lam:.3g} exceeded the ceiling during minimization")
        proj = integ.density_projection(dens)
        resid = density_residual(a, dens, proj, params.rho).values
        rnorm = float(np.sqrt(np.sum(resid * resid)))
        record = {"iteration": it, "J": J, "residual": rnorm, "lambda": lam,
                  "step": 0.0, "backtracks": 0, "cg_iterations": 0}
        trace.append(record)
        if rnorm <= tol:
            converged = True
            break

        forcing = min(0.5, np.sqrt(rnorm / params.rho)) * rnorm
        direction, products = _truncated_cg(
            resid, lambda v: hessian_product(v, dens, proj, integ, params.rho),
            precond, forcing)
        if a.values.shape != direction.shape:  # zonal start, h not invariant
            a = a.widened()
        step, accepted = 1.0, False
        for backtracks in range(BACKTRACK_MAX):
            cand = SHCoefficients(a.values + step * direction)
            cand_dens = integ.density(cand)
            J_cand = eval_J_coeffs(dirichlet_energy(cand), cand.mean,
                                   cand_dens.log_integral, params)
            if J_cand <= J + 1.0e-12:
                a, dens, J = cand, cand_dens, J_cand
                accepted = True
                break
            step *= 0.5
        record.update(step=step if accepted else 0.0,
                      backtracks=backtracks if accepted else BACKTRACK_MAX,
                      cg_iterations=products)
        log.debug("step %d: J=%.15g |r|=%.3e lambda=%.6g step=%g "
                  "backtracks=%d cg=%d", it, record["J"], rnorm, lam,
                  record["step"], record["backtracks"], products)
        if not accepted:
            break  # stalled: J can no longer decrease along the direction

    log.info("minimize rho=%.6g: %s after %d steps (%d Hessian products), "
             "J=%.15g |r|=%.3e", params.rho,
             "converged" if converged else "not converged", iterations,
             sum(rec["cg_iterations"] for rec in trace), J, rnorm)
    return MinimizerState(coeffs=a.shifted(-dens.log_integral), grid=grid,
                          params=params, J=J, residual_norm=rnorm,
                          iterations=iterations, converged=converged,
                          trace=trace)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def cap_density_integral(state: MinimizerState, center: np.ndarray,
                         radius: float) -> float:
    """int_{B_radius(center)} h e^u by polar quadrature (u normalized), on
    max(48, radius L + 16) radii and 32 bearings; a zonal state about a
    centre on the axis is synthesized on one bearing."""
    w = state.params.weight
    grid = state.grid
    if radius >= np.pi - 0.2:
        raise ValueError("cap radius too large for the polar rule")
    alpha_c = w.beta(center)
    n_radial, n_angular = max(48, int(radius * grid.band_limit) + 16), 32
    r, wr = cap_radial_rule(alpha_c, radius, n_radial)
    pts = cap_points(center, r, n_angular)
    log_h = w.log_weight(pts, cap=(w.index_at(center), r[:, None]))
    zonal = state.coeffs.values.shape[-1] == 1 and on_axis(center)
    u_vals = synthesis_at_points(state.coeffs, pts[:, :1] if zonal else pts)
    wgt = (wr * 2.0 * np.pi / n_angular)[:, None]
    return float(np.sum(wgt * np.exp(log_h + u_vals)))


@dataclass
class BlowupDiagnostics:
    lambda_eps: float
    p_eps: np.ndarray
    center: np.ndarray
    t_eps: float
    cap_mass: float  # rho int h e^u over B(center, 10 t_eps)
    profile_error: float
    farfield_error: float
    mean_decay: float
    grad_l15: float
    compact_case: bool
    under_resolved: bool
    # u - lambda_eps at the rule's nodes within 5 t_eps of the centre on
    # the peak's meridian, by distance; empty without a profile
    profile_radii: np.ndarray
    profile: np.ndarray


def diagnose(state: MinimizerState) -> BlowupDiagnostics:
    """Populate the concentration diagnostics of a converged state, from
    its values and gradient on the rule it was solved on (the integrator's
    transform; one column, on the first longitude, when zonal) and its own
    weight.  Both radial models are compared at the rule's nodes by their
    distance d from the centre: the bubble at d <= 5 t_eps, the Green's
    function at d >= 1.  The cap mass at 10 t_eps is a polar quadrature,
    or the same nodes' integral when the cap covers the sphere."""
    grid, w = state.grid, state.params.weight
    alpha = w.alpha
    integ = integrator_for(grid, w)
    tr = integ.transform

    # u and the three coefficient sets of |grad u| in one pass on the rule
    vals, grad = gradient_magnitude(state.coeffs, tr.synthesis_values,
                                    tr.t[:, None], values=True)

    # peak over the rule's nodes and the singular points themselves
    nodes = ring_points(tr.t, tr.phi[:vals.shape[-1]])
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    lam = float(vals[idx])
    p_eps = nodes[idx]
    # the integrator takes singular points on the axis alone, at +-e3
    poles = axis_values(state.coeffs)
    for sp in w.minimal_points():
        v = poles[0] if sp.position[2] > 0.0 else poles[1]
        if v > lam:
            lam, p_eps = v, sp.position

    # scaling center: nearest minimal-order singular point when alpha < 0
    center = p_eps if alpha >= 0.0 else min(
        w.minimal_points(),
        key=lambda sp: geodesic_distance(p_eps, sp.position)).position

    t_eps = float(np.exp(-lam / (2.0 * (1.0 + alpha))))
    compact = lam < 1.0
    under_resolved = t_eps < 4.0 * np.pi / grid.band_limit

    if 10.0 * t_eps < np.pi - 0.2:
        cap_mass = cap_density_integral(state, center, 10.0 * t_eps)
    else:  # the "cap" covers the sphere: int h e^u on the rule's nodes
        cap_mass = float(np.exp(integ.density_of(vals.copy()).log_integral))
    cap_mass *= state.params.rho

    # distance of each node from the centre; about a centre off the axis,
    # a zonal state needs every longitude
    if not on_axis(center):
        nodes = ring_points(tr.t, tr.phi)
        vals = np.broadcast_to(vals, nodes.shape[:-1])
    d = geodesic_distance(center, nodes)

    # profile collapse onto the planar bubble; the peak's longitude is a
    # meridian through the centre (any one for a centre on the axis)
    profile_err, radii, profile = np.nan, np.empty(0), np.empty(0)
    near = d <= 5.0 * t_eps
    if (alpha < 0.0 or not compact) and near.any():
        bubble = planar_bubble(d[near] / t_eps, w.bubble_constant(center),
                               alpha)
        profile_err = float(np.max(np.abs(vals[near] - lam - bubble)))
        ring = np.flatnonzero(near[:, idx[1]])
        ring = ring[np.argsort(d[ring, idx[1]], kind="stable")]
        radii, profile = d[ring, idx[1]], vals[ring, idx[1]] - lam

    # far field against the Green's function of the concentration point
    far = d >= 1.0
    ubar = state.coeffs.mean
    farfield = float(np.max(np.abs(vals[far] - ubar
                                   - w.rho_bar * green_radial(d[far]))))

    grad_l15 = tr.integral(grad**1.5) ** (1.0 / 1.5)

    # copies: a node is a view of the whole node array
    return BlowupDiagnostics(
        lambda_eps=lam, p_eps=np.array(p_eps), center=np.array(center),
        t_eps=t_eps, cap_mass=cap_mass, profile_error=profile_err,
        farfield_error=farfield, mean_decay=t_eps**2 * ubar,
        grad_l15=grad_l15, compact_case=compact,
        under_resolved=under_resolved, profile_radii=radii, profile=profile)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    epsilon: float  # the schedule's, not rho_bar - rho re-rounded
    state: MinimizerState
    diagnostics: BlowupDiagnostics

    def row(self) -> dict:
        s, d = self.state, self.diagnostics
        return {
            "epsilon": self.epsilon,
            "rho": s.params.rho,
            "J": s.J,
            "residual": s.residual_norm,
            "iterations": s.iterations,
            "lambda": d.lambda_eps,
            "t_eps": d.t_eps,
            "mean_decay": d.mean_decay,
            "cap_mass_10t": d.cap_mass,
            "profile_error": d.profile_error,
            "farfield_error": d.farfield_error,
            "grad_l15": d.grad_l15,
            "under_resolved": d.under_resolved,
        }


@dataclass
class SweepReport:
    entries: list
    extrapolated_J: float
    extrapolation_exponent: float

    def column(self, key: str) -> list:
        return [e.row()[key] for e in self.entries]


def _bracketed_root(f, lo: float, hi: float, xtol: float):
    """Root of f in [lo, hi]: bisection down to a bracket of width xtol,
    then the secant of that bracket; None when f(lo) and f(hi) have no
    sign change."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if not f_lo * f_hi < 0.0:  # no sign change, or a nan
        return None
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo - f_lo * (hi - lo) / (f_hi - f_lo)


def richardson_extrapolate(eps: np.ndarray, J: np.ndarray):
    """Fit J(eps) = J0 + c eps^p on the last three points and return (J0, p)."""
    e1, e2, e3 = eps[-3], eps[-2], eps[-1]
    j1, j2, j3 = J[-3], J[-2], J[-1]
    denom = j2 - j3
    if denom == 0.0:
        return float(j3), np.nan

    def mismatch(p):
        return (j1 - j2) / denom - (e1**p - e2**p) / (e2**p - e3**p)

    p = _bracketed_root(mismatch, 0.05, 4.0, xtol=1.0e-10)
    if p is None:
        # no sign change: fall back to linear extrapolation in eps
        slope = (j2 - j3) / (e2 - e3)
        return float(j3 - slope * e3), 1.0
    c = (j2 - j3) / (e2**p - e3**p)
    return float(j3 - c * e3**p), float(p)


def epsilon_sweep(weight: SingularWeight, grid: SphereGrid,
                  config: SolverConfig) -> SweepReport:
    """Minimization along the epsilon schedule, each entry warm-started
    from the previous state's coefficients."""
    rho_bar = weight.rho_bar
    entries = []
    current: SHCoefficients | None = None
    for eps in config.epsilon_schedule:
        if eps >= rho_bar:
            raise ValueError(f"epsilon {eps} is not below rho_bar {rho_bar}")
        params = FunctionalParams(rho=rho_bar - eps, weight=weight)
        if current is None:
            if config.init == "test-function" and weight.alpha < 0.0:
                p0 = weight.minimal_points()[0].position
                tf = ConcentrationParams(epsilon=config.init_epsilon,
                                         weight=weight, p=p0)
                current = concentration_field(tf, grid)
            else:
                current = SHCoefficients(np.zeros((grid.band_limit + 1, 1)))
        state = minimize(params, config, current, grid)
        if not state.converged:
            raise NonConvergedError(
                f"entry at epsilon = {eps} did not converge "
                f"(residual {state.residual_norm:.3e} after "
                f"{state.iterations} iterations)")
        entries.append(SweepEntry(eps, state, diagnose(state)))
        current = state.coeffs
    eps_arr = np.array([e.epsilon for e in entries])
    J_arr = np.array([e.state.J for e in entries])
    if len(entries) >= 3:
        J0, p = richardson_extrapolate(eps_arr, J_arr)
    else:
        J0, p = float(J_arr[-1]), np.nan
    return SweepReport(entries=entries, extrapolated_J=J0,
                       extrapolation_exponent=p)


# ---------------------------------------------------------------------------
# gradient exponent near a singular point
# ---------------------------------------------------------------------------

def gradient_singularity_exponent(state: MinimizerState, p_i) -> dict:
    """Least-squares slope of log |grad u| vs log d near a singular point.

    The fit annulus is [5 * grid spacing, 0.1], at 12 radii; raises when
    the grid is too coarse for the annulus to exist.  The reported bound
    is the gradient-growth exponent min(2 alpha_i + 1, 0).
    """
    grid = state.grid
    p_i = np.asarray(p_i, dtype=float)
    alpha_i = state.params.weight.beta(p_i)
    if alpha_i >= 0.0:
        raise ValueError("the exponent fit targets negative-order points")
    d_min, d_max = 5.0 * grid.node_spacing(), 0.1
    if d_min >= d_max:
        raise InsufficientAnnulusError(
            f"fit annulus [{d_min:.3g}, {d_max:.3g}] is empty; "
            "increase the grid resolution")
    radii = np.geomspace(d_min, d_max, 12)
    pts = cap_points(p_i, radii, 8)
    t = np.clip(pts[..., 2], -1.0, 1.0).reshape(-1)
    ph = np.arctan2(pts[..., 1], pts[..., 0]).reshape(-1)
    gmag = gradient_at_angles(state.coeffs, t, ph).reshape(pts.shape[:-1])
    avg = gmag.mean(axis=1)
    slope, intercept = np.polyfit(np.log(radii), np.log(avg), 1)
    return {
        "slope": float(slope),
        "bound": min(2.0 * alpha_i + 1.0, 0.0),
        "radii": radii,
        "mean_gradient": avg,
    }
