"""Minimization of the subcritical functional and blow-up diagnostics.

For rho = rho_bar - eps the functional is coercive and has a minimizer.
The iteration is a damped, spectrally preconditioned fixed point: with the
current normalized iterate u,

    solve  -Delta w = rho (h e^u / int h e^u - 1/4pi)   (spectral inverse),
    step   u <- u + tau (w + mean(u) - u),  backtracking on J,
    renormalize so that int h e^u = 1.

The fixed point solves the Euler-Lagrange equation; the residual used for
the stopping test is the exact gradient of the discrete functional, so the
backtracking line search always finds descent away from the minimizer.

Each line-search trial synthesizes the candidate once per quadrature block
(``SingularIntegrator.density``) and evaluates J from that record; J is
shift invariant, so the candidate need not be normalized first.  The
accepted candidate is normalized by shifting its mean, and its record is
reused for the next step's peak and residual, which costs one analysis per
block.  An accepted step therefore costs blocks x trials syntheses and
blocks analyses; a weight with its singular points on the grid axis has
one block (``SingularIntegrator``), so trials syntheses and one analysis.

Axis-symmetric problems are solved in the m = 0 subspace, by the one rule
of ``sphere_grid``: one-column data is zonal.  A ring-constant initial
field has exactly zonal coefficients; when the weight is invariant about
the axis as well (``SingularIntegrator``), J and its gradient commute with
rotations about the axis, so every iterate stays zonal, every density is
one column per block and each transform is one (L+1) x n_t product per
block, O(L n_t), against O(L^2 n_t + L n_t n_phi) for all orders.  The
final state and the diagnostics' gradients are synthesized as one column
too.  Any other input takes the full path, unchanged.

As eps decreases with a singular weight of negative minimal order, the
minimizers concentrate: lambda_eps = max u grows, the concentration scale
t_eps = exp(-lambda_eps/(2(1+alpha))) shrinks, the rescaled profile
collapses onto the planar bubble, and the mass rho_eps h e^u concentrates
at the minimal-order point while u - mean(u) approaches rho_bar G_p away
from it.  ``diagnose`` measures all of this; ``epsilon_sweep`` drives a
warm-started schedule and Richardson-extrapolates the functional values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .sphere_grid import (
    ScalarField,
    SHCoefficients,
    SphereGrid,
    _degree_weights,
    cap_points,
    geodesic_distance,
    gradient_at_angles,
    gradient_magnitude,
    integrate,
    sh_analysis,
    sh_synthesis,
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
    integrator_for,
)
from .closed_forms import (ConcentrationParams, concentration_field,
                           planar_bubble)


class NonConvergedError(RuntimeError):
    """A sweep entry failed to converge; the whole sweep is flagged."""


class InsufficientAnnulusError(ValueError):
    """The gradient-exponent fit annulus contains no usable radii."""


BACKTRACK_MAX = 40  # step halvings per line search before the solve stalls


@dataclass
class SolverConfig:
    epsilon_schedule: tuple = (0.5, 0.2, 0.1, 0.05)
    max_iterations: int = 4000
    damping: float = 0.5
    tol_factor: float = 1.0e-6     # convergence at ||residual|| <= tol_factor*rho
    init: str = "test-function"    # first sweep entry: "zero" | "test-function"
    init_epsilon: float = 0.01     # epsilon of the seeding test function

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_schedule)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if any(e <= 0.0 for e in eps):
            raise ValueError("epsilon schedule must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.init not in ("zero", "test-function"):
            raise ValueError("init must be 'zero' or 'test-function', "
                             f"got {self.init!r}")
        self.epsilon_schedule = eps


@dataclass
class MinimizerState:
    u: ScalarField
    coeffs: SHCoefficients
    params: FunctionalParams
    epsilon: float
    J: float
    residual_norm: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def minimize(params: FunctionalParams, config: SolverConfig,
             init: ScalarField, grid: Optional[SphereGrid] = None) -> MinimizerState:
    """Minimize J_rho by preconditioned descent; returns a normalized state."""
    if params.rho > params.weight.rho_bar + 1.0e-12:
        raise ValueError(
            f"rho = {params.rho:.6g} exceeds the critical value "
            f"{params.weight.rho_bar:.6g}; supercritical minimization is "
            "out of scope")
    grid = grid or init.grid
    a = sh_analysis(init)
    integ = integrator_for(grid, params.weight)
    lw = _degree_weights(grid.band_limit)[1:, None]
    tol = config.tol_factor * params.rho

    def normalized(coeffs, dens):
        """Shift by a constant so that int h e^u = 1."""
        c = -dens.log_integral
        return coeffs.shifted(c), dens.shifted(c)

    dens = integ.density(a)
    J = eval_J_coeffs(a, dens, params)
    a, dens = normalized(a, dens)
    trace = []
    converged = False
    iterations = 0
    rnorm = np.inf

    tau = config.damping
    for it in range(config.max_iterations):
        iterations = it
        lam = integ.field_peak(dens)
        if lam > DEFAULT_CEILING:
            raise UnnormalizedBlowupError(
                f"max(u) = {lam:.3g} exceeded the ceiling during minimization")
        resid = density_residual(a, dens, integ, params.rho).values
        rnorm = float(np.sqrt(np.sum(resid * resid)))
        trace.append({"iteration": it, "J": J, "residual": rnorm, "lambda": lam})
        if rnorm <= tol:
            converged = True
            break

        # preconditioned direction: w solves -Delta w = rho(h e^u/E - 1/4pi)
        direction = np.zeros_like(resid)
        direction[1:] = -resid[1:] / lw
        step = tau
        accepted = False
        for _ in range(BACKTRACK_MAX):
            cand = SHCoefficients(a.values + step * direction)
            cand_dens = integ.density(cand)
            # J is shift invariant: the unnormalized candidate has the same J
            J_cand = eval_J_coeffs(cand, cand_dens, params)
            if J_cand <= J + 1.0e-12:
                (a, dens), J = normalized(cand, cand_dens), J_cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # stalled: J can no longer decrease along the direction
        # adapt the damping: grow on clean acceptance, shrink after backtracks
        tau = min(1.0, 1.25 * step) if step == tau else max(step, 0.05)

    return MinimizerState(u=sh_synthesis(a, grid), coeffs=a, params=params,
                          epsilon=params.weight.rho_bar - params.rho,
                          J=J, residual_norm=rnorm, iterations=iterations,
                          converged=converged, trace=trace)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def cap_density_integral(state: MinimizerState, center: np.ndarray,
                         radius: float, n_radial: int | None = None,
                         n_angular: int = 32) -> float:
    """int_{B_radius(center)} h e^u by polar quadrature (u normalized)."""
    w = state.params.weight
    grid = state.u.grid
    if radius >= np.pi - 0.2:
        raise ValueError("cap radius too large for the polar rule")
    alpha_c = w.beta(center)
    n_radial = n_radial or max(48, int(radius * grid.band_limit) + 16)
    r, wr = cap_radial_rule(alpha_c, radius, n_radial)
    pts = cap_points(center, r, n_angular)
    own = [i for i, sp in enumerate(w.points)
           if geodesic_distance(sp.position, center) < 1.0e-12]
    log_h = w.log_weight(pts, cap=(own[0] if own else None, r[:, None]))
    u_vals = synthesis_at_points(state.coeffs, pts)
    wgt = (wr * 2.0 * np.pi / n_angular)[:, None]
    return float(np.sum(wgt * np.exp(log_h + u_vals)))


@dataclass
class BlowupDiagnostics:
    lambda_eps: float
    p_eps: np.ndarray
    center: np.ndarray
    t_eps: float
    cap_masses: dict
    profile_error: float
    farfield_error: float
    mean_decay: float
    grad_l15: float
    compact_case: bool
    under_resolved: bool


def gradient_magnitude_grid(coeffs: SHCoefficients, grid: SphereGrid) -> np.ndarray:
    """|grad u| on the grid nodes (exact, see ``gradient_magnitude``); one
    column for zonal coefficients."""
    return gradient_magnitude(coeffs, grid.transform.synthesis_values,
                              grid.t[:, None])


def diagnose(state: MinimizerState, w: SingularWeight,
             profile_R: float = 5.0, farfield_delta: float = 1.0,
             cap_radii: tuple = ()) -> BlowupDiagnostics:
    """Populate the concentration diagnostics of a converged state."""
    grid = state.u.grid
    alpha = w.alpha

    # peak over grid nodes and the singular points themselves
    vals = state.u.values
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    lam = float(vals[idx])
    p_eps = grid.nodes[idx]
    for sp in w.minimal_points():
        v = float(synthesis_at_points(state.coeffs, sp.position)[0])
        if v > lam:
            lam, p_eps = v, sp.position

    # scaling center: nearest minimal-order singular point when alpha < 0
    center = p_eps if alpha >= 0.0 else min(
        w.minimal_points(),
        key=lambda sp: geodesic_distance(p_eps, sp.position)).position

    t_eps = float(np.exp(-lam / (2.0 * (1.0 + alpha))))
    compact = lam < 1.0
    under_resolved = t_eps < 4.0 * np.pi / grid.band_limit

    cap_masses = {}
    for r in tuple(cap_radii) + (10.0 * t_eps,):
        key = float(r)
        if key <= 0.0:
            continue
        if key < np.pi - 0.2:
            cap_masses[key] = state.params.rho * cap_density_integral(
                state, center, key)
        else:
            # the "cap" covers the sphere: mass is rho * int h e^u
            integ = integrator_for(grid, w)
            cap_masses[key] = state.params.rho * float(
                np.exp(integ.log_exp_integral(state.coeffs)))

    # profile collapse onto the planar bubble
    profile_err = np.nan
    if alpha < 0.0 or not compact:
        c_p = w.bubble_constant(center) if alpha < 0.0 else \
            float(w.weight(center[None, :])[0])
        radii = np.linspace(0.0, profile_R, 25)[1:] * t_eps
        u_vals = synthesis_at_points(state.coeffs,
                                     cap_points(center, radii, 8))
        bubble = planar_bubble(radii / t_eps, c_p, alpha)[:, None]
        profile_err = float(np.max(np.abs(u_vals - lam - bubble)))

    # far field against the Green's function of the concentration point
    d = np.arccos(np.clip(grid.nodes @ center, -1.0, 1.0))
    mask = d >= farfield_delta
    gvals = green_radial(d[mask])
    ubar = state.coeffs.mean
    farfield = float(np.max(np.abs(vals[mask] - ubar - w.rho_bar * gvals)))

    grad = gradient_magnitude_grid(state.coeffs, grid)
    grad_l15 = float(integrate(ScalarField(grad**1.5, grid)) ** (1.0 / 1.5))

    return BlowupDiagnostics(
        lambda_eps=lam, p_eps=np.asarray(p_eps), center=np.asarray(center),
        t_eps=t_eps, cap_masses=cap_masses, profile_error=profile_err,
        farfield_error=farfield, mean_decay=t_eps**2 * ubar,
        grad_l15=grad_l15, compact_case=compact,
        under_resolved=under_resolved)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    epsilon: float
    rho: float
    J: float
    residual_norm: float
    iterations: int
    diagnostics: BlowupDiagnostics

    def row(self) -> dict:
        d = self.diagnostics
        return {
            "epsilon": self.epsilon,
            "rho": self.rho,
            "J": self.J,
            "residual": self.residual_norm,
            "iterations": self.iterations,
            "lambda": d.lambda_eps,
            "t_eps": d.t_eps,
            "mean_decay": d.mean_decay,
            "cap_mass_10t": d.cap_masses.get(
                min(d.cap_masses, key=lambda k: abs(k - 10.0 * d.t_eps)),
                np.nan) if d.cap_masses else np.nan,
            "profile_error": d.profile_error,
            "grad_l15": d.grad_l15,
            "under_resolved": d.under_resolved,
        }


@dataclass
class SweepReport:
    entries: list
    extrapolated_J: float
    extrapolation_exponent: float
    states: list = field(default_factory=list)

    def column(self, key: str) -> list:
        return [e.row()[key] for e in self.entries]


def richardson_extrapolate(eps: np.ndarray, J: np.ndarray):
    """Fit J(eps) = J0 + c eps^p on the last three points and return (J0, p)."""
    from scipy.optimize import brentq
    e1, e2, e3 = eps[-3], eps[-2], eps[-1]
    j1, j2, j3 = J[-3], J[-2], J[-1]
    denom = j2 - j3
    if denom == 0.0:
        return float(j3), np.nan

    def mismatch(p):
        return (j1 - j2) / denom - (e1**p - e2**p) / (e2**p - e3**p)

    try:
        p = brentq(mismatch, 0.05, 4.0, xtol=1.0e-10)
        c = (j2 - j3) / (e2**p - e3**p)
        return float(j3 - c * e3**p), float(p)
    except ValueError:
        # no sign change: fall back to linear extrapolation in eps
        slope = (j2 - j3) / (e2 - e3)
        return float(j3 - slope * e3), 1.0


def epsilon_sweep(weight: SingularWeight, grid: SphereGrid,
                  config: SolverConfig) -> SweepReport:
    """Warm-started minimization along the epsilon schedule."""
    rho_bar = weight.rho_bar
    entries = []
    states = []
    current: ScalarField | None = None
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
                current = ScalarField.constant(grid, 0.0)
        state = minimize(params, config, current, grid)
        if not state.converged:
            raise NonConvergedError(
                f"entry at epsilon = {eps} did not converge "
                f"(residual {state.residual_norm:.3e} after "
                f"{state.iterations} iterations)")
        diag = diagnose(state, weight)
        entries.append(SweepEntry(epsilon=eps, rho=params.rho, J=state.J,
                                  residual_norm=state.residual_norm,
                                  iterations=state.iterations,
                                  diagnostics=diag))
        states.append(state)
        current = state.u
    eps_arr = np.array([e.epsilon for e in entries])
    J_arr = np.array([e.J for e in entries])
    if len(entries) >= 3:
        J0, p = richardson_extrapolate(eps_arr, J_arr)
    else:
        J0, p = float(J_arr[-1]), np.nan
    return SweepReport(entries=entries, extrapolated_J=J0,
                       extrapolation_exponent=p, states=states)


# ---------------------------------------------------------------------------
# gradient exponent near a singular point
# ---------------------------------------------------------------------------

def gradient_singularity_exponent(state: MinimizerState, p_i,
                                  d_max: float = 0.1,
                                  n_radii: int = 12) -> dict:
    """Least-squares slope of log |grad u| vs log d near a singular point.

    The fit annulus is [5 * grid spacing, d_max]; raises when the grid is
    too coarse for the annulus to exist.  The reported bound is the
    gradient-growth exponent min(2 alpha_i + 1, 0).
    """
    grid = state.u.grid
    p_i = np.asarray(p_i, dtype=float)
    alpha_i = state.params.weight.beta(p_i)
    if alpha_i >= 0.0:
        raise ValueError("the exponent fit targets negative-order points")
    d_min = 5.0 * grid.node_spacing()
    if d_min >= d_max:
        raise InsufficientAnnulusError(
            f"fit annulus [{d_min:.3g}, {d_max:.3g}] is empty; "
            "increase the grid resolution")
    radii = np.geomspace(d_min, d_max, n_radii)
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
