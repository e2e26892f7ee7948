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
||r|| <= TOL_FACTOR rho, and the last one usually passes it by orders of
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
returns them, not its inputs, and a caller that needs values synthesizes
them.  Axis-symmetric problems are solved in the m = 0 subspace, by the
one rule of ``sphere_grid``: one-part coefficients are zonal.  From zonal
coefficients under a weight invariant about the axis
(``axis_integrator``), J and its gradient commute with rotations about the
axis, so every residual, direction and iterate is zonal, every density is
one column and each transform is one product per parity of l - m over the
representative rings, O(L n_t), against O(L^2 n_t + L n_t n_phi) for all
orders.  The diagnostics read a state on the integrator's rule it was
solved on, in one pass, a zonal state on one longitude: its peak, profile,
far field and whole-sphere mass are one column of values.  A zonal start
under a weight that is not invariant is widened to every order at its
first step; any other input takes the full path, unchanged.

As eps decreases with a singular weight of negative minimal order, the
minimizers concentrate: lambda_eps = max u grows, the concentration scale
t_eps = exp(-lambda_eps/(2(1+alpha))) shrinks, the rescaled profile
collapses onto the planar bubble, and the mass rho_eps h e^u concentrates
at the minimal-order point while u - mean(u) approaches rho_bar G_p away
from it.  ``diagnose`` measures all of this; ``epsilon_sweep`` drives a
schedule, each entry (its epsilon, state and diagnosis) started from the
previous one's coefficients, and its report extrapolates the functional
values to eps = 0 by the model J_inf + c eps log(1/eps) + d eps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .sphere_grid import (
    ProductTransform,
    SHCoefficients,
    SphereGrid,
    _orthonormal_frame,
    axis_values,
    geodesic_distance,
    gradient_at_angles,
    normalized,
    on_axis,
    ring_points,
    rotated,
)
from .singular_geometry import SingularWeight, green_radial
from .mt_functional import (
    CAP_RADIAL_NODES,
    DEFAULT_CEILING,
    SingularIntegrator,
    UnnormalizedBlowupError,
    cap_radial_nodes,
    cap_rings,
    density_residual,
    eval_J_coeffs,
    hessian_product,
    integrator_for,
)
from .closed_forms import concentration_field, planar_bubble


class NonConvergedError(RuntimeError):
    """A solve stopped short of convergence, at ``max_iterations`` or on a
    stalled line search (a sweep entry fails its whole sweep); the CLI
    exits 3."""


class InsufficientAnnulusError(ValueError):
    """The gradient-exponent fit annulus contains no usable radii."""


BACKTRACK_MAX = 40  # step halvings per line search before the solve stalls
CG_MAX = 20  # Hessian products per Newton step (the solves here take <= 5)
TOL_FACTOR = 1.0e-6  # convergence at ||residual|| <= TOL_FACTOR rho

log = logging.getLogger("sol_lab.solver")


@dataclass
class MinimizerState:
    coeffs: SHCoefficients
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


def minimize(init: SHCoefficients, grid: SphereGrid, w: SingularWeight,
             rho: float, *, max_iterations: int) -> MinimizerState:
    """Minimize J_rho of the weight ``w``, 0 < rho <= rho_bar, by inexact
    Newton (truncated PCG on the exact discrete Hessian, backtracking on J)
    from the coefficients ``init``; returns a normalized state, the iterate
    shifted once, at the end.

    ``iterations`` counts the outer (Newton) steps taken, at most
    ``max_iterations``; each trace record holds the step's J, residual and
    normalized peak lambda (max u - log int h e^u) at its start, and the
    step length taken, its halvings and its Hessian products (all zero
    when converged or at the cap).  The last record, ``J`` and
    ``residual_norm`` measure the returned state.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if rho > w.rho_bar + 1.0e-12:
        raise ValueError(
            f"rho = {rho:.6g} exceeds the critical value {w.rho_bar:.6g}; "
            "supercritical minimization is out of scope")
    a = init
    integ = integrator_for(grid, w)
    precond = None
    tol = TOL_FACTOR * rho

    dens = integ.density(a)
    J = eval_J_coeffs(a, dens.log_integral, rho)
    trace = []
    for it in range(max_iterations + 1):
        iterations = it
        lam = integ.field_peak(dens) - dens.log_integral  # normalized peak
        if lam > DEFAULT_CEILING:
            raise UnnormalizedBlowupError(
                f"max(u) = {lam:.3g} exceeded the ceiling during minimization")
        proj = integ.density_projection(dens)
        residual = density_residual(a, dens, proj, rho)
        resid = residual.values
        if precond is None:  # the inverse Laplacian on l >= 1, row by row
            l, _ = residual.rows
            precond = np.divide(1.0, l * (l + 1.0), out=np.zeros(l.shape),
                                where=l > 0)
        rnorm = float(np.sqrt(np.sum(resid * resid)))
        record = {"iteration": it, "J": J, "residual": rnorm, "lambda": lam,
                  "step": 0.0, "backtracks": 0, "cg_iterations": 0}
        trace.append(record)
        converged = rnorm <= tol
        if converged or it == max_iterations:
            break  # the returned state is measured, not stepped

        forcing = min(0.5, np.sqrt(rnorm / rho)) * rnorm
        direction, products = _truncated_cg(
            resid, lambda v: hessian_product(v, dens, proj, integ, rho),
            precond, forcing)
        if a.values.shape != direction.shape:  # zonal start, h not invariant
            a = a.widened()
        step, accepted = 1.0, False
        for backtracks in range(BACKTRACK_MAX):
            cand = SHCoefficients(a.values + step * direction)
            cand_dens = integ.density(cand)
            J_cand = eval_J_coeffs(cand, cand_dens.log_integral, rho)
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
             "J=%.15g |r|=%.3e", rho,
             "converged" if converged else "not converged", iterations,
             sum(rec["cg_iterations"] for rec in trace), J, rnorm)
    return MinimizerState(coeffs=a.shifted(-dens.log_integral), J=J,
                          residual_norm=rnorm, iterations=iterations,
                          converged=converged, trace=trace)


def _shortfall(state: MinimizerState) -> str:
    """The residual and steps of an unconverged solve, and the stall when
    its last line search ran out of halvings (BACKTRACK_MAX)."""
    text = (f"residual {state.residual_norm:.3e} after {state.iterations} "
            "iterations")
    if state.trace[-1]["backtracks"] == BACKTRACK_MAX:
        text += (f"; the line search stalled: {BACKTRACK_MAX} step halvings "
                 "did not lower J")
    return text


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def cap_density_integral(coeffs: SHCoefficients, grid: SphereGrid,
                         w: SingularWeight, center: np.ndarray,
                         radius: float) -> float:
    """int_{B_radius(center)} h e^u of the field with these coefficients
    on the integrator of one cap (``cap_rings``), ``cap_radial_nodes`` radii
    in equal panels of CAP_RADIAL_NODES times the grid's longitudes; about a
    centre off the axis, of the field turned into its frame (``rotated``)."""
    if radius >= np.pi - 0.2:
        raise ValueError("cap radius too large for the polar rule")
    center = normalized(center)
    axis = on_axis(center)
    panels = -(-cap_radial_nodes(grid.band_limit, radius) // CAP_RADIAL_NODES)
    t, wr, cap = cap_rings(w, center, np.linspace(0.0, radius, panels + 1),
                           CAP_RADIAL_NODES)
    tr = ProductTransform(grid.band_limit, center[2] * t if axis else t,
                          grid.n_phi, wr)
    nodes = ring_points(tr.t, tr.phi[:1] if axis and w.axis_invariant
                        else tr.phi)
    if not axis:
        frame = _orthonormal_frame(center)
        coeffs, nodes = rotated(coeffs, frame), nodes @ frame
    if coeffs.values.shape[-1] > 1:  # a stack of one streams its blocks
        coeffs = SHCoefficients(coeffs.values[:, None])
    integ = SingularIntegrator(tr, w.log_weight(nodes, cap=cap))
    return np.exp(integ.log_exp_integral(coeffs)).item()


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
    compact_case: bool
    under_resolved: bool
    # u - lambda_eps at the rule's nodes within 5 t_eps of the centre on
    # the peak's meridian, by distance; empty without a profile
    profile_radii: np.ndarray
    profile: np.ndarray


def diagnose(coeffs: SHCoefficients, grid: SphereGrid, w: SingularWeight,
             rho: float) -> BlowupDiagnostics:
    """Populate the concentration diagnostics of the field with these
    coefficients, a converged state's at rho, from its values on the rule
    it was solved on (the integrator's transform of ``w``; one column, on
    the first longitude, when zonal).  Both radial models are
    compared at the rule's nodes by their distance d from the centre: the
    bubble at d <= 5 t_eps, the Green's function at d >= 1.  The cap mass
    at 10 t_eps is a polar quadrature, or the same nodes' integral when the
    cap covers the sphere."""
    alpha = w.alpha
    integ = integrator_for(grid, w)
    tr = integ.transform

    vals = tr.synthesis_values(coeffs)

    # peak over the rule's nodes and the poles, which no Gauss ring holds
    nodes = ring_points(tr.t, tr.phi[:vals.shape[-1]])
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    lam = float(vals[idx])
    p_eps = nodes[idx]
    for v, z in zip(axis_values(coeffs), (1.0, -1.0)):
        if v > lam:
            lam, p_eps = v, np.array([0.0, 0.0, z])

    # scaling center: nearest minimal-order singular point when alpha < 0
    center = p_eps if alpha >= 0.0 else min(
        w.minimal_points(),
        key=lambda sp: geodesic_distance(p_eps, sp.position)).position

    # in float64 t_eps and t_eps^2 ubar read inf where they overflow, on
    # compact states near order -1 (t_eps = 3.3e241 rad at order -0.99)
    ubar = coeffs.mean
    with np.errstate(over="ignore"):
        t_eps = np.exp(-lam / (2.0 * (1.0 + alpha)))
        mean_decay = float(t_eps**2 * ubar)
    t_eps = float(t_eps)
    compact = lam < 1.0
    under_resolved = t_eps < 4.0 * np.pi / grid.band_limit

    if 10.0 * t_eps < np.pi - 0.2:
        cap_mass = cap_density_integral(coeffs, grid, w, center,
                                        10.0 * t_eps)
    else:  # the "cap" covers the sphere: int h e^u on the rule's nodes
        cap_mass = float(np.exp(integ.density_of(vals.copy()).log_integral))
    cap_mass *= rho

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
    farfield = float(np.max(np.abs(vals[far] - ubar
                                   - w.rho_bar * green_radial(d[far]))))

    # copies: a node is a view of the whole node array
    return BlowupDiagnostics(
        lambda_eps=lam, p_eps=np.array(p_eps), center=np.array(center),
        t_eps=t_eps, cap_mass=cap_mass, profile_error=profile_err,
        farfield_error=farfield, mean_decay=mean_decay, compact_case=compact,
        under_resolved=under_resolved, profile_radii=radii, profile=profile)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    epsilon: float  # the schedule's, not rho_bar - rho re-rounded
    rho: float
    state: MinimizerState
    diagnostics: BlowupDiagnostics

    def row(self) -> dict:
        s, d = self.state, self.diagnostics
        return {
            "epsilon": self.epsilon,
            "rho": self.rho,
            "J": s.J,
            "residual": s.residual_norm,
            "iterations": s.iterations,
            "lambda": d.lambda_eps,
            "t_eps": d.t_eps,
            "mean_decay": d.mean_decay,
            "cap_mass_10t": d.cap_mass,
            "profile_error": d.profile_error,
            "farfield_error": d.farfield_error,
            "under_resolved": d.under_resolved,
        }


@dataclass
class SweepReport:
    entries: list

    def column(self, key: str) -> list:
        return [e.row()[key] for e in self.entries]

    @property
    def extrapolated_J(self) -> float:
        return extrapolate_blowup(self.column("epsilon"), self.column("J"))


def extrapolate_blowup(eps, J) -> float:
    """J_inf of J(eps) = J_inf + c eps log(1/eps) + d eps through the last
    three points, by Cramer's rule: J_inf = J . n / (1 . n) with n the
    cross product of the columns eps log(1/eps) and eps.  1, eps log eps
    and eps are a Chebyshev system on (0, inf) (a combination has second
    derivative b/eps, so at most two zeros), so 1 . n != 0 for distinct
    epsilons."""
    if len(eps) < 3:
        raise ValueError(f"the limit model has three unknowns; got "
                         f"{len(eps)} points")
    e = np.asarray(eps[-3:], dtype=float)
    n = np.cross(-e * np.log(e), e)
    return float(np.dot(J[-3:], n) / n.sum())


def epsilon_sweep(weight: SingularWeight, grid: SphereGrid, epsilons, *,
                  max_iterations: int,
                  init_epsilon: float | None) -> SweepReport:
    """Minimization at rho_bar - eps for each of ``epsilons``, each entry
    warm-started from the previous state's coefficients; the first from
    the test function of scale ``init_epsilon`` at a minimal point of
    negative order, else (or if ``init_epsilon`` is None) from zero."""
    rho_bar = weight.rho_bar
    entries = []
    current: SHCoefficients | None = None
    for eps in epsilons:
        if eps >= rho_bar:
            raise ValueError(f"epsilon {eps} is not below rho_bar {rho_bar}")
        rho = rho_bar - eps
        if current is None:
            if init_epsilon is not None and weight.alpha < 0.0:
                p0 = weight.minimal_points()[0].position
                current = concentration_field(grid, weight, init_epsilon, p0)
            else:
                current = SHCoefficients(np.zeros((grid.band_limit + 1, 1)))
        state = minimize(current, grid, weight, rho,
                         max_iterations=max_iterations)
        if not state.converged:
            raise NonConvergedError(f"entry at epsilon = {eps} did not "
                                    f"converge ({_shortfall(state)})")
        entries.append(SweepEntry(eps, rho, state,
                                  diagnose(state.coeffs, grid, weight, rho)))
        current = state.coeffs
    return SweepReport(entries)


# ---------------------------------------------------------------------------
# gradient exponent near a singular point
# ---------------------------------------------------------------------------

def gradient_singularity_exponent(coeffs: SHCoefficients, grid: SphereGrid,
                                  w: SingularWeight, p_i) -> dict:
    """Least-squares slope of log |grad u| vs log d near a singular point
    of ``w``, which must lie on the axis, as a solved state's points do.

    The fit annulus is [5 * grid spacing, 0.1], at 12 radii of 8 bearings;
    raises when the grid is too coarse for the annulus to exist.  The
    reported bound is the gradient-growth exponent min(2 alpha_i + 1, 0).
    """
    p_i = normalized(p_i)
    if not on_axis(p_i):
        raise ValueError("the exponent fit takes a point on the axis")
    alpha_i = w.beta(p_i)
    if alpha_i >= 0.0:
        raise ValueError("the exponent fit targets negative-order points")
    d_min, d_max = 5.0 * grid.node_spacing(), 0.1
    if d_min >= d_max:
        raise InsufficientAnnulusError(
            f"fit annulus [{d_min:.3g}, {d_max:.3g}] is empty; "
            "increase the grid resolution")
    radii = np.geomspace(d_min, d_max, 12)
    t, phi = np.meshgrid(p_i[2] * np.cos(radii),  # 8 bearings a radius
                         2.0 * np.pi * np.arange(8) / 8, indexing="ij")
    avg = gradient_at_angles(coeffs, t, phi).mean(axis=1)
    slope, intercept = np.polyfit(np.log(radii), np.log(avg), 1)
    return {
        "slope": float(slope),
        "bound": min(2.0 * alpha_i + 1.0, 0.0),
        "radii": radii,
        "mean_gradient": avg,
    }
