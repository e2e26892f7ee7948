"""Sharp constants, the axis Pohozaev identity, and non-existence witnesses.

On the round sphere with weight h = K prod exp(-4 pi alpha_i G_{p_i}), the
sharp constant of the exponential inequality is C = -inf J_{rho_bar} / rho_bar.
When no minimizer exists the infimum has the closed form

    inf J = -rho_bar ( 1 + log(pi/4pi)
                       + max { 4 pi A + log(K(p)/(1+alpha))
                               + sum_{q != p} -4 pi beta(q) G_q(p) } ),

the maximum running over minimal-order singular points when alpha < 0 and
over the whole sphere minus the singular set when alpha = 0.  Specializing
to K == 1 and at most two antipodal singularities gives

    one singularity:            C = max(alpha_1, -log(1 + alpha_1)),
    antipodal, alpha_1 < alpha_2,
    alpha_1 < 0:                C = alpha_2 - log(1 + alpha_1),
    antipodal, equal alpha < 0: C = alpha - log(1 + alpha)   (attained).

Non-existence in the first two regimes follows from the axis identity

    alpha_2 - alpha_1 = (2 - rho/4pi + alpha_1 + alpha_2) int h e^u x3,

which at rho = rho_bar forces |int h e^u x3| = 1, impossible for a
probability density with |x3| < 1 almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sphere_grid import (
    FOUR_PI,
    ScalarField,
    SphereGrid,
    sh_analysis,
)
from .singular_geometry import (
    REGULAR_PART,
    SingularWeight,
    green,
)
from .mt_functional import CAP_RADIUS, integrator_for

_ANTIPODAL_TOL = 1.0e-10


class RegimeError(ValueError):
    """The requested configuration has no closed form in scope."""


@dataclass
class SharpConstantReport:
    theorem: str
    inputs: dict
    C: float
    rho_bar: float
    attained: Optional[bool]
    branch: str
    maximizer: Optional[np.ndarray] = None
    notes: str = ""

    @property
    def inf_J(self) -> float:
        return -self.rho_bar * self.C

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "C": self.C,
            "rho_bar": self.rho_bar,
            "inf_J": self.inf_J,
            "attained": self.attained,
            "branch": self.branch,
            "maximizer": None if self.maximizer is None
            else [float(v) for v in self.maximizer],
            "notes": self.notes,
        }


def _golden_section(f, a: float, b: float, tol: float = 1.0e-10) -> float:
    """Maximize f on [a, b] by golden-section search."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def blowup_infimum(w: SingularWeight,
                   grid: Optional[SphereGrid] = None) -> SharpConstantReport:
    """Blow-up value of the infimum from the general closed-form formula.

    alpha < 0: exact maximization over the finite set of minimal-order
    points.  alpha = 0 (all orders positive, or no singularities): the
    maximand 4 pi A + log h is maximized over grid nodes outside the
    singular caps, then refined by golden-section sweeps in colatitude and
    longitude around the best node.
    """
    alpha = w.alpha
    rho_bar = w.rho_bar
    base = 1.0 + np.log(np.pi / FOUR_PI)
    if alpha < 0.0:
        best = -np.inf
        best_p = None
        for sp in w.minimal_points():
            val = (FOUR_PI * REGULAR_PART
                   + np.log(w.smooth_factor(sp.position[None, :])[0])
                   - np.log(1.0 + alpha))
            for other in w.points:
                if other is sp:
                    continue
                val += -FOUR_PI * other.order * green(other.position,
                                                      sp.position)
            if val > best:
                best, best_p = val, sp.position
        return SharpConstantReport(
            theorem="general", inputs={"orders": list(map(float, w.orders))},
            C=float(base + best), rho_bar=rho_bar, attained=None,
            branch="minimal-order points", maximizer=best_p)

    if grid is None:
        raise ValueError("the alpha = 0 branch needs a grid to maximize over")

    def maximand(points):
        return FOUR_PI * REGULAR_PART + w.log_weight(points)

    vals = maximand(grid.nodes)
    for sp in w.points:
        d = np.arccos(np.clip(grid.nodes @ sp.position, -1.0, 1.0))
        vals = np.where(d < CAP_RADIUS, -np.inf, vals)
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    best_p = grid.nodes[idx]

    # local refinement around the best node, one golden-section sweep per angle
    theta0 = np.arccos(np.clip(best_p[2], -1.0, 1.0))
    phi0 = np.arctan2(best_p[1], best_p[0])
    span = 2.0 * grid.node_spacing()

    def at(theta, phi):
        pt = np.array([np.sin(theta) * np.cos(phi),
                       np.sin(theta) * np.sin(phi), np.cos(theta)])
        for sp in w.points:
            if float(pt @ sp.position) > np.cos(CAP_RADIUS):
                return -np.inf
        return float(maximand(pt[None, :])[0])

    for _ in range(2):
        theta0 = _golden_section(lambda th: at(th, phi0),
                                 max(theta0 - span, 1.0e-9),
                                 min(theta0 + span, np.pi - 1.0e-9))
        phi0 = _golden_section(lambda ph: at(theta0, ph),
                               phi0 - span, phi0 + span)
    best = at(theta0, phi0)
    best_p = np.array([np.sin(theta0) * np.cos(phi0),
                       np.sin(theta0) * np.sin(phi0), np.cos(theta0)])
    return SharpConstantReport(
        theorem="general", inputs={"orders": list(map(float, w.orders))},
        C=float(base + best), rho_bar=rho_bar, attained=None,
        branch="grid maximization", maximizer=best_p)


def sphere_sharp_constant(alpha1: float, alpha2: Optional[float] = None,
                          antipodal: bool = False) -> SharpConstantReport:
    """Closed-form sharp constants for at most two singularities, K == 1."""
    for a in (alpha1,) + (() if alpha2 is None else (alpha2,)):
        if not (a > -1.0) or a == 0.0:
            raise RegimeError(f"orders must lie in (-1, inf) minus 0, got {a}")

    if alpha2 is None:
        C = max(alpha1, -np.log1p(alpha1))
        rho_bar = 8.0 * np.pi * (1.0 + min(0.0, alpha1))
        branch = "alpha1 < 0" if alpha1 < 0 else "alpha1 > 0"
        maximizer = np.array([0.0, 0.0, 1.0 if alpha1 < 0 else -1.0])
        return SharpConstantReport(
            theorem="one-singularity", inputs={"alpha1": alpha1},
            C=float(C), rho_bar=rho_bar, attained=False, branch=branch,
            maximizer=maximizer,
            notes="strict inequality; no extremal exists")

    if not antipodal:
        raise RegimeError("no sharp closed form in paper for a "
                          "non-antipodal singularity pair")
    lo, hi = min(alpha1, alpha2), max(alpha1, alpha2)
    if lo >= 0.0:
        raise RegimeError("no sharp closed form in paper: the antipodal "
                          "pair needs a negative minimal order")
    if alpha1 == alpha2:
        C = alpha1 - np.log1p(alpha1)
        return SharpConstantReport(
            theorem="equal-antipodal", inputs={"alpha": alpha1},
            C=float(C), rho_bar=8.0 * np.pi * (1.0 + alpha1), attained=True,
            branch="attained",
            notes="equality on the dilation family of the axis")
    if alpha1 > alpha2:
        raise RegimeError("order the pair so that alpha1 = min < alpha2")
    C = alpha2 - np.log1p(alpha1)
    return SharpConstantReport(
        theorem="mixed-antipodal", inputs={"alpha1": alpha1, "alpha2": alpha2},
        C=float(C), rho_bar=8.0 * np.pi * (1.0 + alpha1), attained=False,
        branch="alpha1 = min < 0", maximizer=np.array([0.0, 0.0, 1.0]),
        notes="strict inequality; no extremal exists")


# ---------------------------------------------------------------------------
# axis Pohozaev / Kazdan-Warner identity
# ---------------------------------------------------------------------------

def _axis_orders(w: SingularWeight) -> tuple[float, float]:
    """(order at +e3, order at -e3); requires an axis-antipodal layout."""
    a1 = a2 = 0.0
    for sp in w.points:
        if abs(sp.position[2] - 1.0) < _ANTIPODAL_TOL:
            a1 = sp.order
        elif abs(sp.position[2] + 1.0) < _ANTIPODAL_TOL:
            a2 = sp.order
        else:
            raise RegimeError(
                "the axis identity needs singularities at antipodal points "
                "on the grid axis")
    return a1, a2


@dataclass
class KazdanWarnerReport:
    moment: float
    poho_residual: float
    kw_vector_residual: float
    prefactor: float
    orders: tuple


def kazdan_warner_residual(u: ScalarField, rho: float,
                           w: SingularWeight) -> KazdanWarnerReport:
    """Residual of alpha2 - alpha1 = (2 - rho/4pi + a1 + a2) int h e^u x3.

    The moment is the ratio int h e^u x3 / int h e^u, so ``u`` need not be
    normalized.  With x3 = sqrt(4 pi / 3) Y_{1,0}, int h e^u x3 is read from
    the density's projection: one synthesis and one analysis per
    quadrature block.  Also evaluates the vector form
    int grad h . grad x3 e^u - (2 - rho/4pi) int h e^u x3 with the same
    singular-cap quadrature (grad h . grad x3 has the closed form
    (a2 - a1) h - (a1 + a2) h x3 for the antipodal layout).
    """
    a1, a2 = _axis_orders(w)
    integ = integrator_for(u.grid, w)
    dens = integ.density(sh_analysis(u))
    proj = integ.density_projection(dens)
    moment = float(np.sqrt(FOUR_PI / 3.0) * proj.values[1, proj.band_limit]
                   / dens.total)
    prefactor = 2.0 - rho / FOUR_PI + a1 + a2
    poho = (a2 - a1) - prefactor * moment
    # vector form, normalized by int h e^u = 1
    kw_vec = ((a2 - a1) - (a1 + a2) * moment) - (2.0 - rho / FOUR_PI) * moment
    return KazdanWarnerReport(moment=moment, poho_residual=float(poho),
                              kw_vector_residual=float(kw_vec),
                              prefactor=float(prefactor), orders=(a1, a2))


@dataclass
class NonexistenceWitness:
    regime: str
    forced_moment: float
    margin: float
    certified: bool
    message: str


def nonexistence_witness(w: SingularWeight) -> NonexistenceWitness:
    """Forced value of int h e^u x3 at rho = rho_bar and its infeasibility.

    A solution would need the moment of the probability density h e^u to
    equal a value of modulus one, which |x3| < 1 a.e. forbids.  The margin
    is the distance of the forced moment from the open interval (-1, 1); it
    is zero in every in-scope regime, a boundary contradiction.
    """
    a1, a2 = _axis_orders(w)
    m = len(w.points)
    if m == 0:
        raise RegimeError("no singularities: the identity is vacuous")
    if m == 1:
        a = w.points[0].order
        denom = a - 2.0 * min(0.0, a)
        forced = -a / denom
        regime = "one-singularity"
    else:
        lo, hi = min(a1, a2), max(a1, a2)
        if a1 == a2:
            raise RegimeError(
                "equal antipodal orders: identity gives no useful condition")
        if lo >= 0.0:
            raise RegimeError("the pair regime needs a negative minimal order")
        forced = 1.0
        regime = "mixed-antipodal"
    margin = abs(forced) - 1.0
    certified = margin >= 0.0
    return NonexistenceWitness(
        regime=regime, forced_moment=float(forced), margin=float(margin),
        certified=certified,
        message=(f"forced |moment| = {abs(forced):g}, impossible for a "
                 "nonconstant probability density with |x3| < 1 a.e."))
