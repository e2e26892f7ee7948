"""Sharp constants, the blow-up infimum and the axis Pohozaev identity.

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

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .sphere_grid import FOUR_PI, SHCoefficients, SphereGrid
from .singular_geometry import REGULAR_PART, SingularWeight
from .mt_functional import integrator_for


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
        return {**asdict(self), "inf_J": self.inf_J,
                "maximizer": None if self.maximizer is None
                else [float(v) for v in self.maximizer]}


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
    points p of log c(p) + 4 pi A (1 + alpha) - log(1 + alpha), with c(p)
    the weight's ``bubble_constant``.  alpha = 0 (all orders positive, or
    no singularities): the maximand 4 pi A + log h is maximized over the
    grid nodes, then refined by golden-section sweeps in colatitude and
    longitude around the best node; h vanishes at each singular point, so
    no point needs excluding.
    """
    alpha = w.alpha
    rho_bar = w.rho_bar
    base = 1.0 + np.log(np.pi / FOUR_PI)
    if alpha < 0.0:
        best = -np.inf
        best_p = None
        for sp in w.minimal_points():
            val = (np.log(w.bubble_constant(sp.position))
                   + FOUR_PI * REGULAR_PART * (1.0 + alpha)
                   - np.log(1.0 + alpha))
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
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    best_p = grid.nodes[idx]

    # local refinement around the best node, one golden-section sweep per angle
    theta0 = np.arccos(np.clip(best_p[2], -1.0, 1.0))
    phi0 = np.arctan2(best_p[1], best_p[0])
    span = 2.0 * grid.node_spacing()

    def point(theta, phi):
        return np.array([np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi), np.cos(theta)])

    def at(theta, phi):
        return float(maximand(point(theta, phi)[None, :])[0])

    for _ in range(2):
        theta0 = _golden_section(lambda th: at(th, phi0),
                                 max(theta0 - span, 1.0e-9),
                                 min(theta0 + span, np.pi - 1.0e-9))
        phi0 = _golden_section(lambda ph: at(theta0, ph),
                               phi0 - span, phi0 + span)
    best, best_p = at(theta0, phi0), point(theta0, phi0)
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

    # alpha1 is the minimal order of every report returned
    rho_bar = 8.0 * np.pi * (1.0 + min(0.0, alpha1))
    if alpha2 is None:
        C = max(alpha1, -np.log1p(alpha1))
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
    if min(alpha1, alpha2) >= 0.0:
        raise RegimeError("no sharp closed form in paper: the antipodal "
                          "pair needs a negative minimal order")
    if alpha1 == alpha2:
        C = alpha1 - np.log1p(alpha1)
        return SharpConstantReport(
            theorem="equal-antipodal", inputs={"alpha": alpha1},
            C=float(C), rho_bar=rho_bar, attained=True,
            branch="attained",
            notes="equality on the dilation family of the axis")
    if alpha1 > alpha2:
        raise RegimeError("order the pair so that alpha1 = min < alpha2")
    C = alpha2 - np.log1p(alpha1)
    return SharpConstantReport(
        theorem="mixed-antipodal", inputs={"alpha1": alpha1, "alpha2": alpha2},
        C=float(C), rho_bar=rho_bar, attained=False,
        branch="alpha1 = min < 0", maximizer=np.array([0.0, 0.0, 1.0]),
        notes="strict inequality; no extremal exists")


# ---------------------------------------------------------------------------
# axis Pohozaev / Kazdan-Warner identity
# ---------------------------------------------------------------------------

def _axis_orders(w: SingularWeight) -> tuple[float, float]:
    """(order at +e3, order at -e3); requires one singular point, or one on
    each pole, exactly on the grid axis (``SingularWeight.is_axis_aligned``;
    ``axis_frame`` puts one point or an antipodal pair there)."""
    poles = {sp.position[2] > 0.0 for sp in w.points}
    if not (w.is_axis_aligned() and 0 < len(w.points) == len(poles)):
        raise RegimeError(
            "the axis identity needs one singularity, or an antipodal pair, "
            "on the grid axis")
    a1 = a2 = 0.0
    for sp in w.points:
        if sp.position[2] > 0.0:
            a1 = sp.order
        else:
            a2 = sp.order
    return a1, a2


@dataclass
class KazdanWarnerReport:
    moment: float
    poho_residual: float
    prefactor: float
    orders: tuple


def kazdan_warner_residual(coeffs: SHCoefficients, grid: SphereGrid,
                           w: SingularWeight, rho: float) -> KazdanWarnerReport:
    """Residual of alpha2 - alpha1 = (2 - rho/4pi + a1 + a2) int h e^u x3
    for the field u with coefficients ``coeffs`` on ``grid``.

    The moment is the ratio int h e^u x3 / int h e^u, so u need not be
    normalized.  Both are sums on the integrator's rule, x3 = t on each of
    its rings, so the density's one synthesis is the only transform: no
    projection of h e^u is formed.
    """
    a1, a2 = _axis_orders(w)
    integ = integrator_for(grid, w)
    dens, tr = integ.density(coeffs), integ.transform
    moment = tr.integral(dens.values * tr.t[:, None]) / dens.total
    prefactor = 2.0 - rho / FOUR_PI + a1 + a2
    poho = (a2 - a1) - prefactor * moment
    return KazdanWarnerReport(moment=moment, poho_residual=float(poho),
                              prefactor=float(prefactor), orders=(a1, a2))
