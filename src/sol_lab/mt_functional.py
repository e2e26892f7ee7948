"""The singular Moser-Trudinger functional and its discrete calculus.

For a weight h with conical singularities and a parameter rho > 0,

    J_rho(u) = 1/2 int |grad u|^2 + (rho/4pi) int u
               - rho log( (1/4pi) int h e^u ),

with Euler-Lagrange equation -Delta u = rho (h e^u / int h e^u - 1/4pi).

Discretely, u lives in the band-limited space of the grid; the Dirichlet
term and the Laplacian are spectral, while int h e^u needs quadrature that
respects the d^{2 alpha} behaviour of h at each singular point.  The
composite rule used here splits the sphere into

* small geodesic caps around each singular point, integrated in polar
  coordinates by the Gauss-Jacobi rule in r for the weight r^{2 alpha_i + 1}
  (the rule's weight is the algebraic singularity, so what it integrates is
  smooth in r), and
* the band between them, integrated with one Gauss-Legendre rule in
  t = cos(theta) (the weight is analytic there, its nearest singularity
  a cap radius beyond each end), times the uniform phi rule.

The singular points lie exactly on the grid axis, so every piece is a
product rule in (t, phi) and the whole composite rule is one: one
``ProductTransform`` over the north cap, band and south cap colatitude
nodes, an empty pole's cap having order 0 (``axis_integrator``).  A
density then costs one synthesis and its spherical-harmonic analysis one
analysis, O(L^3) like a grid transform.  One point or an antipodal pair
anywhere is the axis case by rotation (``singular_geometry.axis_frame``);
the composite rule refuses a weight off the axis.  ``diagnose``'s cap
mass is a ``SingularIntegrator`` of one cap, on the same rings.

``integrator_for`` is the one way library code gets a weight's composite
rule.  Zonality follows the data, by the one rule of ``sphere_grid``:
one-column values and one-part coefficients are zonal, and the weight's
data says whether h is invariant about the grid axis
(``SingularWeight.axis_invariant``).  Such a weight keeps log h as one
column, so zonal coefficients give a ring-constant density, one column,
and each of its transforms is an m = 0 pass, O(L n_t) instead of
O(L^2 n_t + L n_t n_phi).

Everything is evaluated through log h + u, with a global shift before
exponentiation, so strongly concentrated fields cannot overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import sphere_grid
from .sphere_grid import (
    FOUR_PI,
    ProductTransform,
    SHCoefficients,
    SphereGrid,
    dirichlet_energy,
    gauss_jacobi,
    ring_points,
)
from .singular_geometry import SingularWeight

DEFAULT_CEILING = 700.0
# the singular caps: geodesic radius and the least number of Gauss-Jacobi
# nodes in r, a panel's (see cap_radial_nodes); a cap takes the grid's
# longitudes, so the density analysis is alias-free to the grid's order
CAP_RADIUS = 0.1
CAP_RADIAL_NODES = 32
# Bytes that one stack of samples may hold from its draw to its gaps
# (``sample_gaps``): one Legendre group (``sphere_grid.LEGENDRE_BYTES``) and
# 24 (L + 1)^2 bytes a field at band limit L, three times its normals.  The
# draw holds the normals and the coefficients, 8 (L + 1)(L + 2) bytes a
# field; each pass, which streams (``ProductTransform._legendre``), holds
# the coefficients, one ring group's values, which
# ``SingularIntegrator._ring_groups`` keeps no larger than the
# coefficients, and one Legendre group.  37 fields at L = 256.
BATCH_BUDGET = 64 << 20  # 64 MiB


class UnnormalizedBlowupError(RuntimeError):
    """The normalized peak max(u) - log int h e^u of a ``minimize``
    iterate exceeded DEFAULT_CEILING: it has blown up beyond what the
    solver follows."""


def radial_rule(edges, n: int, b: float = 0.0, jacobian=np.sin):
    """Nodes r_k and weights w_k, sum_k w_k f(r_k) ~ int f(r) jacobian(r) dr
    from edges[0] to edges[-1] (edges may descend), n nodes a panel.

    The first panel is Gauss-Jacobi for the weight |r - edges[0]|^b
    (``gauss_jacobi``), folded into w_k, so an algebraic singularity there
    costs nothing; the others are Gauss-Legendre, and graded geometrically
    toward a point they converge geometrically at every scale.
    """
    x, w = gauss_jacobi(n, b)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        r = lo + half * (1.0 + x)
        nodes.append(r)
        weights.append(abs(half) * w * jacobian(r) / (1.0 + x) ** b)
        (x, w), b = gauss_jacobi(n), 0.0  # Gauss-Legendre from here
    return np.concatenate(nodes), np.concatenate(weights)


def cap_radial_nodes(band_limit: int, radius: float) -> int:
    """Radial nodes of a cap of radius R at band limit L, whatever its
    order: max(CAP_RADIAL_NODES, ceil(1.25 L R)), the one resolution rule.

    The cap holds about L R / pi oscillations of a degree-L harmonic,
    which Gauss-Jacobi nodes in r resolve as Gauss-Legendre nodes do; the
    point's factor costs nothing (``cap_rings``).  An integrator cap (R =
    CAP_RADIUS) is one rule of this many nodes, 32 up to L = 256, which
    agrees with twice as many to 1e-13 in log int h e^u (L = 256, 512,
    1024; alpha = -0.9, -0.5, -0.25, 1.095); ``diagnose``'s cap mass
    splits the count into panels of CAP_RADIAL_NODES.
    """
    return max(CAP_RADIAL_NODES, math.ceil(1.25 * band_limit * radius))


def band_rule(band_limit: int):
    """The Gauss-Legendre rule in t = cos(theta) on the band between the
    caps, with max(ceil(9 (L + 1) / 4), ceil(20 / CAP_RADIUS)) nodes.

    Between the cap edges the integrand is analytic: its nearest
    singularity lies at a pole, CAP_RADIUS beyond an end, so one rule
    converges geometrically, with error ~ (1 + CAP_RADIUS)^(-2n)
    (Trefethen, SIAM Rev. 50, 2008), below 1e-16 at 20 / CAP_RADIUS nodes.
    The rule is exact to degree 4.5 L + 3 in t, which takes in e^u of a
    degree-L field to about 1e-11: over 20 rough zonal fields at L = 128
    (coefficients N(0, 1) / (1 + l)) log int h e^u is off by 7e-13 in the
    median and 1.6e-11 at worst (2 (L + 1) nodes: 8e-12 and 3e-10).  That
    holds for zonal fields: for others the grid's longitudes limit the rule
    (20 rough fields at L = 256 move by up to 5.1e-9 from 514 to 2056
    longitudes, by 8.9e-16 from 1028; the ``FOUND:`` on it).  Every
    axis rule has a cap at both poles, so the band is always symmetric,
    [-cos CAP_RADIUS, cos CAP_RADIUS], and its nodes pair with their mirrors.
    """
    x, w = gauss_jacobi(max(math.ceil(2.25 * (band_limit + 1)),
                            math.ceil(20.0 / CAP_RADIUS)))
    half = np.cos(CAP_RADIUS)
    return half * x, half * w


@dataclass(frozen=True)
class Density:
    """h e^u on the composite rule, from one synthesis of u.

    ``values`` is h e^{u - shift} on the rule's nodes, ``total`` its
    integral under the rule (int h e^u = e^shift total) and ``peak`` max
    u over the nodes.  For a stack of fields ``values`` has the batch axes
    first, and ``shift``, ``total`` and ``peak`` are arrays over them;
    otherwise they are floats.
    """

    values: np.ndarray
    shift: float | np.ndarray
    total: float | np.ndarray
    peak: float | np.ndarray

    @property
    def log_integral(self) -> float | np.ndarray:
        return self.shift + np.log(self.total)


class SingularIntegrator:
    """int h e^u and the analysis of h e^u on one product rule, its
    ``transform``, which holds no grid, with log h on its nodes,
    ``log_h``: one column, on the first longitude, when h is constant
    along every ring, so zonal coefficients' density is one column."""

    def __init__(self, transform: ProductTransform, log_h: np.ndarray):
        self.transform, self.log_h = transform, log_h

    @property
    def blocks(self) -> tuple:
        """``(transform,)``: perfbench's tracer sums its blocks'
        ``weights.size`` and counts them (``perfbench/tracer.py``)."""
        return (self.transform,)

    # -- density machinery --------------------------------------------------

    def density(self, coeffs: SHCoefficients) -> Density:
        """h e^u from one synthesis of u (see Density)."""
        return self.density_of(self.transform.synthesis_values(coeffs))

    def density_of(self, u: np.ndarray) -> Density:
        """h e^u from u on the rule's nodes (``transform.synthesis_values``),
        formed in place in ``u``, with a shift per field of a stack.  A
        zonal u is one column; with log h one column too, so is the
        density; else u + log h covers every longitude.
        """
        batch = u.shape[:u.ndim - self.log_h.ndim]
        peak = u.reshape(*batch, -1).max(axis=-1)
        u, shift = _shifted_exp(u, self.log_h)
        if not batch:
            shift, peak = float(shift), float(peak)
        return Density(u, shift, self.transform.integral(u), peak)

    @functools.cached_property
    def _ring_groups(self) -> list:
        """(transform, log h) per ring group of the rule
        (``ProductTransform.ring_groups``): the fewest whose values on a
        stack take at most the bytes of the stack's coefficients, which
        every group reads, at most (L + 1)(L + 2) / n_phi rings a group; 6
        of at most 129 rings on the L = 256 two-cap block.  Built on the
        first stack and kept; not in ``blocks``."""
        tr, L = self.transform, self.transform.band_limit
        return [(group, self.log_h[rings]) for rings, group in
                tr.ring_groups((L + 1) * (L + 2) // tr.phi.size)]

    def _group_terms(self, coeffs: SHCoefficients, transform, log_h):
        """(shift, integral) per field of the stack's h e^{u - shift} on
        one ring group, whose values die on return."""
        u, shift = _shifted_exp(transform.synthesis_values(coeffs), log_h)
        return shift, transform.integral(u)

    def log_exp_integral(self, coeffs: SHCoefficients):
        """log int h e^u of the field (of each field of a stack), as
        ``density(coeffs).log_integral`` gives it, but without the values
        of a stack: a full-width stack, of any height, is synthesized one
        ring group at a time (``_ring_groups``), each reduced in place to a
        shift s_g and an integral T_g per field, and log I = S + log sum_g
        T_g e^(s_g - S), S = max_g s_g.  So it holds one group's values and
        one Legendre group beside the coefficients; a rule of one group
        gives the density's arithmetic, bit for bit.  One field and zonal
        coefficients take the density."""
        if coeffs.values.ndim == 2 or coeffs.values.shape[-1] == 1:
            return self.density(coeffs).log_integral
        shifts, totals = zip(*(self._group_terms(coeffs, *group)
                               for group in self._ring_groups))
        top = np.max(shifts, axis=0)
        return top + np.log(sum(total * np.exp(shift - top)
                                for shift, total in zip(shifts, totals)))

    def density_projection(self, dens: Density) -> SHCoefficients:
        """Coefficients of h e^{u - shift}, one analysis, zonal when the
        density is one column.

        Only the ratio to ``dens.total`` is meaningful to callers; the common
        scale e^{-shift} cancels in the Euler-Lagrange term.
        """
        return self.transform.analysis_coeffs(dens.values)

    def field_peak(self, dens: Density) -> float:
        """max of the synthesized field over all quadrature points."""
        return dens.peak


def _shifted_exp(u: np.ndarray, log_h: np.ndarray):
    """(h e^{u - shift}, shift) with shift = max(u + log h) per field of a
    stack, formed in place in u unless u is a zonal column and log h is
    not."""
    if u.shape[-1] < log_h.shape[-1]:  # zonal u, h not invariant
        u = u + log_h
    else:
        u += log_h
    flat = u.reshape(*u.shape[:u.ndim - log_h.ndim], -1)
    shift = flat.max(axis=-1)
    flat -= shift[..., None]
    np.exp(flat, out=flat)
    return u, shift


def cap_rings(weight: SingularWeight, center, edges, n: int):
    """(cos r, 2 pi w_r, cap) of a polar cap about ``center``: the rule
    ``radial_rule(edges, n, 2 beta + 1)``, beta the weight's order there,
    whose first panel folds in r^(2 beta + 1), the point's factor times
    sin r to leading order, and ``cap = (i, r)`` for ``log_weight``."""
    r, wr = radial_rule(edges, n, 2.0 * weight.beta(center) + 1.0)
    return (np.cos(r), wr * (2.0 * np.pi),
            (weight.index_at(center), r[:, None]))


def axis_integrator(grid: SphereGrid, weight: SingularWeight
                    ) -> SingularIntegrator:
    """The composite rule of a weight on the grid axis, on the grid's
    longitudes: a cap of ``cap_radial_nodes(L, CAP_RADIUS)`` radii at each
    pole and the band between, or with no point the grid; log h is one
    column when h is invariant about the axis (``axis_invariant``)."""
    if not weight.is_axis_aligned():
        raise ValueError("singular points off the grid axis; rotate the "
                         "weight onto it (axis_frame)")
    phi = grid.phi[:1] if weight.axis_invariant else grid.phi
    if not weight.points:
        return SingularIntegrator(
            grid.transform, weight.log_weight(ring_points(grid.t, phi)))
    n = cap_radial_nodes(grid.band_limit, CAP_RADIUS)
    (tn, wn, north), (ts, ws, south) = (
        cap_rings(weight, (0.0, 0.0, pole), (0.0, CAP_RADIUS), n)
        for pole in (1.0, -1.0))
    tb, wb = band_rule(grid.band_limit)
    t = (tn, tb, -ts)
    tr = ProductTransform(grid.band_limit, np.concatenate(t), grid.n_phi,
                          np.concatenate((wn, wb * (2.0 * np.pi), ws)))
    log_h = [weight.log_weight(ring_points(x, phi), cap=cap)
             for x, cap in zip(t, (north, None, south))]
    return SingularIntegrator(tr, np.concatenate(log_h))


def integrator_for(grid: SphereGrid, weight: SingularWeight) -> SingularIntegrator:
    """The grid's composite integrator for ``weight`` (``axis_integrator``):
    the one the grid holds when its key is the weight's data
    (``SingularWeight.cache_key``: positions, orders and the coefficients
    of K), else a new one that takes its place, so a grid holds one
    integrator's tables.

    Each integrator holds the Legendre tables its transform keeps by the
    one rule of ``ProductTransform._legendre``: from its first one-field
    pass over every order, ~75 MB for two caps at L = 256, with each
    order's polar rings trimmed.  From its first stacked log integral it
    also holds its ring groups' transforms (``log_exp_integral``: 6 on the
    L = 256 two-cap block), which keep no Legendre table and share its
    cos/sin table.
    """
    key = weight.cache_key()
    if grid._integrator is None or grid._integrator[0] != key:
        grid._integrator = (key, axis_integrator(grid, weight))
    return grid._integrator[1]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_J(coeffs: SHCoefficients, grid: SphereGrid, w: SingularWeight,
           rho: float):
    """J_rho of the field with these coefficients (of each field of a
    stack) on the weight ``w``, invariant under u -> u + const:
    ``log_exp_integral`` subtracts max(u + log h) before it exponentiates,
    so a raw peak of any size evaluates."""
    log_integral = integrator_for(grid, w).log_exp_integral(coeffs)
    return eval_J_coeffs(coeffs, log_integral, rho)


def eval_J_coeffs(coeffs: SHCoefficients, log_integral, rho: float):
    """J_rho of the field with these coefficients, from their Dirichlet
    energy and mean and from log int h e^u (``Density.log_integral`` or
    ``SingularIntegrator.log_exp_integral``); a stack gives an array over
    its fields."""
    return (0.5 * dirichlet_energy(coeffs) + rho * coeffs.mean
            - rho * (log_integral - np.log(FOUR_PI)))


def density_residual(coeffs: SHCoefficients, dens: Density,
                     proj: SHCoefficients, rho: float) -> SHCoefficients:
    """Spectral Euler-Lagrange residual -Delta u - rho(h e^u/E - 1/4pi),
    from the density record of u and its projection ``proj``
    (``SingularIntegrator.density_projection``).

    ``dens`` may be the record of u + c for any constant c: e^c cancels.
    The residual has the projection's width: zonal coefficients of u are
    widened when h is not invariant about the axis.
    """
    if proj.values.shape[-1] != coeffs.values.shape[-1]:
        coeffs = coeffs.widened()
    l, _ = coeffs.rows
    out = l * (l + 1.0) * coeffs.values - (rho / dens.total) * proj.values
    out[0, :] = 0.0
    return SHCoefficients(out)


def hessian_product(v: np.ndarray, dens: Density, proj: SHCoefficients,
                    integ: SingularIntegrator, rho: float) -> np.ndarray:
    """The exact Hessian of the discrete J at u applied to v, an array of
    coefficients in the layout of ``SHCoefficients.values``:

        Hv = Lambda v - (rho/E) P(h e^u v) + (rho/E^2) p <p, v>,

    with Lambda = diag(l(l+1)), P(f) the analysis of f on the composite
    rule (so P(h e^u v) costs one synthesis of v and one analysis),
    p = P(h e^u) the projection ``proj`` and E = int h e^u, all from the
    density record ``dens`` of u (its scale e^{-shift} cancels).  v and Hv
    have the width of ``proj``: zonal when the density is one column.
    J is shift invariant: a constant v is in the kernel, and the l = 0 row
    of Hv is zero.
    """
    coeffs, t = SHCoefficients(v), integ.transform
    hv = t.analysis_coeffs(dens.values * t.synthesis_values(coeffs)).values
    scale = rho / dens.total
    l, _ = coeffs.rows
    out = (l * (l + 1.0) * v
           - scale * hv
           + (scale / dens.total * np.sum(proj.values * v)) * proj.values)
    out[0, :] = 0.0
    return out


def residual_coeffs(coeffs: SHCoefficients, grid: SphereGrid,
                    w: SingularWeight, rho: float) -> SHCoefficients:
    """Euler-Lagrange residual of u, projected with the composite rule
    that defines int h e^u: the exact gradient of the discrete J."""
    integ = integrator_for(grid, w)
    dens = integ.density(coeffs)
    return density_residual(coeffs, dens, integ.density_projection(dens), rho)


def troyanov_gap(coeffs: SHCoefficients, grid: SphereGrid,
                 w: SingularWeight, C: float):
    """RHS - LHS of the sharp exponential inequality with constant C, of
    the field with these coefficients (of each field of a stack): equals
    J_{rho_bar}(u)/rho_bar + C, nonnegative iff the inequality holds at u.
    """
    return eval_J(coeffs, grid, w, w.rho_bar) / w.rho_bar + C


def sample_gaps(grid: SphereGrid, rng, count: int, w: SingularWeight,
                C: float) -> np.ndarray:
    """``troyanov_gap`` of ``count`` seeded draws
    (``sphere_grid.random_band_limited_batch``), each scaled by its
    coefficients to RMS 0.7 over the sphere, sqrt(sum a_lm^2 / 4 pi), before
    its density is formed: a sample depends on the seed alone, not on the
    quadrature rule.  Over 20 draws max |u| / RMS is about 2-4 at L = 32
    to 256, so the samples reach about max |u| = 2.

    The samples go in the fewest stacks of at most as many fields as
    BATCH_BUDGET holds, their heights as equal as the count allows (40
    samples at L = 256, at most 37 a stack, are two stacks of 20).  One
    stack is alive at a time, and the draws are one stream, whatever the
    split.  A stack is drawn and scaled, and its ``troyanov_gap`` is taken,
    whose log integral streams its passes, for a stack of one too
    (``ProductTransform._legendre``).
    """
    L = grid.band_limit
    size = max(1, (BATCH_BUDGET - sphere_grid.LEGENDRE_BYTES)
               // (24 * (L + 1) ** 2))
    stacks = -(-count // size)
    gaps, start = np.empty(count), 0
    for i in range(stacks):
        height = count // stacks + (i < count % stacks)
        draws = sphere_grid.random_band_limited_batch(grid, rng, height)
        v = draws.values
        # each field's sum of squares, pairwise (einsum's running sum is
        # off by up to 1e-14 relative at L = 256)
        rms = np.sqrt([np.square(v[:, i]).sum() / FOUR_PI
                       for i in range(height)])
        # each row's entries, field by field and part by part
        v.reshape(v.shape[0], -1)[...] *= np.repeat(0.7 / rms, 2)
        gaps[start:start + height] = troyanov_gap(draws, grid, w, C)
        del draws, v  # before the next stack is drawn
        start += height
    return gaps
