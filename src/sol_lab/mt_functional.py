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
nodes, an empty pole's cap having order 0.  A density then costs one
synthesis and its spherical-harmonic analysis one analysis, O(L^3) like a
grid transform.  One point or an antipodal pair anywhere is the axis case
by rotation (``singular_geometry.axis_frame``); the integrator refuses a
weight off the axis.

``integrator_for`` is the one way library code gets an integrator, one per
weight.  Zonality follows the data, by the one rule of ``sphere_grid``:
one-column data is zonal, and the weight's data says whether h is
invariant about the grid axis (``SingularWeight.axis_invariant``).  Such
a weight keeps log h as one column, so a zonal column of coefficients
gives a ring-constant density, one column, and each of its transforms is
an m = 0 pass, O(L n_t) instead of O(L^2 n_t + L n_t n_phi).

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
    OrderRows,
    ProductTransform,
    SHCoefficients,
    SphereGrid,
    _degree_weights,
    dirichlet_energy,
    gauss_jacobi,
    ring_points,
)
from .singular_geometry import SingularWeight

DEFAULT_CEILING = 700.0
INTEGRATOR_CACHE_SIZE = 4
# the singular caps: geodesic radius and the least number of Gauss-Jacobi
# nodes in r (see cap_radial_nodes); a cap takes the grid's longitudes, so
# the density analysis is alias-free to the same order as the grid itself
CAP_RADIUS = 0.1
CAP_RADIAL_NODES = 32
# Bytes that one stack of samples may hold from its draw to its gaps
# (``sample_gaps``): one Legendre group (``sphere_grid.LEGENDRE_BYTES``) and,
# per field at band limit L, its coefficients, 8 (L + 1)(2L + 1) bytes, and
# its order rows (``sphere_grid.OrderRows``), 8 (L + 1)(L + 2): 24 (L + 1)^2
# bytes a field.  The gather holds the coefficients and the rows, the draw
# the coefficients and its normals (fewer bytes than the rows), each with
# the Legendre group's room to spare; each pass holds the rows, one ring
# group's values, which ``SingularIntegrator._ring_groups`` keeps no larger
# than the rows, and one Legendre group.  37 fields at L = 256; the 20 of
# perfbench's ``evaluate`` stack trace a 30.3 MiB peak.
BATCH_BUDGET = 64 << 20  # 64 MiB


class UnnormalizedBlowupError(RuntimeError):
    """The normalized peak max(u) - log int h e^u of a ``minimize``
    iterate exceeded DEFAULT_CEILING: it has blown up beyond what the
    solver follows."""


@dataclass
class FunctionalParams:
    rho: float
    weight: SingularWeight

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")


def cap_radial_rule(alpha: float, radius: float, n: int):
    """Nodes/weights for int_0^radius f(r) sin(r) dr with f ~ r^{2 alpha}.

    The n-point Gauss-Jacobi rule in r on [0, radius] for the weight
    r^{2 alpha + 1} (``gauss_jacobi`` with b = 2 alpha + 1); returns
    (r_k, w_k) such that the integral is sum_k w_k f(r_k), with the sin(r)
    jacobian and the weight's r^{-(2 alpha + 1)} folded in.  It is exact
    when f(r) sin r is r^{2 alpha + 1} times a polynomial of degree < 2n in
    r, so the point's factor (2 sin^2(r/2))^alpha sin r costs nothing and
    the rule converges geometrically in the smooth rest at every alpha.  At
    alpha = -1/2 it is Gauss-Legendre in r.
    """
    x, w = gauss_jacobi(n, 2.0 * alpha + 1.0)
    r = 0.5 * radius * (1.0 + x)
    return r, 0.5 * radius * w * np.sin(r) / (1.0 + x) ** (2.0 * alpha + 1.0)


def cap_radial_nodes(band_limit: int) -> int:
    """Radial nodes of a cap at band limit L, whatever its order:
    max(CAP_RADIAL_NODES, ceil(1.25 L R)).

    A cap of radius R holds about L R / pi oscillations of a degree-L
    harmonic, which Gauss-Jacobi nodes in r resolve as Gauss-Legendre nodes
    do: the order enters the rule's weight (``cap_radial_rule``), not the
    node count.  The count agrees with twice as many nodes to within 1e-13
    in log int h e^u (L = 256, 512 and 1024; alpha = -0.9, -0.5, -0.25 and
    1.095); it is the floor of 32 up to L = 256.
    """
    return max(CAP_RADIAL_NODES, math.ceil(1.25 * band_limit * CAP_RADIUS))


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
    """Composite quadrature for densities h e^u and their SH analysis.

    ``transform`` is the one ``ProductTransform`` of the composite rule,
    which holds no reference to the grid, which caches its integrators.
    The weight's singular points must lie exactly on the grid axis
    (``SingularWeight.is_axis_aligned``; see ``axis_frame``).

    The build reads the weight's data once
    (``SingularWeight.axis_invariant``) and evaluates log h on the rule's
    nodes alone: an h invariant about the grid axis keeps log h as one
    column, evaluated on one longitude.  For a zonal column of
    coefficients J_rho, its gradient and the moments about the axis then
    live in the m = 0 subspace, and the density computes them there
    exactly, as one column.
    """

    def __init__(self, grid: SphereGrid, weight: SingularWeight):
        self.weight = weight
        if not weight.is_axis_aligned():
            raise ValueError("singular points off the grid axis; rotate the "
                             "weight onto it (axis_frame)")
        self.transform, self.log_h = self._build(
            grid, grid.phi[:1] if weight.axis_invariant else grid.phi)

    @property
    def blocks(self) -> tuple:
        """``(transform,)``: perfbench's tracer sums its blocks'
        ``weights.size`` and counts them (``perfbench/tracer.py``)."""
        return (self.transform,)

    def _build(self, grid: SphereGrid, phi: np.ndarray):
        """The product rule and log h on its nodes, on the longitudes
        ``phi``."""
        w = self.weight
        if not w.points:
            return grid.transform, w.log_weight(ring_points(grid.t, phi))
        # (t, t weights, cap) per piece; an empty pole's cap has order 0
        at = {np.sign(sp.position[2]): i for i, sp in enumerate(w.points)}
        n, caps = cap_radial_nodes(grid.band_limit), []
        for pole in (1.0, -1.0):
            i = at.get(pole)
            r, wr = cap_radial_rule(
                0.0 if i is None else w.points[i].order, CAP_RADIUS, n)
            caps.append((pole * np.cos(r), wr, (i, r[:, None])))
        ts, tws, caps = zip(caps[0], (*band_rule(grid.band_limit), None),
                            caps[1])
        transform = ProductTransform(grid.band_limit, np.concatenate(ts),
                                     grid.n_phi,
                                     np.concatenate(tws) * (2.0 * np.pi))
        log_h = np.concatenate([w.log_weight(ring_points(t, phi), cap=cap)
                                for t, cap in zip(ts, caps)])
        return transform, log_h

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
        stack take at most the bytes of the order rows that every group
        reads (``sphere_grid.OrderRows``), at most (L + 1)(L + 2) / n_phi
        rings a group; 6 of at most 129 rings on the L = 256 two-cap
        block.  Built on the first stack and kept; not in ``blocks``."""
        tr, L = self.transform, self.transform.band_limit
        return [(group, self.log_h[rings]) for rings, group in
                tr.ring_groups((L + 1) * (L + 2) // tr.phi.size)]

    def _group_terms(self, rows: OrderRows, transform, log_h):
        """(shift, integral) per field of the stack's h e^{u - shift} on
        one ring group, whose values die on return."""
        u, shift = _shifted_exp(transform.synthesis_values(rows), log_h)
        return shift, transform.integral(u)

    def log_exp_integral(self, coeffs: SHCoefficients | OrderRows):
        """log int h e^u of the field (of each field of a stack), from its
        coefficients or their order rows, as ``density(coeffs).log_integral``
        gives it, but without the values of a stack: a stack of two or more
        full-width fields is gathered into its order rows once (or handed
        in as rows) and synthesized from them one ring group at a time
        (``_ring_groups``), each reduced in place to a shift s_g and an
        integral T_g per field, and log I = S + log sum_g T_g e^(s_g - S),
        S = max_g s_g.  So it holds the rows, one group's values and one
        Legendre group, beside the coefficients if the caller keeps them; a
        rule of one group gives the density's arithmetic, bit for bit.  One
        field and a zonal column take the density."""
        if isinstance(coeffs, SHCoefficients) and coeffs.values.shape[-1] > 1:
            coeffs = OrderRows.gather(coeffs)
        if not isinstance(coeffs, OrderRows) or coeffs.fields < 2:
            return self.density(coeffs).log_integral
        shifts, totals = zip(*(self._group_terms(coeffs, *group)
                               for group in self._ring_groups))
        top = np.max(shifts, axis=0)
        return top + np.log(sum(total * np.exp(shift - top)
                                for shift, total in zip(shifts, totals)))

    def density_projection(self, dens: Density) -> SHCoefficients:
        """Coefficients of h e^{u - shift}, one analysis, a zonal column
        when the density is one column.

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


def integrator_for(grid: SphereGrid, weight: SingularWeight) -> SingularIntegrator:
    """The grid's integrator for ``weight``, from a per-grid LRU cache of
    INTEGRATOR_CACHE_SIZE integrators.

    The key is the weight's data (``SingularWeight.cache_key``): positions,
    orders and the coefficients of K.  Each integrator holds its
    transform's Legendre tables (the m = 0 block until a one-field pass
    over every order after the transform's first: ~75 MB for two caps at
    L = 256, with each order's polar rings trimmed).  A stack's first pass
    over every order on a table larger than ``sphere_grid.LEGENDRE_BYTES``
    keeps none: it streams the recurrence, 8 MiB a group of orders.  From
    its first stacked log integral it also holds its ring groups' transforms
    (``log_exp_integral``: 6 on the L = 256 two-cap block), which keep no
    Legendre table that the whole transform would not and share its
    cos/sin table; ``sample_gaps`` sizes its stacks by what a stack's draw,
    the gather of its order rows and such a log integral hold
    (BATCH_BUDGET), and splits its samples so that no stack of one field,
    which takes the one-field pass, trails a full stack.
    """
    key = weight.cache_key()
    cache = grid._integrator_cache
    integ = cache.pop(key, None) or SingularIntegrator(grid, weight)
    cache[key] = integ  # the most recently used integrator is last
    if len(cache) > INTEGRATOR_CACHE_SIZE:
        cache.popitem(last=False)
    return integ


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_J(coeffs: SHCoefficients, grid: SphereGrid,
           params: FunctionalParams):
    """J_rho of the field with these coefficients (of each field of a
    stack), invariant under u -> u + const: ``log_exp_integral``
    subtracts max(u + log h) before it exponentiates, so a raw peak of any
    size evaluates."""
    log_integral = integrator_for(grid, params.weight).log_exp_integral(coeffs)
    return eval_J_coeffs(dirichlet_energy(coeffs), coeffs.mean, log_integral,
                         params)


def eval_J_coeffs(energy, mean, log_integral, params: FunctionalParams):
    """J_rho of a field from its coefficients' Dirichlet energy
    (``dirichlet_energy``) and mean (``SHCoefficients.mean``) and from
    log int h e^u (``Density.log_integral`` or
    ``SingularIntegrator.log_exp_integral``); arrays over a stack's
    fields give an array."""
    return (0.5 * energy + params.rho * mean
            - params.rho * (log_integral - np.log(FOUR_PI)))


def density_residual(coeffs: SHCoefficients, dens: Density,
                     proj: SHCoefficients, rho: float) -> SHCoefficients:
    """Spectral Euler-Lagrange residual -Delta u - rho(h e^u/E - 1/4pi),
    from the density record of u and its projection ``proj``
    (``SingularIntegrator.density_projection``).

    ``dens`` may be the record of u + c for any constant c: e^c cancels.
    The residual has the projection's width: a zonal column of u is
    widened when h is not invariant about the axis.
    """
    if proj.values.shape[-1] != coeffs.values.shape[-1]:
        coeffs = coeffs.widened()
    out = (_degree_weights(coeffs.band_limit)[:, None] * coeffs.values
           - (rho / dens.total) * proj.values)
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
    have the width of ``proj``: a zonal column when the density is one.
    J is shift invariant: a constant v is in the kernel, and the l = 0 row
    of Hv is zero.
    """
    coeffs, t = SHCoefficients(v), integ.transform
    hv = t.analysis_coeffs(dens.values * t.synthesis_values(coeffs)).values
    scale = rho / dens.total
    out = (_degree_weights(coeffs.band_limit)[:, None] * v
           - scale * hv
           + (scale / dens.total * np.sum(proj.values * v)) * proj.values)
    out[0, :] = 0.0
    return out


def residual_coeffs(coeffs: SHCoefficients, params: FunctionalParams,
                    grid: SphereGrid) -> SHCoefficients:
    """Euler-Lagrange residual of u, projected with the composite rule
    that defines int h e^u: the exact gradient of the discrete J."""
    integ = integrator_for(grid, params.weight)
    dens = integ.density(coeffs)
    return density_residual(coeffs, dens, integ.density_projection(dens),
                            params.rho)


def troyanov_gap(coeffs: SHCoefficients, grid: SphereGrid,
                 w: SingularWeight, C: float):
    """RHS - LHS of the sharp exponential inequality with constant C, of
    the field with these coefficients (of each field of a stack): equals
    J_{rho_bar}(u)/rho_bar + C, nonnegative iff the inequality holds at u.
    """
    params = FunctionalParams(rho=w.rho_bar, weight=w)
    return eval_J(coeffs, grid, params) / w.rho_bar + C


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
    samples at L = 256, at most 37 a stack, are two stacks of 20), so that
    no stack of one field, which would take the density's pass and keep a
    table of every order, trails a full one.  One stack is alive at a
    time, and the draws are one stream, whatever the split.  A stack is
    drawn and scaled, its Dirichlet energies and means are taken, and its
    coefficients are gathered into their order rows
    (``sphere_grid.OrderRows``) and let go before its log integral is
    formed from the rows.
    """
    L = grid.band_limit
    size = max(1, (BATCH_BUDGET - sphere_grid.LEGENDRE_BYTES)
               // (24 * (L + 1) ** 2))
    stacks = -(-count // size)
    params = FunctionalParams(rho=w.rho_bar, weight=w)
    integ = integrator_for(grid, w)
    gaps, start = np.empty(count), 0
    for i in range(stacks):
        height = count // stacks + (i < count % stacks)
        draws = sphere_grid.random_band_limited_batch(grid, rng, height)
        v = draws.values
        rms = np.sqrt(np.einsum("...lm,...lm->...", v, v) / FOUR_PI)
        v *= (0.7 / rms)[..., None, None]  # batch axes first, then (l, m)
        energy, mean = dirichlet_energy(draws), draws.mean
        rows = OrderRows.gather(draws)
        del draws, v  # the dense stack goes before any pass
        log_integral = integ.log_exp_integral(rows)
        del rows  # before the next stack is drawn
        J = eval_J_coeffs(energy, mean, log_integral, params)
        gaps[start:start + height] = J / w.rho_bar + C  # as troyanov_gap
        start += height
    return gaps
