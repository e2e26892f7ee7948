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
  coordinates with the radial substitution s = r^{2(1+alpha_i)} (the
  substitution absorbs the algebraic singularity), and
* the remainder, integrated with Gauss-Legendre panels in t = cos(theta)
  geometrically graded toward the cap edges (the weight is analytic there
  but its derivatives grow toward the poles), times the uniform phi rule.

For singular points on the grid axis (the default configuration) every
piece is a product rule in (t, phi), so the whole composite rule is one:
one ``ProductTransform`` over the north cap, band and south cap
colatitude nodes.  A density then costs one synthesis and its
spherical-harmonic analysis one analysis, O(L^3) like a grid transform.
Off-axis points fall back to a smooth-cutoff variant whose accuracy is
limited by the grid resolution of the cutoff (roughly 1e-4): scattered
caps plus the grid itself, with the cutoff folded into log h on the grid.
All sharp-constant paths use the axis-aligned configuration.

``integrator_for`` is the one way library code gets an integrator, one per
weight.  Zonality follows the data, by the one rule of ``sphere_grid``:
one-column data is zonal.  A weight invariant about the grid axis keeps
log h as one column per product block, so zonal coefficients give a
ring-constant density, one column per block, and each of its transforms
is an m = 0 pass, O(L n_t) instead of O(L^2 n_t + L n_t n_phi).

Everything is evaluated through log h + u, with a global shift before
exponentiation, so strongly concentrated fields cannot overflow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .sphere_grid import (
    FOUR_PI,
    ProductTransform,
    ScalarField,
    SHCoefficients,
    SphereGrid,
    _degree_weights,
    _legendre_orders,
    cap_points,
    dirichlet_energy,
    geodesic_distance,
    ring_points,
    sh_analysis,
    sh_synthesis,
    synthesis_at_angles,
)
from .singular_geometry import SingularWeight

DEFAULT_CEILING = 700.0
INTEGRATOR_CACHE_SIZE = 4
# the singular caps: geodesic radius, Gauss-Legendre nodes in
# s = r^{2(1+alpha)}, and bearings of an off-axis (scattered) cap; caps on
# the grid axis use the grid's longitudes, so the density analysis is
# alias-free to the same order as the grid itself
CAP_RADIUS = 0.1
CAP_RADIAL_NODES = 32
CAP_ANGULAR_NODES = 16


class UnnormalizedBlowupError(RuntimeError):
    """max(u) exceeded the overflow ceiling; the iterate is not normalized."""


@dataclass
class FunctionalParams:
    rho: float
    weight: SingularWeight

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")


def cap_radial_rule(alpha: float, radius: float, n: int):
    """Nodes/weights for int_0^radius f(r) sin(r) dr with f ~ r^{2 alpha}.

    Gauss-Legendre in s = r^{2(1+alpha)}; returns (r_k, w_k) such that the
    integral is sum_k w_k f(r_k) with the sin(r) jacobian already folded in.
    """
    power = 2.0 * (1.0 + alpha)
    s_nodes, s_weights = np.polynomial.legendre.leggauss(n)
    s_hi = radius**power
    s = 0.5 * s_hi * (s_nodes + 1.0)
    w = 0.5 * s_hi * s_weights
    r = s ** (1.0 / power)
    return r, w * r / (power * s) * np.sin(r)


def _graded_edges(dist0: float, dist_max: float, ratio: float = 2.0):
    """Geometric ladder dist0, dist0*ratio, ... capped at dist_max."""
    edges = [dist0]
    while edges[-1] * ratio < dist_max:
        edges.append(edges[-1] * ratio)
    edges.append(dist_max)
    return edges


def band_panels(t_lo: float, t_hi: float, sing_lo: bool, sing_hi: bool,
                band_limit: int):
    """Composite Gauss-Legendre rule on [t_lo, t_hi] in t = cos(theta).

    Panels are geometrically graded toward an endpoint that abuts a singular
    cap (branch point at t = +-1 just outside the interval); per-panel node
    counts resolve band-limited oscillation at the grid's band limit.
    """
    breaks = {t_lo, t_hi}
    if sing_hi:
        for d in _graded_edges(1.0 - t_hi, 1.0 - t_lo):
            breaks.add(1.0 - d)
    if sing_lo:
        for d in _graded_edges(1.0 + t_lo, 1.0 + t_hi):
            breaks.add(d - 1.0)
    edges = sorted(b for b in breaks if t_lo <= b <= t_hi)
    # split any wide middle panel so oscillatory integrands stay resolved
    refined = [edges[0]]
    for b in edges[1:]:
        width = b - refined[-1]
        pieces = max(1, int(np.ceil(width / 0.5)))
        for k in range(1, pieces + 1):
            refined.append(refined[-1] + width / pieces if k < pieces else b)
    nodes, weights = [], []
    base_x, base_w = np.polynomial.legendre.leggauss(12)
    for a, b in zip(refined[:-1], refined[1:]):
        dtheta = abs(np.arccos(np.clip(b, -1, 1)) - np.arccos(np.clip(a, -1, 1)))
        n = max(12, int(np.ceil(0.6 * (band_limit + 1) * dtheta)) + 8)
        if n == 12:
            x, w = base_x, base_w
        else:
            x, w = np.polynomial.legendre.leggauss(n)
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _smooth_cutoff(r: np.ndarray, radius: float) -> np.ndarray:
    """C^2 ramp: 1 for r <= radius/2, 0 for r >= radius."""
    s = np.clip((r - 0.5 * radius) / (0.5 * radius), 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


class _ProductBlock:
    """Product-rule piece: a transform's colatitude nodes x the grid's
    longitudes, with the transform's ring weights.

    ``weights`` cover every longitude; ring-constant (one column) data use
    ``transform.ring_weights``: one longitude carrying each ring's whole
    weight.  Blocks hold a transform, never the grid: the grid caches its
    integrators, so a reference back would make each grid a reference
    cycle that only the cyclic garbage collector can free.  Node vectors
    are computed when asked for, not kept.
    """

    def __init__(self, transform: ProductTransform):
        self.transform = transform
        self.weights = np.broadcast_to(transform.weights,
                                       (transform.t.size, transform.phi.size))

    @property
    def points(self) -> np.ndarray:
        return ring_points(self.transform.t, self.transform.phi)

    def synthesis(self, coeffs: SHCoefficients) -> np.ndarray:
        return self.transform.synthesis_values(coeffs)

    def analysis(self, values: np.ndarray) -> SHCoefficients:
        return self.transform.analysis_coeffs(values)


class _ScatterBlock:
    """Polar cap with a smooth cutoff around an off-axis singular point,
    on the radial rule (r, wr) of ``cap_radial_rule``."""

    def __init__(self, grid: SphereGrid, center: np.ndarray, r: np.ndarray,
                 wr: np.ndarray):
        w = (wr * 2.0 * np.pi / CAP_ANGULAR_NODES
             * _smooth_cutoff(r, CAP_RADIUS))
        self.points = cap_points(center, r, CAP_ANGULAR_NODES).reshape(-1, 3)
        self.weights = np.repeat(w, CAP_ANGULAR_NODES)
        self._t = np.clip(self.points[:, 2], -1.0, 1.0)
        self._phi = np.arctan2(self.points[:, 1], self.points[:, 0])
        self.band_limit = grid.band_limit

    def synthesis(self, coeffs: SHCoefficients) -> np.ndarray:
        return synthesis_at_angles(coeffs, self._t, self._phi)

    def analysis(self, values: np.ndarray) -> SHCoefficients:
        L = self.band_limit
        out = SHCoefficients.zeros(L)
        wv = self.weights * values
        phi, amp = self._phi, np.sqrt(2.0)
        for m, block in _legendre_orders(L, self._t):
            if m == 0:
                out.values[:, L] = block @ wv
            else:
                out.values[m:, L + m] = amp * (block @ (np.cos(m * phi) * wv))
                out.values[m:, L - m] = amp * (block @ (np.sin(m * phi) * wv))
        return out


@dataclass(frozen=True)
class Density:
    """h e^u on the composite rule, from one synthesis of u per block.

    ``values[b]`` is h e^{u - shift} on block b, ``total`` their weighted
    sum (int h e^u = e^shift total) and ``peak`` max u over all nodes.  For
    a stack of fields ``values[b]`` has the batch axes first, and ``shift``,
    ``total`` and ``peak`` are arrays over them; otherwise they are floats.
    """

    values: list
    shift: float | np.ndarray
    total: float | np.ndarray
    peak: float | np.ndarray

    @property
    def log_integral(self) -> float | np.ndarray:
        return self.shift + np.log(self.total)

    def shifted(self, constant: float) -> Density:
        """The record of u + constant; h e^{u - shift} is unchanged."""
        return Density(self.values, self.shift + constant, self.total,
                       self.peak + constant)


class SingularIntegrator:
    """Composite quadrature for densities h e^u and their SH analysis.

    The build observes the weight once: h is invariant about the grid axis
    when its singular points lie on the axis and log h on the grid nodes is
    exactly constant along every ring (true for K == 1 and for a zonal K,
    false for a point 1e-6 off the pole).  Such a weight keeps log h as one
    column per block, evaluated on one longitude.  For zonal coefficients
    J_rho, its gradient and the moments about the axis then live in the
    m = 0 subspace, and the density computes them there exactly.
    """

    def __init__(self, grid: SphereGrid, weight: SingularWeight):
        self.band_limit = grid.band_limit
        self.weight = weight
        self._validate_caps()
        invariant = (weight.is_axis_aligned() and not np.ptp(
            weight.log_weight(grid.nodes), axis=1).any())
        self.blocks, self.log_h = self._build_blocks(
            grid, grid.phi[:1] if invariant else grid.phi)

    def _validate_caps(self):
        for p, q in itertools.combinations(self.weight.positions, 2):
            if geodesic_distance(p, q) <= 2.0 * CAP_RADIUS:
                raise ValueError("singular caps overlap; separate the "
                                 "singular points")

    def _build_blocks(self, grid: SphereGrid, phi: np.ndarray):
        """The blocks and log h on each, on the longitudes ``phi``."""
        w = self.weight
        if not w.points:
            return ([_ProductBlock(grid.transform)],
                    [w.log_weight(ring_points(grid.t, phi))])
        if w.is_axis_aligned():
            # (sort key, t, t weights, cap) per piece: caps at their pole,
            # the band between the cap edges (or the poles) in the middle
            pieces = []
            ends = {1.0: 1.0, -1.0: -1.0}
            for i, sp in enumerate(w.points):
                pole = 1.0 if sp.position[2] > 0 else -1.0
                r, wr = cap_radial_rule(sp.order, CAP_RADIUS, CAP_RADIAL_NODES)
                pieces.append((pole, pole * np.cos(r), wr, (i, r[:, None])))
                ends[pole] = pole * np.cos(CAP_RADIUS)
            t, tw = band_panels(ends[-1.0], ends[1.0], ends[-1.0] != -1.0,
                                ends[1.0] != 1.0, grid.band_limit)
            pieces.append((0.0, t, tw, None))
            pieces.sort(key=lambda piece: -piece[0])  # north cap first
            _, ts, tws, caps = zip(*pieces)
            transform = ProductTransform(grid.band_limit, np.concatenate(ts),
                                         grid.n_phi,
                                         np.concatenate(tws) * (2.0 * np.pi))
            log_h = np.concatenate([w.log_weight(ring_points(t, phi), cap=cap)
                                    for t, cap in zip(ts, caps)])
            return [_ProductBlock(transform)], [log_h]
        # general positions: smooth-cutoff splitting (documented lower
        # accuracy); the grid keeps the cutoff complement in its log h
        extra = np.ones((grid.n_theta, grid.n_phi))
        blocks, log_h = [], []
        for i, sp in enumerate(w.points):
            d = np.arccos(np.clip(grid.nodes @ sp.position, -1.0, 1.0))
            extra *= 1.0 - _smooth_cutoff(d, CAP_RADIUS)
            r, wr = cap_radial_rule(sp.order, CAP_RADIUS, CAP_RADIAL_NODES)
            blocks.append(_ScatterBlock(grid, sp.position, r, wr))
            log_h.append(w.log_weight(
                blocks[-1].points, cap=(i, np.repeat(r, CAP_ANGULAR_NODES))))
        blocks.append(_ProductBlock(grid.transform))
        with np.errstate(divide="ignore"):  # log 0 = -inf inside the caps
            log_h.append(w.log_weight(ring_points(grid.t, phi))
                         + np.log(extra))
        return blocks, log_h

    # -- density machinery --------------------------------------------------

    def density(self, coeffs: SHCoefficients) -> Density:
        """h e^u on every block from one synthesis per block (see Density).

        A stack of coefficients (leading batch axes) is synthesized in one
        pass per block, and each field gets its own shift.  The density is
        formed in place in the synthesized arrays, so about one array per
        block and field is live.  Zonal coefficients synthesize to one
        column per product block; with log h one column too, so is the
        density.
        """
        batch = coeffs.values.shape[:-2]
        if coeffs.is_zonal:  # checked once, not by each block's transform
            coeffs = coeffs.zonal_column
        z, peak, shift = [], -np.inf, -np.inf
        for lh, b in zip(self.log_h, self.blocks):
            u = b.synthesis(coeffs)
            peak = np.maximum(peak, u.reshape(*batch, -1).max(axis=-1))
            if u.shape[-1] < lh.shape[-1]:  # zonal u, h not invariant
                u = u + lh
            else:
                u += lh
            shift = np.maximum(shift, u.reshape(*batch, -1).max(axis=-1))
            z.append(u)
        total = 0.0
        for b, zb in zip(self.blocks, z):
            flat = zb.reshape(*batch, -1)
            flat -= shift[..., None]
            np.exp(flat, out=flat)
            w = b.transform.ring_weights if zb.shape[-1] == 1 else b.weights
            sums = [np.sum(w * d)  # field by field, as unbatched
                    for d in zb.reshape(-1, *w.shape)]
            total = total + np.reshape(sums, batch)
        if not batch:
            return Density(z, float(shift), float(total), float(peak))
        return Density(z, shift, total, peak)

    def log_exp_integral(self, coeffs: SHCoefficients) -> float:
        return self.density(coeffs).log_integral

    def density_projection(self, dens: Density) -> SHCoefficients:
        """Coefficients of h e^{u - shift}: one analysis per block.

        Only the ratio to ``dens.total`` is meaningful to callers; the common
        scale e^{-shift} cancels in the Euler-Lagrange term.
        """
        total = SHCoefficients.zeros(self.band_limit)
        for b, d in zip(self.blocks, dens.values):
            total.values += b.analysis(d).values
        return total

    def field_peak(self, dens: Density) -> float:
        """max of the synthesized field over all quadrature points."""
        return dens.peak


def integrator_for(grid: SphereGrid, weight: SingularWeight) -> SingularIntegrator:
    """The grid's integrator for ``weight``, from a per-grid LRU cache of
    INTEGRATOR_CACHE_SIZE integrators.

    The integrator keeps its weight alive, so the ids in its cache key stay
    valid while it is cached.  Each holds its blocks' Legendre tables (the
    m = 0 blocks until a non-zonal field needs every order: ~200 MB at
    L = 256).
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

def _check_ceiling(u_values: np.ndarray):
    peak = float(np.max(u_values))
    if peak > DEFAULT_CEILING:
        raise UnnormalizedBlowupError(
            f"max(u) = {peak:.3g} exceeds the overflow ceiling "
            f"{DEFAULT_CEILING:.3g}; the iterate has blown up beyond what the "
            "evaluation can follow")


def exp_integral(u: ScalarField, w: SingularWeight) -> float:
    """int_{S^2} h e^u with singular-cap corrected quadrature."""
    return float(np.exp(log_exp_integral(u, w)))


def log_exp_integral(u: ScalarField, w: SingularWeight) -> float:
    _check_ceiling(u.values)
    coeffs = sh_analysis(u)
    return integrator_for(u.grid, w).log_exp_integral(coeffs)


def eval_J(u: ScalarField, params: FunctionalParams) -> float:
    """J_rho(u); invariant under u -> u + const."""
    _check_ceiling(u.values)
    coeffs = sh_analysis(u)
    integ = integrator_for(u.grid, params.weight)
    return eval_J_coeffs(coeffs, integ.density(coeffs), params)


def eval_J_coeffs(coeffs: SHCoefficients, dens: Density,
                  params: FunctionalParams) -> float:
    """J_rho of the field with these coefficients and density record."""
    return (0.5 * dirichlet_energy(coeffs)
            + params.rho * coeffs.mean
            - params.rho * (dens.log_integral - np.log(FOUR_PI)))


def density_residual(coeffs: SHCoefficients, dens: Density,
                     integ: SingularIntegrator, rho: float) -> SHCoefficients:
    """Spectral Euler-Lagrange residual -Delta u - rho(h e^u/E - 1/4pi).

    ``dens`` may be the record of u + c for any constant c: e^c cancels.
    """
    proj = integ.density_projection(dens)
    out = (_degree_weights(coeffs.band_limit)[:, None] * coeffs.values
           - (rho / dens.total) * proj.values)
    out[0, :] = 0.0
    return SHCoefficients(out)


def residual_coeffs(coeffs: SHCoefficients, params: FunctionalParams,
                    grid: SphereGrid) -> SHCoefficients:
    """Euler-Lagrange residual of u, projected with the composite rule
    that defines int h e^u: the exact gradient of the discrete J."""
    integ = integrator_for(grid, params.weight)
    return density_residual(coeffs, integ.density(coeffs), integ, params.rho)


def el_residual(u: ScalarField, params: FunctionalParams) -> ScalarField:
    _check_ceiling(u.values)
    return sh_synthesis(residual_coeffs(sh_analysis(u), params, u.grid), u.grid)


def el_residual_norm(u: ScalarField, params: FunctionalParams) -> float:
    """L^2 norm of the Euler-Lagrange residual (spectral, by Parseval)."""
    _check_ceiling(u.values)
    r = residual_coeffs(sh_analysis(u), params, u.grid)
    return float(np.sqrt(np.sum(r.values**2)))


def gradient_pairing(u: ScalarField, params: FunctionalParams,
                     v: ScalarField) -> float:
    """Directional derivative dJ(u)[v] in the discrete setting."""
    r = residual_coeffs(sh_analysis(u), params, u.grid)
    return float(np.sum(r.values * sh_analysis(v).values))


def troyanov_gap(u: ScalarField, w: SingularWeight, C: float) -> float:
    """RHS - LHS of the sharp exponential inequality with constant C.

    Equals J_{rho_bar}(u)/rho_bar + C; nonnegative iff the inequality holds
    at u with this constant.
    """
    return float(troyanov_gap_coeffs(sh_analysis(u), u.grid, w, C))


def troyanov_gap_coeffs(coeffs: SHCoefficients, grid: SphereGrid,
                        w: SingularWeight, C: float):
    """``troyanov_gap`` of the field with these coefficients; for a stack
    of coefficients, the gap of each field (one synthesis per quadrature
    block for the whole stack)."""
    params = FunctionalParams(rho=w.rho_bar, weight=w)
    dens = integrator_for(grid, w).density(coeffs)
    return eval_J_coeffs(coeffs, dens, params) / w.rho_bar + C
