"""Closed-form Green's functions and conical singular weights on S^2.

The Laplace Green's function of the round sphere (area 4 pi, mean-zero
normalization) is known in closed form,

    G_p(x) = -(1/4pi) log(1 - <p, x>) - (1/4pi) log(e/2),

with the expansion G_p(x) = -(1/2pi) log d(x,p) + A + O(d^2) near p, where
the regular part A = (2 log 2 - 1) / (4 pi) is the same at every point by
symmetry.

A weight with conical singularities of orders alpha_i at points p_i is

    h = K * prod_i exp(-4 pi alpha_i G_{p_i})
      = K * prod_i (e/2)^{alpha_i} (1 - <p_i, x>)^{alpha_i},

which behaves like d(x, p_i)^{2 alpha_i} near p_i.  The derived quantities
alpha = min(0, min_i alpha_i) and rho_bar = 8 pi (1 + alpha) set the
critical strength of the exponential functional, and

    c(p) = K(p) exp(-4 pi alpha A) prod_{p_i != p} exp(-4 pi alpha_i G_{p_i}(p))

is the density constant seen by the concentration profile at a minimal-order
point p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sphere_grid import (FOUR_PI, SHCoefficients, _orthonormal_frame,
                          normalized, on_axis, rotated, synthesis_at_points)

# Regular part of the sphere Green's function, constant by symmetry.
REGULAR_PART = (2.0 * np.log(2.0) - 1.0) / FOUR_PI

_COINCIDENCE_TOL = 1.0e-14


class SingularEvaluationError(ValueError):
    """Evaluation requested at (or too close to) a singular point."""


def same_point(p, q):
    """True where the unit vectors p and q (q may be (..., 3)) are one
    point: <p, q> > 1 - _COINCIDENCE_TOL, within about 1.4e-7 rad.  The one
    coincidence rule: ``green`` and ``log_weight`` refuse to evaluate there,
    and a weight refuses two such singular points."""
    return np.asarray(q, dtype=float) @ p > 1.0 - _COINCIDENCE_TOL


def antipodal(p, q) -> bool:
    """True when p is the same point as -q."""
    return same_point(p, -np.asarray(q, dtype=float))


def coincident_points(positions) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of the unit vectors ``positions`` that are the
    same point (``same_point``); ``SingularWeight`` refuses such points."""
    return [(i, j) for (i, p), (j, q) in itertools.combinations(
        enumerate(positions), 2) if same_point(p, q)]


def log_factor(one_minus):
    """-4 pi G_p = log((e/2)(1 - <p, x>)) from ``one_minus`` = 1 - <p, x>:
    one point's factor of log h per unit order, and the Green's function."""
    return np.log(one_minus) + 1.0 - np.log(2.0)


def green(p, x):
    """Mean-zero Green's function G_p(x) of -Delta on the round sphere.

    Accepts a single point or an array of shape (..., 3) for ``x``.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(same_point(p, x)):
        raise SingularEvaluationError("green(p, x) evaluated at x = p")
    val = -log_factor(1.0 - x @ p) / FOUR_PI
    return float(val) if val.ndim == 0 else val


def green_radial(r):
    """G_p at geodesic distance r from p, with 1 - cos r = 2 sin^2(r/2)."""
    return -log_factor(2.0 * np.sin(0.5 * r) ** 2) / FOUR_PI


@dataclass(frozen=True)
class SingularPoint:
    position: np.ndarray
    order: float

    def __post_init__(self):
        object.__setattr__(self, "position", normalized(self.position))
        if not (self.order > -1.0):
            raise ValueError(f"singular order must exceed -1, got {self.order}")
        if self.order == 0.0:
            raise ValueError("singular order must be nonzero")


class SingularWeight:
    """Weight h = K prod_i exp(-4 pi alpha_i G_{p_i}) with its bookkeeping.

    ``K`` is an optional smooth positive factor, the band-limited function
    with these coefficients (zonal when it is invariant about the
    grid axis); the default is K == 1.
    """

    def __init__(self, points: Sequence[SingularPoint] = (),
                 K: Optional[SHCoefficients] = None):
        if K is not None and not isinstance(K, SHCoefficients):
            raise TypeError("K must be SHCoefficients or None, got "
                            f"{type(K).__name__}")
        self.points = list(points)
        self.K = K
        if coincident_points(self.positions):
            raise ValueError("singular points must be pairwise distinct")

    @classmethod
    def from_orders(cls, entries: Sequence[tuple], K=None) -> "SingularWeight":
        """Build from (position, order) pairs."""
        return cls([SingularPoint(np.asarray(p), float(a)) for p, a in entries], K)

    @property
    def orders(self) -> np.ndarray:
        return np.array([p.order for p in self.points])

    @property
    def positions(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 3))
        return np.stack([p.position for p in self.points])

    @property
    def alpha(self) -> float:
        """Minimum singularity order min(0, min_i alpha_i)."""
        if not self.points:
            return 0.0
        return min(0.0, float(self.orders.min()))

    @property
    def rho_bar(self) -> float:
        """Critical parameter 8 pi (1 + alpha)."""
        return 8.0 * np.pi * (1.0 + self.alpha)

    def index_at(self, p) -> Optional[int]:
        """Index of the singular point that is the same point as p
        (``same_point``), or None."""
        p = normalized(p)
        return next((i for i, sp in enumerate(self.points)
                     if same_point(p, sp.position)), None)

    def beta(self, p) -> float:
        """Singularity index: alpha_i at p_i, zero elsewhere."""
        i = self.index_at(p)
        return 0.0 if i is None else self.points[i].order

    def minimal_points(self) -> list[SingularPoint]:
        """Singular points of order alpha = min(0, min_i alpha_i): empty
        when every order is positive."""
        a = self.alpha
        return [sp for sp in self.points if sp.order == a]

    def is_axis_aligned(self) -> bool:
        """True when every singular point is exactly +-e3 (``on_axis``): the
        integrator's and the axis identity's layout (see ``axis_frame``)."""
        return all(on_axis(sp.position) for sp in self.points)

    @property
    def axis_invariant(self) -> bool:
        """True when h is invariant about the grid axis, read from the
        weight's data: every point exactly +-e3 (``on_axis``) and K == 1 or
        zonal.  log h is then exactly constant along every ring."""
        return self.is_axis_aligned() and (self.K is None
                                           or self.K.values.shape[-1] == 1)

    def smooth_factor(self, x: np.ndarray) -> np.ndarray:
        """K at unit vectors x of shape (..., 3), synthesized from its
        coefficients."""
        if self.K is None:
            return np.ones(np.asarray(x).shape[:-1])
        return synthesis_at_points(self.K, x)

    def log_weight(self, x, cap: tuple | None = None):
        """log h(x); accepts (..., 3) arrays.  Stable for strong orders.

        ``cap = (i, r)`` gives the exact geodesic distances r of the nodes x
        from point i (broadcastable to x.shape[:-1]; i may be None).  That
        factor then uses 1 - <p_i, x> = 2 sin^2(r/2), which keeps full
        relative accuracy where 1 - <p_i, x> cancels (caps reach r ~ 1e-5
        at L = 128 and 1e-7 at L = 4096).
        """
        x = np.asarray(x, dtype=float)
        out = np.log(self.smooth_factor(x))
        for i, sp in enumerate(self.points):
            if cap is not None and i == cap[0]:
                one_minus = 2.0 * np.sin(0.5 * cap[1]) ** 2
            elif sp.order < 0.0 and np.any(same_point(sp.position, x)):
                raise SingularEvaluationError(
                    "weight evaluated at a negative-order singular point")
            else:
                one_minus = 1.0 - np.clip(x @ sp.position, -1.0, 1.0)
            # a positive order's own point gives log 0 = -inf: h has a zero
            with np.errstate(divide="ignore"):
                out = out + sp.order * log_factor(one_minus)
        return out

    def bubble_constant(self, p) -> float:
        """Concentration density constant c(p) at a minimal-order point
        (at a regular point when alpha = 0, where it is h(p))."""
        p = normalized(p)
        if self.beta(p) != self.alpha:
            raise ValueError(
                "bubble constant is defined only where the singularity index "
                "attains the minimal order"
            )
        log_c = float(np.log(self.smooth_factor(p[None, :])[0]))
        log_c += -FOUR_PI * self.alpha * REGULAR_PART
        for sp in self.points:
            if not same_point(p, sp.position):
                log_c += -FOUR_PI * sp.order * green(sp.position, p)
        return float(np.exp(log_c))

    def cache_key(self) -> tuple:
        pts = tuple((tuple(sp.position), sp.order) for sp in self.points)
        if self.K is None:
            return (pts, None)
        return (pts, self.K.values.shape, self.K.values.tobytes())

    def __repr__(self) -> str:
        pts = ", ".join(f"(order={sp.order:+.3g})" for sp in self.points)
        return f"SingularWeight([{pts}], K={'custom' if self.K else '1'})"


def axis_frame(w: SingularWeight) -> SingularWeight:
    """``w`` rotated onto the grid axis: h_R(R x) = h(x) for the rotation R
    with R p = e3, p the weight's one singular point or the first of an
    antipodal pair (``_orthonormal_frame``).

    The framed positions are exactly +-e3 (``on_axis``), the second point
    of a pair by the ``antipodal`` rule within 1.4e-7 rad.  K is resampled
    exactly, over every order (``rotated``, the cap mass's rotation).  A
    weight already on the axis (``is_axis_aligned``) is returned itself.
    J, the density's moments about the axis, cap masses and profiles are
    rotation invariant; positions derived from the framed weight are in
    its frame.

    Raises ValueError when no rotation puts the points on the axis: two
    points that are not antipodal, or three or more.
    """
    if w.is_axis_aligned():
        return w
    p = w.positions
    if len(p) > 2 or (len(p) == 2 and not antipodal(*p)):
        raise ValueError(f"no rotation puts these {len(p)} singular points "
                         "on the axis; the integrating kinds take one point "
                         "or an antipodal pair")
    K = None if w.K is None else rotated(w.K, _orthonormal_frame(p[0]))
    return SingularWeight([SingularPoint(np.array([0.0, 0.0, z]), sp.order)
                           for z, sp in zip((1.0, -1.0), w.points)], K)
