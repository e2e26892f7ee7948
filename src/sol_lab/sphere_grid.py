"""Discretization of the unit sphere S^2.

The grid is a tensor product of Gauss-Legendre nodes in t = cos(theta) and
uniformly spaced longitudes.  This combination integrates every spherical
harmonic of degree <= 2L exactly (L the band limit), and none of the nodes
sit on the poles, which is where singular weights will be placed later.

A band-limited function -- a field, or the smooth factor K of a weight --
is one ``SHCoefficients``: real spherical-harmonic coefficients a_{l,m},
0 <= l <= L, -l <= m <= l.  Values on the (n_theta, n_phi) nodes, or one
(n_theta, 1) column for a ring-constant field, are plain arrays that
convert to and from coefficients through the grid's ``transform`` alone.

The real harmonic convention is orthonormal on the sphere:

    Y_{l,0}  = Pbar_{l,0}(cos theta)
    Y_{l,m}  = sqrt(2) * Pbar_{l,m}(cos theta) * cos(m phi)   (m > 0)
    Y_{l,-m} = sqrt(2) * Pbar_{l,m}(cos theta) * sin(m phi)   (m > 0)

where Pbar includes the full normalization (Pbar_{0,0} = 1/sqrt(4 pi)).
Transforms are dense per-order matrix products, O(L^3) overall, which is
fine at desk scale (L <= 256).  They take rings in mirror pairs: by
Pbar_{l,m}(-t) = (-1)^{l+m} Pbar_{l,m}(t), a ring t and its exact mirror
-t read one Legendre table column, through its rows of even and of odd
l - m, so a symmetric node set (every Gauss-Legendre grid) needs half a
table and half the per-order work.  Each order's table drops the polar
rings on which its Pbar_{l,m} are below LEGENDRE_FLOOR at every degree
(the "polar optimization" of Schaeffer, G^3 14, 2013 and of Reinecke &
Seljebotn, A&A 554, 2013): the rings are kept polar-first, so an order
reads a suffix of them, and a pass skips the dropped columns (a fifth of
the L = 256 two-cap table).  They take longitudes in pairs too:
cos m phi is even and sin m phi odd under phi_j -> phi_{n-j} = -phi_j,
and for even n_phi the half turn phi_j -> phi_j + pi multiplies order m
by (-1)^m, so the Fourier step runs over the longitudes j <= n_phi / 4
alone, a quarter of its matrix work (see ``ProductTransform``).

Zonal data is one column, for values and coefficients alike.  Values of
shape (..., n_t, 1) are a ring-constant field: a ``ProductTransform``
analyses them on the m = 0 Legendre block alone, one longitude carrying
each ring's whole weight, into the m = 0 column of coefficients, shape
(..., L+1, 1).  Such a column synthesizes back to one column of values.
Every consumer picks its path from the last axis; a column meets
full-width coefficients only through ``SHCoefficients.widened``, never
through broadcasting, which would add it to every order.  A zonal pass is
one (L+1) x n_t matrix product, O(L n_t), against O(L^2 n_t + L n_t n_phi)
over all orders and the Fourier step.  A transform builds and keeps each
table on its first need: its cos/sin table and its Legendre table of every
order on its first pass over every order, its m = 0 block on its first
zonal pass.  One exception: a stack of two or more fields on a table
whose bound exceeds LEGENDRE_BYTES streams its blocks from the recurrence,
computed in place a small group of orders at a time (Schaeffer, G^3 14,
2013 and Reinecke & Seljebotn, A&A 554, 2013 run the recurrence inside
every pass), and keeps nothing.

Coefficients and values may carry leading batch axes: a stack of K fields,
coefficients (K, L+1, 2L+1) and values (K, n_t, n_phi), is transformed with
one (2K x (L+1-m)/2) by ((L+1-m)/2 x kept rings) matrix product per
order and parity of l - m, so the K fields share one pass over each Pbar
block instead of reading it K times.  One field gives bit for bit the
unbatched results.  A synthesis reads full-width coefficients in their
``OrderRows``, the rows of each order's product, which it gathers from
the coefficients or is handed.
A caller that needs a reduction of the values alone need not hold them:
``ProductTransform.ring_groups`` splits the rings into mirror-closed
groups, each a transform of its own, and a stack synthesized one group at
a time, from rows gathered once, holds one group's values
(``mt_functional.SingularIntegrator.log_exp_integral``, whose stacks of
independent samples ``mt_functional.sample_gaps`` sizes by what the draw,
the gather and such a log integral hold).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * np.pi
SQRT2 = np.sqrt(2.0)


class BandLimitError(ValueError):
    """Coefficients exceed the band limit a grid can represent."""


def normalized(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def geodesic_distance(p, x):
    """Great-circle distance from the unit vector p to x, a unit vector or
    an array of them of shape (..., 3): arctan2(|x cross p|, x . p), exact
    at 0 and pi, where arccos of the dot resolves only sqrt(2 ulp); a float
    for one point."""
    p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
    d = np.arctan2(np.linalg.norm(np.cross(x, p), axis=-1), x @ p)
    return float(d) if d.ndim == 0 else d


def _orthonormal_frame(p: np.ndarray):
    helper = np.eye(3)[np.argmin(np.abs(p))]
    e1 = np.cross(helper, p)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(p, e1)


def cap_points(center, r: np.ndarray, n_angular: int) -> np.ndarray:
    """Geodesic polar nodes around ``center``, shape (len(r), n_angular, 3).

    Node (i, k) lies at distance r_i from the center along the bearing
    psi_k = 2 pi k / n_angular: sin r (cos psi e1 + sin psi e2) + cos r p.
    """
    p = np.asarray(center, dtype=float)
    e1, e2 = _orthonormal_frame(p)
    psi = 2.0 * np.pi * np.arange(n_angular) / n_angular
    rr, pp = np.meshgrid(r, psi, indexing="ij")
    return (np.sin(rr)[..., None] * (np.cos(pp)[..., None] * e1
                                     + np.sin(pp)[..., None] * e2)
            + np.cos(rr)[..., None] * p)


def on_axis(p) -> bool:
    """True when the unit vector p is +-e3 exactly: a field radial about p
    is then one column of values, bit for bit.  The one axis rule: the
    integrator, the axis identity and ``conformal_pullback`` take such
    points alone (``singular_geometry.axis_frame`` rotates a weight there)."""
    return p[0] == 0.0 and p[1] == 0.0


def ring_points(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors at (cos theta = t_i, phi_j), shape (len(t), len(phi), 3)."""
    st = np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None]
    return np.stack([st * np.cos(phi), st * np.sin(phi),
                     np.broadcast_to(t[:, None], (t.size, phi.size))], axis=-1)


def _jacobi_polish(n: int, a, b, diag, off, y):
    """Nodes and weights of the n-point Gauss-Jacobi rule, a or b zero,
    from estimates of its nodes x in [0, 1) (nearer to +1 than to -1) given
    as y = 1 - x, with diag and off the recurrence of ``gauss_jacobi``.

    The recurrence runs in y, in ``np.longdouble`` and in Reinsch's
    difference form e_k = p_k - p_{k-1}, with the small coefficients c_k =
    1 - diag[k] - off[k] - off[k+1]: in x the roots of the recurrence merge
    near x = 1, where its rounding grows like n^2 eps.  By (1 - x^2) p_k' =
    k ((a - b) / s - x) p_k + off[k] (s + 1) p_{k-1}, s = 2k + a + b, one
    Newton step moves y to the root and p_{n-1} follows to first order; the
    weight is the Christoffel number mu_0 (1 - x^2) / (off[n]^2 (s + 1)
    p_{n-1}^2) with p_0 = 1 and mu_0 = 2^(a+b+1) / (a + b + 1).
    """
    y = np.asarray(y, dtype=np.longdouble)
    inv = 1 / off[1:]
    c, r = (1 - diag[:n] - off[:n] - off[1:]) * inv, off[:n] * inv
    lower, p, e = np.zeros_like(y), np.ones_like(y), np.ones_like(y)
    for k in range(n):
        e = r[k] * e + (c[k] - y * inv[k]) * p
        older, lower, p = lower, p, p + e

    def slope(k, pk, pk1):  # (1 - x^2) p_k'(x); s = 0 only where k = 0
        s = 2 * k + a + b
        return ((k * (a - b) / (s or 1) - k * (1 - y)) * pk
                + off[k] * (s + 1) * pk1)

    sides = y * (2 - y)
    step = sides * p / slope(n, p, lower)  # to the root: y* - y
    lower -= step / sides * slope(n - 1, lower, older)
    y += step
    w = 2 ** (a + b + 1) / (a + b + 1) * y * (2 - y) / (
        off[n] ** 2 * (2 * n + a + b + 1) * lower ** 2)
    return (1 - y).astype(float), w.astype(float)


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n: int, b: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Jacobi rule on [-1, 1] for the weight (1 + x)^b,
    b > -1: (nodes ascending, weights).  b = 0 is Gauss-Legendre, the rule
    of the grid, the band and the alpha = -1/2 caps; the caps take
    b = 2 alpha + 1 (``mt_functional.cap_radial_rule``).

    ``_jacobi_polish`` polishes estimates of the nodes on the orthonormal
    recurrence off[k+1] p_{k+1} = (x - diag[k]) p_k - off[k] p_{k-1} and
    weighs each from the end it is nearer to (x -> -x takes the weight to
    (1 - x)^b).  For b = 0 the estimates are Tricomi's asymptotic nodes
    (Tricomi, Ann. Mat. Pura Appl. 31, 1950), three polishing steps take
    them to the roots, and the nodes x >= 0 are mirrored, so mirror rings
    pair: O(n^2), with no matrix.  For b != 0 they are the eigenvalues of
    the recurrence's Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969),
    one dense n x n array, polished once; only caps take it, but n is not
    small: an integrator cap takes max(32, ceil(1.25 L R)) nodes, 512 at
    L = 4096, and ``cap_density_integral`` max(48, floor(R L) + 16) radii
    at its R = 10 t_eps, 3130 at L = 4096 and epsilon = 0.05 (the
    ``FOUND:`` on ``cap_density_integral`` in CHANGES.md).  On 80-bit
    longdouble (x86) the Gauss-Legendre weights lie within 1.3e-16 relative
    of a 30-digit reference at n = 32, 129 and 257 and within 5.8e-16 at
    n = 1025 (``leggauss``: 5.8e-14, 1.3e-11 and 1.5e-10 at the first
    three).  Every grid, band and cap of a given size reads the same
    arrays, computed once per (n, b) (for the 64 used last), shared and
    read-only.
    """
    b = np.longdouble(b)
    k = np.arange(n + 1, dtype=np.longdouble)
    s = 2 * k + b
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0
        diag = b * b / (s * (s + 2))
        off = 2 * k * (k + b) / (s * np.sqrt(s * s - 1))
    diag[0], off[0] = b / (b + 2), 0
    nodes, weights = np.empty(n), np.empty(n)
    if b:
        jacobi = np.zeros((n, n))
        jacobi[range(n), range(n)] = diag[:n]
        jacobi[range(1, n), range(n - 1)] = off[1:n]
        x = np.linalg.eigvalsh(jacobi)
        k = np.searchsorted(x, 0.0)
        nodes[k:], weights[k:] = _jacobi_polish(n, 0, b, diag, off, 1 - x[k:])
        nodes[:k], weights[:k] = _jacobi_polish(n, b, 0, -diag, off, 1 + x[:k])
        nodes[:k] *= -1.0
    else:
        k = n // 2
        theta = np.pi * (4 * np.arange(n - k, 0, -1) - 1) / (4 * n + 2)
        x = (1 - (n - 1) / (8 * n ** 3) - (39 - 28 / np.sin(theta) ** 2)
             / (384 * n ** 4)) * np.cos(theta)
        for _ in range(3):
            x, w = _jacobi_polish(n, 0, 0, diag, off, 1 - x)
        nodes[k:], weights[k:] = x, w
        if n % 2:
            nodes[k] = 0.0
        nodes[:k], weights[:k] = -nodes[:n - k - 1:-1], weights[:n - k - 1:-1]
    for v in (nodes, weights):
        v.flags.writeable = False
    return nodes, weights


def _colatitude_weights(t_weights: np.ndarray) -> np.ndarray:
    """Scale Gauss-Legendre weights so their compensated sum is exactly 4 pi.

    Each weight of ``gauss_jacobi`` is rounded on its own, so their exact
    sum misses 2 (at 129 nodes by -2.7e-17): they are rescaled by 4 pi /
    fsum(w) and the remaining residual is added to the middle weight.  That
    one step is enough: the middle weight is at most about 2 pi < 8, so
    rounding it costs at most a quarter ulp of 4 pi, and ``math.fsum`` of
    the result rounds to ``FOUR_PI``.  For odd node counts the middle node
    is the equator, so the t -> -t symmetry is kept.  No weight moves by
    more than 3.6e-15 relative (n < 300).
    """
    w = t_weights * (FOUR_PI / math.fsum(t_weights))
    w[w.size // 2] += math.fsum([FOUR_PI, *(-w)])
    return w


# Bytes of Pbar rows in one group of orders of the Legendre recurrence
# (``_legendre_groups``), for tables, streamed passes and point syntheses
# alike: a group over n rings takes max(1, LEGENDRE_BYTES // (8 (L + 4) n))
# orders, counted at L + 4 rows an order (Schaeffer, G^3 14, 2013 sizes his
# on-the-fly recurrence the same way): the L + 1 degree rows of its
# in-place scratch and one work row, two rows to spare, so its work stays
# within max(LEGENDRE_BYTES, one order); a point synthesis counts its
# other work vectors too (``synthesis_at_angles``).  The L = 256 two-cap
# block (354 representative rings) takes 11 orders, 8.0 MB.  Streaming the
# recurrence over its rings, trimmed, in groups of 4, 8, 11, 16, 24, 34,
# 48 and 64 orders took 82, 61, 61, 49, 53, 52, 52 and 56 ms at best of 11
# (one BLAS thread, shared 2-core x86 VM): smaller groups pay more numpy
# calls per degree, larger ones compute more of the dropped rings and hold
# more memory (24.7 MB at 34 orders).  A full-width L = 4096 grid pass
# takes one order (67 MB) a group.
LEGENDRE_BYTES = 8 << 20  # 8 MiB

# Values of Pbar below which a ProductTransform drops a ring from an order's
# table (see ``normalized_legendre``): a synthesized value misses at most
# sqrt 2 LEGENDRE_FLOOR times the 1-norm of the coefficients, an analysed
# coefficient as much times the weighted 1-norm of the values, both far
# below double precision.
LEGENDRE_FLOOR = 1e-20


def _legendre_group(L: int, m0: int, t: np.ndarray, sq: np.ndarray,
                    pmm: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Fill ``packed``, shape (L + 1, k, len(t)), with the Pbar of orders
    m0 .. m0 + k - 1 on the rings t, degree-major and in place:
    packed[l, i] is Pbar_{l, m0 + i}, and the rows l < m of order m are
    never written.  Starts from the sectoral seed pmm = Pbar_{m0,m0}
    (sq = sqrt(1 - t^2)); returns the seed of order m0 + k.

    After the seeds Pbar_{m,m} and Pbar_{m+1,m}, one vectorized update per
    degree l writes row l of every order of the group with m <= l - 2 from
    its rows l - 1 and l - 2 (Schaeffer, G^3 14, 2013), in one work row an
    order.  Each entry is the same float expression as in a
    one-order-at-a-time loop, so the values do not depend on the grouping
    or on the rings.
    """
    k = packed.shape[1]
    # a[l, i], b[l, i] of Pbar_{l,m} = a t Pbar_{l-1,m} + b Pbar_{l-2,m}
    # for m = m0 + i, read where m <= l - 2: exact integer ratios, one
    # rounded division and sqrt
    ll, mm = np.arange(L + 1)[:, None], np.arange(m0, m0 + k)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm * mm))
        b = -np.sqrt((2.0 * ll + 1.0) * ((ll - 1.0) ** 2 - mm * mm)
                     / ((2.0 * ll - 3.0) * (ll * ll - mm * mm)))
    for i, m in enumerate(range(m0, m0 + k)):
        packed[m, i] = pmm
        if m < L:
            packed[m + 1, i] = np.sqrt(2 * m + 3.0) * t * pmm
        pmm = np.sqrt((2 * m + 3.0) / (2 * m + 2.0)) * sq * pmm
    work = np.empty((k, t.size))
    for l in range(m0 + 2, L + 1):
        j = min(k, l - 1 - m0)  # orders m0 .. m0 + j - 1 have m <= l - 2
        w, p = work[:j], packed[l, :j]
        np.multiply(a[l, :j, None], t, out=w)
        np.multiply(w, packed[l - 1, :j], out=w)
        np.multiply(b[l, :j, None], packed[l - 2, :j], out=p)
        np.add(w, p, out=p)
    return pmm


def _legendre_groups(L: int, t: np.ndarray, m_max: int | None, floor: float,
                     work: int = 0):
    """Yield (m, Pbar block) for m = 0..m_max (default L), one list per
    group of orders.

    Row k of a block holds degree l = m + k.  The normalization is the
    orthonormal spherical-harmonic one, so values stay O(sqrt(l)) and the
    three-term recurrence is stable far beyond L = 256.  Without a
    ``floor`` a block spans every ring, shape (L + 1 - m, len(t)).  With
    one, order m spans the rings t[s_m:] alone, s_m the first ring from
    s_{m-1} on (s_0 = 0) where some |Pbar_{l,m}| >= floor: for rings in
    polar-first order (|t| falling) it drops the polar rings on which the
    order is below the floor at every degree, and a product over the rest
    misses at most floor * sum_l |c_l| of each value.  Order 0 is never
    trimmed.

    Over n rings a group of k = max(1, (LEGENDRE_BYTES // (8 n) - work) //
    (L + 4)) orders is computed in place by ``_legendre_group`` on the
    rings its previous order kept, degree-major into one (L + 1, k, n)
    scratch array that every group reuses: order m0 + i's block is the
    strided view packed[m0 + i:, i], which the next group overwrites, so a
    caller uses a group before it asks for the next, or copies it.  A
    caller that holds ``work`` vectors a ring beside a group has them
    counted in its budget.  Once an order keeps no ring, every later group
    is empty blocks, shape (L + 1 - m, 0), and runs no recurrence.
    """
    t = np.asarray(t, dtype=float).ravel()
    sq = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pmm = np.full_like(t, 1.0 / np.sqrt(FOUR_PI))
    n = t.size
    m_max = L if m_max is None else m_max
    group = min(m_max + 1, max(
        1, (LEGENDRE_BYTES // (8 * max(n, 1)) - work) // (L + 4)))
    scratch = np.empty((L + 1) * group * n)
    start = 0
    for m0 in range(0, m_max + 1, group):
        k, lo = min(group, m_max + 1 - m0), start
        if lo == n:
            yield [(m, np.empty((L + 1 - m, 0))) for m in range(m0, m0 + k)]
            continue
        packed = scratch[:(L + 1) * k * (n - lo)].reshape(L + 1, k, n - lo)
        pmm = _legendre_group(L, m0, t[lo:], sq[lo:],
                              pmm[pmm.size - (n - lo):], packed)
        blocks = []
        for i, m in enumerate(range(m0, m0 + k)):
            block = packed[m:, i]
            if floor and m:
                while start < n and np.abs(block[:, start - lo]).max() < floor:
                    start += 1
            blocks.append((m, block[:, start - lo:]))
        yield blocks


def normalized_legendre(band_limit: int, t: np.ndarray,
                        m_max: int | None = None,
                        floor: float = 0.0) -> list[np.ndarray]:
    """Fully normalized associated Legendre functions Pbar_{l,m}(t): the
    blocks of ``_legendre_groups`` for m = 0..m_max (default band_limit),
    trimmed at ``floor``, one block per order.

    The kept blocks of each group, strided views of its degree-major
    scratch, are copied out into one contiguous array before the next
    group is computed, so the table holds the kept entries alone and
    leaves no group arrays behind.  One allocation per group, not per
    order: the L = 256 two-cap table, 11 orders a group, takes 90-100 ms
    (one BLAS thread, shared 2-core x86 VM).  The m = 0 block alone is its
    whole scratch (one order, so contiguous), which no later group reuses,
    so it is kept as it is.
    """
    groups = _legendre_groups(band_limit, t, m_max, floor)
    if m_max == 0:
        return [block for _, block in next(groups)]
    table = []
    for group in groups:
        packed, end = np.empty(sum(b.size for _, b in group)), 0
        for _, b in group:
            table.append(packed[end:end + b.size].reshape(b.shape))
            table[-1][...] = b
            end += b.size
    return table


@dataclass
class SHCoefficients:
    """Real spherical-harmonic coefficients a_{l,m}, a row per degree l.

    ``values`` has shape (..., L+1, 2L+1), entry [l, L + m] for a_{l,m}, or
    (..., L+1, 1) for zonal coefficients: the m = 0 column alone.  The shape
    is the rule; a column is never scanned for zeros and never broadcast
    against every order (``widened``).  Leading batch axes hold a stack of
    fields that the transforms handle in one pass.  Callers outside this
    module read and write a_{l,m} through ``order``.
    """

    values: np.ndarray

    @property
    def band_limit(self) -> int:
        return self.values.shape[-2] - 1

    @property
    def _m0(self) -> int:
        """Column of the m = 0 coefficients."""
        return self.values.shape[-1] // 2

    def copy(self) -> "SHCoefficients":
        return SHCoefficients(self.values.copy())

    @classmethod
    def zeros(cls, band_limit: int) -> "SHCoefficients":
        return cls(np.zeros((band_limit + 1, 2 * band_limit + 1)))

    def order(self, m: int) -> np.ndarray:
        """a_{l,m} for l = 0..L (zero for l < |m|), a writable view; a
        zonal column has order 0 alone."""
        if abs(m) > self._m0:
            raise IndexError(f"order {m} is not held by coefficients of "
                             f"width {self.values.shape[-1]}")
        return self.values[..., self._m0 + m]

    def widened(self, band_limit: int | None = None) -> "SHCoefficients":
        """These coefficients over every order of band limit L (default
        their own), shape (..., L+1, 2L+1), zero where they hold no entry:
        a column meets full-width coefficients only through this.  Returns
        self when it already has that shape."""
        L = self.band_limit if band_limit is None else band_limit
        Lc, half = self.band_limit, self._m0
        if (L, half) == (Lc, Lc):
            return self
        out = np.zeros(self.values.shape[:-2] + (L + 1, 2 * L + 1))
        out[..., :Lc + 1, L - half:L + half + 1] = self.values
        return SHCoefficients(out)

    @property
    def mean(self):
        """Mean of the synthesized field: a_{0,0} / sqrt(4 pi), a float (an
        array over the batch axes for a stack)."""
        mean = self.values[..., 0, self._m0] / np.sqrt(FOUR_PI)
        return float(mean) if mean.ndim == 0 else mean

    def shifted(self, constant: float) -> "SHCoefficients":
        out = self.copy()
        out.values[..., 0, self._m0] += constant * np.sqrt(FOUR_PI)
        return out


@dataclass
class OrderRows:
    """Full-width coefficients of a stack of K fields (one field: K = 1)
    gathered into the rows that a synthesis reads order by order
    (Schaeffer, G^3 14, 2013): ``blocks[m]``, shape (L+1-m, 2K), holds in
    row l - m the cos and sin coefficients of each field in turn, sqrt 2
    a_{l,m} and sqrt 2 a_{l,-m} for m > 0, a_{l,0} and 0 for m = 0.  The
    blocks are consecutive views of one array of K (L+1)(L+2) floats, about
    half the bytes of the dense stack, whose rows l < |m| are zeros.
    ``batch`` is the stack's batch shape."""

    blocks: list
    batch: tuple

    @classmethod
    def gather(cls, coeffs: SHCoefficients) -> "OrderRows":
        """The order rows of full-width coefficients, shape (..., L+1,
        2L+1)."""
        v = coeffs.values
        batch, L = v.shape[:-2], coeffs.band_limit
        v = v.reshape((-1,) + v.shape[-2:])
        k = v.shape[0]
        data, blocks, end = np.empty(k * (L + 1) * (L + 2)), [], 0
        for m in range(L + 1):
            c = data[end:end + 2 * k * (L + 1 - m)].reshape(L + 1 - m, k, 2)
            c[..., 0] = v[:, m:, L + m].T
            c[..., 1] = v[:, m:, L - m].T if m else 0.0
            if m:
                c *= SQRT2
            blocks.append(c.reshape(L + 1 - m, 2 * k))
            end += c.size
        return cls(blocks, batch)

    @property
    def band_limit(self) -> int:
        return len(self.blocks) - 1

    @property
    def fields(self) -> int:
        return self.blocks[0].shape[1] // 2


def _degree_weights(band_limit: int) -> np.ndarray:
    l = np.arange(band_limit + 1, dtype=float)
    return l * (l + 1.0)


def _ring_order(t: np.ndarray) -> tuple[np.ndarray, slice, int]:
    """Rings of a paired transform in table order: (order, paired, reps).

    ``order`` lists the ``reps`` representative rings the table spans,
    then the mirror of each paired one in turn.  A pair is a t > 0 ring
    and a ring at exactly -t (to the bit); a ring takes part in at most
    one pair, and the rest are solo.  The representatives are polar-first,
    so that the rings an order keeps (``normalized_legendre``) are a
    suffix: one segment per cap, the solo rings of t > 0 and of t < 0, each
    from its pole outward, the segment nearer its pole first; then the
    t > 0 rings of the pairs, ``order[paired]``, from the pole to the
    equator; then the solo rings at t = 0.  The caps are not interleaved,
    so a pass writes few runs (``_ring_runs``); the price is that an order
    whose cut falls in the first cap keeps all of the second.
    """
    unmatched: dict = {}
    for j in np.flatnonzero(t < 0.0):
        unmatched.setdefault(-t[j], []).append(j)
    # later t > 0 rings take the earlier mirrors, so that rings of equal t
    # keep runs of the ring order
    reps, mirrors = [], []
    for i in np.flatnonzero(t > 0.0)[::-1]:
        if unmatched.get(t[i]):
            reps.append(i)
            mirrors.append(unmatched[t[i]].pop(0))
    solo = np.ones(t.size, dtype=bool)
    solo[reps + mirrors] = False
    solo = np.flatnonzero(solo)
    caps = [solo[t[solo] > 0.0], solo[t[solo] < 0.0]]
    caps = [cap[np.argsort(-np.abs(t[cap]), kind="stable")] for cap in caps]
    caps.sort(key=lambda cap: -abs(t[cap[0]]) if cap.size else 0.0)
    by_t = np.argsort(-t[reps], kind="stable")
    reps, mirrors = np.asarray(reps)[by_t], np.asarray(mirrors)[by_t]
    first = sum(cap.size for cap in caps)
    order = np.concatenate([*caps, reps, solo[t[solo] == 0.0], mirrors])
    return (order.astype(np.intp), slice(first, first + reps.size),
            order.size - mirrors.size)


def _ring_runs(order: np.ndarray) -> list:
    """(table slice, ring slice) pairs that cover ``order`` by its maximal
    runs of consecutive rings, ascending or descending, so that a pass
    writes table-order rows to ring order one block per run (two on a
    Gauss grid, four on a two-cap block)."""
    runs, start = [], 0
    for end in range(1, order.size + 1):
        if end < order.size:
            step = order[end] - order[end - 1]
            if abs(step) == 1 and (end - start == 1
                                   or step == order[start + 1] - order[start]):
                continue
        first, last = int(order[start]), int(order[end - 1])
        step = -1 if last < first else 1
        stop = last + step
        runs.append((slice(start, end),
                     slice(first, None if stop < 0 else stop, step)))
        start = end
    return runs


def _turn_sums(parts: list) -> list:
    """[p_0 + p_1, p_0 - p_1] for two parts, the difference written over
    p_1; one part as it is: a synthesis sums the even- and odd-m parts into
    the images at j and n/2 + j, an analysis those images into the parts
    (the map is its own adjoint)."""
    if len(parts) == 1:
        return parts
    total = parts[0] + parts[1]
    return [total, np.subtract(parts[0], parts[1], out=parts[1])]


class ProductTransform:
    """Spherical-harmonic analysis/synthesis on a product node set.

    The node set is {(t_i, phi_j)}: arbitrary colatitude nodes t and n_phi
    uniform longitudes phi_j = 2 pi j / n_phi.  ``ring_weights`` are the
    steradian weights per ring (None for a synthesis-only transform); a
    node carries its ring's weight / n_phi
    (``weights``, per node over every longitude).

    Rings are evaluated in mirror pairs (Schaeffer, G^3 14, 2013): by
    Pbar_{l,m}(-t) = (-1)^{l+m} Pbar_{l,m}(t), the rows of even l - m see
    both rings of a pair (t, -t) alike and the rows of odd l - m with
    opposite signs.  The build observes which rings have an exact mirror;
    every other ring (the equator, cap rings, every ring of an asymmetric
    node set) is solo.  One Legendre table covers the representative
    rings, the t > 0 ring of each pair and the solo rings, and a pass reads
    its even and odd rows apart.  The representatives are in polar-first
    order (``_ring_order``: one segment per cap, then the pairs), and each
    order m > 0 keeps the suffix of them from the first ring where some
    |Pbar_{l,m}| >= LEGENDRE_FLOOR (``normalized_legendre``): synthesis
    multiplies over that suffix and writes exact zeros to the dropped rings
    and their mirrors, analysis skips their columns.  The m = 0 block spans
    every ring.  Synthesis forms E = c_even Pbar_even and
    O = c_odd Pbar_odd per order, one product per parity for the cos and
    sin coefficients of the whole batch: a representative ring gets E + O,
    its mirror E - O.  Analysis weights the values, takes the Fourier step
    and folds each pair into S = f(t) + f(-t) and D = f(t) - f(-t), which
    the even and odd rows read; a solo ring is its own S and D.  On the
    grid and on the band of every axis block every ring but the equator is
    paired, which halves the table and the per-order work.

    Longitudes are evaluated in pairs the same way.  Under the reflection
    phi_j -> phi_{n-j} = -phi_j, cos m phi is even and sin m phi odd; for
    even n_phi the half turn phi_j -> phi_{n/2+j} = phi_j + pi multiplies
    order m by (-1)^m.  The build finds the representative longitudes
    j <= period / 2 (period n_phi / 2 for even n_phi, n_phi for odd: the
    reflection alone) and their images o + j and o - j, o = 0 or n_phi / 2;
    the one cos/sin table spans the representatives.  Synthesis forms,
    per field, one product per trig part and parity of m over the
    representatives: the parities' sum is the cos (sin) sum at j, their
    difference at n/2 + j, and cos + sin is the value at o + j, cos - sin
    at o - j.  The images are written straight into ring order by runs of
    consecutive rings.  Analysis folds the weighted values onto the
    representatives by the same images (the adjoint) before one product
    per trig part and parity.  Each Fourier product is a quarter of the
    all-longitude one (half for odd n_phi).

    One-column data is zonal (see the module docstring): coefficients of
    shape (..., L+1, 1) synthesize to values of shape (..., n_t, 1), and
    such values analyse, on the m = 0 block alone, to such coefficients.
    The Legendre table holds the m = 0 block until the first pass over
    every order, which keeps every order, unless that pass is a stack on
    a table larger than LEGENDRE_BYTES, which streams (``_legendre``).
    """

    def __init__(self, band_limit: int, t: np.ndarray, n_phi: int,
                 ring_weights: np.ndarray | None = None):
        self.band_limit = band_limit
        self.t = np.asarray(t, dtype=float)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.ring_weights = self.weights = None
        if ring_weights is not None:
            self.ring_weights = np.reshape(ring_weights, (-1, 1))
            self.weights = np.broadcast_to(self.ring_weights / n_phi,
                                           (self.t.size, n_phi))
        self._order, self._paired, self._reps = _ring_order(self.t)
        self._runs = _ring_runs(self._order)
        self._mirror_runs = _ring_runs(self._order[self._reps:])
        # representative rings of the table whose bound decides whether a
        # stack streams (``_legendre``): a ring group's counts its whole
        # node set's (``ring_groups``)
        self._table_reps = self._reps
        # longitude pairs: phi_{n-j} = -phi_j and, for even n, phi_{n/2+j}
        # = phi_j + pi, which splits the orders by the parity of m
        turns = 2 if n_phi % 2 == 0 else 1
        period = n_phi // turns
        self._phi_reps, self._phi_pairs = period // 2 + 1, (period - 1) // 2
        self._parities = [slice(p, None, turns) for p in range(turns)]
        # per half-turn image o: the columns o + j (j < reps) and, reversed,
        # o - j modulo n_phi (1 <= j <= pairs); together every longitude once
        self._images = []
        for o in range(0, n_phi, period):
            end = (o or n_phi) - 1
            self._images.append((slice(o, o + self._phi_reps),
                                 slice(end, end - self._phi_pairs, -1)))
        self._plm: list = []
        self._fourier = None

    def _legendre(self, orders: int, fields: int = 1):
        """(s, even, odd) per order 0..orders - 1: the first representative
        ring s the order keeps (0 for m = 0) and the rows of l - m even and
        odd of its Pbar block over the kept rings.

        A table is kept from its first need, the m = 0 block and the
        table of every order alike, with one exception: a stack of
        ``fields`` >= 2 on a table whose bound, (L + 1)(L + 2) / 2 entries
        per representative ring, exceeds LEGENDRE_BYTES (94 MB on the
        L = 256 two-cap block, 14 MB on the L = 128 one-point block, whose
        table a non-zonal sweep keeps from its solver's one-field passes)
        streams its blocks from the recurrence, one group of
        ``_legendre_groups`` at a time, and keeps nothing.  A streamed
        block is a strided view of its group's degree-major scratch, and
        so are its even and odd rows; BLAS reads them as they are.
        """
        if len(self._plm) >= orders:
            return self._plm
        t = self.t[self._order[:self._reps]]
        L = self.band_limit
        if (orders > 1 and fields > 1
                and 8 * (L + 1) * (L + 2) // 2 * self._table_reps
                > LEGENDRE_BYTES):
            return ((t.size - block.shape[1], block[0::2], block[1::2])
                    for group in _legendre_groups(L, t, L, LEGENDRE_FLOOR)
                    for _, block in group)
        self._plm = [(t.size - block.shape[1], block[0::2], block[1::2])
                     for block in normalized_legendre(L, t, orders - 1,
                                                      LEGENDRE_FLOOR)]
        return self._plm

    def ring_groups(self, most: int) -> list:
        """(rings, transform) per group of the fewest mirror-closed groups
        of at most ``most`` rings (two at least): a group is a run of the
        representative rings in table order (polar-first) with the mirrors
        of its paired rings, the runs as equal in rings as the pairs
        allow.  ``rings`` lists the group's ring indices ascending; its
        transform, over those rings and their weights, streams a stack's
        Legendre blocks whenever this one would, so a group keeps no table
        that its node set would not, and reads this one's cos/sin table.
        One group is this transform."""
        reps, paired, order = self._reps, self._paired, self._order
        n, most = self.t.size, max(most, 2)
        ends = np.ones(reps + 1, dtype=int)
        ends[0], ends[1 + paired.start:1 + paired.stop] = 0, 2
        ends = np.cumsum(ends)  # rings of the first i representatives
        for count in range(-(-n // most), reps + 1):
            bounds = np.searchsorted(ends, n * np.arange(count + 1) / count,
                                     side="right") - 1
            sizes = np.diff(ends[bounds])
            if sizes.min() > 0 and sizes.max() <= most:
                break
        else:  # one representative a group
            count, bounds = reps, np.arange(reps + 1)
        if count == 1:
            return [(np.arange(n), self)]
        groups = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            mirrors = order[reps + max(a, paired.start) - paired.start:
                            reps + max(b, paired.start) - paired.start]
            rings = np.sort(np.concatenate([order[a:b], mirrors]))
            group = ProductTransform(
                self.band_limit, self.t[rings], self.phi.size,
                None if self.ring_weights is None else self.ring_weights[rings])
            group._table_reps, group._fourier = self._table_reps, self._trig()
            groups.append((rings, group))
        return groups

    def _trig(self) -> np.ndarray:
        """cos m phi and sin m phi for m = 0..L over the representative
        longitudes, shape (2, L+1, period // 2 + 1).  The angle m phi_j is
        reduced modulo 2 pi in integers, 2 pi ((m j) mod n) / n, so every
        entry comes from an angle in [0, 2 pi) rounded once (the float
        product m * phi_j is off by about m ulps of phi_j).  Built on the
        first pass over every order and kept."""
        if self._fourier is None:
            n = self.phi.size
            m = np.arange(self.band_limit + 1)[:, None]
            angle = 2.0 * np.pi * (m * np.arange(self._phi_reps) % n) / n
            self._fourier = np.stack([np.cos(angle), np.sin(angle)])
        return self._fourier

    def _unfold(self, even: np.ndarray, odd: np.ndarray, out: np.ndarray,
                start: int = 0):
        """Ring values in table order into ``out`` (..., n_t) from the even
        and odd sums (rows by batch entry, columns by representative from
        ``start`` on); the rings an order dropped get exact zeros."""
        even = even.reshape(out.shape[:-1] + (-1,))
        odd = odd.reshape(even.shape)
        reps, paired = self._reps, self._paired
        # the mirrors follow the paired rings: the first ``gone`` of them
        # mirror dropped rings, the rest the kept columns ``kept``
        gone = min(max(start - paired.start, 0), paired.stop - paired.start)
        kept = slice(paired.start + gone - start, paired.stop - start)
        out[..., :start] = 0.0
        out[..., reps:reps + gone] = 0.0
        np.add(even, odd, out=out[..., start:reps])
        np.subtract(even[..., kept], odd[..., kept],
                    out=out[..., reps + gone:])

    def _fold(self, f: np.ndarray):
        """(S, D) over the representative rings from ring-major f: f(t) +
        f(-t) and f(t) - f(-t) for a pair, f itself for a solo ring.  The
        mirrors are read in place, a run of rings at a time
        (``_ring_runs``), so S and D are the only copies of f made."""
        reps, start = self._reps, self._paired.start
        # odd in the index's layout, even C-ordered, as when both were cut
        # from one ring-order copy of f: the products that read them round
        # the same
        odd = f[self._order[:reps]]
        even = odd.copy()
        for table, ring in self._mirror_runs:
            rows = slice(start + table.start, start + table.stop)
            even[rows] += f[ring]
            odd[rows] -= f[ring]
        return even, odd

    def synthesis_values(self, coeffs: SHCoefficients | OrderRows
                         ) -> np.ndarray:
        """Values on the node set, shape (..., n_t, n_phi) for coefficients
        of shape (..., L+1, 2L+1) or their ``OrderRows``, and (..., n_t, 1)
        for a zonal column.

        Full-width coefficients are gathered into their order rows first,
        so a caller that synthesizes one stack on several transforms (the
        ring groups of ``mt_functional.SingularIntegrator``) gathers it once
        and hands each the rows.  Each order is one product per parity of
        its rows with its Pbar rows, so each table entry is read once per
        batch; the Fourier step runs field by field over the representative
        longitudes.
        """
        L = self.band_limit
        if coeffs.band_limit != L:
            raise BandLimitError(
                f"coefficients have L={coeffs.band_limit}, transform expects {L}"
            )
        n_t, n_phi = self.t.size, self.phi.size
        if isinstance(coeffs, SHCoefficients):
            v = coeffs.values
            if v.shape[-1] == 1:  # zonal: the m = 0 sums are the ring values
                batch = v.shape[:-2]
                v = v.reshape(-1, L + 1, 1)
                (_, even, odd), = self._legendre(1)[:1]
                rows = np.empty((v.shape[0], n_t))
                self._unfold(v[:, 0::2, 0] @ even, v[:, 1::2, 0] @ odd, rows)
                out = np.empty((v.shape[0], n_t, 1))
                out[:, self._order, 0] = rows
                return out.reshape(batch + (n_t, 1))
            coeffs = OrderRows.gather(coeffs)
        batch, k = coeffs.batch, coeffs.fields
        out = np.empty((k, n_t, n_phi))
        # a field's cos and sin rows, in table order, fill the start of its
        # own output slot when they fit (2 (L + 1) <= n_phi); its Fourier
        # step overwrites them
        if 2 * (L + 1) <= n_phi:
            rows = out.reshape(k, -1)[:, :2 * (L + 1) * n_t]
        else:
            rows = np.empty((k, 2 * (L + 1) * n_t))
        rows = rows.reshape(k, 2, L + 1, n_t)
        for m, ((start, even, odd), c) in enumerate(
                zip(self._legendre(L + 1, k), coeffs.blocks)):
            if start == self._reps:  # the order keeps no ring (a polar
                rows[:, :, m] = 0.0  # ring group's high orders)
                continue
            self._unfold(c[0::2].T @ even, c[1::2].T @ odd, rows[:, :, m],
                         start)
        # views of a streamed pass's last group: let its scratch go before
        # the Fourier step
        del even, odd
        for i in range(k):  # the Fourier step, field by field
            self._longitudes(rows[i], out[i])
        return out.reshape(batch + out.shape[1:])

    def _longitudes(self, rows: np.ndarray, out: np.ndarray):
        """One field's values (n_t, n_phi) into ``out`` from its cos and sin
        rows (2, L+1, n_t) in table order, which may lie in ``out``: every
        product is formed before the first write."""
        trig, pairs = self._trig(), self._phi_pairs
        cos, sin = (_turn_sums([rows[part, p].T @ trig[part, p]
                                for p in self._parities]) for part in (0, 1))
        for (ahead, behind), cj, sj in zip(self._images, cos, sin):
            for table, ring in self._runs:
                np.add(cj[table], sj[table], out=out[ring, ahead])
                np.subtract(cj[table, 1:pairs + 1], sj[table, 1:pairs + 1],
                            out=out[ring, behind])

    def integral(self, values: np.ndarray):
        """The rule on values (..., n_t, n_phi) or ring-constant (..., n_t,
        1): ring weights times ring means, summed with ``math.fsum`` field
        by field, a float or an array over a stack's batch axes; on the
        grid 1 integrates to exactly ``FOUR_PI``."""
        terms = self.ring_weights[:, 0] * np.mean(values, axis=-1)
        totals = [math.fsum(f) for f in terms.reshape(-1, self.t.size)]
        return totals[0] if terms.ndim == 1 else np.reshape(
            totals, terms.shape[:-1])

    def _fourier_sums(self, w: np.ndarray) -> np.ndarray:
        """f[field and ring, part, column]: the cos and sin sums of the
        weighted values w, shape (fields n_t, n_phi), folded onto the
        representative longitudes; a parity's orders m = p, p + turns, ...
        take consecutive columns.

        w is the pass's own array, so its views fold in place, and so do
        the image sums: a parity's representative columns a(j) take
        a(j) + a(-j) and its mirror columns a(j) - a(-j), field by field
        through a one-field scratch, for the cosine product; then the
        representative columns take the mirror columns for the sine
        product (its column j = 0 and, for even period, j = period / 2
        have no mirror and are the same in both)."""
        trig, pairs = self._trig(), self._phi_pairs
        ahead = _turn_sums([w[:, a] for a, _ in self._images])
        behind = _turn_sums([w[:, b] for _, b in self._images])
        f = np.empty((w.shape[0], 2, self.band_limit + 1))
        start = 0
        for p, cos, mirror in zip(self._parities, ahead, behind):
            mid = cos[:, 1:pairs + 1]
            for rows in range(0, w.shape[0], self.t.size):
                field = slice(rows, rows + self.t.size)
                diff = mid[field] - mirror[field]
                mid[field] += mirror[field]
                mirror[field] = diff
            columns = slice(start, start + trig[0, p].shape[0])
            np.matmul(cos, trig[0, p].T, out=f[:, 0, columns])
            mid[...] = mirror
            np.matmul(cos, trig[1, p].T, out=f[:, 1, columns])
            start = columns.stop
        return f

    def analysis_coeffs(self, values: np.ndarray) -> SHCoefficients:
        """<values, Y_{l,m}> under this node set's quadrature weights:
        shape (..., L+1, 2L+1) for values of shape (..., n_t, n_phi), and
        the m = 0 column (..., L+1, 1) for ring-constant (..., n_t, 1)."""
        if self.ring_weights is None:
            raise ValueError("transform was built without quadrature weights")
        L, n_t, n_phi = self.band_limit, self.t.size, values.shape[-1]
        if n_phi not in (1, self.phi.size):
            raise ValueError(f"values have {n_phi} longitudes, transform "
                             f"expects {self.phi.size} or 1")
        batch = values.shape[:-2]
        weights = self.ring_weights if n_phi == 1 else self.weights
        w = (weights * values).reshape(-1, n_phi)
        k, reps = w.shape[0] // n_t, self._reps
        if n_phi == 1:  # cos 0 phi = 1 on the one longitude
            (_, even, odd), = self._legendre(1)[:1]
            s, d = self._fold(w.reshape(k, n_t).T)
            out = np.empty((k, L + 1, 1))
            out[:, 0::2, 0] = (even @ s).T
            out[:, 1::2, 0] = (odd @ d).T
            return SHCoefficients(out.reshape(batch + (L + 1, 1)))
        f = self._fourier_sums(w)
        del w  # folded into f: let it go before the fold
        s, d = self._fold(f.reshape(k, n_t, 2, L + 1).transpose(1, 3, 0, 2))
        del f
        turns = len(self._images)
        c = np.zeros((L + 1, L + 1, 2 * k))
        for m, (start, even, odd) in enumerate(self._legendre(L + 1, k)):
            col = m // turns + m % turns * (L // turns + 1)
            kept = (reps - start, 2 * k)
            c[m::2, m] = even @ s[start:, col].reshape(kept)
            c[m + 1::2, m] = odd @ d[start:, col].reshape(kept)
        c = c.reshape(L + 1, L + 1, k, 2).transpose(2, 0, 1, 3)
        c[:, :, 1:] *= SQRT2
        out = np.empty((k, L + 1, 2 * L + 1))
        out[..., L:] = c[..., 0]
        out[..., :L] = c[:, :, :0:-1, 1]
        return SHCoefficients(out.reshape(batch + out.shape[1:]))


class SphereGrid:
    """Gauss-Legendre x uniform-longitude quadrature grid on S^2."""

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 2:
            raise ValueError(f"n_theta must be >= 2, got {n_theta}")
        if n_phi < 4:
            raise ValueError(f"n_phi must be >= 4, got {n_phi}")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.band_limit = min(n_theta - 1, (n_phi - 1) // 2)
        t, tw = gauss_jacobi(self.n_theta)
        self.t = t
        # steradian weight per latitude ring; math.fsum gives exactly FOUR_PI
        self.t_weights = _colatitude_weights(tw)
        self.transform = ProductTransform(self.band_limit, t, self.n_phi,
                                          self.t_weights)
        self.phi = self.transform.phi
        self._integrator_cache: OrderedDict = OrderedDict()  # see integrator_for

    # -- geometry -----------------------------------------------------------

    @property
    def nodes(self) -> np.ndarray:
        """Unit vectors per node, shape (n_theta, n_phi, 3)."""
        return ring_points(self.t, self.phi)

    def node_spacing(self) -> float:
        """Typical colatitude spacing, pi / n_theta."""
        return np.pi / self.n_theta

    def __repr__(self) -> str:
        return (f"SphereGrid(n_theta={self.n_theta}, n_phi={self.n_phi}, "
                f"L={self.band_limit})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_grid(n_theta: int, n_phi: int) -> SphereGrid:
    return SphereGrid(n_theta, n_phi)


def random_band_limited_batch(grid: SphereGrid, rng, count: int, l_max=None,
                              decay=2.0) -> SHCoefficients:
    """Coefficients of ``count`` seeded random fields, a stack of shape
    (count, L+1, 2L+1) at the grid's band limit L, as drawn: unscaled.

    A field's coefficients ~ N(0, (1+l)^(-2 decay)) for degrees 1..l_max
    (default the grid's band limit) are one draw of (l_max + 1)^2 - 1
    standard normals, in order of degree and then of m.  The fields are
    drawn one after another, in one call, so the stream does not depend on
    how the samples are split into stacks.  Callers scale each field by its
    coefficients (``mt_functional.sample_gaps``: to an RMS over the sphere).
    """
    G = grid.band_limit
    L = G if l_max is None else l_max
    if L > G:
        raise BandLimitError(f"l_max={L} exceeds the grid band limit {G}")
    coeffs = np.zeros((count, G + 1, 2 * G + 1))
    normals = rng.standard_normal((count, (L + 1) ** 2 - 1))
    for l in range(1, L + 1):  # degree l's 2l + 1 normals, m = -l..l
        np.divide(normals[:, l * l - 1:(l + 1) ** 2 - 1], (1.0 + l) ** decay,
                  out=coeffs[:, l, G - l:G + l + 1])
    return SHCoefficients(coeffs)


def dirichlet_energy(c: SHCoefficients):
    """int |grad u|^2 = sum_{l,m} l(l+1) a_{l,m}^2 for band-limited u (an
    array over the batch axes for a stack, summed field by field, so a stack
    takes the scratch of one field)."""
    lw = _degree_weights(c.band_limit)[:, None]
    fields = c.values.reshape(-1, *c.values.shape[-2:])
    energy = np.reshape([(lw * f**2).sum() for f in fields],
                        c.values.shape[:-2])
    return float(energy) if energy.ndim == 0 else energy


def dirichlet_pairing(a: SHCoefficients, b: SHCoefficients) -> float:
    """int grad u . grad v in spectral form."""
    if a.band_limit != b.band_limit:
        raise BandLimitError("band limits differ")
    if a.values.shape[-1] != b.values.shape[-1]:  # a zonal column
        a, b = a.widened(), b.widened()
    lw = _degree_weights(a.band_limit)
    return float(np.sum(lw[:, None] * a.values * b.values))


def phi_derivative(c: SHCoefficients) -> SHCoefficients:
    """Coefficients of du/dphi: a_{l,m} -> m a_{l,-m} (cos <-> sin columns
    swap, scaled by m); zero for a zonal column."""
    m = np.arange(c.values.shape[-1]) - c._m0
    return SHCoefficients(m * c.values[..., ::-1])


# ---------------------------------------------------------------------------
# point evaluation away from the grid
# ---------------------------------------------------------------------------

def synthesis_at_points(c: SHCoefficients, points: np.ndarray) -> np.ndarray:
    """Evaluate a band-limited field at arbitrary unit vectors.

    Streams the Legendre recurrence in groups of orders over groups of
    points (``synthesis_at_angles``), so no table over all orders is
    stored: a group's blocks take at most LEGENDRE_BYTES.  A zonal column
    needs the m = 0 block alone.  Exact for band-limited fields.  Accepts
    any leading shape (..., 3).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.clip(pts[..., 2], -1.0, 1.0)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return synthesis_at_angles(c, t, phi)


def axis_values(c: SHCoefficients):
    """(u(+e3), u(-e3)) from the m = 0 column alone: every order m != 0
    vanishes on the axis, and Pbar_{l,0}(+-1) = (+-1)^l sqrt((2l + 1) /
    4 pi), so each pole is one weighted sum and no recurrence runs.  Floats
    for one field, arrays over a stack's batch axes."""
    l = np.arange(c.band_limit + 1)
    north = np.sqrt((2.0 * l + 1.0) / FOUR_PI)
    a = c.order(0)
    poles = a @ north, a @ np.where(l % 2, -north, north)
    return tuple(map(float, poles)) if a.ndim == 1 else poles


def synthesis_at_angles(c: SHCoefficients, t: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """Values at (cos colatitude t, longitude phi); a stack of K fields
    gives its batch axes first.  The points go in groups of at most
    max(1, LEGENDRE_BYTES // (8 (L + 8 + 3 K))), so that one order of the
    recurrence (counted at L + 4 rows a point: its L + 1 degree rows and
    one work row, see LEGENDRE_BYTES) and 4 + 3 K work vectors a point (the
    seeds, cos/sin and the products) fit the budget; numpy's own buffers,
    about 0.1 MB whatever the group, come on top.  The blocks are strided
    views of the group's degree-major scratch, multiplied as they are."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    flat, phi = t.ravel(), np.ravel(phi)
    cv, m0 = c.values, c._m0  # a zonal column holds the m = 0 block alone
    out = np.zeros(cv.shape[:-2] + (t.size,))
    work = 4 + 3 * math.prod(cv.shape[:-2])
    size = max(1, LEGENDRE_BYTES // (8 * (c.band_limit + 4 + work)))
    for s in range(0, t.size, size):
        o, ph = out[..., s:s + size], phi[s:s + size]
        for group in _legendre_groups(c.band_limit, flat[s:s + size], m0, 0.0,
                                      work):
            for m, block in group:
                if m == 0:
                    o += cv[..., m0] @ block
                else:
                    o += np.sqrt(2.0) * (
                        (cv[..., m:, m0 + m] @ block) * np.cos(m * ph)
                        + (cv[..., m:, m0 - m] @ block) * np.sin(m * ph))
        # views of this group of points' scratch: let it go before the next
        del group, block
    return out.reshape(cv.shape[:-2] + t.shape)


def gradient_magnitude(c: SHCoefficients, synthesis, t: np.ndarray,
                       values: bool = False):
    """|grad u| at nodes with cos theta = t, from their synthesizer S,
    which takes a stack of coefficients (batch axis first); with
    ``values``, (u, |grad u|) from the same pass.

    Exact: d/dphi is spectral, and sin theta dPbar_{l,m}/dtheta =
    l t Pbar_{l,m} - N_{l,m} Pbar_{l-1,m} with N_{l,m}^2 = (2l+1)(l^2-m^2)/(2l-1)
    gives sin theta du/dtheta = t S[l a_{l,m}] - S[N_{l+1,m} a_{l+1,m}].
    The three coefficient sets, after u's own, are synthesized as one
    stack, in one pass; for a zonal column as m = 0 columns.
    """
    l = np.arange(c.band_limit + 1, dtype=float)[:, None]
    m = np.arange(c.values.shape[-1]) - c._m0
    parts = np.zeros((3 + values,) + c.values.shape)
    if values:
        parts[0] = c.values
    parts[-3] = l * c.values
    parts[-2, :-1] = np.sqrt((2.0 * l[1:] + 1.0) / (2.0 * l[1:] - 1.0)
                             * np.maximum(l[1:] ** 2 - m * m, 0.0)) * c.values[1:]
    parts[-1] = phi_derivative(c).values
    *u, by_degree, lowered, dphi = synthesis(SHCoefficients(parts))
    sin2 = np.maximum(1.0 - t * t, 1.0e-300)
    grad = np.sqrt(((t * by_degree - lowered) ** 2 + dphi**2) / sin2)
    # u copied out of the stack, which then dies with the three sets
    return (u[0].copy(), grad) if values else grad


def gradient_at_angles(c: SHCoefficients, t: np.ndarray,
                       phi: np.ndarray) -> np.ndarray:
    """|grad u| at arbitrary points (t = cos colatitude, longitude phi)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return gradient_magnitude(
        c, lambda x: synthesis_at_angles(x, t, phi), t)
