"""Discretization of the unit sphere S^2.

The grid is a tensor product of Gauss-Legendre nodes in t = cos(theta) and
uniformly spaced longitudes.  This combination integrates every spherical
harmonic of degree <= 2L exactly (L the band limit), and none of the nodes
sit on the poles, which is where singular weights will be placed later.

A band-limited function -- a field, or the smooth factor K of a weight --
is one ``SHCoefficients``: real spherical-harmonic coefficients a_{l,m},
0 <= l <= L, -l <= m <= l, stored in the order rows that every pass reads
(see ``SHCoefficients``).  Values on the (n_theta, n_phi) nodes, or one
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

Zonal data is one column of values and one part of coefficients, the
first block of the order rows: the one order loop of each direction of a
``ProductTransform`` reads it as its one-order, one-part case.  Values
of shape (..., n_t, 1) are a ring-constant field, analysed on the m = 0
Legendre block alone, one longitude carrying each ring's whole weight
(so no Fourier step), into the m = 0 block's one part, coefficients of
shape (L+1, ..., 1).  Such coefficients synthesize back to one column
of values.  Every consumer picks its path from the last axis; a zonal
field meets full-width coefficients only through
``SHCoefficients.widened``, never through broadcasting, which would add
it to every order.  A zonal pass is one matrix product per parity of
l - m over the representative rings, O(L n_t), against O(L^2 n_t + L n_t
n_phi) over all orders and the Fourier step.  A transform keeps its
cos/sin table from its first pass over every order.  Whether a pass
keeps a Legendre table or streams it from the recurrence is one rule,
stated at ``ProductTransform._legendre``: a zonal pass and a full-width
pass over one field keep, a full-width stack (of one field too) streams.

Coefficients carry a stack's batch axes between the rows and the parts,
shape (rows, ..., parts), and values carry them first, (..., n_t, n_phi).
A stack of K fields is transformed with one (2K x (L+1-m)/2) by
((L+1-m)/2 x kept rings) matrix product per order and parity of l - m,
each order's rows a free (L+1-m, 2K) view of the coefficients, so the K
fields share one pass over each Pbar block instead of reading it K times;
one field gives bit for bit the results of a stack of one.  A caller that needs a reduction of the values alone need not hold them:
``ProductTransform.ring_groups`` splits the rings into mirror-closed
groups, each a transform of its own, and a stack synthesized one group at
a time holds one group's values
(``mt_functional.SingularIntegrator.log_exp_integral``, whose stacks of
independent samples ``mt_functional.sample_gaps`` sizes by what the draw
and such a log integral hold).
"""

from __future__ import annotations

import functools
import math
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


def _orthonormal_frame(p: np.ndarray) -> np.ndarray:
    """The rotation R with R p = e3: rows e1, e2, p, chosen from p."""
    helper = np.eye(3)[np.argmin(np.abs(p))]
    e1 = np.cross(helper, p)
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(p, e1), p])


def on_axis(p) -> bool:
    """True when the unit vector p is +-e3 exactly: a field radial about p
    is then one column of values, bit for bit.  The one axis rule: the
    integrator and the axis identity take such points alone
    (``singular_geometry.axis_frame`` rotates a weight there)."""
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
    of the grid and the band; a cap of order alpha takes b = 2 alpha + 1
    (``mt_functional.cap_rings``).

    ``_jacobi_polish`` polishes estimates of the nodes on the orthonormal
    recurrence off[k+1] p_{k+1} = (x - diag[k]) p_k - off[k] p_{k-1} and
    weighs each from the end it is nearer to (x -> -x takes the weight to
    (1 - x)^b).  For b = 0 the estimates are Tricomi's asymptotic nodes
    (Tricomi, Ann. Mat. Pura Appl. 31, 1950), three polishing steps take
    them to the roots, and the nodes x >= 0 are mirrored, so mirror rings
    pair: O(n^2), with no matrix.  For b != 0 they are the eigenvalues of
    the recurrence's Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969),
    one dense n x n array, polished once: at most an integrator cap's 512
    nodes at L = 4096, as a cap mass takes it on its first panel of 32
    alone.  On 80-bit longdouble (x86) the Gauss-Legendre weights lie
    within 1.3e-16 relative of a 30-digit reference at n = 32, 129 and 257
    and within 5.8e-16 at n = 1025 (``leggauss``: 5.8e-14, 1.3e-11 and
    1.5e-10 at the first three).  Every grid, band and cap of a given size
    reads the same arrays, computed once per (n, b) (for the 64 used
    last), shared and read-only.
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


# Bytes of one group of orders of the Legendre recurrence
# (``_legendre_groups``), for tables, streamed passes and point syntheses
# alike: a group over n rings takes max(1, LEGENDRE_BYTES // (8 ((L + 4) n
# + 5 (L + 1)))) orders, counted at L + 4 rows an order (Schaeffer, G^3 14,
# 2013 sizes his on-the-fly recurrence the same way): the L + 1 degree rows
# of its in-place scratch and one work row, two rows to spare, and 5 (L + 1)
# floats more for the recurrence's coefficients (``_legendre_group``: a, b,
# one temporary and two of numpy's broadcast buffers), so its work stays
# within max(LEGENDRE_BYTES, one order); a point synthesis counts its other
# work vectors too (``synthesis_at_angles``).  The L = 256 two-cap block (354
# representative rings) takes 11 orders, 8.0 MB.  Streaming the recurrence
# over its rings, trimmed, in groups of 4, 8, 11, 16, 24, 34, 48 and 64
# orders took 82, 61, 61, 49, 53, 52, 52 and 56 ms at best of 11 (one BLAS
# thread, shared 2-core x86 VM): smaller groups pay more numpy calls per
# degree, larger ones compute more of the dropped rings and hold more
# memory (24.7 MB at 34 orders).  A full-width L = 4096 grid pass takes
# one order (67 MB) a group.
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
    # rounded division and sqrt; at most five (L + 1) x k arrays are alive
    # at once, numpy's broadcast buffers among them (see LEGENDRE_BYTES)
    ll, mm = np.arange(L + 1.0)[:, None], np.arange(m0, m0 + k)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = ll * ll - mm * mm
        a = np.sqrt((4.0 * ll * ll - 1.0) / d)
        b = (ll - 1.0) ** 2 - mm * mm
        b *= 2.0 * ll + 1.0
        d *= 2.0 * ll - 3.0
        b = -np.sqrt(b / d)
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

    Over n rings a group of k = max(1, (LEGENDRE_BYTES // 8 - work n) //
    ((L + 4) n + 5 (L + 1))) orders (see LEGENDRE_BYTES) is computed in
    place by ``_legendre_group`` on the rings its previous order kept,
    degree-major into one (L + 1, k, n) scratch array that every group
    reuses: order m0 + i's block is the strided view packed[m0 + i:, i],
    which the next group overwrites, so a caller uses a group before it
    asks for the next, or copies it.  A
    caller that holds ``work`` vectors a ring beside a group has them
    counted in its budget.  Once an order keeps no ring, every later group
    is empty blocks, shape (L + 1 - m, 0), and runs no recurrence.
    """
    t = np.asarray(t, dtype=float).ravel()
    sq = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pmm = np.full_like(t, 1.0 / np.sqrt(FOUR_PI))
    n = t.size
    m_max = L if m_max is None else m_max
    group = min(m_max + 1, max(1, (LEGENDRE_BYTES // 8 - work * n)
                               // ((L + 4) * n + 5 * (L + 1))))
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


def _block_start(band_limit: int, m: int) -> int:
    """First row of order m's block: sum_{j < m} (L + 1 - j)."""
    return m * (2 * band_limit + 3 - m) // 2


@functools.lru_cache(maxsize=16)
def _row_orders(band_limit: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """(l, m) of each row of coefficients with ``parts`` parts, read-only."""
    L = band_limit
    m = (np.zeros(L + 1, dtype=int) if parts == 1 else
         np.repeat(np.arange(L + 1), np.arange(L + 1, 0, -1)))
    l = np.arange(m.size) - _block_start(L, m) + m
    for v in (l, m):
        v.flags.writeable = False
    return l, m


@dataclass
class SHCoefficients:
    """Real spherical-harmonic coefficients a_{l,m}, in the order rows that
    every pass reads (Schaeffer, G^3 14, 2013).

    ``values`` has shape (R, ..., 2), R = (L+1)(L+2)/2: block m, rows
    ``_block_start(L, m)`` on, holds degrees l = m..L, with parts a_{l,m}
    and a_{l,-m}; the sine part of m = 0 is zero.  Zonal coefficients are
    the m = 0 block with one part, shape (L+1, ..., 1).  The shape is the
    rule; one part is never scanned for zeros and never broadcast against
    every order (``widened``).  Axes between the rows and the parts hold a
    stack of fields that the transforms handle in one pass, so each block
    is a free (L+1-m, 2K) view for K fields.  Callers outside this module
    read and write a_{l,m} through ``order`` and each row's (l, m) through
    ``rows``.
    """

    values: np.ndarray

    def __post_init__(self):
        rows, parts = self.values.shape[0], self.values.shape[-1]
        if parts not in (1, 2) or parts == 2 and rows != _block_start(
                self.band_limit, self.band_limit + 1):
            raise ValueError(f"coefficients of shape {self.values.shape} "
                             "are not order rows (R, ..., 2) or (L+1, ..., 1)")

    @property
    def band_limit(self) -> int:
        rows = self.values.shape[0]
        if self.values.shape[-1] == 1:
            return rows - 1
        return (math.isqrt(8 * rows + 1) - 3) // 2

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(l, m) of each row, integers of shape (R, 1, ..., 1) that
        broadcast against ``values``."""
        shape = (-1,) + (1,) * (self.values.ndim - 1)
        return tuple(v.reshape(shape) for v in _row_orders(
            self.band_limit, self.values.shape[-1]))

    def copy(self) -> "SHCoefficients":
        return SHCoefficients(self.values.copy())

    @classmethod
    def zeros(cls, band_limit: int) -> "SHCoefficients":
        return cls(np.zeros((_block_start(band_limit, band_limit + 1), 2)))

    def order(self, m: int) -> np.ndarray:
        """a_{l,m} for l = |m|..L, a writable view of block |m|'s part;
        zonal coefficients hold order 0 alone."""
        L, v = self.band_limit, self.values
        if abs(m) > (L if v.shape[-1] > 1 else 0):
            raise IndexError(f"order {m} is not held by coefficients of "
                             f"{v.shape[-1]} part(s)")
        start = _block_start(L, abs(m))
        return v[start:start + L + 1 - abs(m), ..., int(m < 0)]

    def widened(self) -> "SHCoefficients":
        """These coefficients over every order, shape (R, ..., 2), zero
        where zonal ones hold no entry: one part meets full-width
        coefficients only through this.  Returns self when full-width."""
        if self.values.shape[-1] == 2:
            return self
        out = np.zeros((_block_start(self.band_limit, self.band_limit + 1),)
                       + self.values.shape[1:-1] + (2,))
        out[:self.values.shape[0], ..., :1] = self.values
        return SHCoefficients(out)

    @property
    def mean(self):
        """Mean of the synthesized field: a_{0,0} / sqrt(4 pi), a float (an
        array over the batch axes for a stack)."""
        mean = self.values[0, ..., 0] / np.sqrt(FOUR_PI)
        return float(mean) if mean.ndim == 0 else mean

    def shifted(self, constant: float) -> "SHCoefficients":
        out = self.copy()
        out.values[0, ..., 0] += constant * np.sqrt(FOUR_PI)
        return out


def _ring_order(t: np.ndarray) -> tuple[np.ndarray, slice, int]:
    """Rings of a paired transform in table order: (order, paired, reps).

    ``order`` lists the ``reps`` representative rings the table spans,
    then the mirror of each paired one in turn: the one map of every pass
    between table order and ring order.  A pair is a t > 0 ring and the
    ring at exactly -t (to the bit); the rest are solo.  The
    representatives are polar-first, so that the rings an order keeps
    (``normalized_legendre``) are a suffix: one segment per cap, the solo
    rings of t > 0 and of t < 0, each from its pole outward, the segment
    nearer its pole first; then the t > 0 rings of the pairs,
    ``order[paired]``, from the pole to the equator; then the solo rings
    at t = 0.  Interleaving the caps would trim more, but an analysis sums
    the rings in table order, and results would move at rounding level.
    """
    unmatched = {-t[j]: j for j in np.flatnonzero(t < 0.0)}
    reps, mirrors = [], []
    for i in np.flatnonzero(t > 0.0):
        j = unmatched.pop(t[i], None)
        if j is not None:
            reps.append(i)
            mirrors.append(j)
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
    at o - j.  The images are written straight into ring order
    (``_order``).  Analysis folds the weighted values onto the
    representatives by the same images (the adjoint) before one product
    per trig part and parity.  Each Fourier product is a quarter of the
    all-longitude one (half for odd n_phi).

    One-part coefficients and one-column values are zonal (see the module
    docstring): the one order loop of each direction runs over the m = 0
    block alone, so coefficients of shape (L+1, ..., 1) synthesize to
    values of shape (..., n_t, 1), and such values analyse to such
    coefficients.  Which passes keep a Legendre table and which stream it
    is the one rule of ``_legendre``.
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

    def _legendre(self, orders: int, keep: bool = True):
        """(s, even, odd) per order 0..orders - 1, exactly ``orders``
        entries, kept or streamed: the first representative ring s the
        order keeps (0 for m = 0) and the rows of l - m even and odd of its
        Pbar block over the kept rings.  A zonal pass asks for the one
        m = 0 block, the first block of every table, and a full-width pass
        for all L + 1.

        The one keep rule.  A zonal pass, and a full-width pass over one
        field (coefficients or values with no batch axis), ``keep``: they
        build the table on their first need and keep it, the m = 0 block
        for a zonal pass, the table of every order for a full-width one,
        which the solver's many one-field passes then read (one field on
        the two-cap block streamed in 86 ms against 19 ms on the kept table
        at L = 256, 16 against 4.4 ms at L = 128; best of 7, one BLAS
        thread, shared 2-core x86 VM).  Every full-width pass over a stack,
        a stack of one too, which is all that a ring group reads, reads a
        kept table if there is one and otherwise streams its blocks from
        the recurrence, one group of ``_legendre_groups`` at a time
        (Schaeffer, G^3 14, 2013 and Reinecke & Seljebotn, A&A 554, 2013
        run the recurrence inside every pass), and keeps nothing.
        A streamed block is a strided view of its group's degree-major
        scratch, and so are its even and odd rows; BLAS reads them as they
        are.
        """
        if len(self._plm) >= orders:
            return self._plm[:orders]
        t = self.t[self._order[:self._reps]]
        L = self.band_limit
        if not keep:
            return ((t.size - block.shape[1], block[0::2], block[1::2])
                    for group in _legendre_groups(L, t, orders - 1,
                                                  LEGENDRE_FLOOR)
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
        transform, over those rings and their weights, reads this one's
        cos/sin table and, handed a stack, streams its Legendre blocks
        (``_legendre``).  One group is this transform."""
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
            group._fourier = self._trig()
            groups.append((rings, group))
        return groups

    def _trig(self) -> np.ndarray:
        """The longitude factors of the real harmonics, cos m phi and sin m
        phi times sqrt 2 for m > 0, over the representative longitudes,
        shape (2, L+1, period // 2 + 1): every pass applies the sqrt 2 of
        the m > 0 harmonics here, to no stored coefficient.  The angle m
        phi_j is reduced modulo 2 pi in integers, 2 pi ((m j) mod n) / n, so
        every entry comes from an angle in [0, 2 pi) rounded once (the
        float product m * phi_j is off by about m ulps of phi_j).  Built on
        the first pass over every order and kept."""
        if self._fourier is None:
            n = self.phi.size
            m = np.arange(self.band_limit + 1)[:, None]
            angle = 2.0 * np.pi * (m * np.arange(self._phi_reps) % n) / n
            self._fourier = np.stack([np.cos(angle), np.sin(angle)])
            self._fourier[:, 1:] *= SQRT2
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
        mirrors, gathered through ``_order``, are one more copy of f's
        paired rows beside S and D."""
        reps, paired = self._reps, self._paired
        # odd in the index's layout, even C-ordered, as when both were cut
        # from one ring-order copy of f: the products that read them round
        # the same
        odd = f[self._order[:reps]]
        even = odd.copy()
        mirrors = f[self._order[reps:]]
        even[paired] += mirrors
        odd[paired] -= mirrors
        return even, odd

    def synthesis_values(self, coeffs: SHCoefficients) -> np.ndarray:
        """Values on the node set, shape (..., n_t, n_phi) for full-width
        coefficients of shape (R, ..., 2), and (..., n_t, 1) for zonal
        ones, (L+1, ..., 1).

        Each order is one product per parity of its rows, a view of the
        coefficients, with its Pbar rows, so each table entry is read once
        per batch; zonal coefficients are the one order m = 0 of one part.
        The Fourier step runs field by field over the representative
        longitudes; a zonal field's m = 0 sums are its ring values.
        """
        L = self.band_limit
        if coeffs.band_limit != L:
            raise BandLimitError(
                f"coefficients have L={coeffs.band_limit}, transform expects {L}"
            )
        n_t, n_phi = self.t.size, self.phi.size
        v = coeffs.values
        batch, parts = v.shape[1:-1], v.shape[-1]
        k, blocks = math.prod(batch), L + 1 if parts == 2 else 1
        coeffs = v.reshape(v.shape[0], parts * k)
        out = np.empty((k, n_t, n_phi if parts == 2 else 1))
        # a field's cos and sin rows, in table order, fill the start of its
        # own output slot when they fit (2 (L + 1) <= n_phi); its Fourier
        # step overwrites them.  Zonal rows take a buffer of their own, as
        # the scatter into ring order reads them in another order
        if parts == 2 and 2 * (L + 1) <= n_phi:
            rows = out.reshape(k, -1)[:, :2 * (L + 1) * n_t]
        else:
            rows = np.empty((k, parts * blocks * n_t))
        rows = rows.reshape(k, parts, blocks, n_t)
        orders = 0  # with a ring; no order starts sooner than the last
        for start, even, odd in self._legendre(blocks,
                                               parts == 1 or not batch):
            if start == self._reps:  # no ring, nor at any later order (a
                break                # polar ring group's high orders)
            c = coeffs[_block_start(L, orders):_block_start(L, orders + 1)]
            self._unfold(c[0::2].T @ even, c[1::2].T @ odd,
                         rows[:, :, orders], start)
            orders += 1
        # views of a streamed pass's last group: let its scratch go before
        # the Fourier step
        del even, odd
        if parts == 1:  # zonal: the m = 0 sums are the ring values
            out[:, self._order, 0] = rows[:, 0, 0]
        else:
            for i in range(k):  # the Fourier step, field by field
                self._longitudes(rows[i, :, :orders], out[i])
        return out.reshape(batch + out.shape[1:])

    def _longitudes(self, rows: np.ndarray, out: np.ndarray):
        """One field's values (n_t, n_phi) into ``out`` from the cos and sin
        rows (2, orders, n_t) of its live orders in table order, which may
        lie in ``out``: every product is formed before the first write."""
        trig, pairs = self._trig()[:, :rows.shape[1]], self._phi_pairs
        cos, sin = (_turn_sums([rows[part, p].T @ trig[part, p]
                                for p in self._parities]) for part in (0, 1))
        for (ahead, behind), cj, sj in zip(self._images, cos, sin):
            out[self._order, ahead] = cj + sj
            out[self._order, behind] = cj[:, 1:pairs + 1] - sj[:, 1:pairs + 1]

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
        shape (R, ..., 2) for values of shape (..., n_t, n_phi), and the
        m = 0 block's one part (L+1, ..., 1) for ring-constant (..., n_t,
        1)."""
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
        parts, orders = (1, 1) if n_phi == 1 else (2, L + 1)
        # zonal: cos 0 phi = 1 on the one longitude, so w is its own sums
        f = w.reshape(-1, 1, 1) if n_phi == 1 else self._fourier_sums(w)
        del w  # folded into f: let it go before the fold
        s, d = self._fold(
            f.reshape(k, n_t, parts, orders).transpose(1, 3, 0, 2))
        del f
        turns = len(self._images)
        out = np.empty((_block_start(L, orders), parts * k))
        for m, (start, even, odd) in enumerate(
                self._legendre(orders, parts == 1 or not batch)):
            col = m // turns + m % turns * (L // turns + 1)
            kept = (reps - start, parts * k)
            c = out[_block_start(L, m):_block_start(L, m + 1)]
            c[0::2] = even @ s[start:, col].reshape(kept)
            c[1::2] = odd @ d[start:, col].reshape(kept)
        out = out.reshape((out.shape[0],) + batch + (parts,))
        out[:L + 1, ..., 1:] = 0.0  # m = 0 has no sine part
        return SHCoefficients(out)


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
        self._integrator = None  # (weight key, integrator); see integrator_for

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


@functools.lru_cache(maxsize=8)
def _draw_rows(band_limit: int, l_max: int, decay: float):
    """(row, part, divisor) of each normal of a draw: degree l's 2l + 1
    normals, m = -l..l, go to row (l, |m|) in the part of the sign of m,
    divided by (1 + l)^decay; built once per (L, l_max, decay),
    read-only."""
    l = np.repeat(np.arange(1, l_max + 1), 2 * np.arange(1, l_max + 1) + 1)
    m = np.arange(l.size) - l * (l + 1) + 1
    scale = np.array([(1.0 + d) ** decay for d in range(l_max + 1)])
    out = (_block_start(band_limit, abs(m)) + l - abs(m),
           (m < 0).astype(np.intp), scale[l])
    for v in out:
        v.flags.writeable = False
    return out


def random_band_limited_batch(grid: SphereGrid, rng, count: int, l_max=None,
                              decay=2.0) -> SHCoefficients:
    """Coefficients of ``count`` seeded random fields, a stack of shape
    (R, count, 2) at the grid's band limit L, as drawn: unscaled.

    A field's coefficients ~ N(0, (1+l)^(-2 decay)) for degrees 1..l_max
    (default the grid's band limit) are one draw of (l_max + 1)^2 - 1
    standard normals, in order of degree and then of m.  The fields are
    drawn one after another, in one call, so the stream does not depend on
    how the samples are split into stacks.  The normals are scaled in
    place and written straight into their rows (``_draw_rows``).  Callers
    scale each field by its coefficients (``mt_functional.sample_gaps``:
    to an RMS over the sphere).
    """
    G = grid.band_limit
    L = G if l_max is None else l_max
    if L > G:
        raise BandLimitError(f"l_max={L} exceeds the grid band limit {G}")
    row, part, divisor = _draw_rows(G, L, decay)
    normals = rng.standard_normal((count, (L + 1) ** 2 - 1))
    normals /= divisor
    coeffs = np.zeros((_block_start(G, G + 1), count, 2))
    coeffs[row, :, part] = normals.T
    return SHCoefficients(coeffs)


def dirichlet_energy(c: SHCoefficients):
    """int |grad u|^2 = sum_{l,m} l(l+1) a_{l,m}^2 for band-limited u (an
    array over the batch axes for a stack, summed field by field, so a stack
    takes the scratch of one field)."""
    l = c.rows[0].ravel()
    v = c.values
    lw = np.repeat(l * (l + 1.0), v.shape[-1])  # a field's entries, flat
    fields = v.reshape(v.shape[0], -1, v.shape[-1])
    energy = np.reshape([(lw * np.square(fields[:, i]).ravel()).sum()
                         for i in range(fields.shape[1])], v.shape[1:-1])
    return float(energy) if energy.ndim == 0 else energy


def phi_derivative(c: SHCoefficients) -> SHCoefficients:
    """Coefficients of du/dphi: a_{l,m} -> m a_{l,-m} and a_{l,-m} -> -m
    a_{l,m} (the parts swap, scaled by m); zero for zonal coefficients."""
    _, m = c.rows
    return SHCoefficients(c.values[..., ::-1] * np.where(
        np.arange(c.values.shape[-1]) == 0, m, -m))


# ---------------------------------------------------------------------------
# point evaluation away from the grid
# ---------------------------------------------------------------------------

def synthesis_at_points(c: SHCoefficients, points: np.ndarray) -> np.ndarray:
    """Evaluate a band-limited field at arbitrary unit vectors.

    Streams the Legendre recurrence in groups of orders over groups of
    points (``synthesis_at_angles``), so no table over all orders is
    stored: a group's blocks take at most LEGENDRE_BYTES.  Zonal
    coefficients need the m = 0 block alone.  Exact for band-limited
    fields.  Accepts any leading shape (..., 3).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.clip(pts[..., 2], -1.0, 1.0)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return synthesis_at_angles(c, t, phi)


def rotated(c: SHCoefficients, frame: np.ndarray) -> SHCoefficients:
    """u(x @ frame) over every order, u turned into p's frame for ``frame``
    = ``_orthonormal_frame(p)``: exact, as a rotation keeps the degree, by
    synthesis at the turned nodes of a Gauss grid at u's band limit and
    analysis there.  A constant is returned as it is."""
    if c.band_limit == 0:
        return c
    grid = build_grid(c.band_limit + 1, 2 * c.band_limit + 2)
    return grid.transform.analysis_coeffs(
        synthesis_at_points(c, grid.nodes @ frame))


def axis_values(c: SHCoefficients):
    """(u(+e3), u(-e3)) from the m = 0 coefficients alone: every order
    m != 0 vanishes on the axis, and Pbar_{l,0}(+-1) = (+-1)^l sqrt((2l +
    1) / 4 pi), so each pole is one weighted sum and no recurrence runs.
    Floats for one field, arrays over a stack's batch axes."""
    l = np.arange(c.band_limit + 1)
    north = np.sqrt((2.0 * l + 1.0) / FOUR_PI)
    a = np.moveaxis(c.order(0), 0, -1)
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
    L, batch = c.band_limit, c.values.shape[1:-1]
    # field by field, (K, R, parts); zonal coefficients hold m = 0 alone
    cv = np.moveaxis(c.values.reshape(c.values.shape[0], -1,
                                      c.values.shape[-1]), 1, 0)
    out = np.zeros((cv.shape[0], t.size))
    work = 4 + 3 * cv.shape[0]
    size = max(1, LEGENDRE_BYTES // (8 * (L + 4 + work)))
    for s in range(0, t.size, size):
        o, ph = out[:, s:s + size], phi[s:s + size]
        for group in _legendre_groups(L, flat[s:s + size],
                                      L if cv.shape[-1] > 1 else 0, 0.0,
                                      work):
            for m, block in group:
                a = cv[:, _block_start(L, m):_block_start(L, m + 1)]
                if m == 0:
                    o += a[..., 0] @ block
                else:
                    o += np.sqrt(2.0) * (
                        (a[..., 0] @ block) * np.cos(m * ph)
                        + (a[..., 1] @ block) * np.sin(m * ph))
        # views of this group of points' scratch: let it go before the next
        del group, block
    return out.reshape(batch + t.shape)


def gradient_at_angles(c: SHCoefficients, t: np.ndarray,
                       phi: np.ndarray) -> np.ndarray:
    """|grad u| at arbitrary points (t = cos colatitude, longitude phi).

    Exact: d/dphi is spectral, and sin theta dPbar_{l,m}/dtheta =
    l t Pbar_{l,m} - N_{l,m} Pbar_{l-1,m} with N_{l,m}^2 = (2l+1)(l^2-m^2)/(2l-1)
    gives sin theta du/dtheta = t S[l a_{l,m}] - S[N_{l+1,m} a_{l+1,m}].
    The three coefficient sets are synthesized as one stack, in one pass;
    for zonal coefficients as zonal ones.  The formula divides by
    sin^2 theta = 1 - t^2: a pole, the coordinate singularity of (theta,
    phi), raises ValueError, and every other float t gives at least 2^-52.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("gradient_at_angles takes |t| < 1: a pole is the "
                         "coordinate singularity of its formula")
    l, m = c.rows
    lifted = l + 1.0  # a_{l+1,m} goes to row (l, m), of the same block
    parts = np.zeros(c.values.shape[:1] + (3,) + c.values.shape[1:])
    parts[:, 0] = l * c.values
    parts[:-1, 1] = (np.sqrt((2.0 * lifted + 1.0) / (2.0 * lifted - 1.0)
                             * (lifted ** 2 - m * m))
                     * (l < c.band_limit))[:-1] * c.values[1:]
    parts[:, 2] = phi_derivative(c).values
    by_degree, lowered, dphi = synthesis_at_angles(SHCoefficients(parts),
                                                   t, phi)
    return np.sqrt(((t * by_degree - lowered) ** 2 + dphi**2) / (1.0 - t * t))
