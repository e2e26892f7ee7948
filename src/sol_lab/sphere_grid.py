"""Discretization of the unit sphere S^2.

The grid is a tensor product of Gauss-Legendre nodes in t = cos(theta) and
uniformly spaced longitudes.  This combination integrates every spherical
harmonic of degree <= 2L exactly (L the band limit), and none of the nodes
sit on the poles, which is where singular weights will be placed later.

Fields live in two equivalent representations:

* ``ScalarField``   -- values on the (n_theta, n_phi) node array;
* ``SHCoefficients``-- real spherical-harmonic coefficients a_{l,m},
                       0 <= l <= L, -l <= m <= l.

The real harmonic convention is orthonormal on the sphere:

    Y_{l,0}  = Pbar_{l,0}(cos theta)
    Y_{l,m}  = sqrt(2) * Pbar_{l,m}(cos theta) * cos(m phi)   (m > 0)
    Y_{l,-m} = sqrt(2) * Pbar_{l,m}(cos theta) * sin(m phi)   (m > 0)

where Pbar includes the full normalization (Pbar_{0,0} = 1/sqrt(4 pi)).
Transforms are dense per-order matrix products, O(L^3) overall, which is
fine at desk scale (L <= 256).

Zonal data is one column.  Values of shape (..., n_t, 1) are a ring-constant
field: a ``ProductTransform`` analyses them on the m = 0 Legendre block
alone, one longitude carrying each ring's whole weight, into exactly zonal
coefficients.  Zonal coefficients (``SHCoefficients.is_zonal``) synthesize
to such a column.  A zonal pass is one (L+1) x n_t matrix product, O(L n_t),
against O(L^2 n_t + L n_t n_phi) over all orders and the Fourier step; a
transform builds its all-order Legendre table and its cos/sin tables on
the first pass that needs them.

Coefficients and values may carry leading batch axes: a stack of K fields,
coefficients (K, L+1, 2L+1) and values (K, n_t, n_phi), is transformed with
one (K x (L+1-m)) by ((L+1-m) x n_t) matrix product per order and trig
part, so the K fields share one pass over each Pbar block instead of
reading it K times.  One field gives bit for bit the unbatched results.
Stacks cost memory per field on top of the shared tables, so callers that
batch independent samples take ``batch_size(grid)`` fields at a time, from
the byte budget ``BATCH_BUDGET``.
"""

from __future__ import annotations

import itertools
import math
import weakref
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


def geodesic_distance(p, q) -> float:
    """Great-circle distance arccos<p,q>, clamped against roundoff."""
    dot = float(np.dot(np.asarray(p, dtype=float), np.asarray(q, dtype=float)))
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))


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


def ring_points(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors at (cos theta = t_i, phi_j), shape (len(t), len(phi), 3)."""
    st = np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None]
    return np.stack([st * np.cos(phi), st * np.sin(phi),
                     np.broadcast_to(t[:, None], (t.size, phi.size))], axis=-1)


def _colatitude_weights(t_weights: np.ndarray) -> np.ndarray:
    """Scale Gauss-Legendre weights so their compensated sum is exactly 4 pi.

    ``leggauss`` weights carry their own roundoff (at 129 nodes their exact
    sum is 2 - 4.4e-16), so they are rescaled by 4 pi / fsum(w) and the
    remaining residual is added to the middle weight.  That one step is
    enough: the middle weight is at most about 2 pi < 8, so rounding it costs at most
    a quarter ulp of 4 pi, and ``math.fsum`` of the result rounds to
    ``FOUR_PI``.  For odd node counts the middle node is the equator, so the
    t -> -t symmetry is kept.  No weight moves by more than about 1e-13
    relative.
    """
    w = t_weights * (FOUR_PI / math.fsum(t_weights))
    w[w.size // 2] += math.fsum([FOUR_PI, *(-w)])
    return w


# Values per degree row of a streamed group of orders.  A group has
# max(1, LEGENDRE_BUDGET // len(t)) orders, so its three work rows take
# 3 x 32 KiB and its blocks at most LEGENDRE_BUDGET (L + 1) values (4.2 MB at
# L = 128).  Measured at L = 128 and 256 with one BLAS thread: rows of 8k-16k
# values are fastest, but such a group adds 6-9 MiB to the peak RSS of an
# L = 128 sweep (2.3 MiB at 4096).  Above 2048 points a group is one
# order, which runs within about 15 % of a plain per-order loop.
LEGENDRE_BUDGET = 4096

# Bytes of grid values in one stack of sampled fields that a batched
# evaluation takes at once (``batch_size``): 4 fields at L = 256.  There a
# stack adds about 4 MiB of traced allocations per field (its coefficients
# and its synthesized band block) to 253 MB of shared Legendre tables.
# Measured on an L = 256 inequality-sample with one BLAS thread: 4 fields
# per stack cut its transform time by about half and its peak RSS stays
# below the one-field-at-a-time code; 5 fields raise the peak by 7 MiB.
BATCH_BUDGET = 9 << 19  # 4.5 MiB


def batch_size(grid: SphereGrid) -> int:
    """Fields per stack on this grid: BATCH_BUDGET over one field's bytes."""
    return max(1, BATCH_BUDGET // (8 * grid.n_theta * grid.n_phi))


# (cos m phi, sin m phi) stacked, by (band limit, n_phi): one array shared by
# every live transform on those longitudes, freed with the last of them
_FOURIER = weakref.WeakValueDictionary()


def _legendre_orders(band_limit: int, t: np.ndarray, group: int | None = None):
    """Yield (m, Pbar block) for m = 0..band_limit.

    The block has shape (band_limit + 1 - m, len(t)); row k holds degree
    l = m + k.  The normalization is the orthonormal spherical-harmonic one,
    so values stay O(sqrt(l)) and the three-term recurrence is stable far
    beyond L = 256.

    Orders are computed in groups of ``group`` consecutive orders (default
    max(1, LEGENDRE_BUDGET // len(t))): after the sectoral seeds Pbar_{m,m}
    and Pbar_{m+1,m}, one vectorized update per degree l advances every
    order of the group with m <= l - 2 (Schaeffer, G^3 14, 2013).  A group's
    blocks are views into one packed order-major array, allocated afresh per
    group, so a streaming caller holds at most two groups.  Each entry is the
    same float expression as in a one-order-at-a-time loop, so the values do
    not depend on the grouping.
    """
    t = np.asarray(t, dtype=float).ravel()
    L, n = band_limit, t.size
    if group is None:
        group = max(1, LEGENDRE_BUDGET // max(n, 1))
    # a[l, m], b[l, m] of Pbar_{l,m} = a t Pbar_{l-1,m} + b Pbar_{l-2,m}, read
    # where m <= l - 2: exact integer ratios, one rounded division and sqrt
    ll, mm = np.arange(L + 1)[:, None], np.arange(L + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm * mm))
        b = -np.sqrt((2.0 * ll + 1.0) * ((ll - 1.0) ** 2 - mm * mm)
                     / ((2.0 * ll - 3.0) * (ll * ll - mm * mm)))
    sq = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pmm = np.full_like(t, 1.0 / np.sqrt(FOUR_PI))
    for m0 in range(0, L + 1, group):
        orders = range(m0, min(m0 + group, L + 1))
        k = len(orders)
        sizes = [L + 1 - m for m in orders]
        offsets = np.cumsum([0] + sizes[:-1])
        packed = np.empty((sum(sizes), n))
        for m, off in zip(orders, offsets):
            packed[off] = pmm
            if m < L:
                packed[off + 1] = np.sqrt(2 * m + 3.0) * t * pmm
            pmm = np.sqrt((2 * m + 3.0) / (2 * m + 2.0)) * sq * pmm
        # degree l - 2 and l - 1 rows of the orders already started
        prev, cur, work = (np.empty((k, n)) for _ in range(3))
        # rows[l, i]: packed row of (l, m0 + i)
        rows = offsets - np.arange(m0, m0 + k) + np.arange(L + 1)[:, None]
        for l in range(m0 + 2, L + 1):
            j = min(k, l - 1 - m0)  # orders m0 .. m0 + j - 1 have m <= l - 2
            if l - 2 < m0 + k:  # order l - 2 starts from its seeds
                prev[j - 1] = packed[offsets[j - 1]]
                cur[j - 1] = packed[offsets[j - 1] + 1]
            w, c, p = work[:j], cur[:j], prev[:j]
            np.multiply(a[l, m0:m0 + j, None], t, out=w)
            np.multiply(w, c, out=w)
            np.multiply(b[l, m0:m0 + j, None], p, out=p)
            np.add(w, p, out=p)  # Pbar_{l,m}, in the degree l - 2 rows
            packed[rows[l, :j]] = p
            prev, cur = cur, prev
        for m, off, size in zip(orders, offsets, sizes):
            yield m, packed[off:off + size]


def normalized_legendre(band_limit: int, t: np.ndarray,
                        m_max: int | None = None) -> list[np.ndarray]:
    """Fully normalized associated Legendre functions Pbar_{l,m}(t).

    Returns one array per order m (0 <= m <= m_max, default band_limit) of
    shape (band_limit + 1 - m, len(t)); row k holds degree l = m + k.  The
    whole table is kept, so its orders are advanced as one group, the first
    group of the recurrence: the blocks are views into one packed array, of
    (L+1)(L+2)/2 rows when m_max = L and L+1 rows when m_max = 0.
    """
    m_max = band_limit if m_max is None else m_max
    orders = _legendre_orders(band_limit, t, group=m_max + 1)
    return [block for _, block in itertools.islice(orders, m_max + 1)]


@dataclass
class SHCoefficients:
    """Real spherical-harmonic coefficients, entry [l, L + m] for a_{l,m}.

    ``values`` may carry leading batch axes, shape (..., L+1, 2L+1): a stack
    of fields that the transforms handle in one pass.  Zonal coefficients
    may also be held as their m = 0 column alone, shape (..., L+1, 1)
    (``zonal_column``).
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

    @property
    def mean(self):
        """Mean of the synthesized field: a_{0,0} / sqrt(4 pi), a float (an
        array over the batch axes for a stack)."""
        mean = self.values[..., 0, self._m0] / np.sqrt(FOUR_PI)
        return float(mean) if mean.ndim == 0 else mean

    @property
    def is_zonal(self) -> bool:
        """True when every m != 0 column (of every field) is exactly zero."""
        m0 = self._m0
        return not (self.values[..., :m0].any() or self.values[..., m0 + 1:].any())

    @property
    def zonal_column(self) -> "SHCoefficients":
        """The m = 0 column alone: these coefficients when they are zonal.

        Its ``is_zonal`` costs nothing, so a caller that has checked a
        field once can hand the column to several transforms.
        """
        m0 = self._m0
        return SHCoefficients(self.values[..., m0:m0 + 1])

    def shifted(self, constant: float) -> "SHCoefficients":
        out = self.copy()
        out.values[..., 0, self._m0] += constant * np.sqrt(FOUR_PI)
        return out


def _degree_weights(band_limit: int) -> np.ndarray:
    l = np.arange(band_limit + 1, dtype=float)
    return l * (l + 1.0)


class ProductTransform:
    """Spherical-harmonic analysis/synthesis on a product node set.

    The node set is {(t_i, phi_j)}: arbitrary colatitude nodes t and n_phi
    uniform longitudes phi_j = 2 pi j / n_phi.  ``ring_weights`` are the
    steradian weights per ring (may include cutoff factors; None for a
    synthesis-only transform); a node carries its ring's weight / n_phi.

    One-column data is zonal (see the module docstring): zonal coefficients
    synthesize to values of shape (..., n_t, 1), and such values analyse,
    on the m = 0 block alone, to exactly zonal coefficients.  The Legendre
    table holds the m = 0 block until a pass needs every order.
    """

    def __init__(self, band_limit: int, t: np.ndarray, n_phi: int,
                 ring_weights: np.ndarray | None = None):
        self.band_limit = band_limit
        self.t = np.asarray(t, dtype=float)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.ring_weights = self.weights = None
        if ring_weights is not None:
            self.ring_weights = np.reshape(ring_weights, (-1, 1))
            self.weights = self.ring_weights / n_phi  # per node, by ring
        self._plm: list = []
        self._fourier = None

    def _legendre(self, orders: int) -> list:
        """Pbar blocks of orders 0..orders - 1, built on first need."""
        if len(self._plm) < orders:
            self._plm = normalized_legendre(self.band_limit, self.t, orders - 1)
        return self._plm

    def _trig(self) -> np.ndarray:
        """cos m phi and sin m phi for m = 0..L, shape (2, L+1, n_phi)."""
        if self._fourier is None:
            key = (self.band_limit, self.phi.size)
            self._fourier = _FOURIER.get(key)
            if self._fourier is None:
                m = np.arange(self.band_limit + 1)[:, None]
                self._fourier = _FOURIER[key] = np.stack(
                    [np.cos(m * self.phi), np.sin(m * self.phi)])
                self._fourier.flags.writeable = False  # shared
        return self._fourier

    def synthesis_values(self, coeffs: SHCoefficients) -> np.ndarray:
        """Values on the node set, shape (..., n_t, n_phi) for coefficients
        of shape (..., L+1, 2L+1), and (..., n_t, 1) for zonal ones.

        Each order is one product of the batch's coefficient rows with its
        Pbar block, so each table entry is read once per batch.
        """
        L = self.band_limit
        if coeffs.band_limit != L:
            raise BandLimitError(
                f"coefficients have L={coeffs.band_limit}, transform expects {L}"
            )
        if coeffs.is_zonal:
            coeffs = coeffs.zonal_column
        v = coeffs.values
        batch = v.shape[:-2]
        # batch axis last: c[m:, L + m].T is a (K, L+1-m) matrix that BLAS
        # reads in place, and for K = 1 the strided vector of one field
        c = v.reshape(-1, L + 1, v.shape[-1]).transpose(1, 2, 0)
        c = np.ascontiguousarray(c)
        k, n_t, n_phi = c.shape[-1], self.t.size, self.phi.size
        if v.shape[-1] == 1:  # zonal: the m = 0 sums are the ring values
            return (c[:, 0].T @ self._legendre(1)[0]).reshape(batch + (n_t, 1))
        plm, (cos_m, sin_m) = self._legendre(L + 1), self._trig()
        out = np.empty((k, n_t, n_phi))
        # a field's cos and sin rows fill the start of its own output slot
        # when they fit (2 (L + 1) <= n_phi); its Fourier step overwrites them
        if 2 * (L + 1) <= n_phi:
            rows = out.reshape(k, -1)[:, :2 * (L + 1) * n_t]
        else:
            rows = np.empty((k, 2 * (L + 1) * n_t))
        rows = rows.reshape(k, 2, L + 1, n_t)
        cc, cs = rows[:, 0], rows[:, 1]
        cs[:, 0] = 0.0  # multiplies sin 0 phi = 0; the buffer is uninitialized
        for m in range(L + 1):
            block = plm[m]
            amp = SQRT2 if m > 0 else 1.0
            cc[:, m] = amp * (c[m:, L + m].T @ block)
            if m > 0:
                cs[:, m] = amp * (c[m:, L - m].T @ block)
        for i in range(k):  # the Fourier step, field by field
            field = cc[i].T @ cos_m
            field += cs[i].T @ sin_m
            out[i] = field
        return out.reshape(batch + out.shape[1:])

    def analysis_coeffs(self, values: np.ndarray) -> SHCoefficients:
        """<values, Y_{l,m}> under this node set's quadrature weights, for
        values of shape (..., n_t, n_phi) or a ring-constant (..., n_t, 1)."""
        if self.ring_weights is None:
            raise ValueError("transform was built without quadrature weights")
        L, n_t, n_phi = self.band_limit, self.t.size, values.shape[-1]
        batch = values.shape[:-2]
        weights = self.ring_weights if n_phi == 1 else self.weights
        w = (weights * values).reshape(-1, n_phi)
        k = w.shape[0] // n_t
        # batch axis last, the layout synthesis_values reads without a copy
        out = np.zeros((L + 1, 2 * L + 1, k))
        if n_phi == 1:  # cos 0 phi = 1 on the one longitude
            out[:, L] = self._legendre(1)[0] @ np.ascontiguousarray(
                w.reshape(k, n_t).T)
        else:
            plm = self._legendre(L + 1)
            # per trig part (n_t, L + 1, K): batch axis last, as synthesized
            fc, fs = (np.ascontiguousarray(
                (w @ trig.T).reshape(k, n_t, L + 1).transpose(1, 2, 0))
                for trig in self._trig())
            for m in range(L + 1):
                amp = SQRT2 if m > 0 else 1.0
                out[m:, L + m] = amp * (plm[m] @ fc[:, m])
                if m > 0:
                    out[m:, L - m] = amp * (plm[m] @ fs[:, m])
        return SHCoefficients(out.transpose(2, 0, 1).reshape(batch + out.shape[:2]))


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
        t, tw = np.polynomial.legendre.leggauss(self.n_theta)
        self.t = t
        # steradian weight per latitude ring; math.fsum gives exactly FOUR_PI
        self.t_weights = _colatitude_weights(tw)
        self.transform = ProductTransform(self.band_limit, t, self.n_phi,
                                          self.t_weights)
        self.phi = self.transform.phi
        self._integrator_cache: OrderedDict = OrderedDict()  # see integrator_for

    # -- geometry -----------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        """Steradian weight per node, shape (n_theta, n_phi).

        Each ring weight is split evenly over the n_phi longitudes.  The ring
        weights are normalized so that their compensated sum is exactly
        4 pi; a plain ``np.sum`` of this array matches 4 pi up to rounding.
        """
        return np.repeat(self.t_weights[:, None] / self.n_phi, self.n_phi, axis=1)

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


@dataclass
class ScalarField:
    """Real-valued field sampled on the nodes of a SphereGrid.

    Values of shape (n_theta, 1) are a ring-constant field, one column that
    is repeated over the longitudes.
    """

    values: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_theta, self.grid.n_phi)
        if self.values.shape == (expected[0], 1):
            self.values = np.repeat(self.values, expected[1], axis=1)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite at every node")

    @classmethod
    def from_function(cls, grid: SphereGrid, fn) -> "ScalarField":
        """Sample ``fn`` (mapping (..., 3) unit vectors to reals) on the grid."""
        return cls(np.asarray(fn(grid.nodes), dtype=float), grid)

    @classmethod
    def constant(cls, grid: SphereGrid, value: float) -> "ScalarField":
        return cls(np.full((grid.n_theta, grid.n_phi), float(value)), grid)

    @property
    def mean(self) -> float:
        return integrate(self) / FOUR_PI

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.values + other.values, self.grid)
        return ScalarField(self.values + other, self.grid)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.values - other.values, self.grid)
        return ScalarField(self.values - other, self.grid)

    def __mul__(self, scalar: float):
        return ScalarField(self.values * scalar, self.grid)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_grid(n_theta: int, n_phi: int) -> SphereGrid:
    return SphereGrid(n_theta, n_phi)


def integrate(f: ScalarField) -> float:
    """Quadrature of f over the whole sphere: sum over rings of w_i * mean_i.

    The ring weights times the ring means are summed with ``math.fsum``
    (compensated, correctly rounded), so with the normalized ring weights the
    constant field 1 integrates to exactly ``FOUR_PI`` on every grid.
    """
    ring_means = np.sum(f.values, axis=1) / f.grid.n_phi
    return math.fsum(f.grid.t_weights * ring_means)


def sh_analysis(f: ScalarField) -> SHCoefficients:
    """Coefficients of f; a ring-constant f is analysed as one column, so
    its coefficients are exactly zonal."""
    values = f.values
    if not np.ptp(values, axis=1).any():
        values = values[:, :1]
    return f.grid.transform.analysis_coeffs(values)


def sh_synthesis(c: SHCoefficients, grid: SphereGrid) -> ScalarField:
    if c.band_limit > grid.band_limit:
        raise BandLimitError(
            f"coefficients have L={c.band_limit}, grid supports {grid.band_limit}"
        )
    if c.band_limit < grid.band_limit:
        padded = SHCoefficients.zeros(grid.band_limit)
        L, Lc = grid.band_limit, c.band_limit
        padded.values[: Lc + 1, L - Lc : L + Lc + 1] = c.values
        c = padded
    return ScalarField(grid.transform.synthesis_values(c), grid)


def random_band_limited(grid: SphereGrid, rng, l_max=None, amplitude=2.0,
                        decay=2.0) -> ScalarField:
    """Seeded random field: ``random_band_limited_batch`` of one field."""
    coeffs = random_band_limited_batch(grid, rng, 1, l_max, amplitude, decay)
    return sh_synthesis(SHCoefficients(coeffs.values[0]), grid)


def random_band_limited_batch(grid: SphereGrid, rng, count: int, l_max=None,
                              amplitude=2.0, decay=2.0) -> SHCoefficients:
    """Coefficients of ``count`` seeded random fields, a stack of shape
    (count, L+1, 2L+1) at the grid's band limit L.

    A field's coefficients ~ N(0, (1+l)^(-2 decay)) for degrees 1..l_max
    (default the grid's band limit) are one draw of (l_max + 1)^2 - 1
    normals, in order of degree and then of m; each field is then scaled so
    that max |u| over the grid nodes is ``amplitude``.  The fields are
    drawn one after another, so the stream does not depend on how the
    samples are split into batches, and their peaks come from one
    synthesis of the stack.
    """
    G = grid.band_limit
    L = G if l_max is None else l_max
    if L > G:
        raise BandLimitError(f"l_max={L} exceeds the grid band limit {G}")
    l = np.arange(G + 1)[:, None]
    drawn = (np.abs(np.arange(-G, G + 1)) <= l) & (l >= 1) & (l <= L)
    degrees = np.arange(1, L + 1)
    scale = np.repeat([(1.0 + d) ** decay for d in range(1, L + 1)],
                      2 * degrees + 1)
    coeffs = np.zeros((count, G + 1, 2 * G + 1))
    for c in coeffs:
        c[drawn] = rng.normal(size=scale.size) / scale
    values = grid.transform.synthesis_values(SHCoefficients(coeffs))
    for c, v in zip(coeffs, values):
        peak = float(np.max(np.abs(v)))
        if peak > 0.0:  # l_max = 0: a zero field
            c *= amplitude / peak
    return SHCoefficients(coeffs)


def dirichlet_energy(c: SHCoefficients):
    """int |grad u|^2 = sum_{l,m} l(l+1) a_{l,m}^2 for band-limited u (an
    array over the batch axes for a stack)."""
    lw = _degree_weights(c.band_limit)
    terms = lw[:, None] * c.values**2
    energy = terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)
    return float(energy) if energy.ndim == 0 else energy


def dirichlet_pairing(a: SHCoefficients, b: SHCoefficients) -> float:
    """int grad u . grad v in spectral form."""
    if a.band_limit != b.band_limit:
        raise BandLimitError("band limits differ")
    lw = _degree_weights(a.band_limit)
    return float(np.sum(lw[:, None] * a.values * b.values))


def l2_norm(c: SHCoefficients) -> float:
    return float(np.sqrt(np.sum(c.values**2)))


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

    Streams the Legendre recurrence in groups of orders, so no table over
    all orders is stored: memory is O((L+1) * max(len(points),
    LEGENDRE_BUDGET)) for the current groups' blocks.  Zonal coefficients
    need the m = 0 block alone.  Exact for band-limited fields.  Accepts any
    leading shape (..., 3).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.clip(pts[..., 2], -1.0, 1.0)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return synthesis_at_angles(c, t, phi)


def synthesis_at_angles(c: SHCoefficients, t: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """Values at (cos colatitude t, longitude phi); a stack of coefficients
    gives its batch axes first."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phi = np.ravel(phi)
    L = c.band_limit
    cv = c.values
    shape = cv.shape[:-2] + t.shape
    if c.is_zonal:
        _, block = next(_legendre_orders(L, t.ravel(), group=1))
        return (c.zonal_column.values[..., 0] @ block).reshape(shape)
    out = np.zeros(cv.shape[:-2] + (t.size,))
    for m, block in _legendre_orders(L, t.ravel()):
        if m == 0:
            out += cv[..., L] @ block
        else:
            out += np.sqrt(2.0) * ((cv[..., m:, L + m] @ block) * np.cos(m * phi)
                                   + (cv[..., m:, L - m] @ block) * np.sin(m * phi))
    return out.reshape(shape)


def gradient_magnitude(c: SHCoefficients, synthesis, t: np.ndarray) -> np.ndarray:
    """|grad u| at nodes with cos theta = t, from their synthesizer S,
    which takes a stack of coefficients (batch axis first).

    Exact: d/dphi is spectral, and sin theta dPbar_{l,m}/dtheta =
    l t Pbar_{l,m} - N_{l,m} Pbar_{l-1,m} with N_{l,m}^2 = (2l+1)(l^2-m^2)/(2l-1)
    gives sin theta du/dtheta = t S[l a_{l,m}] - S[N_{l+1,m} a_{l+1,m}].
    The three coefficient sets are synthesized as one stack, in one pass;
    for zonal coefficients as m = 0 columns.
    """
    if c.is_zonal:
        c = c.zonal_column
    l = np.arange(c.band_limit + 1, dtype=float)[:, None]
    m = np.arange(c.values.shape[-1]) - c._m0
    parts = np.zeros((3,) + c.values.shape)
    parts[0] = l * c.values
    parts[1, :-1] = np.sqrt((2.0 * l[1:] + 1.0) / (2.0 * l[1:] - 1.0)
                            * np.maximum(l[1:] ** 2 - m * m, 0.0)) * c.values[1:]
    parts[2] = phi_derivative(c).values
    by_degree, lowered, dphi = synthesis(SHCoefficients(parts))
    sin2 = np.maximum(1.0 - t * t, 1.0e-300)
    return np.sqrt(((t * by_degree - lowered) ** 2 + dphi**2) / sin2)


def gradient_at_angles(c: SHCoefficients, t: np.ndarray,
                       phi: np.ndarray) -> np.ndarray:
    """|grad u| at arbitrary points (t = cos colatitude, longitude phi)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return gradient_magnitude(
        c, lambda x: synthesis_at_angles(x, t, phi), t)
