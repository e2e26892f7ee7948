"""Grid construction, quadrature exactness, and transform round trips."""

import cProfile
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import sph_legendre_p

from sol_lab import sphere_grid
from sol_lab.sphere_grid import (
    FOUR_PI,
    LEGENDRE_FLOOR,
    SQRT2,
    BandLimitError,
    OrderRows,
    ProductTransform,
    SHCoefficients,
    axis_values,
    build_grid,
    dirichlet_energy,
    gauss_jacobi,
    geodesic_distance,
    gradient_at_angles,
    gradient_magnitude,
    normalized_legendre,
    synthesis_at_angles,
    synthesis_at_points,
    _legendre_groups,
    _ring_runs,
    random_band_limited_batch,
)

from sol_lab.mt_functional import integrator_for
from sol_lab.singular_geometry import SingularWeight

from conftest import random_band_limited


class TestBuildGrid:
    def test_minimal_grid(self):
        g = build_grid(2, 4)
        assert g.n_theta * g.n_phi == 8
        total = float(np.sum(g.t_weights))
        assert abs(total - FOUR_PI) < 1e-10 * FOUR_PI

    def test_band_limit_formula(self):
        assert build_grid(32, 64).band_limit == 31
        assert build_grid(65, 130).band_limit == 64
        assert build_grid(129, 129).band_limit == 64

    def test_constant_integral(self):
        g = build_grid(64, 128)
        assert abs(g.transform.integral(np.ones((g.n_theta, 1)))
                   - FOUR_PI) < 1e-12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_grid(1, 130)
        with pytest.raises(ValueError):
            build_grid(16, 3)

    def test_nodes_avoid_poles(self, grid64):
        assert np.all(np.abs(grid64.t) < 1.0)

    def test_nodes_are_unit(self, grid64):
        norms = np.linalg.norm(grid64.nodes, axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 12, 65, 161])
    def test_gauss_legendre_rule_is_cached(self, n):
        """The cached rule is exactly symmetric, agrees with leggauss's
        nodes to an ulp, is the same arrays on every call, and read-only,
        so no caller can change another's."""
        nodes, weights = gauss_jacobi(n)
        x, _ = np.polynomial.legendre.leggauss(n)
        assert np.abs(nodes - x).max() <= 1.2e-16
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        again = gauss_jacobi(n)
        assert again[0] is nodes and again[1] is weights
        for a in (nodes, weights):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert build_grid(n + 1, 2 * n + 2).t is gauss_jacobi(n + 1)[0]


# the rule polishes its nodes in 80-bit longdouble (x86); where longdouble
# is double its weights are only about as good as leggauss's
extended = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                              reason="longdouble is not extended precision")


def legendre_reference(n, start):
    """30-digit Gauss-Legendre nodes and weights by one Newton step from
    ``start`` on P_n's own recurrence, w = 2 / ((1 - x^2) P_n'(x)^2)."""
    mp = pytest.importorskip("mpmath")
    nodes, weights = [], []
    with mp.workdps(30):
        for x in map(mp.mpf, start):
            for newton in (True, False):
                p0, p1 = 1, x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                d = n * (p0 - x * p1) / (1 - x * x)
                if newton:
                    x -= p1 / d
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * d * d))
    return nodes, weights


def jacobi_reference(n, a, b, start):
    """30-digit Gauss-Jacobi nodes and weights for (1 - x)^a (1 + x)^b by
    one Newton step from ``start`` on the classical recurrence of
    P_n^(a,b), with the classical weight Gamma(n+a+1) Gamma(n+b+1)
    2^(a+b+1) / (Gamma(n+a+b+1) n! (1 - x^2) P_n'(x)^2)."""
    mp = pytest.importorskip("mpmath")
    nodes, weights = [], []
    with mp.workdps(30):
        a, b = mp.mpf(a), mp.mpf(b)
        c = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
             / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
        s = 2 * n + a + b
        for x in map(mp.mpf, start):
            for newton in (True, False):
                p0, p1 = mp.mpf(1), (a + 1) + (a + b + 2) * (x - 1) / 2
                for k in range(2, n + 1):
                    t = 2 * k + a + b
                    p0, p1 = p1, (
                        (t - 1) * (t * (t - 2) * x + a * a - b * b) * p1
                        - 2 * (k + a - 1) * (k + b - 1) * t * p0
                    ) / (2 * k * (k + a + b) * (t - 2))
                d = (n * (a - b - s * x) * p1
                     + 2 * (n + a) * (n + b) * p0) / (s * (1 - x * x))
                if newton:
                    x -= p1 / d
            nodes.append(x)
            weights.append(c / ((1 - x * x) * d * d))
    return nodes, weights


def worst_errors(rule, reference):
    """(max node error, max relative weight error) of a float rule."""
    (x, w), (xr, wr) = rule, reference
    return (max(abs(float(a - b)) for a, b in zip(x, xr)),
            max(abs(float((a - b) / b)) for a, b in zip(w, wr)))


class TestGaussJacobi:
    @extended
    @pytest.mark.parametrize("n", [32, 129, 257, 1025])
    def test_legendre_against_30_digits(self, n):
        """Nodes within an ulp of 1 and weights within 1e-15 relative of a
        30-digit reference (leggauss's weights are off by 1.3e-11 and
        1.5e-10 at n = 129 and 257; these by 1.3e-16, and by 5.8e-16 at
        n = 1025, at the node nearest 1).  The rule is symmetric, so half
        of it is checked; at n = 1025 every eighth node from the end."""
        x, w = gauss_jacobi(n)
        half = slice(n - 1, n // 2 - 1, -1 if n < 1000 else -8)
        node_err, weight_err = worst_errors(
            (x[half], w[half]), legendre_reference(n, x[half]))
        assert node_err <= 1.2e-16
        assert weight_err <= 1.0e-15

    @extended
    def test_legendre_small_n_against_30_digits(self):
        """Every n in 2 ... 40, where Tricomi's start is least accurate,
        within 1e-15 of the 30-digit reference (leggauss's weights are off
        by 5.8e-14 at n = 32)."""
        for n in range(2, 41):
            x, w = gauss_jacobi(n)
            half = slice(n // 2, None)
            node_err, weight_err = worst_errors(
                (x[half], w[half]), legendre_reference(n, x[half]))
            assert node_err <= 1.2e-16, n
            assert weight_err <= 1.0e-15, n

    @extended
    @pytest.mark.parametrize("n, b", [(32, -0.8), (32, 0.0), (32, 0.5),
                                      (32, 3.1894), (7, -0.4), (1, 0.2)])
    def test_jacobi_against_30_digits(self, n, b):
        """The cap rules, b = 2 alpha + 1."""
        x, w = gauss_jacobi(n, b)
        node_err, weight_err = worst_errors(
            (x, w), jacobi_reference(n, 0.0, b, x))
        assert node_err <= 1.2e-16
        assert weight_err <= 1.0e-14
        assert np.all(np.diff(x) > 0.0)

    @pytest.mark.parametrize("n, b", [(12, 0.0), (12, -0.8), (12, 3.1894),
                                      (9, -0.4)])
    def test_exact_to_degree_2n_minus_1(self, n, b):
        """sum w x^k = int (1 + x)^b x^k for k < 2n: with x = 2u - 1 a sum
        of Beta integrals, in 30 digits."""
        mp = pytest.importorskip("mpmath")
        x, w = gauss_jacobi(n, b)
        with mp.workdps(30):
            b = mp.mpf(b)

            def moment(k):
                return 2 ** (b + 1) * mp.fsum(
                    mp.binomial(k, j) * 2 ** j * (-1) ** (k - j)
                    * mp.beta(b + j + 1, 1) for j in range(k + 1))
            mass = moment(0)
            for k in range(2 * n):
                assert abs(np.sum(w * x ** k) - moment(k)) <= 2e-15 * mass


class TestIntegrate:
    def test_constant(self, grid64):
        assert abs(grid64.transform.integral(np.ones((grid64.n_theta, 1)))
                   - FOUR_PI) == 0.0

    def test_constant_exact_for_every_size(self, grid16, grid64, grid128,
                                           grid192):
        """Exactness holds by construction, not by luck of the leggauss roundoff."""
        grids = [build_grid(n, 2 * n) for n in range(2, 257)]
        grids += [grid16, grid64, grid128, grid192]
        for g in grids:
            assert g.transform.integral(np.ones((g.n_theta, 1))) == FOUR_PI, g

    def test_odd_function(self, grid64):
        assert abs(grid64.transform.integral(grid64.nodes[..., 2])) < 1e-12

    def test_stack_totals_are_those_of_each_field(self, grid16, rng):
        """On the two-cap rule a stack integrates field by field, as
        unbatched: full width and one column, bit for bit."""
        w = SingularWeight.from_orders([([0, 0, 1], -0.5), ([0, 0, -1], 0.7)])
        tr = integrator_for(grid16, w).transform
        for width in (grid16.n_phi, 1):
            values = np.exp(rng.normal(size=(3, 2, tr.t.size, width)))
            totals = tr.integral(values)
            assert totals.shape == (3, 2)
            for i in np.ndindex(3, 2):
                alone = tr.integral(values[i].copy())
                assert type(alone) is float and totals[i] == alone

    def test_x3_squared(self, grid64):
        # 2 pi int_-1^1 t^2 dt = 4 pi / 3
        f = grid64.nodes[..., 2] ** 2
        assert abs(grid64.transform.integral(f) - FOUR_PI / 3.0) < 1e-12


class TestTransforms:
    def test_constant_from_a00(self, grid64):
        c = SHCoefficients.zeros(grid64.band_limit)
        c.values[0, grid64.band_limit] = np.sqrt(FOUR_PI)
        f = grid64.transform.synthesis_values(c)
        assert np.abs(f - 1.0).max() < 1e-12

    def test_x3_single_coefficient(self, grid64):
        c = grid64.transform.analysis_coeffs(grid64.nodes[..., 2])
        a10 = c.order(0)[1]
        assert abs(a10**2 - FOUR_PI / 3.0) < 1e-10
        rest = c.copy()
        rest.order(0)[1] = 0.0
        assert np.abs(rest.values).max() < 1e-10

    def test_round_trip(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = grid64.transform.analysis_coeffs(f)
        f2 = grid64.transform.synthesis_values(c)
        assert np.abs(f2 - f).max() < 1e-10
        c2 = grid64.transform.analysis_coeffs(f2)
        assert np.abs(c2.values - c.values).max() < 1e-10

    def test_band_limit_mismatch_rejected(self, grid16, grid64):
        c = SHCoefficients.zeros(grid64.band_limit)
        with pytest.raises(BandLimitError):
            grid16.transform.synthesis_values(c)

    def test_lower_band_limit_padded(self, grid64):
        c = SHCoefficients.zeros(4)
        c.values[1, 4] = 1.0
        f = grid64.transform.synthesis_values(c.widened(grid64.band_limit))
        expected = np.sqrt(3.0 / FOUR_PI) * grid64.nodes[..., 2]
        assert np.abs(f - expected).max() < 1e-12

    def test_mean_is_a00(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = grid64.transform.analysis_coeffs(f)
        assert abs(grid64.transform.integral(f) / FOUR_PI - c.mean) < 1e-10

    def test_parseval(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = grid64.transform.analysis_coeffs(f)
        lhs = grid64.transform.integral(f**2)
        rhs = float(np.sum(c.values**2))
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_synthesis_at_points_matches_grid(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = grid64.transform.analysis_coeffs(f)
        pts = grid64.nodes[7, [3, 50]]
        vals = synthesis_at_points(c, pts)
        assert np.abs(vals - f[7, [3, 50]]).max() < 1e-10


class TestQuadratureExactness:
    def test_all_harmonics_to_2L(self, grid16):
        """The grid integral of Y_lm is 0 for every 1 <= l <= 2L."""
        g = grid16
        L2 = 2 * g.band_limit
        table = normalized_legendre(L2, g.t)
        w = g.t_weights / g.n_phi
        worst = 0.0
        for m in range(L2 + 1):
            block = table[m]
            amp = np.sqrt(2.0) if m > 0 else 1.0
            cosv = np.cos(m * g.phi)
            sinv = np.sin(m * g.phi)
            for l in range(max(m, 1), L2 + 1):
                row = block[l - m]
                worst = max(worst, abs(amp * np.sum(
                    w[:, None] * row[:, None] * cosv[None, :])))
                if m > 0:
                    worst = max(worst, abs(amp * np.sum(
                        w[:, None] * row[:, None] * sinv[None, :])))
        assert worst < 1e-10


class TestLegendreStability:
    def test_orthonormal_at_L256(self):
        """The normalized recurrence stays orthonormal at the design limit."""
        t, w = np.polynomial.legendre.leggauss(300)
        table = normalized_legendre(256, t)
        for m in (0, 1, 128, 255, 256):
            block = table[m]
            for l in (m, 256):
                row = block[l - m]
                assert np.all(np.isfinite(row))
                # ||Y_lm||^2 = 2 pi sum w Pbar^2 for every m: the azimuthal
                # integral of 2 cos^2(m phi) (m > 0) equals that of 1 (m = 0)
                norm = 2.0 * np.pi * np.sum(w * row * row)
                assert norm == pytest.approx(1.0, rel=1e-11)


def reference_legendre_orders(band_limit, t):
    """The one-order-at-a-time recurrence: the reference for the grouped one."""
    sq = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pmm = np.full_like(t, 1.0 / np.sqrt(FOUR_PI))
    for m in range(band_limit + 1):
        block = np.empty((band_limit + 1 - m, t.size))
        block[0] = pmm
        if m < band_limit:
            block[1] = np.sqrt(2 * m + 3.0) * t * pmm
        for l in range(m + 2, band_limit + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = -np.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m)
                         / ((2.0 * l - 3.0) * (l * l - m * m)))
            block[l - m] = a * t * block[l - m - 1] + b * block[l - m - 2]
        yield m, block
        pmm = np.sqrt((2 * m + 3.0) / (2 * m + 2.0)) * sq * pmm


def assert_within_budget(synthesis):
    """The traced peak of a point synthesis is at most LEGENDRE_BYTES and
    its output."""
    tracemalloc.start()
    try:
        out = synthesis()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sphere_grid.LEGENDRE_BYTES + out.nbytes, peak


class TestGroupedLegendre:
    """The recurrence advanced over groups of orders, degree by degree."""

    def test_matches_scipy(self):
        """Independent oracle: Pbar_{l,m} = (-1)^m sph_legendre_p(l, m, theta)."""
        theta = np.linspace(0.0, np.pi, 50)
        table = normalized_legendre(64, np.cos(theta))
        for m, block in enumerate(table):
            l = np.arange(m, 65)[:, None]
            expected = (-1.0) ** m * sph_legendre_p(l, m, theta)
            assert np.max(np.abs(block - expected)) <= 1e-12, m

    # under a budget of 4096 (L + 4) values, point counts giving several
    # orders per group, every order in one group, and one order per group
    @pytest.mark.parametrize("n_points", [819, 3, 4097])
    @pytest.mark.parametrize("band_limit", [0, 1, 2, 33])
    def test_bit_identical_to_per_order_loop(self, band_limit, n_points,
                                             monkeypatch):
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES",
                            8 * 4096 * (band_limit + 4))
        t = np.random.default_rng(band_limit).uniform(-1.0, 1.0, n_points)
        t[:3] = [-1.0, 0.0, 1.0]
        expected = list(reference_legendre_orders(band_limit, t))
        # the generator's blocks are views that its next group overwrites
        for got in ([(m, b.copy()) for group in _legendre_groups(
                         band_limit, t, None, 0.0) for m, b in group],
                    list(enumerate(normalized_legendre(band_limit, t)))):
            assert [m for m, _ in got] == list(range(band_limit + 1))
            for (_, want), (_, block) in zip(expected, got):
                assert np.array_equal(block, want)

    def test_large_point_sets_stream(self):
        """Memory stays within the byte budget: one group is alive at a
        time, and since the points go in groups, a group's blocks and work
        vectors take at most LEGENDRE_BYTES (one order over all 50,000
        points at L = 128 would be 52 MB, the full triangle 3.4 GB), so
        the peak holds that and the output alone."""
        L, n = 128, 50_000
        rng = np.random.default_rng(3)
        c = SHCoefficients(rng.normal(size=(L + 1, 2 * L + 1)))
        t = rng.uniform(-1.0, 1.0, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        group_bytes = sphere_grid.LEGENDRE_BYTES
        group_points = group_bytes // (8 * (L + 11))
        assert n > 2 * group_points  # at least three groups (seven)
        assert_within_budget(lambda: synthesis_at_angles(c, t, phi))

    @pytest.mark.parametrize("zonal", [False, True])
    def test_split_stack_stays_within_budget(self, zonal, monkeypatch, rng):
        """A stack of 4 fields counts its product temporaries a field, in
        its groups of points and of orders: at L = 32 under a 4 MiB budget
        its 27,346 points take groups of 10,082, 10,082 and 7,182, the
        last of which has room for one order and its work vectors, not
        two, and the peak holds LEGENDRE_BYTES and the output alone."""
        L, n = 32, 27_346
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", 4 << 20)
        c = rng.normal(size=(4, L + 1, 2 * L + 1))
        c = SHCoefficients(c[..., L:L + 1] if zonal else c)
        t, phi = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 7.0, n)
        assert (4 << 20) // (8 * (L + 8 + 3 * 4)) == 10_082
        assert_within_budget(lambda: synthesis_at_angles(c, t, phi))

    @pytest.mark.parametrize("per_group", [1, 3, 33])
    def test_one_budget_sizes_every_group(self, per_group, monkeypatch, rng):
        """LEGENDRE_BYTES sizes every group of the recurrence, at L + 4
        rows an order (its L + 1 degree rows and one work row).  At one
        order, three and the whole L = 32 table a group, the grouped
        recurrence, a table, the passes of a ProductTransform (a field's
        keeps its table; a stack's streams at one and three orders a group,
        whose budgets the table outgrows) and a point synthesis (whose
        budget adds its 7 work vectors a point) give the values of the
        default budget bit for bit, and a group's scratch holds its
        orders' L + 1 degree rows, degree-major, alone (so within
        max(budget, one order))."""
        L = 32
        g = build_grid(L + 1, 2 * L + 2)
        c = SHCoefficients(rng.normal(size=(L + 1, 2 * L + 1)))
        t, phi = rng.uniform(-1.0, 1.0, 40), rng.uniform(0.0, 7.0, 40)

        def budget(n, work=0):
            """The budget of ``per_group`` orders over n rings, beside
            ``work`` vectors a ring."""
            monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES",
                                8 * (per_group * (L + 4) + work) * n)

        def run(size):
            size(t.size)
            blocks = [b.copy() for group in _legendre_groups(L, t, None, 0.0)
                      for _, b in group]
            table = normalized_legendre(L, t)
            size(t.size, 7)  # one group of points
            passes = [synthesis_at_angles(c, t, phi)]
            streams = size is budget and per_group < 33
            for fields in (c, SHCoefficients(np.stack([c.values] * 2))):
                synthesis, analysis = (ProductTransform(
                    L, g.t, g.n_phi, g.t_weights) for _ in range(2))
                size(synthesis._reps)
                passes.append(synthesis.synthesis_values(fields))
                passes.append(analysis.analysis_coeffs(passes[-1]).values)
                kept = fields is c or not streams
                assert [len(tr._plm) for tr in (synthesis, analysis)] == \
                    [(L + 1) * kept] * 2
            return blocks + table + passes

        want = run(lambda n, work=0: None)
        got = run(budget)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        budget(t.size)
        scratch = 8 * (L + 1) * min(per_group, L + 1) * t.size
        assert scratch <= sphere_grid.LEGENDRE_BYTES
        for group in _legendre_groups(L, t, None, 0.0):
            for _, block in group:
                assert block.base.nbytes == scratch

    def test_point_synthesis_splits_its_points(self, monkeypatch, rng):
        """A point synthesis of K fields takes its points in groups of at
        most max(1, LEGENDRE_BYTES // (8 (L + 8 + 3 K))), so no one-order
        block outgrows the budget: with 43 points a group at K = 3, 200
        points take five groups, and zonal and full-width stacks match one
        group to 1e-15 relative."""
        L, n = 32, 200
        c = rng.normal(size=(3, L + 1, 2 * L + 1))
        t, phi = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 7.0, n)
        stacks = [SHCoefficients(c), SHCoefficients(c[..., L:L + 1])]
        want = [synthesis_at_angles(s, t, phi) for s in stacks]
        seen = []

        def recorded(band_limit, points, *args, **kwargs):
            seen.append(points.size)
            return _legendre_groups(band_limit, points, *args, **kwargs)

        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", 64 * 8 * (L + 1))
        monkeypatch.setattr(sphere_grid, "_legendre_groups", recorded)
        for stack, values in zip(stacks, want):
            seen.clear()
            got = synthesis_at_angles(stack, t, phi)
            assert seen == [43] * 4 + [28]
            assert got.shape == values.shape == (3, n)
            assert max_rel(got, values) <= 1e-15


class TestAxisValues:
    """u(+e3) and u(-e3) read from the m = 0 column alone."""

    @pytest.mark.parametrize("zonal", [False, True])
    @pytest.mark.parametrize("band_limit", [16, 128, 256])
    def test_matches_point_synthesis(self, band_limit, zonal, rng):
        """Random zonal and full-width fields, alone and as a stack of 3,
        match ``synthesis_at_points`` at both poles to 1e-13 of the sum of
        the terms' magnitudes, sum_l |a_{l,0}| sqrt((2l + 1) / 4 pi) (at
        most 7.4e-15 seen at L = 256): a value near zero cancels its terms,
        and both sums round on that scale."""
        L = band_limit
        c = rng.normal(size=(3, L + 1, 2 * L + 1)) / (1.0 + np.arange(
            L + 1))[:, None]
        c = c[..., L:L + 1] if zonal else c
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        l = np.arange(L + 1)
        for stack in (SHCoefficients(c), SHCoefficients(c[0])):
            want = synthesis_at_points(stack, poles)
            scale = np.abs(stack.order(0)) @ np.sqrt((2 * l + 1.0) / FOUR_PI)
            got = axis_values(stack)
            for v, w in zip(got, np.moveaxis(want, -1, 0)):
                assert np.shape(v) == np.shape(w)
                assert np.all(np.abs(v - w) <= 1e-13 * scale)
        # Python floats, not numpy scalars: a report's JSON takes them
        assert all(type(v) is float for v in axis_values(stack))


class TestOrderLimit:
    """The orders a pass reads: one-column data is zonal.  Ring-constant
    values (..., n_t, 1) analyse on the m = 0 block alone, and zonal
    coefficients synthesize to such a column."""

    @pytest.mark.parametrize("m_max", [0, 1, 16])
    def test_table_is_leading_orders(self, m_max):
        t = np.random.default_rng(m_max).uniform(-1.0, 1.0, 40)
        full = normalized_legendre(33, t)
        table = normalized_legendre(33, t, m_max)
        assert len(table) == m_max + 1
        for block, want in zip(table, full):
            assert np.array_equal(block, want)

    @pytest.mark.parametrize("grid_name", ["grid64", "grid128"])
    def test_zonal_transform_matches_full(self, grid_name, request, rng):
        """Alone and batched, zonal columns of coefficients synthesize to
        (..., n_t, 1), equal to the full-order synthesis of the widened
        coefficients on every longitude; a column of values analyses to a
        column of coefficients that matches the full analysis of the field
        repeated over the longitudes."""
        g = request.getfixturevalue(grid_name)
        L = g.band_limit
        c = (rng.normal(size=(2, 3, L + 1))
             / (1.0 + np.arange(L + 1)))[..., None]
        stacks = (SHCoefficients(c[0, 0]), SHCoefficients(c))
        columns = [g.transform.synthesis_values(s) for s in stacks]
        values = rng.normal(size=(2, g.n_theta, 1))
        coeffs = g.transform.analysis_coeffs(values)
        for col, stack in zip(columns, stacks):
            assert col.shape == stack.values.shape[:-2] + (g.n_theta, 1)
            full = g.transform.synthesis_values(stack.widened())
            assert full.shape[-1] == g.n_phi
            assert np.max(np.abs(col - full)) <= 1e-14 * np.max(np.abs(full))
        assert coeffs.values.shape == (2, L + 1, 1)
        full = g.transform.analysis_coeffs(np.repeat(values, g.n_phi, axis=-1))
        assert np.max(np.abs(coeffs.widened().values - full.values)) <= \
            1e-14 * np.max(np.abs(full.values))

    @pytest.mark.parametrize("grid_name", ["grid64", "grid128"])
    def test_grid_transforms_zonal_input_on_m0(self, grid_name, request,
                                               rng):
        """The grid synthesis of a zonal column (one column of values),
        the analysis of those values and synthesis_at_angles of a zonal column
        match the full-order results; the analysis is a column, with no
        m != 0 entries at all."""
        g = request.getfixturevalue(grid_name)
        L = g.band_limit
        c = SHCoefficients((rng.normal(size=L + 1)
                            / (1.0 + np.arange(L + 1)))[:, None])
        field = g.transform.synthesis_values(c)
        at_angles = synthesis_at_angles(c, g.t, np.zeros(g.t.size))
        coeffs = g.transform.analysis_coeffs(field)
        assert coeffs.values.shape == (L + 1, 1)
        full_values = g.transform.synthesis_values(c.widened())
        scale = np.max(np.abs(full_values))
        assert np.max(np.abs(field - full_values)) <= 1e-14 * scale
        assert np.max(np.abs(at_angles - full_values[:, 0])) <= 1e-14 * scale
        assert field.shape == (g.n_theta, 1)
        full = g.transform.analysis_coeffs(
            np.repeat(field, g.n_phi, axis=1)).values
        assert np.max(np.abs(coeffs.widened().values - full)) <= \
            1e-14 * np.max(np.abs(full))

    def test_tables_built_on_first_need(self, grid16, monkeypatch):
        """A zonal pass builds the m = 0 block alone.  The first full pass
        of one field builds and keeps the table of every order, over the
        representative rings alone and trimmed at LEGENDRE_FLOOR, under a
        budget below the tables' bounds (11016 B and 7344 B) too; under
        that budget a stack streams every order and keeps none, until a
        one-field pass keeps them.  A table that fits LEGENDRE_BYTES is
        kept by the first full pass, one field or a stack.  Each transform
        builds its own cos/sin table, equal for equal (L, n_phi)."""
        from sol_lab import sphere_grid
        orders, rings, floors = [], [], []
        table = sphere_grid.normalized_legendre

        def recorded(band_limit, t, m_max=None, floor=0.0):
            orders.append(m_max)
            rings.append(len(t))
            floors.append(floor)
            return table(band_limit, t, m_max, floor)

        monkeypatch.setattr(sphere_grid, "normalized_legendre", recorded)
        L, n_phi = grid16.band_limit, grid16.n_phi
        a, b = (ProductTransform(L, t, n_phi, np.ones(t.size))
                for t in (grid16.t, np.linspace(-0.9, 0.9, 7)))
        zonal = SHCoefficients(np.zeros((L + 1, 1)))
        zonal.order(0)[3] = 1.0
        a.synthesis_values(zonal)
        a.analysis_coeffs(np.ones((grid16.n_theta, 1)))
        assert orders == [0]
        full = zonal.widened()
        full.order(2)[3] = 1.0
        budget = sphere_grid.LEGENDRE_BYTES
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", 7000)
        a.synthesis_values(full)
        b.analysis_coeffs(np.ones((7, n_phi)))
        assert orders == [0, L, L]
        a.synthesis_values(full)  # read the kept tables
        b.analysis_coeffs(np.ones((7, n_phi)))
        assert orders == [0, L, L]
        # the tables span the representative rings: 8 pairs and the
        # equator of 17 Gauss nodes; the pair +-0.9 and 5 solo rings of 7
        assert rings == [9, 9, 6]
        assert floors == [LEGENDRE_FLOOR] * 3
        assert [len(tr._plm) for tr in (a, b)] == [L + 1] * 2
        # the m = 0 block spans every representative ring
        assert [tr._plm[0][0] for tr in (a, b)] == [0, 0]
        # stacks stream and build nothing, then read the kept table
        stack = SHCoefficients(np.stack([full.values] * 2))
        c, d, e = (ProductTransform(L, grid16.t, n_phi,
                                    np.ones(grid16.n_theta)) for _ in range(3))
        for tr in (c, c, a):
            tr.synthesis_values(stack)
        assert orders == [0, L, L] and c._plm == []
        c.synthesis_values(full)
        assert orders == [0, L, L, L]
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", budget)
        d.synthesis_values(stack)
        e.synthesis_values(full)
        assert orders == [0, L, L, L, L, L]
        assert [len(tr._plm) for tr in (d, e)] == [L + 1] * 2
        assert a._trig() is not b._trig()
        assert np.array_equal(a._trig(), b._trig())


def reference_tables(tr):
    """Every order's Pbar block and the cos/sin tables of tr's nodes.  The
    angle m phi_j is reduced modulo 2 pi in integers, 2 pi ((m j) mod n) /
    n: the float product m * phi_j is off by about m ulps of phi_j, which
    at L = 32 moves a synthesis by 1e-14 relative."""
    n = tr.phi.size
    m, j = np.arange(tr.band_limit + 1)[:, None], np.arange(n)
    angle = 2.0 * np.pi * (m * j % n) / n
    return (normalized_legendre(tr.band_limit, tr.t), np.cos(angle),
            np.sin(angle))


def reference_synthesis(tr, c):
    """The unpaired transform: one matrix-vector product per order and trig
    part over every ring."""
    L = tr.band_limit
    plm, cos_m, sin_m = reference_tables(tr)
    if c.shape[-1] == 1:  # one column: the m = 0 sums
        return (c[:, 0] @ plm[0])[:, None]
    cc = np.zeros((L + 1, tr.t.size))
    cs = np.zeros((L + 1, tr.t.size))
    for m in range(L + 1):
        amp = np.sqrt(2.0) if m > 0 else 1.0
        cc[m] = amp * (c[m:, L + m] @ plm[m])
        if m > 0:
            cs[m] = amp * (c[m:, L - m] @ plm[m])
    return cc.T @ cos_m + cs.T @ sin_m


def reference_analysis(tr, values):
    L = tr.band_limit
    plm, cos_m, sin_m = reference_tables(tr)
    if values.shape[-1] == 1:  # one longitude carrying the ring weight
        return (plm[0] @ (tr.ring_weights * values)[:, 0])[:, None]
    out = np.zeros((L + 1, 2 * L + 1))
    w = tr.weights * values
    fc, fs = w @ cos_m.T, w @ sin_m.T
    for m in range(L + 1):
        amp = np.sqrt(2.0) if m > 0 else 1.0
        out[m:, L + m] = amp * (plm[m] @ fc[:, m])
        if m > 0:
            out[m:, L - m] = amp * (plm[m] @ fs[:, m])
    return out


def mirror_rings(t):
    """(representatives, solo rings, mirrors), by a scan over all rings:
    each t > 0 ring, from the last, pairs with the first unpaired ring at
    exactly -t."""
    reps, mirrors = [], []
    for i in reversed(range(t.size)):
        for j in range(t.size):
            if t[i] > 0.0 and t[j] == -t[i] and j not in mirrors:
                reps.append(i)
                mirrors.append(j)
                break
    solo = [i for i in range(t.size) if i not in reps + mirrors]
    return reps, solo, mirrors


def table_rings(t):
    """(table, paired, mirrors): the representative rings in polar-first
    table order, the positions of the paired ones in it and their mirrors
    in the same order.  Each cap segment (solo rings of t > 0 and of
    t < 0) runs from its pole outward, the segment with the ring nearest a
    pole first; then the pairs from the pole to the equator, then the solo
    rings at t = 0."""
    reps, solo, mirrors = mirror_rings(t)
    caps = [sorted((i for i in solo if t[i] > 0.0), key=lambda i: -t[i]),
            sorted((i for i in solo if t[i] < 0.0), key=lambda i: t[i])]
    caps.sort(key=lambda cap: -abs(t[cap[0]]) if cap else 0.0)
    pairs = sorted(zip(reps, mirrors), key=lambda pair: -t[pair[0]])
    first = len(caps[0]) + len(caps[1])
    table = (caps[0] + caps[1] + [i for i, _ in pairs]
             + [i for i in solo if t[i] == 0.0])
    return table, slice(first, first + len(pairs)), [j for _, j in pairs]


def mirror_longitudes(tr):
    """(turns, period, reps, pairs, trig) of tr's n uniform longitudes:
    phi_{n-j} = -phi_j and, for even n, phi_{n/2+j} = phi_j + pi, so the
    longitudes j < reps stand for every longitude as o + j and (for
    1 <= j <= pairs) o - j, o = 0 or n/2.  trig is the cos/sin table over
    them, laid out (part, m, j) as the transform's."""
    n = tr.phi.size
    turns = 2 if n % 2 == 0 else 1
    period = n // turns
    reps, pairs = period // 2 + 1, (period - 1) // 2
    trig = np.stack(reference_tables(tr)[1:])[:, :, :reps].copy()
    return turns, period, reps, pairs, trig


def paired_synthesis(tr, c):
    """The paired transform of one field, order by order, on the table
    trimmed at LEGENDRE_FLOOR: the cos and sin rows of each parity of
    l - m in one product with the table's even or odd rows over the rings
    the order keeps, E + O on a representative ring and E - O on its
    mirror, exact zeros on the rings it drops.  Then the longitude step:
    per parity of m one product with the table over the representative
    longitudes j; the parities' sum and difference are the sums at j and
    n/2 + j, cos plus sin there, cos minus sin at n - j and n/2 - j.
    Operands have the transform's memory layouts, since BLAS rounds by
    layout."""
    L, n = tr.band_limit, tr.phi.size
    table, paired, mirrors = table_rings(tr.t)
    plm = normalized_legendre(L, tr.t[table], floor=LEGENDRE_FLOOR)
    # a[l, m]: the cos and sin coefficients of (l, m), sqrt 2 folded in
    if c.shape[-1] == 1:
        a = np.ascontiguousarray(c[:, :, None])
    else:
        a = np.stack([c[:, L:], np.pad(c[:, L - 1::-1], ((0, 0), (1, 0)))],
                     axis=-1)
        a[:, 1:] *= np.sqrt(2.0)
    k = len(table)
    rows = np.zeros((a.shape[2], a.shape[1], tr.t.size))  # [part, m, ring]
    for m in range(a.shape[1]):
        start = k - plm[m].shape[1]
        even = a[m::2, m].T @ plm[m][0::2]
        odd = a[m + 1::2, m].T @ plm[m][1::2]
        sums = np.zeros((2, a.shape[2], k))
        sums[0, :, start:] = even + odd
        sums[1, :, start:] = even - odd
        rows[:, m] = np.concatenate([sums[0], sums[1][:, paired]], axis=1)
    if c.shape[-1] == 1:
        values = rows[:, 0].T
    else:  # the Fourier step in table order
        turns, period, n_reps, pairs, trig = mirror_longitudes(tr)
        sums = []
        for part in (0, 1):
            by_parity = [rows[part, p::turns].T @ trig[part, p::turns]
                         for p in range(turns)]
            sums.append(by_parity if turns == 1 else
                        [by_parity[0] + by_parity[1],
                         by_parity[0] - by_parity[1]])
        values = np.empty((tr.t.size, n))
        for turn, (cos, sin) in enumerate(zip(*sums)):
            o = turn * period
            for j in range(n_reps):
                values[:, (o + j) % n] = cos[:, j] + sin[:, j]
            for j in range(1, pairs + 1):
                values[:, (o - j) % n] = cos[:, j] - sin[:, j]
    out = np.empty_like(values)
    out[table + mirrors] = values
    return out


def paired_analysis(tr, values):
    """The paired analysis of one field, order by order: the weighted
    values folded onto the representative longitudes (the adjoint of the
    synthesis' images), per parity of m one product with the table there,
    then the sums folded into S = f(t) + f(-t) and D = f(t) - f(-t), which
    the even and odd rows read over the rings each order keeps (a solo
    ring is its own S and D)."""
    L, n = tr.band_limit, values.shape[-1]
    table, paired, mirrors = table_rings(tr.t)
    plm = normalized_legendre(L, tr.t[table], floor=LEGENDRE_FLOOR)
    if n == 1:
        f = (tr.ring_weights * values)[:, :, None]
    else:  # f[ring, part, m]: the cos and sin sums of order m
        turns, period, n_reps, pairs, trig = mirror_longitudes(tr)
        w = tr.weights * values
        ahead = [w[:, o:o + n_reps] for o in range(0, n, period)]
        behind = [w[:, [(o - j) % n for j in range(1, pairs + 1)]]
                  for o in range(0, n, period)]
        if turns == 2:
            ahead = [ahead[0] + ahead[1], ahead[0] - ahead[1]]
            behind = [behind[0] + behind[1], behind[0] - behind[1]]
        f = np.empty((tr.t.size, 2, L + 1))
        for p in range(turns):
            sin = ahead[p].copy()
            sin[:, 1:pairs + 1] -= behind[p]
            cos = ahead[p]
            cos[:, 1:pairs + 1] += behind[p]
            f[:, 0, p::turns] = cos @ trig[0, p::turns].T
            f[:, 1, p::turns] = sin @ trig[1, p::turns].T
    # S is a fresh array, (ring, m, part), and D the gathered sums,
    # (ring, part, m), as in the transform
    s = np.ascontiguousarray(f[table].transpose(0, 2, 1))
    d = f[table]
    s[paired] += f[mirrors].transpose(0, 2, 1)
    d[paired] -= f[mirrors]
    orders = f.shape[2]
    out = np.zeros((L + 1, 2 * orders - 1))
    for m in range(orders):
        start = len(table) - plm[m].shape[1]
        amp = np.sqrt(2.0) if m > 0 else 1.0
        part = np.zeros((L + 1 - m, f.shape[1]))
        part[0::2] = plm[m][0::2] @ s[start:, m]
        part[1::2] = plm[m][1::2] @ d[start:, :, m]
        out[m:, orders - 1 + m] = amp * part[:, 0]
        if m > 0:
            out[m:, orders - 1 - m] = amp * part[:, 1]
    return out


def transform_cases(g, rng):
    """(transform, coefficients): the grid transform on random coefficients
    and on their m = 0 column (one-column values), and a product block on
    custom colatitudes."""
    L = g.band_limit
    t = np.random.default_rng(3).uniform(-1.0, 1.0, 45)
    block = ProductTransform(L, t, g.n_phi, np.full(t.size, 0.01 * g.n_phi))
    c = rng.normal(size=(2, 3, L + 1, 2 * L + 1))
    return {"grid": (g.transform, c), "zonal": (g.transform, c[..., L:L + 1]),
            "block": (block, c)}


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestBatchAxis:
    """Transforms over leading batch axes: the fields of a stack share one
    pass over each Legendre block."""

    @pytest.mark.parametrize("name", ["grid", "zonal", "block"])
    def test_batch_matches_per_field_loop(self, grid64, rng, name):
        tr, c = transform_cases(grid64, rng)[name]
        values = tr.synthesis_values(SHCoefficients(c))
        loop = np.array([[tr.synthesis_values(SHCoefficients(ci))
                          for ci in row] for row in c])
        n_phi = 1 if name == "zonal" else tr.phi.size
        assert values.shape == (2, 3, tr.t.size, n_phi)
        assert max_rel(values, loop) <= 1e-14
        coeffs = tr.analysis_coeffs(values).values
        loop = np.array([[tr.analysis_coeffs(v).values for v in row]
                         for row in values])
        assert coeffs.shape == c.shape
        assert max_rel(coeffs, loop) <= 1e-14

    @pytest.mark.parametrize("name", ["grid", "zonal", "block"])
    def test_unbatched_is_per_order_arithmetic(self, grid64, rng, name):
        """One field, alone or as a stack of one, gives bit for bit the
        paired arithmetic, order by order."""
        tr, c = transform_cases(grid64, rng)[name]
        c = c[0, 0]
        values = tr.synthesis_values(SHCoefficients(c))
        assert np.array_equal(values, paired_synthesis(tr, c))
        assert np.array_equal(
            tr.synthesis_values(SHCoefficients(c[None]))[0], values)
        coeffs = tr.analysis_coeffs(values).values
        assert np.array_equal(coeffs, paired_analysis(tr, values))
        assert np.array_equal(tr.analysis_coeffs(values[None]).values[0],
                              coeffs)

    @pytest.mark.parametrize("name", ["grid", "block"])
    def test_order_rows(self, grid64, rng, name):
        """A stack's order rows are its coefficients order by order, sqrt 2
        folded in for m > 0 and a zero sine column at m = 0, in consecutive
        views of one array of K (L + 1)(L + 2) floats, and a synthesis from
        them is the synthesis from the coefficients, bit for bit."""
        tr, c = transform_cases(grid64, rng)[name]
        L = tr.band_limit
        rows = OrderRows.gather(SHCoefficients(c))
        assert (rows.batch, rows.fields, rows.band_limit) == ((2, 3), 6, L)
        flat = c.reshape(6, L + 1, 2 * L + 1)
        base = rows.blocks[0].base
        assert base.size == 6 * (L + 1) * (L + 2)
        for m, block in enumerate(rows.blocks):
            assert block.shape == (L + 1 - m, 12) and block.base is base
            cos, sin = block[:, 0::2].T, block[:, 1::2].T
            scale = SQRT2 if m else 1.0
            assert np.array_equal(cos, scale * flat[:, m:, L + m])
            assert np.array_equal(sin, scale * flat[:, m:, L - m]
                                  if m else np.zeros_like(sin))
        assert np.array_equal(tr.synthesis_values(rows),
                              tr.synthesis_values(SHCoefficients(c)))
        one = SHCoefficients(c[0, 0])
        assert np.array_equal(tr.synthesis_values(OrderRows.gather(one)),
                              tr.synthesis_values(one))
        with pytest.raises(BandLimitError):
            build_grid(17, 34).transform.synthesis_values(rows)

    def test_coefficient_properties_read_last_axes(self, grid16, rng):
        L = grid16.band_limit
        c = SHCoefficients(rng.normal(size=(L + 1, 1)))
        stack = SHCoefficients(np.stack([c.values, 2.0 * c.values]))
        assert stack.band_limit == L
        assert np.array_equal(stack.order(0), [c.order(0), 2.0 * c.order(0)])
        assert np.array_equal(stack.mean, [c.mean, 2.0 * c.mean])
        stack = stack.widened()
        stack.order(-2)[1, 3] = 1.0
        assert stack.values[1, 3, L - 2] == 1.0
        assert np.array_equal(stack.mean, [c.mean, 2.0 * c.mean])
        assert dirichlet_energy(stack)[1] == pytest.approx(
            dirichlet_energy(SHCoefficients(stack.values[1])), rel=1e-15)

    def test_widened_column(self, rng):
        """A column widens to every order with zeros off m = 0, at its own
        or a higher band limit; full-width coefficients are returned as
        they are, and a column holds no order but 0."""
        c = SHCoefficients(rng.normal(size=(2, 5, 1)))
        wide = c.widened()
        assert wide.values.shape == (2, 5, 9)
        assert np.array_equal(wide.order(0), c.order(0))
        assert not np.delete(wide.values, 4, axis=-1).any()
        assert wide.widened() is wide
        higher = wide.widened(7)
        assert higher.values.shape == (2, 8, 15)
        assert np.array_equal(higher.order(0)[:, :5], c.order(0))
        assert np.array_equal(c.widened(7).values, higher.values)
        assert not higher.values[:, 5:].any()
        for m in (1, -1):
            with pytest.raises(IndexError):
                c.order(m)

    def test_random_fields_are_one_draw_per_sample(self, grid16):
        """Each field's coefficients are one normal draw in the order of a
        per-degree loop, returned as drawn, so the stream does not depend on
        the stacking; random_band_limited scales its one draw to
        max |u| = 2 on the grid."""
        g, L = grid16, grid16.band_limit
        rng = np.random.default_rng(11)
        fields = random_band_limited_batch(g, rng, 3)
        assert fields.values.shape == (3, L + 1, 2 * L + 1)
        ref = np.random.default_rng(11)
        for field in fields.values:
            c = SHCoefficients.zeros(L)
            for l in range(1, L + 1):
                c.values[l, L - l:L + l + 1] = \
                    ref.normal(size=2 * l + 1) / (1.0 + l) ** 2.0
            assert np.array_equal(field, c.values)
        assert rng.normal() == ref.normal()
        # below the band limit and at another decay, against one per-field
        # rng.normal draw, the fields drawn one after another
        fields = random_band_limited_batch(g, rng, 4, L - 3, 1.5)
        for field in fields.values:
            z, c, i = ref.normal(size=(L - 2) ** 2 - 1), SHCoefficients.zeros(L), 0
            for l in range(1, L - 2):
                c.values[l, L - l:L + l + 1] = z[i:i + 2 * l + 1] / (1.0 + l) ** 1.5
                i += 2 * l + 1
            assert np.array_equal(field, c.values)
        assert rng.normal() == ref.normal()
        one = random_band_limited(g, np.random.default_rng(11))
        first = random_band_limited_batch(g, np.random.default_rng(11), 1)
        want = g.transform.synthesis_values(SHCoefficients(first.values[0]))
        want *= 2.0 / np.max(np.abs(want))
        assert np.array_equal(one, want)
        assert np.max(np.abs(one)) == pytest.approx(2.0, rel=1e-15)


def pairing_cases():
    """name -> transform at L = 32: Gauss grids of odd n_theta (an equator
    ring) and even n_theta, the axis block of two caps of unequal orders,
    and random colatitudes with no mirror pair."""
    grid = build_grid(33, 66)
    w = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5),
                                    ((0.0, 0.0, -1.0), 0.3)])
    t = np.random.default_rng(7).uniform(-1.0, 1.0, 40)
    return {"odd": grid.transform, "even": build_grid(34, 66).transform,
            "axis": integrator_for(grid, w).transform,
            "no pairs": ProductTransform(32, t, 66, np.full(t.size, 0.3))}


class TestRingPairs:
    """Mirror rings (t, -t) share one Legendre table row by parity."""

    def test_parity_at_minus_t(self):
        """Pbar_{l,m}(-t) = (-1)^{l+m} Pbar_{l,m}(t): bit for bit from the
        recurrence, and to 1e-12 against scipy at pi - theta."""
        theta = np.linspace(0.0, 0.5 * np.pi, 40)
        t = np.cos(theta)
        table, flipped = normalized_legendre(64, t), normalized_legendre(64, -t)
        for m, (block, mirror) in enumerate(zip(table, flipped)):
            l = np.arange(m, 65)[:, None]
            assert np.array_equal(mirror, (-1.0) ** (l + m) * block), m
            expected = (-1.0) ** m * sph_legendre_p(l, m, np.pi - theta)
            assert np.max(np.abs(mirror - expected)) <= 1e-12, m

    def test_pairs_observed(self):
        """Every grid ring but the equator has its exact mirror, and so
        does every band ring of a two-cap block; cap rings and random
        colatitudes are solo.  The table spans one ring of each pair and
        the solo rings."""
        cases = pairing_cases()
        counts = {}
        for name, tr in cases.items():
            reps, solo, mirrors = mirror_rings(tr.t)
            counts[name] = (len(reps), len(solo))
            start, even, odd = tr._legendre(1)[0]
            assert start == 0
            assert even.shape[1] == odd.shape[1] == len(reps) + len(solo)
        n_axis = cases["axis"].t.size
        assert counts == {"odd": (16, 1), "even": (17, 0),
                          "axis": ((n_axis - 64) // 2, 64),
                          "no pairs": (0, 40)}

    @pytest.mark.parametrize("name", ["odd", "even", "axis", "no pairs"])
    def test_matches_unpaired_reference(self, name, rng):
        """A batch of K = 4 fields, full and as zonal columns, synthesizes
        and analyses as the unpaired per-order transform does, to 1e-14
        relative."""
        tr = pairing_cases()[name]
        L = tr.band_limit
        c = rng.normal(size=(4, L + 1, 2 * L + 1))
        for coeffs in (c, c[..., L:L + 1]):
            values = tr.synthesis_values(SHCoefficients(coeffs))
            want = np.array([reference_synthesis(tr, ci) for ci in coeffs])
            assert values.shape == want.shape
            assert max_rel(values, want) <= 1e-14
            got = tr.analysis_coeffs(values).values
            want = np.array([reference_analysis(tr, v) for v in values])
            assert got.shape == coeffs.shape
            assert max_rel(got, want) <= 1e-14


    @pytest.mark.parametrize("name", ["odd", "even", "axis", "no pairs"])
    def test_table_order_is_polar_first(self, name):
        """The transform's ring order is the scan's: the representatives
        in polar-first segments, then the mirrors of the paired ones."""
        tr = pairing_cases()[name]
        table, paired, mirrors = table_rings(tr.t)
        assert np.array_equal(tr._order, table + mirrors)
        assert (tr._paired, tr._reps) == (paired, len(table))

    def test_runs_cover_the_ring_order(self):
        """A pass writes its table-order rows to ring order by runs of
        consecutive rings; the runs cover the table order exactly, for the
        grids and the block (2, 2 and 4 runs: the caps, the pairs and their
        mirrors), random colatitudes sorted from the poles (37) and any
        order."""
        orders = [tr._order for tr in pairing_cases().values()]
        assert [len(_ring_runs(order)) for order in orders] == [2, 2, 4, 37]
        rng = np.random.default_rng(5)
        orders += [rng.permutation(50), np.arange(9)[::-1], np.array([0])]
        for order in orders:
            rings = np.full(order.size, -1)
            for table, ring in _ring_runs(order):
                rings[table] = np.arange(order.size)[ring]
            assert np.array_equal(rings, order)


def trim_cases():
    """name -> transform at L = 64 whose table drops polar rings: a Gauss
    grid, the axis block of two caps, the axis block of one cap (a band
    with no mirror pairs), random asymmetric colatitudes, and rings so near
    the poles, one pair among them, that the high orders keep none."""
    grid = build_grid(65, 130)
    two = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5),
                                      ((0.0, 0.0, -1.0), 0.3)])
    one = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5)])
    theta = np.random.default_rng(9).uniform(0.0, np.pi, 70)
    return {"gauss": grid.transform,
            "two caps": integrator_for(grid, two).transform,
            "one cap": integrator_for(grid, one).transform,
            "random": ProductTransform(64, np.cos(theta), 130,
                                       np.full(theta.size, 0.2)),
            "polar": ProductTransform(64, np.array([0.9999, -0.9999, 0.99995,
                                                    -0.9998]), 130,
                                      np.full(4, 0.5))}


class TestPolarTrim:
    """Each order's table keeps the suffix of the polar-first rings from
    the first ring where some |Pbar_{l,m}| reaches LEGENDRE_FLOOR."""

    @pytest.mark.parametrize("name", ["gauss", "two caps", "one cap",
                                      "random", "polar"])
    def test_omitted_columns_below_floor(self, name):
        """Against scipy: every dropped (m, ring) column is below the floor
        at every degree, m = 0 drops nothing, the kept suffixes shrink with
        m, and the trim drops something on every node set."""
        tr = trim_cases()[name]
        L = tr.band_limit
        t = tr.t[tr._order[:tr._reps]]
        starts = [start for start, _, _ in tr._legendre(L + 1)]
        assert starts[0] == 0 and sum(starts) > 0
        assert starts == sorted(starts)
        assert LEGENDRE_FLOOR <= 1e-20
        for m, start in enumerate(starts):
            if start:
                l = np.arange(m, L + 1)[:, None]
                dropped = sph_legendre_p(l, m, np.arccos(t[:start]))
                assert np.max(np.abs(dropped)) < LEGENDRE_FLOOR, m

    @pytest.mark.parametrize("name", ["gauss", "two caps", "one cap",
                                      "random", "polar"])
    def test_matches_untrimmed_reference(self, name, rng):
        """One field, a K = 4 stack and zonal columns synthesize and
        analyse as the untrimmed per-order transform does, to 1e-14
        relative; the rings an order drops are written as exact zeros, so
        a field of one order vanishes there."""
        tr = trim_cases()[name]
        L = tr.band_limit
        c = rng.normal(size=(4, L + 1, 2 * L + 1))
        for coeffs in (c[0], c, c[..., L:L + 1]):
            values = tr.synthesis_values(SHCoefficients(coeffs))
            want = np.array([reference_synthesis(tr, ci)
                             for ci in coeffs.reshape((-1,) + c.shape[1:2]
                                                      + coeffs.shape[-1:])])
            assert max_rel(values, want.reshape(values.shape)) <= 1e-14
            got = tr.analysis_coeffs(values).values
            want = np.array([reference_analysis(tr, v) for v in
                             values.reshape((-1,) + values.shape[-2:])])
            assert max_rel(got, want.reshape(got.shape)) <= 1e-14
        start, _, _ = tr._legendre(L + 1)[L]
        one = SHCoefficients.zeros(L)
        one.order(L)[L] = 1.0
        values = tr.synthesis_values(one)
        dropped = tr._order[:start]
        dropped = np.concatenate(
            [dropped, tr._order[tr._reps:][:max(0, start - tr._paired.start)]])
        assert start > 0 and not values[dropped].any()


    def test_no_recurrence_once_every_ring_is_dropped(self, monkeypatch):
        """The polar ring group of the L = 64 two-cap block (its 52 cap
        rings) keeps no ring from order 33 on.  Under a LEGENDRE_BYTES of 8
        orders a group, its recurrence runs for the groups up to that order
        alone (5 of 9), every later block is empty, and every block is bit
        for bit the suffix of the untrimmed recurrence's."""
        L = 64
        w = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5),
                                        ((0.0, 0.0, -1.0), 0.3)])
        (polar, _), *_ = integrator_for(build_grid(65, 130), w)._ring_groups
        t = polar.t[polar._order[:polar._reps]]
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES",
                            8 * 8 * (L + 4) * t.size)
        calls, group = [], sphere_grid._legendre_group

        def counted(L, m0, *args):
            calls.append(m0)
            return group(L, m0, *args)

        monkeypatch.setattr(sphere_grid, "_legendre_group", counted)
        trimmed = [b.copy() for blocks in
                   _legendre_groups(L, t, L, LEGENDRE_FLOOR) for _, b in blocks]
        first = next(m for m, b in enumerate(trimmed) if b.shape[1] == 0)
        assert first == 33 and calls == [0, 8, 16, 24, 32]
        assert all(b.shape == (L + 1 - m, 0)
                   for m, b in enumerate(trimmed) if m >= first)
        calls.clear()
        full = [b.copy() for blocks in _legendre_groups(L, t, L, 0.0)
                for _, b in blocks]
        assert len(calls) == 9
        for b, f in zip(trimmed, full):
            assert np.array_equal(b, f[:, f.shape[1] - b.shape[1]:])

    @pytest.mark.parametrize("orders", [(-0.5, 0.3), (0.3, -0.5),
                                        (-0.22, 1.09)])
    def test_two_cap_table_and_stack_memory(self, grid128, orders, rng,
                                            monkeypatch):
        """At L = 128 the two-cap table holds at most 0.82 of the entries
        of the untrimmed one, whichever cap is nearer its pole, and a
        stack of as many samples as BATCH_BUDGET holds beside one Legendre
        group at a field's coefficient and order-row bytes, 24 (L + 1)^2
        (147 here), with no room for one field more, fits BATCH_BUDGET
        from its draw to its gaps: the traced peak of ``sample_gaps`` on
        that many samples, one stack, the ring groups built in it."""
        from sol_lab import mt_functional, sphere_grid
        L = grid128.band_limit
        w = SingularWeight.from_orders([((0.0, 0.0, 1.0), orders[0]),
                                        ((0.0, 0.0, -1.0), orders[1])])
        integ = integrator_for(grid128, w)
        tr = integ.transform
        kept = sum(even.size + odd.size for _, even, odd in tr._legendre(L + 1))
        assert kept <= 0.82 * tr._reps * (L + 1) * (L + 2) // 2
        budget, legendre = mt_functional.BATCH_BUDGET, sphere_grid.LEGENDRE_BYTES
        field = 24 * (L + 1) ** 2
        k = (budget - legendre) // field
        assert legendre + (k + 1) * field > budget
        sizes, draw = [], sphere_grid.random_band_limited_batch

        def recorded(grid, rng, count):
            sizes.append(count)
            return draw(grid, rng, count)

        monkeypatch.setattr(sphere_grid, "random_band_limited_batch", recorded)
        tracemalloc.start()
        try:
            mt_functional.sample_gaps(grid128, rng, k, w, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sizes == [k]
        assert peak <= budget, peak


class TestStreamedPass:
    """One keep rule: a transform keeps a table from its first need, except
    that a stack of two or more fields on a table whose bound exceeds
    LEGENDRE_BYTES streams its blocks and keeps nothing; so a transform
    that makes stacks alone never holds a large table."""

    @pytest.mark.parametrize("name", ["gauss", "one cap", "two caps"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_streamed_pass_is_the_kept_pass(self, name, batch, rng,
                                            monkeypatch):
        """Under a budget cut to 64 KiB, below these L = 64 tables' bounds,
        on a Gauss grid, a one-cap and a two-cap block: the first pass of
        one field keeps every order, and gives bit for bit what a table
        kept under the default budget gives; the first pass of a stack, on
        a fresh transform, keeps no block, and gives bit for bit what the
        table a one-field pass keeps after it gives.  Synthesis and
        analysis alike; the trim drops rings, so the streamed blocks are
        views into the group arrays."""
        def passes(budget):
            monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", budget)
            synthesis, analysis = (trim_cases()[name] for _ in range(2))
            values = synthesis.synthesis_values(c)
            coeffs = analysis.analysis_coeffs(values).values
            assert [len(tr._plm) for tr in (synthesis, analysis)] == \
                [0 if batch else L + 1] * 2
            if batch:  # one field keeps the tables
                synthesis.synthesis_values(SHCoefficients(c.values[0]))
                analysis.analysis_coeffs(values[0])
                assert np.array_equal(values, synthesis.synthesis_values(c))
                assert np.array_equal(
                    coeffs, analysis.analysis_coeffs(values).values)
            assert [len(tr._plm) for tr in (synthesis, analysis)] == \
                [L + 1] * 2
            assert any(start for start, _, _ in synthesis._plm)
            return values, coeffs

        L, default = 64, sphere_grid.LEGENDRE_BYTES
        c = SHCoefficients(rng.normal(size=batch + (L + 1, 2 * L + 1)))
        cut = passes(1 << 16)
        if not batch:
            kept = passes(default)
            assert all(np.array_equal(a, b) for a, b in zip(cut, kept))


    def test_streamed_stack_stays_within_budget(self, rng, monkeypatch):
        """A stack of K = 8 full-width fields on the L = 64 two-cap block
        (164 representative rings) under a 512 KiB budget streams 13 groups
        of 5 orders, and the traced peak of its pass from its order rows
        (``OrderRows``, gathered before) holds its values, LEGENDRE_BYTES
        and the two per-order even and odd products, 2 * 8 * 2K * reps
        bytes: one group is alive at a time, and the last one is let go
        before the Fourier step, whose temporaries (about 0.37 MB a field
        here) the budget then covers."""
        L, K, budget = 64, 8, 1 << 19
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", budget)
        tr = trim_cases()["two caps"]
        assert budget // (8 * tr._reps) // (L + 4) == 5
        c = OrderRows.gather(
            SHCoefficients(rng.normal(size=(K, L + 1, 2 * L + 1))))
        tr._trig()  # kept from the first pass; not this pass's memory
        tracemalloc.start()
        try:
            values = tr.synthesis_values(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tr._plm == []
        assert peak <= values.nbytes + budget + 2 * 8 * 2 * K * tr._reps, \
            peak


    def test_stacked_analysis_memory(self, rng, monkeypatch):
        """Analysis of a stack of K = 8 full-width fields on the L = 64
        two-cap block (2.2 MB of values) under a 512 KiB budget traces a
        peak of at most three times its values: the weighted copy, the
        Fourier array, its turn totals and a product's output, and then
        the fold's two copies."""
        L, K = 64, 8
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES", 1 << 19)
        tr = trim_cases()["two caps"]
        values = rng.normal(size=(K, tr.t.size, tr.phi.size))
        tr._trig()  # kept from the first pass; not this pass's memory
        tracemalloc.start()
        try:
            coeffs = tr.analysis_coeffs(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert coeffs.values.shape == (K, L + 1, 2 * L + 1)
        assert peak <= 3 * values.nbytes, peak


class TestRingGroups:
    """``ProductTransform.ring_groups``: the fewest mirror-closed groups
    of a node set's rings under a ring bound."""

    @staticmethod
    def check(tr, most):
        groups = tr.ring_groups(most)
        rings = np.concatenate([r for r, _ in groups])
        assert np.array_equal(np.sort(rings), np.arange(tr.t.size))
        mirror = dict(zip(tr._order[tr._paired], tr._order[tr._reps:]))
        for r, group in groups:
            assert r.size <= max(most, 2)
            assert set(mirror[i] for i in r if i in mirror) <= set(r)
            assert np.array_equal(group.t, tr.t[r])
            if len(groups) > 1:
                assert group._table_reps == tr._reps
                assert group._fourier is tr._fourier
        return groups

    def test_seed_block_takes_three(self):
        """The L = 256 two-cap block, 643 rings of 514 longitudes, in
        groups whose values take at most the bytes of the coefficients,
        (L + 1)(2L + 1) / 514 = 256 rings: 3, of 214 or 215 rings."""
        block = integrator_for(build_grid(257, 514), SingularWeight.from_orders(
            [((0.0, 0.0, 1.0), -0.5), ((0.0, 0.0, -1.0), 0.7)])).transform
        groups = self.check(block, 257 * 513 // 514)
        assert [r.size for r, _ in groups] == [214, 214, 215]
        assert block._fourier is not None and block._plm == []

    @pytest.mark.parametrize("name", ["gauss", "two caps", "one cap",
                                      "random", "polar"])
    @pytest.mark.parametrize("most", [1, 2, 7, 64, 1000])
    def test_groups_cover_the_rings(self, name, most):
        """Every ring in one group, each paired ring with its mirror, no
        group above the bound; one group is the transform itself."""
        tr = trim_cases()[name]
        groups = self.check(tr, most)
        if most >= tr.t.size:
            assert groups[0][1] is tr
        else:
            assert len(groups) >= -(-tr.t.size // max(most, 2))


class TestLegendreUnderTracers:
    """Tracers and profilers hold references to a frame's locals (a
    sys.settrace hook, as coverage.py and pdb install, and cProfile);
    building a trimmed table must not depend on there being none."""

    def build(self):
        t = np.cos(np.linspace(0.01, 1.5, 60))  # polar-first rings
        return normalized_legendre(64, t, floor=LEGENDRE_FLOOR)

    def check(self, table):
        want = self.build()
        assert table[-1].shape[1] < table[0].shape[1]  # trimmed
        assert [b.shape for b in table] == [b.shape for b in want]
        assert all(np.array_equal(a, b) for a, b in zip(table, want))

    def test_under_settrace(self):
        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            table = self.build()
        finally:
            sys.settrace(previous)
        self.check(table)

    def test_under_cprofile(self):
        self.check(cProfile.Profile().runcall(self.build))


class TestLongitudePairs:
    """Uniform longitudes phi_j = 2 pi j / n in mirror pairs: phi_{n-j} =
    -phi_j, and for even n phi_{n/2+j} = phi_j + pi.  These sizes take n/2
    odd and even, n odd, and the L = 256 grid's n = 514."""

    @pytest.mark.parametrize("n_phi", [4, 34, 64, 129, 514])
    def test_images_cover_every_longitude_once(self, n_phi):
        tr = ProductTransform(8, np.array([0.5]), n_phi)
        phi = np.arange(n_phi)
        images = tr._images
        columns = np.concatenate([phi[s] for image in images for s in image])
        assert np.array_equal(np.sort(columns), phi)
        # o + j and o - j: the image of the representative longitude j
        for o, (ahead, behind) in zip((0, n_phi // 2), images):
            j = np.arange(phi[ahead].size)
            assert np.array_equal(phi[ahead], o + j)
            assert np.array_equal(phi[behind], (o - j[1:phi[behind].size + 1])
                                  % n_phi)

    @pytest.mark.parametrize("n_phi", [4, 34, 64, 129, 514])
    def test_matches_unpaired_reference(self, n_phi, rng):
        """A K = 4 stack on the two-cap block (ring pairs and solo cap
        rings) synthesizes and analyses as the unpaired per-order transform
        does, and as its per-field loop, to 1e-14 relative."""
        block = pairing_cases()["axis"]
        tr = ProductTransform(block.band_limit, block.t, n_phi,
                              block.ring_weights)
        L = tr.band_limit
        c = rng.normal(size=(4, L + 1, 2 * L + 1))
        values = tr.synthesis_values(SHCoefficients(c))
        want = np.array([reference_synthesis(tr, ci) for ci in c])
        assert values.shape == want.shape == (4, tr.t.size, n_phi)
        assert max_rel(values, want) <= 1e-14
        loop = np.array([tr.synthesis_values(SHCoefficients(ci)) for ci in c])
        assert max_rel(values, loop) <= 1e-14
        got = tr.analysis_coeffs(values).values
        want = np.array([reference_analysis(tr, v) for v in values])
        assert max_rel(got, want) <= 1e-14
        loop = np.array([tr.analysis_coeffs(v).values for v in values])
        assert max_rel(got, loop) <= 1e-14

    @pytest.mark.parametrize("n_phi", [4, 34, 64, 129, 514])
    def test_round_trip_on_gauss_grid(self, n_phi, rng):
        """Analysis after synthesis returns band-limited coefficients: the
        33 Gauss rings and n_phi > 2L longitudes integrate every product
        of two harmonics of degree <= L exactly."""
        g = build_grid(33, n_phi)
        L = g.band_limit
        c = rng.normal(size=(3, L + 1, 2 * L + 1))
        c[:, np.abs(np.arange(-L, L + 1)) > np.arange(L + 1)[:, None]] = 0.0
        values = g.transform.synthesis_values(SHCoefficients(c))
        assert max_rel(g.transform.analysis_coeffs(values).values, c) <= 1e-13

    def test_analysis_rejects_other_longitudes(self, grid16):
        with pytest.raises(ValueError, match="longitudes"):
            grid16.transform.analysis_coeffs(np.ones((grid16.n_theta, 33)))


class TestDirichletEnergy:
    def test_constant_is_zero(self, grid64):
        c = grid64.transform.analysis_coeffs(np.full((grid64.n_theta, 1), 3.7))
        assert dirichlet_energy(c) < 1e-20

    def test_x3(self, grid64):
        # -Delta x3 = 2 x3, so the energy is 2 * int x3^2 = 8 pi / 3
        c = grid64.transform.analysis_coeffs(grid64.nodes[..., 2])
        assert abs(dirichlet_energy(c) - 8.0 * np.pi / 3.0) < 1e-10

    def test_x1_by_symmetry(self, grid64):
        c = grid64.transform.analysis_coeffs(grid64.nodes[..., 0])
        assert abs(dirichlet_energy(c) - 8.0 * np.pi / 3.0) < 1e-10

    def test_shift_invariance_is_exact(self, grid64, rng):
        c = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        assert dirichlet_energy(c) == dirichlet_energy(c.shifted(17.3))


class TestGeodesicDistance:
    def test_coincident(self):
        p = np.array([0.0, 0.0, 1.0])
        assert geodesic_distance(p, p) == 0.0

    def test_antipodal(self):
        assert geodesic_distance([0, 0, 1], [0, 0, -1]) == pytest.approx(np.pi)

    def test_orthogonal(self):
        assert geodesic_distance([1, 0, 0], [0, 0, 1]) == pytest.approx(np.pi / 2)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_clamped_and_symmetric(self, seed):
        r = np.random.default_rng(seed)
        p = r.normal(size=3)
        p /= np.linalg.norm(p)
        q = r.normal(size=3)
        q /= np.linalg.norm(q)
        d = geodesic_distance(p, q)
        assert 0.0 <= d <= np.pi
        assert d == pytest.approx(geodesic_distance(q, p))
        # stays finite for nearly-parallel unit vectors with roundoff > 1
        assert geodesic_distance(p, p * (1.0 + 1e-16)) >= 0.0

    def test_array_of_points(self):
        """x of shape (..., 3) gives an array of that batch shape, point
        by point the one-point distance."""
        p = np.array([0.0, 0.6, 0.8])
        x = sphere_grid.ring_points(np.array([0.9, 0.0, -0.5]),
                                    np.array([0.0, 1.0]))
        d = geodesic_distance(p, x)
        assert d.shape == (3, 2)
        want = [[geodesic_distance(p, q) for q in row] for row in x]
        assert np.array_equal(d, want)
        np.testing.assert_allclose(np.cos(d), x @ p, rtol=0, atol=1e-15)

    def test_centre_with_norm_below_one(self):
        """A unit vector whose squared norm rounds below 1 is at distance
        exactly 0 from itself (arccos of the dot reads about 1.5e-8) and
        exactly pi from its antipode."""
        p = sphere_grid.ring_points(np.array([0.2]), np.array([2.0]))[0, 0]
        assert p @ p < 1.0
        assert np.arccos(p @ p) > 1e-8
        assert geodesic_distance(p, p) == 0.0
        assert geodesic_distance(p, p[None, :])[0] == 0.0
        assert geodesic_distance(p, -p) == np.pi


class TestGradient:
    """|grad u| of a degree-5 polynomial field against its closed form."""

    A = np.array([0.3, -0.5, 0.8])
    B = np.array([0.9, 0.1, -0.2])
    C = np.array([0.0, 0.6, 0.4])

    def field(self, x):
        return ((x @ self.A) ** 3 + (x @ self.B) * (x @ self.C)
                + x[..., 2] ** 5 + x[..., 0] * x[..., 1] ** 3 * x[..., 2])

    def exact_gradient(self, x):
        X, Y, Z = x[..., 0], x[..., 1], x[..., 2]
        g = (3.0 * (x @ self.A)[..., None] ** 2 * self.A
             + (x @ self.C)[..., None] * self.B
             + (x @ self.B)[..., None] * self.C
             + np.stack([Y**3 * Z, 3.0 * X * Y**2 * Z,
                         5.0 * Z**4 + X * Y**3], axis=-1))
        tangent = g - np.sum(g * x, axis=-1)[..., None] * x
        return np.linalg.norm(tangent, axis=-1)

    def coeffs(self, grid):
        c = grid.transform.analysis_coeffs(self.field(grid.nodes))
        c.values[6:] = 0.0  # exactly degree 5: drop the analysis roundoff
        return c

    def test_grid(self, grid64):
        exact = self.exact_gradient(grid64.nodes)
        grad = gradient_magnitude(self.coeffs(grid64),
                                  grid64.transform.synthesis_values,
                                  grid64.t[:, None])
        assert np.max(np.abs(grad - exact)) <= 1e-12 * np.max(exact)

    def test_angles(self, grid64, rng):
        t = rng.uniform(-1.0, 1.0, 200)
        phi = rng.uniform(0.0, 2.0 * np.pi, 200)
        st_ = np.sqrt(1.0 - t * t)
        pts = np.stack([st_ * np.cos(phi), st_ * np.sin(phi), t], axis=-1)
        exact = self.exact_gradient(pts)
        grad = gradient_at_angles(self.coeffs(grid64), t, phi)
        assert np.max(np.abs(grad - exact)) <= 1e-12 * np.max(exact)


def test_random_fields_above_the_band_limit(grid16):
    """l_max above the grid's band limit names both limits."""
    with pytest.raises(BandLimitError, match="l_max=20 .* 16"):
        random_band_limited(grid16, np.random.default_rng(0), l_max=20)
    with pytest.raises(BandLimitError, match="l_max=20 .* 16"):
        random_band_limited_batch(grid16, np.random.default_rng(0), 2,
                                  l_max=20)
