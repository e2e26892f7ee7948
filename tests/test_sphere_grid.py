"""Grid construction, quadrature exactness, and transform round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import sph_legendre_p

from sol_lab.sphere_grid import (
    FOUR_PI,
    LEGENDRE_BUDGET,
    BandLimitError,
    ProductTransform,
    SHCoefficients,
    ScalarField,
    build_grid,
    dirichlet_energy,
    geodesic_distance,
    gradient_at_angles,
    integrate,
    normalized_legendre,
    sh_analysis,
    sh_synthesis,
    synthesis_at_angles,
    synthesis_at_points,
    _legendre_orders,
    random_band_limited_batch,
)

from sol_lab.subcritical_solver import gradient_magnitude_grid

from conftest import random_band_limited


class TestBuildGrid:
    def test_minimal_grid(self):
        g = build_grid(2, 4)
        assert g.n_theta * g.n_phi == 8
        total = float(np.sum(g.weights))
        assert abs(total - FOUR_PI) < 1e-10 * FOUR_PI

    def test_band_limit_formula(self):
        assert build_grid(32, 64).band_limit == 31
        assert build_grid(65, 130).band_limit == 64
        assert build_grid(129, 129).band_limit == 64

    def test_constant_integral(self):
        g = build_grid(64, 128)
        assert abs(integrate(ScalarField.constant(g, 1.0)) - FOUR_PI) < 1e-12

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


class TestIntegrate:
    def test_constant(self, grid64):
        assert abs(integrate(ScalarField.constant(grid64, 1.0)) - FOUR_PI) == 0.0

    def test_constant_exact_for_every_size(self, grid16, grid64, grid128,
                                           grid192):
        """Exactness holds by construction, not by luck of the leggauss roundoff."""
        grids = [build_grid(n, 2 * n) for n in range(2, 257)]
        grids += [grid16, grid64, grid128, grid192]
        for g in grids:
            assert integrate(ScalarField.constant(g, 1.0)) == FOUR_PI, g

    def test_odd_function(self, grid64):
        f = ScalarField.from_function(grid64, lambda x: x[..., 2])
        assert abs(integrate(f)) < 1e-12

    def test_x3_squared(self, grid64):
        # 2 pi int_-1^1 t^2 dt = 4 pi / 3
        f = ScalarField.from_function(grid64, lambda x: x[..., 2] ** 2)
        assert abs(integrate(f) - FOUR_PI / 3.0) < 1e-12


class TestTransforms:
    def test_constant_from_a00(self, grid64):
        c = SHCoefficients.zeros(grid64.band_limit)
        c.values[0, grid64.band_limit] = np.sqrt(FOUR_PI)
        f = sh_synthesis(c, grid64)
        assert np.abs(f.values - 1.0).max() < 1e-12

    def test_x3_single_coefficient(self, grid64):
        f = ScalarField.from_function(grid64, lambda x: x[..., 2])
        c = sh_analysis(f)
        L = c.band_limit
        a10 = c.values[1, L]
        assert abs(a10**2 - FOUR_PI / 3.0) < 1e-10
        rest = c.values.copy()
        rest[1, L] = 0.0
        assert np.abs(rest).max() < 1e-10

    def test_round_trip(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = sh_analysis(f)
        f2 = sh_synthesis(c, grid64)
        assert np.abs(f2.values - f.values).max() < 1e-10
        c2 = sh_analysis(f2)
        assert np.abs(c2.values - c.values).max() < 1e-10

    def test_band_limit_mismatch_rejected(self, grid16, grid64):
        c = SHCoefficients.zeros(grid64.band_limit)
        with pytest.raises(BandLimitError):
            sh_synthesis(c, grid16)

    def test_lower_band_limit_padded(self, grid64):
        c = SHCoefficients.zeros(4)
        c.values[1, 4] = 1.0
        f = sh_synthesis(c, grid64)
        expected = ScalarField.from_function(
            grid64, lambda x: np.sqrt(3.0 / FOUR_PI) * x[..., 2])
        assert np.abs(f.values - expected.values).max() < 1e-12

    def test_mean_is_a00(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = sh_analysis(f)
        assert abs(f.mean - c.mean) < 1e-10

    def test_parseval(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = sh_analysis(f)
        lhs = integrate(ScalarField(f.values**2, grid64))
        rhs = float(np.sum(c.values**2))
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_synthesis_at_points_matches_grid(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = sh_analysis(f)
        pts = grid64.nodes[7, [3, 50]]
        vals = synthesis_at_points(c, pts)
        assert np.abs(vals - f.values[7, [3, 50]]).max() < 1e-10


class TestQuadratureExactness:
    def test_all_harmonics_to_2L(self, grid16):
        """integrate(Y_lm) = 0 for every 1 <= l <= 2L."""
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

    # point counts giving several orders per group, every order in one
    # group, and one order per group
    @pytest.mark.parametrize("n_points", [LEGENDRE_BUDGET // 5, 3,
                                          LEGENDRE_BUDGET + 1])
    @pytest.mark.parametrize("band_limit", [0, 1, 2, 33])
    def test_bit_identical_to_per_order_loop(self, band_limit, n_points):
        t = np.random.default_rng(band_limit).uniform(-1.0, 1.0, n_points)
        t[:3] = [-1.0, 0.0, 1.0]
        expected = list(reference_legendre_orders(band_limit, t))
        for got in (list(_legendre_orders(band_limit, t)),
                    list(enumerate(normalized_legendre(band_limit, t)))):
            assert [m for m, _ in got] == list(range(band_limit + 1))
            for (_, want), (_, block) in zip(expected, got):
                assert np.array_equal(block, want)

    def test_large_point_sets_stream(self):
        """Memory stays O((L+1) len(t)): at most two groups are alive.

        A group holds at most max(1, LEGENDRE_BUDGET // n) orders, so at most
        max(LEGENDRE_BUDGET, n) (L + 1) values; the full triangle at L = 128
        on 50,000 points would be 3.4 GB.
        """
        L, n = 128, 50_000
        rng = np.random.default_rng(3)
        c = SHCoefficients(rng.normal(size=(L + 1, 2 * L + 1)))
        t = rng.uniform(-1.0, 1.0, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        group_bytes = max(LEGENDRE_BUDGET, n) * (L + 1) * 8
        tracemalloc.start()
        try:
            synthesis_at_angles(c, t, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * group_bytes + 32 * n * 8, peak


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
    def test_zonal_transform_matches_full(self, grid_name, request, rng,
                                          monkeypatch):
        """Alone and batched, zonal coefficients synthesize to (..., n_t, 1),
        equal to the full-order synthesis on every longitude; a column
        analyses to exactly zonal coefficients that match the full analysis
        of the field repeated over the longitudes."""
        g = request.getfixturevalue(grid_name)
        L = g.band_limit
        c = np.zeros((2, 3, L + 1, 2 * L + 1))
        c[..., L] = rng.normal(size=(2, 3, L + 1)) / (1.0 + np.arange(L + 1))
        stacks = (SHCoefficients(c[0, 0]), SHCoefficients(c))
        columns = [g.transform.synthesis_values(s) for s in stacks]
        values = rng.normal(size=(2, g.n_theta, 1))
        coeffs = g.transform.analysis_coeffs(values)
        monkeypatch.setattr(SHCoefficients, "is_zonal", False)  # full path
        for col, stack in zip(columns, stacks):
            assert col.shape == stack.values.shape[:-2] + (g.n_theta, 1)
            full = g.transform.synthesis_values(stack)
            assert full.shape[-1] == g.n_phi
            assert np.max(np.abs(col - full)) <= 1e-14 * np.max(np.abs(full))
        monkeypatch.undo()
        assert coeffs.values.shape == (2, L + 1, 2 * L + 1)
        assert coeffs.is_zonal
        full = g.transform.analysis_coeffs(np.repeat(values, g.n_phi, axis=-1))
        assert np.max(np.abs(coeffs.values - full.values)) <= \
            1e-14 * np.max(np.abs(full.values))

    @pytest.mark.parametrize("grid_name", ["grid64", "grid128"])
    def test_grid_transforms_zonal_input_on_m0(self, grid_name, request,
                                               rng, monkeypatch):
        """sh_synthesis of zonal coefficients, sh_analysis of a ring-constant
        field and synthesis_at_angles of zonal coefficients match the
        full-order results; the analysis has exactly zero m != 0 columns."""
        g = request.getfixturevalue(grid_name)
        L = g.band_limit
        c = SHCoefficients.zeros(L)
        c.values[:, L] = rng.normal(size=L + 1) / (1.0 + np.arange(L + 1))
        field = sh_synthesis(c, g)
        at_angles = synthesis_at_angles(c, g.t, np.zeros(g.t.size))
        coeffs = sh_analysis(field)
        assert coeffs.is_zonal
        monkeypatch.setattr(SHCoefficients, "is_zonal", False)  # full path
        full_values = g.transform.synthesis_values(c)
        scale = np.max(np.abs(full_values))
        assert np.max(np.abs(field.values - full_values)) <= 1e-14 * scale
        assert np.max(np.abs(at_angles - full_values[:, 0])) <= 1e-14 * scale
        full = g.transform.analysis_coeffs(field.values).values
        assert np.max(np.abs(coeffs.values - full)) <= \
            1e-14 * np.max(np.abs(full))

    def test_tables_built_on_first_need(self, grid16, monkeypatch):
        """A zonal pass builds the m = 0 block alone, the first full pass
        every order; the cos/sin tables are shared by (L, n_phi)."""
        from sol_lab import sphere_grid
        orders = []
        table = sphere_grid.normalized_legendre

        def recorded(band_limit, t, m_max=None):
            orders.append(m_max)
            return table(band_limit, t, m_max)

        monkeypatch.setattr(sphere_grid, "normalized_legendre", recorded)
        L, n_phi = grid16.band_limit, grid16.n_phi
        a, b = (ProductTransform(L, t, n_phi, np.ones(t.size))
                for t in (grid16.t, np.linspace(-0.9, 0.9, 7)))
        zonal = SHCoefficients.zeros(L)
        zonal.values[3, L] = 1.0
        a.synthesis_values(zonal)
        a.analysis_coeffs(np.ones((grid16.n_theta, 1)))
        assert orders == [0]
        full = zonal.copy()
        full.values[3, L + 2] = 1.0
        a.synthesis_values(full)
        b.analysis_coeffs(np.ones((7, n_phi)))
        assert orders == [0, L, L]
        assert a._trig() is b._trig()


def reference_tables(tr):
    """Every order's Pbar block and the cos/sin tables of tr's nodes."""
    m = np.arange(tr.band_limit + 1)[:, None]
    return (normalized_legendre(tr.band_limit, tr.t),
            np.cos(m * tr.phi), np.sin(m * tr.phi))


def reference_synthesis(tr, c):
    """One matrix-vector product per order and trig part (the unbatched
    transform's arithmetic, operation for operation)."""
    L = tr.band_limit
    plm, cos_m, sin_m = reference_tables(tr)
    if SHCoefficients(c).is_zonal:  # one column: the m = 0 sums
        return (c[:, L] @ plm[0])[:, None]
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
    out = np.zeros((L + 1, 2 * L + 1))
    if values.shape[-1] == 1:  # one longitude carrying the ring weight
        out[:, L] = plm[0] @ (tr.ring_weights * values)[:, 0]
        return out
    w = tr.weights * values
    fc, fs = w @ cos_m.T, w @ sin_m.T
    for m in range(L + 1):
        amp = np.sqrt(2.0) if m > 0 else 1.0
        out[m:, L + m] = amp * (plm[m] @ fc[:, m])
        if m > 0:
            out[m:, L - m] = amp * (plm[m] @ fs[:, m])
    return out


def transform_cases(g, rng):
    """(transform, coefficients): the grid transform on random and on zonal
    coefficients (one-column values), and a product block on custom
    colatitudes."""
    L = g.band_limit
    t = np.random.default_rng(3).uniform(-1.0, 1.0, 45)
    block = ProductTransform(L, t, g.n_phi, np.full(t.size, 0.01 * g.n_phi))
    c = rng.normal(size=(2, 3, L + 1, 2 * L + 1))
    zonal = np.zeros_like(c)
    zonal[..., L] = c[..., L]
    return {"grid": (g.transform, c), "zonal": (g.transform, zonal),
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
        per-order matrix-vector results."""
        tr, c = transform_cases(grid64, rng)[name]
        c = c[0, 0]
        values = tr.synthesis_values(SHCoefficients(c))
        assert np.array_equal(values, reference_synthesis(tr, c))
        assert np.array_equal(
            tr.synthesis_values(SHCoefficients(c[None]))[0], values)
        coeffs = tr.analysis_coeffs(values).values
        assert np.array_equal(coeffs, reference_analysis(tr, values))
        assert np.array_equal(tr.analysis_coeffs(values[None]).values[0],
                              coeffs)

    def test_coefficient_properties_read_last_axes(self, grid16, rng):
        L = grid16.band_limit
        c = SHCoefficients.zeros(L)
        c.values[:, L] = rng.normal(size=L + 1)
        stack = SHCoefficients(np.stack([c.values, 2.0 * c.values]))
        assert stack.band_limit == L
        assert stack.is_zonal
        assert np.array_equal(stack.mean, [c.mean, 2.0 * c.mean])
        stack.values[1, 3, L - 2] = 1.0
        assert not stack.is_zonal
        assert dirichlet_energy(stack)[1] == pytest.approx(
            dirichlet_energy(SHCoefficients(stack.values[1])), rel=1e-15)

    def test_random_fields_are_one_draw_per_sample(self, grid16):
        """Each field's coefficients are one normal draw in the order of a
        per-degree loop, so the stream does not depend on the batching;
        each is scaled to max |u| = 2 on the grid."""
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
            want = sh_synthesis(c, g).values
            want *= 2.0 / np.max(np.abs(want))
            got = sh_synthesis(SHCoefficients(field), g).values
            assert max_rel(got, want) <= 1e-14
        assert rng.normal() == ref.normal()
        one = random_band_limited(g, np.random.default_rng(11))
        first = random_band_limited_batch(g, np.random.default_rng(11), 1)
        assert np.array_equal(
            one.values, sh_synthesis(SHCoefficients(first.values[0]), g).values)


class TestDirichletEnergy:
    def test_constant_is_zero(self, grid64):
        c = sh_analysis(ScalarField.constant(grid64, 3.7))
        assert dirichlet_energy(c) < 1e-20

    def test_x3(self, grid64):
        # -Delta x3 = 2 x3, so the energy is 2 * int x3^2 = 8 pi / 3
        c = sh_analysis(ScalarField.from_function(grid64, lambda x: x[..., 2]))
        assert abs(dirichlet_energy(c) - 8.0 * np.pi / 3.0) < 1e-10

    def test_x1_by_symmetry(self, grid64):
        c = sh_analysis(ScalarField.from_function(grid64, lambda x: x[..., 0]))
        assert abs(dirichlet_energy(c) - 8.0 * np.pi / 3.0) < 1e-10

    def test_shift_invariance_is_exact(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        c = sh_analysis(f)
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
        c = sh_analysis(ScalarField.from_function(grid, self.field))
        c.values[6:] = 0.0  # exactly degree 5: drop the analysis roundoff
        return c

    def test_grid(self, grid64):
        exact = self.exact_gradient(grid64.nodes)
        grad = gradient_magnitude_grid(self.coeffs(grid64), grid64)
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
