"""Shared fixtures: grids and reference fields are expensive, build once."""

import numpy as np
import pytest

from sol_lab.sphere_grid import (SHCoefficients, build_grid,
                                 random_band_limited_batch)


def random_band_limited(grid, rng, l_max=None, amplitude=2.0, decay=2.0):
    """Values on the grid nodes of one seeded random field: one draw of
    ``random_band_limited_batch``, synthesized on the grid and scaled so
    that max |u| over the grid nodes is ``amplitude`` (a zero draw, l_max =
    0, stays zero)."""
    coeffs = random_band_limited_batch(grid, rng, 1, l_max, decay)
    u = grid.transform.synthesis_values(SHCoefficients(coeffs.values[:, 0]))
    peak = float(np.max(np.abs(u)))
    return u * (amplitude / peak) if peak > 0.0 else u


def affine_K(m, amplitude=0.1):
    """Coefficients of a smooth factor K = 1 + amplitude x3 (m = 0, a zonal
    column) or 1 + amplitude x1 (m = 1): x3 = sqrt(4 pi / 3) Y_10 and x1
    likewise Y_11."""
    K = SHCoefficients(np.zeros((2, 1))) if m == 0 else SHCoefficients.zeros(1)
    K.order(m)[1 - m] = amplitude * np.sqrt(4.0 * np.pi / 3.0)
    return K.shifted(1.0)


def zero(grid):
    """The zero field on the grid as zonal coefficients, the start of a
    solve from u = 0."""
    return SHCoefficients(np.zeros((grid.band_limit + 1, 1)))


def random_coeffs(rng, L, *batch):
    """Normal random full-width coefficients at band limit L, shape (R,
    *batch, 2), the sine part of m = 0 zero."""
    c = rng.normal(size=((L + 1) * (L + 2) // 2,) + batch + (2,))
    c[:L + 1, ..., 1] = 0.0
    return c


def dense(c):
    """The (..., L+1, 2L+1) array of coefficients ``c``, entry [l, L + m]
    for a_{l,m} and zero for l < |m|: the reference layout that tests
    check the rows against."""
    L, v = c.band_limit, c.values
    out = np.zeros(v.shape[1:-1] + (L + 1, 2 * L + 1))
    for m in range(-L, L + 1) if v.shape[-1] > 1 else (0,):
        out[..., abs(m):, L + m] = np.moveaxis(c.order(m), 0, -1)
    return out


@pytest.fixture(scope="session")
def grid16():
    return build_grid(17, 34)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(65, 130)


@pytest.fixture(scope="session")
def grid128():
    return build_grid(129, 258)


@pytest.fixture(scope="session")
def grid192():
    return build_grid(193, 386)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts of ProductTransform syntheses and analyses made during a test."""
    from sol_lab.sphere_grid import ProductTransform

    counts = {"synthesis": 0, "analysis": 0}
    for key, name in (("synthesis", "synthesis_values"),
                      ("analysis", "analysis_coeffs")):
        original = getattr(ProductTransform, name)

        def counted(self, *args, _key=key, _original=original):
            counts[_key] += 1
            return _original(self, *args)

        monkeypatch.setattr(ProductTransform, name, counted)
    return counts
