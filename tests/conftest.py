"""Shared fixtures: grids and reference fields are expensive, build once."""

import numpy as np
import pytest

# random_band_limited is re-exported for "from conftest import random_band_limited"
from sol_lab.sphere_grid import (SHCoefficients, build_grid,  # noqa: F401
                                 random_band_limited)


def zero(grid):
    """The zero field on the grid as a zonal column of coefficients, the
    start of a solve from u = 0."""
    return SHCoefficients(np.zeros((grid.band_limit + 1, 1)))


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
