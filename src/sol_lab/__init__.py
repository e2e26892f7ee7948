"""Numerical laboratory for the singular Moser-Trudinger functional on S^2.

The API lives in the submodules (``sol_lab.sphere_grid``,
``sol_lab.mt_functional``, ...).  This package module imports none of them,
so ``import sol_lab.cli`` does not load numpy before the CLI has set the
BLAS thread count.
"""

__version__ = "0.1.0"
