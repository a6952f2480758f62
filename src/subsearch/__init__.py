"""Deterministic line/subspace step-size optimization with metered
bottleneck products.

Deterministic means bitwise reproducible for one numpy/BLAS build and one
BLAS thread count; a product's bits can change with the thread count."""

__version__ = "0.1.0"

from .counted import CountedMatrix, ProductCounter  # noqa: F401
from .data import Dataset, gen_logistic, gen_quadratic  # noqa: F401
from .objectives import LcpObjective  # noqa: F401
