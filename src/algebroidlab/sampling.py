"""Deterministic sample points for validators and reports, and the
NaN-safe maximum their residuals are reduced with."""

import numpy as np

# largest rank or chart dimension read from input; a bracket tensor then
# holds at most _MAX_SIZE**3 fields, and a sample at most as many points
_MAX_SIZE = 64


def generator(seed):
    """Counter-based generator keyed by a single 64-bit seed."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be in [0, 2**64), got %d" % seed)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def seeded_points(n, dim, seed):
    """n points uniform in [-1, 1]^dim, reproducible across runs; n is
    between 1 and _MAX_SIZE**3, since a residual over no points would
    read 0 and pass."""
    n = int(n)
    if n < 1:
        raise ValueError("at least one sample point is required")
    if n > _MAX_SIZE ** 3:
        raise ValueError("%d sample points is above the limit of %d"
                         % (n, _MAX_SIZE ** 3))
    return generator(seed).uniform(-1.0, 1.0, size=(n, int(dim)))


def max_abs(values):
    """Largest absolute value among numbers, 0.0 if none; NaN if any is NaN.

    values is an array, taken whole, or an iterable of numbers. The builtin
    max keeps its first argument against NaN (max(0.0, nan) is 0.0), so a
    NaN residual would read as zero and pass its check.
    """
    if isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=float)
    else:
        values = np.fromiter(values, dtype=float)
    return float(np.max(np.abs(values), initial=0.0))
