"""Dense real vector arithmetic over the model Hilbert space.

Vectors are plain 1-d float ndarrays.  All operations validate dimensions
and finiteness; inner products switch to compensated summation above
``_FSUM_THRESHOLD`` coordinates so that certificate inequalities can be
checked at tight tolerances.
"""

import math

import numpy as np

from .errors import DimensionMismatch

# Above this dimension np.dot accumulation error can reach the certificate
# tolerances, so fall back to exact compensated summation.
_FSUM_THRESHOLD = 10_000


def as_vector(x):
    """Coerce ``x`` to a finite 1-d float array.

    Raises
    ------
    DimensionMismatch
        If ``x`` is not one-dimensional with at least one coordinate.
    ValueError
        If any coordinate is NaN or infinite.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(
            f"expected a 1-d vector with n >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def check_same_dim(a, b):
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _dot(a, b):
    return float(a.dot(b))


def _fsum_dot(a, b):
    return math.fsum((a * b).tolist())


def dot_kernel(n):
    """The unchecked inner product :func:`inner` takes of two n-vectors.

    For callers that validate their 1-d float operands once and then take
    many products at one dimension; the results are those of ``inner``.
    """
    return _fsum_dot if n > _FSUM_THRESHOLD else _dot


def inner(a, b):
    """Euclidean inner product ``<a, b>``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_same_dim(a, b)
    return dot_kernel(a.size)(a, b)


def norm_sq(a):
    """Squared norm ``<a, a>``."""
    return inner(a, a)


def norm(a):
    """Induced norm ``sqrt(<a, a>)``."""
    return math.sqrt(norm_sq(a))

