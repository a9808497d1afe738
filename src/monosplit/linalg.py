"""Dense real vector arithmetic over the model Hilbert space.

Vectors are plain 1-d float ndarrays.  Every inner product is one
``cblas_ddot``: :func:`inner` checks its operands' shapes first, :func:`dot`
is the same product for callers that validated them once, and
:func:`row_dots` takes it for every row pair of two arrays in one call.
"""

import math

import numpy as np

from .errors import DimensionMismatch


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


def dot(a, b):
    """``<a, b>`` of two 1-d float arrays of one shape, unchecked."""
    return float(a.dot(b))


def row_dots(a, b):
    """The product of every row pair of two float arrays whose shapes
    broadcast, unchecked as for :func:`dot`; the last axis is dropped.

    Numpy's matmul takes each stacked ``1 x n`` by ``n x 1`` product to
    the same ``cblas_ddot`` that :func:`dot` calls, so every entry equals
    :func:`dot` of its row pair bit for bit.  ``a @ b`` (a gemv) and
    ``einsum`` sum in other orders and do not.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def inner(a, b):
    """Euclidean inner product ``<a, b>``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_same_dim(a, b)
    return dot(a, b)


def norm_sq(a):
    """Squared norm ``<a, a>``."""
    return inner(a, a)


def norm(a):
    """Induced norm ``sqrt(<a, a>)``."""
    return math.sqrt(norm_sq(a))
