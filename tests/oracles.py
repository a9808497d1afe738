"""Direct formulas that the library's streaming code is checked against."""

import numpy as np

from monosplit import linalg
from monosplit.errors import ParameterError

# Round-off allowance on the transport weights summing to 1.
WEIGHT_SUM_TOL = 1e-12


def transport(points, weights):
    """Aggregate graph-of-enlargement points into one certificate.

    Parameters
    ----------
    points : sequence of (z~, v, eps) triples with ``v in T^eps(z~)``.
    weights : nonnegative reals summing to 1 within
        :data:`WEIGHT_SUM_TOL`.

    Returns
    -------
    (z_avg, v_avg, eps_avg) with ``eps_avg >= 0`` and
    ``v_avg in T^{eps_avg}(z_avg)`` for maximal monotone ``T``.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0):
        raise ParameterError("transport weights must be nonnegative")
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ParameterError(
            f"transport weights sum to {weights.sum()}, expected 1 "
            f"within {WEIGHT_SUM_TOL}")
    if len(points) != weights.shape[0]:
        raise ParameterError("points and weights lengths differ")
    z_avg = sum(a * linalg.as_vector(z) for a, (z, _, _) in zip(weights, points))
    v_avg = sum(a * linalg.as_vector(v) for a, (_, v, _) in zip(weights, points))
    eps_avg = sum(
        a * (eps + linalg.inner(z - z_avg, v - v_avg))
        for a, (z, v, eps) in zip(weights, points))
    return z_avg, v_avg, eps_avg
