"""Streaming ergodic aggregation and the transportation formula.

The aggregated error uses the algebraic expansion

    eps_avg = (sum_j lam_j eps_j + sum_j lam_j <z~_j, v_j>) / Lambda
              - <z~_avg, v_avg>,

which lets the state advance in O(1) memory per step; the direct O(k)
summation stays in the test suite as the oracle.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ParameterError

# Round-off allowance on the transport weights summing to 1.
WEIGHT_SUM_TOL = 1e-12


@dataclass
class ErgodicState:
    """Running accumulators for the stepsize-weighted ergodic sequences."""

    dim: int
    aggregate_stepsize: float = 0.0
    z_sum: np.ndarray = None
    v_sum: np.ndarray = None
    eps_sum: float = 0.0
    cross_sum: float = 0.0

    def __post_init__(self):
        if self.z_sum is None:
            self.z_sum = np.zeros(self.dim)
        if self.v_sum is None:
            self.v_sum = np.zeros(self.dim)

    def update(self, cert):
        """Fold one certified step ``(z~, v, eps, lam)`` into the state."""
        lam = cert.lam
        self.aggregate_stepsize += lam
        self.z_sum += lam * cert.z_tilde
        self.v_sum += lam * cert.v
        self.eps_sum += lam * cert.eps
        self.cross_sum += lam * linalg.inner(cert.z_tilde, cert.v)

    @property
    def z_avg(self):
        return self.z_sum / self.aggregate_stepsize

    @property
    def v_avg(self):
        return self.v_sum / self.aggregate_stepsize

    @property
    def eps_avg_raw(self):
        """Aggregated error: >= 0 analytically, round-off aside."""
        return self.scalars()[1]

    def scalars(self):
        """``(||v_avg||^2, eps_avg_raw)``, the two a trace row records."""
        L = self.aggregate_stepsize
        z_avg = self.z_sum / L
        v_avg = self.v_sum / L
        return (linalg.dot(v_avg, v_avg),
                (self.eps_sum + self.cross_sum) / L
                - linalg.dot(z_avg, v_avg))


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
