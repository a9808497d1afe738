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
        """Aggregated error, unclamped (guaranteed >= 0 analytically)."""
        L = self.aggregate_stepsize
        return (self.eps_sum + self.cross_sum) / L - linalg.inner(
            self.z_avg, self.v_avg)

    def eps_avg(self, tol=1e-9):
        """Aggregated error clamped to 0 when within ``-tol`` of zero."""
        raw = self.eps_avg_raw
        if -tol <= raw < 0.0:
            return 0.0
        return raw


def transport(points, weights, tol=1e-12):
    """Aggregate graph-of-enlargement points into one certificate.

    Parameters
    ----------
    points : sequence of (z~, v, eps) triples with ``v in T^eps(z~)``.
    weights : nonnegative reals summing to 1 within ``tol``.

    Returns
    -------
    (z_avg, v_avg, eps_avg) with ``eps_avg >= 0`` and
    ``v_avg in T^{eps_avg}(z_avg)`` for maximal monotone ``T``.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0):
        raise ParameterError("transport weights must be nonnegative")
    if abs(weights.sum() - 1.0) > tol:
        raise ParameterError(
            f"transport weights sum to {weights.sum()}, expected 1 "
            f"within {tol}")
    if len(points) != weights.shape[0]:
        raise ParameterError("points and weights lengths differ")
    z_avg = sum(a * linalg.as_vector(z) for a, (z, _, _) in zip(weights, points))
    v_avg = sum(a * linalg.as_vector(v) for a, (_, v, _) in zip(weights, points))
    eps_avg = sum(
        a * (eps + linalg.inner(z - z_avg, v - v_avg))
        for a, (z, v, eps) in zip(weights, points))
    return z_avg, v_avg, eps_avg
