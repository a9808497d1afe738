"""Streaming ergodic aggregation.

The aggregated error uses the algebraic expansion

    eps_avg = (sum_j lam_j eps_j + sum_j lam_j <z~_j, v_j>) / Lambda
              - <z~_avg, v_avg>,

which lets the state advance in O(1) memory per step; the direct O(k)
summation and the transportation formula stay in the test suite as the
oracles.
"""

import numpy as np

from . import linalg


class ErgodicState:
    """Running accumulators for the stepsize-weighted ergodic sequences
    of ``dim``-vectors.

    The sums of ``lam z~`` and ``lam v`` are the two rows of one
    ``(2, dim)`` array ``sums``, so that a step folds both in, and
    :meth:`scalars` averages both and takes their products, one call each.
    """

    def __init__(self, dim):
        self.aggregate_stepsize = 0.0
        self.sums = np.zeros((2, dim))
        self.eps_sum = 0.0
        self.cross_sum = 0.0
        self._terms = np.empty((2, dim))
        self._avgs = np.empty((2, dim))
        self._products = linalg.RowDots(self._avgs, self._avgs[1])

    def update(self, cert):
        """Fold one certified step ``(z~, v, eps, lam)`` into the state."""
        lam = cert.lam
        terms = self._terms
        terms[0] = cert.z_tilde
        terms[1] = cert.v
        self.aggregate_stepsize += lam
        np.multiply(lam, terms, terms)
        np.add(self.sums, terms, self.sums)
        self.eps_sum += lam * cert.eps
        self.cross_sum += lam * linalg.dot(cert.z_tilde, cert.v)

    @property
    def z_avg(self):
        return self.sums[0] / self.aggregate_stepsize

    @property
    def v_avg(self):
        return self.sums[1] / self.aggregate_stepsize

    @property
    def eps_avg_raw(self):
        """Aggregated error: >= 0 analytically, round-off aside."""
        return self.scalars()[1]

    def scalars(self):
        """``(||v_avg||^2, eps_avg_raw)``, the two a trace row records."""
        L = self.aggregate_stepsize
        np.divide(self.sums, L, self._avgs)
        cross, v_avg_sq = self._products()
        return v_avg_sq, (self.eps_sum + self.cross_sum) / L - cross
