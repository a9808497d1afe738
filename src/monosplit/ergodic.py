"""Streaming ergodic aggregation.

The aggregated error uses the algebraic expansion

    eps_a = (sum_j lam_j eps_j + sum_j lam_j <z~_j, v_j>) / Lambda
            - <z~_a, v_a>,

which lets the state advance in O(1) memory per step; the direct O(k)
summation and the transportation formula stay in the test suite as the
oracles.
"""

import numpy as np

from . import linalg


class ErgodicState:
    """Running accumulators for the stepsize-weighted ergodic sequences
    of ``dim``-vectors.

    The sums of ``lam z~`` and ``lam v`` are the two rows of one array
    ``sums``; divided by ``aggregate_stepsize`` they are the averages.
    :meth:`fold` takes a block of steps, :meth:`update` one.
    """

    def __init__(self, dim):
        self.aggregate_stepsize = 0.0
        self.sums = np.zeros((2, dim))
        self.eps_sum = 0.0
        self.cross_sum = 0.0

    def update(self, cert):
        """Fold one certified step ``(z~, v, eps, lam)`` into the state."""
        return self.fold((cert.lam,), (cert.eps,),
                         np.stack((cert.z_tilde, cert.v))[None])

    def fold(self, lam, eps, pairs):
        """Fold a block of steps into the state, in step order: their
        stepsizes ``lam``, errors ``eps`` and the ``(K, 2, dim)`` array
        ``pairs`` of their ``z~`` and ``v``.  Returns the aggregate
        stepsize, ``||v_a||^2`` and the aggregated error after each step.

        Every running sum adds in step order, starting from the sum so
        far, so a block leaves the bits of that many one-step folds.
        """
        lam = np.asarray(lam, dtype=float)
        steps = lam.shape[0]
        cross = lam * linalg.row_dots(pairs[:, 0], pairs[:, 1])
        scalars = np.empty((3, steps + 1))
        scalars[:, 0] = self.aggregate_stepsize, self.eps_sum, self.cross_sum
        scalars[:, 1:] = lam, lam * eps, cross
        np.add.accumulate(scalars, axis=1, out=scalars)
        sums = lam[:, None, None] * pairs
        np.add(self.sums, sums[0], sums[0])
        # accumulate calls its inner loop once per coordinate, so it is
        # the faster way only when the steps outnumber the coordinates
        if steps > self.sums.size:
            np.add.accumulate(sums, out=sums)
        else:
            for j in range(1, steps):
                np.add(sums[j - 1], sums[j], sums[j])
        (self.aggregate_stepsize, self.eps_sum,
         self.cross_sum) = scalars[:, -1].tolist()
        self.sums = sums[-1]
        total, eps_sums, cross_sums = scalars[:, 1:]
        avgs = sums / total[:, None, None]
        cross, v_avg_sq = linalg.row_dots(avgs, avgs[:, 1:]).T
        return total, v_avg_sq, (eps_sums + cross_sums) / total - cross
