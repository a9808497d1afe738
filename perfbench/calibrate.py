"""A reference kernel timed alongside the program, to factor out host speed.

The benchmark shares a CPU core with other tenants of its host: a busy
neighbour on the sibling hardware thread can slow pure-Python code by up
to two times, and how busy it is changes from second to second.  The
wall time of the same code on the same input then moves far more than
any bound can allow.

A :class:`Calibrator` interleaves a fixed kernel, which no change to
``monosplit`` can speed up or slow down, with the program: a wall-clock
interval timer interrupts the program every ``period`` seconds, and the
signal handler runs the kernel once and times it.  The client subtracts
the kernel's time from the command it interrupted.  The ratio of a
pass's command time to the kernel's mean time over the same pass is then
the pass's cost in units of the kernel: a slow host stretches both and
the ratio stays put, while a change to the program moves only the
numerator.

Each workload picks the kernel that suffers the same kind of contention
as its commands: ``interp`` (small-vector numpy calls, float arithmetic
and JSON rows: the per-iteration overhead of the driver and its trace)
or ``dense`` (n=2000 matrix-vector products and a symmetric
eigensolve: the BLAS and LAPACK work of large problems).  A signal
raised during a long C call (a BLAS product, a LAPACK factorisation) is
handled when the call returns.
"""

import json
import math
import signal
from time import perf_counter

import numpy as np

_INTERP_DIM = 8
_INTERP_STEPS = 60
_DENSE_DIM = 2000
_DENSE_PRODUCTS = 4
_DENSE_EIG_DIM = 160


def _interp_kernel(state):
    z, w, rows = state
    for k in range(_INTERP_STEPS):
        d = z - w
        z_next = w + 0.5 * d
        norm_sq = float(np.dot(d, d))
        row = {"k": k, "norm": math.sqrt(norm_sq), "step": norm_sq * 0.25,
               "ratio": norm_sq / (1.0 + norm_sq)}
        rows.append(json.loads(json.dumps(row))["norm"])
        w, z = z, z_next + 1e-3
    rows.clear()


def _dense_kernel(state):
    a, x, s = state
    y = x
    for _ in range(_DENSE_PRODUCTS):
        y = a.T @ (a @ y)
        y /= np.linalg.norm(y)
    np.linalg.eigvalsh(s)


def _interp_state(rng):
    return (rng.standard_normal(_INTERP_DIM),
            rng.standard_normal(_INTERP_DIM), [])


def _dense_state(rng):
    g = rng.standard_normal((_DENSE_EIG_DIM, _DENSE_EIG_DIM))
    return (rng.standard_normal((_DENSE_DIM, _DENSE_DIM)),
            rng.standard_normal(_DENSE_DIM), g @ g.T)


KERNELS = {"interp": (_interp_kernel, _interp_state),
           "dense": (_dense_kernel, _dense_state)}


class Calibrator:
    """Runs one reference kernel every ``period`` seconds of wall time.

    The kernel's inputs are fixed (seed 0), so every run does the same
    work.  ``seconds`` and ``runs`` accumulate the kernel's time and run
    count while the calibrator is started.
    """

    def __init__(self, kernel, period):
        func, make_state = KERNELS[kernel]
        self.func = func
        self.state = make_state(np.random.default_rng(0))
        self.period = period
        self.seconds = 0.0
        self.runs = 0
        self._busy = False
        self._saved = None
        self.func(self.state)           # warm caches and allocations

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.func(self.state)
        self.seconds += perf_counter() - t0
        self.runs += 1
        self._busy = False

    def start(self):
        self._saved = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._saved)
