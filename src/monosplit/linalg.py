"""Dense real vector arithmetic over the model Hilbert space.

Vectors are plain 1-d float ndarrays.  Every inner product is one
``cblas_ddot``: :func:`inner` checks its operands' shapes first, :func:`dot`
is the same product for callers that validated them once, and
:func:`row_dots` takes it for every row pair of two arrays in one call.
:func:`run_pair` runs two independent numpy calls at once, one of them on
a worker thread.
"""

import math
import queue
import threading

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


class _Worker:
    """One daemon thread that runs the calls handed to it, in order."""

    def __init__(self):
        self.calls = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="monosplit-linalg",
                         daemon=True).start()

    def _serve(self):
        while True:
            call, done, errors = self.calls.get()
            try:
                call()
            except BaseException as exc:  # re-raised by the caller
                errors.append(exc)
            # held until the next call, the call would keep its operands,
            # and so the caller's matrix, alive
            del call, errors
            done.release()


_worker = None  # started by the first run_pair
_worker_start = threading.Lock()


def run_pair(first, second):
    """Run ``first()`` on the worker thread while this thread runs
    ``second()``; return when both are done.

    The worker thread is started on first use and then kept.  An
    exception of ``second`` is raised once ``first`` is done, and
    otherwise one of ``first`` is re-raised here, so that no call is left
    running into a result that its caller has dropped.  Both calls must
    be numpy calls that release the interpreter lock, on disjoint
    outputs: two matrix products run on two cores that way, each as the
    BLAS call it would be alone, so the bits are those of the calls made
    one after the other.  A product split by rows keeps the bits of the
    whole product only if it is split between the row groups of BLAS's
    gemv kernel, hence at a multiple of 64 rows (see
    ``operators.AffineOperator.linear``).  ``first`` must never be a
    ``monosplit`` function: the benchmark's span tracer assumes that
    every span comes from one thread.  BLAS's own thread pool is left as
    it is.
    """
    global _worker
    if _worker is None:
        with _worker_start:
            if _worker is None:
                _worker = _Worker()
    done = threading.Lock()
    done.acquire()
    errors = []
    _worker.calls.put((first, done, errors))
    try:
        second()
    finally:
        done.acquire()
    if errors:
        raise errors[0]
