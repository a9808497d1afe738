"""Dense real vector arithmetic over the model Hilbert space.

Vectors are plain 1-d float ndarrays.  Every inner product is one
``cblas_ddot``: :func:`inner` checks its operands' shapes first, :func:`dot`
is the same product for callers that validated them once, and
:func:`row_dots` takes it for every row pair of two arrays in one call.
:func:`matvec` and :func:`stacked_matvec` are the dense forward products;
from :data:`_SPLIT_ENTRIES` matrix entries on, each runs as two BLAS calls
at once, one of them on a worker thread.
"""

import math
import os
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


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads():
    """The number of threads OpenBLAS starts at load: the first positive
    value of the variables it reads, and otherwise one per usable core."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return _usable_cores()


# A product that reads at least this many matrix entries runs as two
# products into disjoint slices of its output, at once.  On two cores with
# one BLAS thread a handoff to the worker costs about 30 us, which half of a
# product outweighs from about 2^20 entries on; below, and so at every desk
# size, a product is one call and no thread is started.  Beside a pool of
# BLAS threads the two halves are slower than one call (at n = 2000 with two
# BLAS threads, 356 against 302 us for the bilinear map), and without a
# second core the worker has none to run on: there no product splits.
_SPLIT_ENTRIES = (2 ** 20 if _blas_threads() == 1 and _usable_cores() >= 2
                  else math.inf)
# A row split falls on a multiple of this many rows.  BLAS's gemv kernel
# takes the rows in groups, and a row summed in another position of its
# group can get other bits; a split between whole groups keeps the one-call
# product's bits at one BLAS thread (one after 7, 13, 999 or 1001 rows does
# not).
_ROW_GROUP = 64


def matvec(a, x):
    """``a @ x`` of a 2-d float array and a 1-d one, bit for bit.

    A matrix of at least :data:`_SPLIT_ENTRIES` entries is applied as two
    blocks of rows at once, split at the multiple of :data:`_ROW_GROUP`
    nearest the middle, so that each row keeps its place in its gemv row
    group.
    """
    if a.size < _SPLIT_ENTRIES:
        return a @ x
    m = a.shape[0]
    k = _ROW_GROUP * round(m / (2 * _ROW_GROUP))
    out = np.empty(m)
    _matmul_pair((a[:k], x, out[:k]), (a[k:], x, out[k:]))
    return out


def stacked_matvec(blocks, xs):
    """The products ``blocks[i] @ xs[i]`` of a ``(2, m, n)`` stack and a
    ``(2, n)`` one, end to end in one vector: the batched product
    ``np.matmul(blocks, xs[..., None]).reshape(-1)``, bit for bit.

    From :data:`_SPLIT_ENTRIES` entries on, its two gemv calls run at once;
    they are the calls the batched product makes, so the bits are its own
    with any BLAS.
    """
    if blocks.size < _SPLIT_ENTRIES:
        return np.matmul(blocks, xs[..., None]).reshape(-1)
    m = blocks.shape[1]
    out = np.empty(2 * m)
    _matmul_pair((blocks[0], xs[0], out[:m]), (blocks[1], xs[1], out[m:]))
    return out


class _Worker:
    """One daemon thread that runs the products handed to it, in order."""

    def __init__(self):
        self.products = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="monosplit-linalg",
                         daemon=True).start()

    def _serve(self):
        while True:
            a, b, out, done, errors = self.products.get()
            try:
                np.matmul(a, b, out=out)
            except BaseException as exc:  # re-raised by the caller
                errors.append(exc)
            # held until the next product, the operands would keep the
            # caller's matrix alive
            del a, b, out, errors
            done.release()


_worker = None  # started by the first split product
_worker_start = threading.Lock()


def _matmul_pair(first, second):
    """``np.matmul(a, b, out=out)`` of each ``(a, b, out)`` triple: the
    first on the worker thread while this thread runs the second; return
    when both are done.

    The worker thread is started on first use and then kept.  An
    exception of the second product is raised once the first is done, and
    otherwise one of the first is re-raised here, so that no product is
    left running into an output that its caller has dropped.  numpy
    releases the interpreter lock for a product, so the two run on two
    cores, each as the BLAS call it would be alone.  The worker runs
    ``np.matmul`` and nothing else, so every span that the benchmark's
    tracer records comes from the calling thread.  BLAS's own thread pool
    is left as it is.
    """
    global _worker
    if _worker is None:
        with _worker_start:
            if _worker is None:
                _worker = _Worker()
    done = threading.Lock()
    done.acquire()
    errors = []
    _worker.products.put((*first, done, errors))
    a, b, out = second
    try:
        np.matmul(a, b, out=out)
    finally:
        done.acquire()
    if errors:
        raise errors[0]
