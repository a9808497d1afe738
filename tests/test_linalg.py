import math
import threading
import time

import numpy as np
import pytest

from monosplit import linalg
from monosplit.errors import DimensionMismatch


def test_inner_orthogonal():
    assert linalg.inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_inner_sum_of_squares():
    assert linalg.inner(np.array([2.0, 3.0]), np.array([2.0, 3.0])) == 13.0


def test_inner_direct_expansion():
    assert linalg.inner(np.array([1.0, 2.0, 3.0]),
                        np.array([4.0, 5.0, 6.0])) == 32.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.inner(np.ones(2), np.ones(3))


def test_inner_symmetry_and_norm_consistency():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        assert linalg.inner(a, b) == linalg.inner(b, a)
        assert linalg.norm(a) == pytest.approx(
            math.sqrt(linalg.inner(a, a)), rel=1e-15)


def test_inner_is_within_the_forward_error_bound_of_fsum():
    # the plain product against exact compensated summation of the
    # products: |inner - fsum(a b)| <= n u fsum(|a b|), u = 2^-53
    rng = np.random.default_rng(1)
    n = 20_001
    a = rng.standard_normal(n) * 1e8
    b = rng.standard_normal(n)
    products = (a * b).tolist()
    expected = math.fsum(products)
    bound = n * 2.0 ** -53 * math.fsum(map(abs, products))
    assert abs(linalg.inner(a, b) - expected) <= bound


def test_combination_identity_randomized():
    # ||p w + (1-p) z||^2 = p||w||^2 + (1-p)||z||^2 - p(1-p)||w-z||^2
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = rng.integers(1, 12)
        p = float(rng.uniform(-2.0, 3.0))  # identity holds for all real p
        w = rng.standard_normal(n)
        z = rng.standard_normal(n)
        lhs = linalg.norm_sq(p * w + (1.0 - p) * z)
        rhs = (p * linalg.norm_sq(w) + (1.0 - p) * linalg.norm_sq(z)
               - p * (1.0 - p) * linalg.norm_sq(w - z))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_norm_inequalities_on_samples():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert linalg.norm_sq(a - b) <= 2.0 * (
            linalg.norm_sq(a) + linalg.norm_sq(b)) + 1e-12
        assert linalg.norm_sq(a) - linalg.norm_sq(b) <= (
            2.0 * linalg.norm(a) * linalg.norm(a - b) + 1e-12)


def test_as_vector_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        linalg.as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        linalg.as_vector([1.0, float("nan")])


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 17, 64, 2000])
def test_row_dots_are_dot_bit_for_bit(n):
    # each row is the cblas_ddot that dot calls, at every length the
    # kernel unrolls differently; rows of mixed scale, a row squared, a
    # paired row and one vector broadcast to every row
    for seed in range(50):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, n)) * rng.uniform(1e-3, 1e3, (7, 1))
        b = rng.standard_normal((7, n))
        v = rng.standard_normal(n)
        for partner, rows in ((b, b), (a, a), (v, [v] * 7)):
            got = linalg.row_dots(a, partner)
            expected = [linalg.dot(a[i], rows[i]) for i in range(7)]
            assert got.shape == (7,)
            assert got.tobytes() == np.array(expected).tobytes(), (seed, n)


@pytest.mark.parametrize("n", [1, 5, 8, 17, 2000])
def test_stacked_row_dots_are_dot_bit_for_bit(n):
    # a (K, 2, n) block: each step's pair, and both rows against the
    # second, broadcast over the pair axis
    rng = np.random.default_rng(n)
    block = rng.standard_normal((6, 2, n)) * rng.uniform(1e-3, 1e3, (6, 2, 1))
    pairs = linalg.row_dots(block[:, 0], block[:, 1])
    against = linalg.row_dots(block, block[:, 1:])
    assert pairs.shape == (6,) and against.shape == (6, 2)
    assert (pairs.tobytes() == np.array(
        [linalg.dot(z, v) for z, v in block]).tobytes())
    assert (against.tobytes() == np.array(
        [[linalg.dot(row, v) for row in (z, v)] for z, v in block]).tobytes())


# what OpenBLAS reads for its thread count, in the order it reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def test_blas_threads_is_the_first_positive_variable_openblas_reads(
        monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert linalg._blas_threads() == linalg._usable_cores()
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert linalg._blas_threads() == 1
    monkeypatch.setenv("GOTO_NUM_THREADS", "3")
    assert linalg._blas_threads() == 3
    # one OpenMP thread beside two OpenBLAS threads is no one-thread BLAS,
    # so no product would split
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert linalg._blas_threads() == 2
    for skipped in ("x", "0", "-1", ""):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", skipped)
        assert linalg._blas_threads() == 3
        monkeypatch.setenv("GOTO_NUM_THREADS", skipped)
        assert linalg._blas_threads() == 1
        monkeypatch.setenv("GOTO_NUM_THREADS", "3")


def probe(matrix, on_product):
    """``matrix`` as an array whose every product first calls
    ``on_product`` with the name of the thread that runs it."""
    class Probe(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            on_product(threading.current_thread().name)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
    return matrix.view(Probe)


@pytest.fixture
def split(monkeypatch):
    """Every product splits, as from 2^20 entries on at one BLAS thread."""
    monkeypatch.setattr(linalg, "_SPLIT_ENTRIES", 0)


def test_a_split_product_runs_one_half_on_the_worker_thread(split):
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((2, 130, 7))
    xs = rng.standard_normal((2, 7))
    names = []
    products = [
        (linalg.matvec(probe(blocks[0], names.append), xs[0]),
         blocks[0] @ xs[0]),
        (linalg.stacked_matvec(probe(blocks, names.append), xs),
         np.concatenate([blocks[0] @ xs[0], blocks[1] @ xs[1]]))]
    assert sorted(names) == sorted(
        ["monosplit-linalg", threading.current_thread().name] * 2)
    for split_product, one_call in products:
        assert split_product.tobytes() == one_call.tobytes()


def test_a_split_product_reraises_the_workers_exception(split):
    def on_product(name):
        if name == "monosplit-linalg":
            raise KeyError("worker")
    with pytest.raises(KeyError, match="worker"):
        linalg.matvec(probe(np.ones((128, 3)), on_product), np.ones(3))
    # the worker is free for the next product
    assert linalg.matvec(np.ones((128, 3)), np.ones(3)).tolist() == [3.0] * 128


def test_a_split_product_raises_the_callers_exception_once_the_worker_is_done(
        split):
    done = []

    def on_product(name):
        if name != "monosplit-linalg":
            raise KeyError("caller")
        time.sleep(0.05)
        done.append(name)
    with pytest.raises(KeyError, match="caller"):
        linalg.stacked_matvec(probe(np.ones((2, 64, 3)), on_product),
                              np.ones((2, 3)))
    assert done == ["monosplit-linalg"]
