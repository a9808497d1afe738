import math

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


def test_inner_compensated_path_matches_fsum_oracle():
    # above the threshold the implementation must agree with exact
    # compensated summation of the products
    rng = np.random.default_rng(1)
    n = 20_001
    a = rng.standard_normal(n) * 1e8
    b = rng.standard_normal(n)
    expected = math.fsum((a * b).tolist())
    assert linalg.inner(a, b) == expected


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
