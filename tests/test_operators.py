import itertools

import numpy as np
import pytest
import scipy.optimize

from monosplit import linalg, operators
from monosplit.errors import OracleError, ParameterError
from monosplit.operators import (AffineOperator, AffineResolvent,
                                 BoxResolvent, L1Resolvent, ZeroResolvent,
                                 make_problem, solve_box_qp_bruteforce,
                                 solve_l1_bruteforce)
from oracles import (affine_resolve, bits, dense_problem,
                     enlargement_infimum, enlargement_member,
                     solution_residual)


# -- independent oracles -----------------------------------------------------

def grid_infimum(T, z, v, radius=4.0, points=81):
    """Brute-force minimizer of <z - z', v - T(z')> over a grid (2-d only)."""
    xs = np.linspace(-radius, radius, points)
    best = np.inf
    for a in xs:
        for b in xs:
            zp = np.array([a, b])
            best = min(best, linalg.inner(z - zp, v - T(zp)))
    return best


def lasso_coordinate_descent(M, y, weight, iters=20000):
    """Plain cyclic coordinate descent for 0.5||Mx-y||^2 + weight ||x||_1."""
    n = M.shape[1]
    x = np.zeros(n)
    col_sq = (M ** 2).sum(axis=0)
    r = y.copy()
    for _ in range(iters):
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            r += M[:, j] * x[j]
            rho = M[:, j] @ r
            x[j] = np.sign(rho) * max(abs(rho) - weight, 0.0) / col_sq[j]
            r -= M[:, j] * x[j]
    return x


# -- resolvents --------------------------------------------------------------

def test_zero_resolvent_identity():
    B = ZeroResolvent()
    w = np.array([3.0, -1.0])
    z, v = B.resolve(1.0, w)
    np.testing.assert_array_equal(z, w)
    np.testing.assert_array_equal(v, np.zeros(2))


def test_box_resolvent_projection():
    B = BoxResolvent(np.zeros(2), np.ones(2))
    z, v = B.resolve(1.0, np.array([2.0, -1.0]))
    np.testing.assert_array_equal(z, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(v, np.array([1.0, -1.0]))


def test_affine_resolvent_identity_operator():
    B = AffineResolvent(AffineOperator(np.eye(2), np.zeros(2)))
    z, v = B.resolve(1.0, np.array([2.0, 4.0]))
    np.testing.assert_allclose(z, np.array([1.0, 2.0]), atol=1e-14)
    np.testing.assert_allclose(v, np.array([1.0, 2.0]), atol=1e-14)


def test_l1_resolvent_soft_threshold():
    B = L1Resolvent(weight=1.0)
    z, v = B.resolve(0.5, np.array([2.0, -0.25, -3.0]))
    np.testing.assert_allclose(z, np.array([1.5, 0.0, -2.5]), atol=1e-15)
    np.testing.assert_allclose(0.5 * v + z, np.array([2.0, -0.25, -3.0]),
                               atol=1e-15)


def test_resolvent_reassembly_and_firm_nonexpansiveness():
    rng = np.random.default_rng(4)
    A = operators._psd_plus_skew(rng, 5, 0.1)
    oracles = [
        AffineResolvent(AffineOperator(A, rng.standard_normal(5))),
        BoxResolvent(-np.ones(5), np.ones(5)),
        L1Resolvent(0.3),
        ZeroResolvent(),
    ]
    for B in oracles:
        for _ in range(50):
            lam = float(rng.uniform(0.1, 2.0))
            w1 = rng.standard_normal(5) * 2
            w2 = rng.standard_normal(5) * 2
            z1, v1 = B.resolve(lam, w1)
            z2, v2 = B.resolve(lam, w2)
            assert linalg.norm(z1 + lam * v1 - w1) <= 1e-12
            # firm nonexpansiveness of the resolvent
            assert linalg.norm_sq(z1 - z2) <= (
                linalg.inner(z1 - z2, w1 - w2) + 1e-9)


def test_l1_resolvent_refuses_a_nan_weight():
    with pytest.raises(ParameterError,
                       match="l1 weight must be nonnegative, got nan"):
        L1Resolvent(float("nan"))


def test_resolve_never_returns_an_alias_of_its_input():
    # a point map may hand back w itself; resolve copies it
    rng = np.random.default_rng(9)
    A = operators._psd_plus_skew(rng, 4, 0.1)
    for B in [AffineResolvent(AffineOperator(A, rng.standard_normal(4))),
              BoxResolvent(-np.ones(4), np.ones(4)), L1Resolvent(0.3),
              ZeroResolvent()]:
        w = rng.standard_normal(4)
        z, v = B.resolve(0.7, w)
        assert not np.shares_memory(z, w) and not np.shares_memory(v, w)


# both bounds of a pair may be a signed zero: -0.0 <= 0.0 and 0.0 <= -0.0
_BOUND_PAIRS = [(-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0),
                (0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0)]
_EDGE_VALUES = [-0.0, 0.0, np.nan, -np.nan, 1.0, -1.0, 0.5, 2.0, np.inf,
                -np.inf, np.nextafter(0.0, 1.0), np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("n", [1, 3, 8, 64])
def test_box_projection_is_clip_bit_for_bit(n):
    # signed zeros, NaNs of either sign and points on the bounds, in the
    # lengths the ufunc loops treat apart (scalar tail, vector body)
    for lo, hi in _BOUND_PAIRS:
        box = BoxResolvent(np.full(n, lo), np.full(n, hi))
        for shift in range(len(_EDGE_VALUES)):
            w = np.resize(np.roll(_EDGE_VALUES, shift), n)
            w = np.where(np.arange(n) % 5 == 4, lo, w)  # on the lower bound
            assert bits(box.project(w)) == bits(
                np.clip(w, box.lower, box.upper)), (lo, hi, w)


# -- enlargement oracle ------------------------------------------------------

def test_enlargement_graph_points_are_members():
    rng = np.random.default_rng(5)
    A = operators._psd_plus_skew(rng, 3, 0.2)
    T = AffineOperator(A, rng.standard_normal(3))
    for _ in range(20):
        z = rng.standard_normal(3)
        assert enlargement_member(T, z, T(z), 0.0)


def test_enlargement_identity_quarter_example():
    # T = identity, z = 0, v = (1, 0): infimum of <-z', v - z'> is -1/4
    T = AffineOperator(np.eye(2), np.zeros(2))
    z = np.zeros(2)
    v = np.array([1.0, 0.0])
    value, bounded = enlargement_infimum(T, z, v)
    assert bounded
    assert value == pytest.approx(-0.25, abs=1e-12)
    # independent grid oracle agrees
    assert grid_infimum(T, z, v, radius=2.0, points=161) == pytest.approx(
        -0.25, abs=1e-3)
    assert not enlargement_member(T, z, v, 0.0)
    assert enlargement_member(T, z, v, 0.25)


def test_enlargement_infimum_matches_grid_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A = operators._psd_plus_skew(rng, 2, 0.3)
        T = AffineOperator(A, rng.standard_normal(2))
        z = rng.standard_normal(2)
        v = T(z) + 0.5 * rng.standard_normal(2)
        value, bounded = enlargement_infimum(T, z, v)
        assert bounded
        approx = grid_infimum(T, z, v)
        assert value <= approx + 1e-9
        assert value == pytest.approx(approx, abs=0.05)


def test_enlargement_unbounded_for_skew_off_graph():
    # pure rotation: symmetric part is zero, the quadratic is affine in z'
    T = AffineOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2))
    z = np.array([1.0, 0.0])
    # on-graph point has a bounded (zero) enlargement value
    assert enlargement_member(T, z, T(z), 0.0)
    # off-graph point drives the infimum to -inf
    value, bounded = enlargement_infimum(T, z, T(z) + np.array([1.0, 0.0]))
    assert not bounded
    assert not enlargement_member(T, z, T(z) + np.array([1.0, 0.0]), 10.0)


def test_enlargement_monotone_in_eps():
    rng = np.random.default_rng(7)
    A = operators._psd_plus_skew(rng, 3, 0.2)
    T = AffineOperator(A, rng.standard_normal(3))
    for _ in range(20):
        z = rng.standard_normal(3)
        v = T(z) + 0.3 * rng.standard_normal(3)
        value, bounded = enlargement_infimum(T, z, v)
        assert bounded
        eps_star = max(0.0, -value)
        assert enlargement_member(T, z, v, eps_star + 1e-8)
        for extra in (0.1, 1.0):
            assert enlargement_member(T, z, v, eps_star + extra)
        if eps_star > 1e-6:
            assert not enlargement_member(T, z, v, eps_star / 2.0)


def test_enlargement_additivity():
    # v in T^e(z) and v' in S^e'(z) imply v + v' in (T+S)^{e+e'}(z)
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = operators._psd_plus_skew(rng, 3, 0.3)
        Bm = operators._psd_plus_skew(rng, 3, 0.3)
        T = AffineOperator(A, rng.standard_normal(3))
        S = AffineOperator(Bm, rng.standard_normal(3))
        TS = AffineOperator(A + Bm, T.offset + S.offset)
        z = rng.standard_normal(3)
        v1 = T(z) + 0.2 * rng.standard_normal(3)
        v2 = S(z) + 0.2 * rng.standard_normal(3)
        e1 = max(0.0, -enlargement_infimum(T, z, v1)[0])
        e2 = max(0.0, -enlargement_infimum(S, z, v2)[0])
        assert enlargement_member(TS, z, v1 + v2, e1 + e2 + 1e-9)


def test_cocoercivity_of_quadratic_gradient():
    # Baillon-Haddad: gradient of a convex quadratic is (1/L)-cocoercive
    rng = np.random.default_rng(9)
    G = rng.standard_normal((6, 6))
    Q = G @ G.T / 6
    c = rng.standard_normal(6)
    L = float(np.linalg.eigvalsh(Q)[-1])
    for _ in range(1000):
        z1 = rng.standard_normal(6) * 3
        z2 = rng.standard_normal(6) * 3
        df = Q @ (z1 - z2)
        assert linalg.inner(z1 - z2, df) >= linalg.norm_sq(df) / L - 1e-9


def test_projection_shrinks_distance_for_interior_targets():
    box = BoxResolvent(np.zeros(4), np.ones(4))
    rng = np.random.default_rng(10)
    for _ in range(200):
        z_in = rng.uniform(0.0, 1.0, 4)  # a point of the box
        w = rng.standard_normal(4) * 2
        assert linalg.norm(z_in - box.project(w)) <= (
            linalg.norm(z_in - w) + 1e-12)


# -- brute-force solution oracles -------------------------------------------

def test_box_qp_bruteforce_against_lbfgsb():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 5
        G = rng.standard_normal((n, n))
        Q = G @ G.T / n + 0.3 * np.eye(n)
        c = rng.standard_normal(n)
        lower, upper = np.zeros(n), np.ones(n)
        z = solve_box_qp_bruteforce(Q, c, lower, upper)
        res = scipy.optimize.minimize(
            lambda x: 0.5 * x @ Q @ x + c @ x,
            x0=np.full(n, 0.5), jac=lambda x: Q @ x + c,
            bounds=[(0.0, 1.0)] * n, method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-12})
        np.testing.assert_allclose(z, res.x, atol=1e-6)


def test_l1_bruteforce_against_coordinate_descent():
    rng = np.random.default_rng(12)
    for _ in range(3):
        n = 5
        M = rng.standard_normal((n, n)) / np.sqrt(n)
        x_true = np.zeros(n)
        x_true[:2] = rng.standard_normal(2)
        y = M @ x_true + 0.01 * rng.standard_normal(n)
        weight = 0.1 * float(np.abs(M.T @ y).max())
        x1 = solve_l1_bruteforce(M, y, weight)
        x2 = lasso_coordinate_descent(M, y, weight)
        np.testing.assert_allclose(x1, x2, atol=1e-6)


def test_bruteforce_dimension_caps():
    with pytest.raises(ParameterError):
        solve_box_qp_bruteforce(np.eye(25), np.zeros(25),
                                np.zeros(25), np.ones(25))
    with pytest.raises(ParameterError):
        solve_l1_bruteforce(np.eye(25), np.zeros(25), 0.1)


# -- problem zoo -------------------------------------------------------------

def test_bilinear_saddle_zero_offset_solution_is_origin():
    K = make_problem("bilinear_saddle", 6, seed=1).data["coupling"]
    T0 = AffineOperator(np.block([[0 * K, K], [-K.T, 0 * K]]), np.zeros(6))
    np.testing.assert_allclose(T0.zero_point(), np.zeros(6), atol=1e-12)


@pytest.mark.parametrize("n", [2, 6, 8, 2000])
def test_bilinear_forward_matches_dense_product(n):
    # n/2 = 1 and 3 are not multiples of 4, where BLAS may sum in
    # another order than for the dense product
    prob = make_problem("bilinear_saddle", n, seed=n)
    K = prob.data["coupling"]
    b = prob.data["offset"]
    half = n // 2
    S = np.block([[np.zeros((half, half)), K], [-K.T, np.zeros((half, half))]])
    z = np.random.default_rng(n).standard_normal(n)
    np.testing.assert_allclose(prob.forward(z), S @ z + b, rtol=1e-14,
                               atol=1e-14 * np.abs(S @ z + b).max())
    np.testing.assert_array_equal(prob.forward.fun.blocks, [K, -K.T])


@pytest.mark.parametrize("kind,dim", [
    ("box_constrained_quadratic", 6),
    ("bilinear_saddle", 6),
    ("l1_composite", 7),
])
def test_forward_linear_part_is_the_difference(kind, dim):
    F = make_problem(kind, dim, seed=5).forward
    rng = np.random.default_rng(dim)
    a, b = rng.standard_normal((2, dim))
    diff = F(a) - F(b)
    np.testing.assert_allclose(F.linear(a - b), diff, rtol=0,
                               atol=1e-14 * (np.abs(F(a)).max()
                                             + np.abs(F(b)).max()))


@pytest.mark.parametrize("L", [0.0, -1.0, float("nan"), float("inf")])
def test_forward_map_refuses_a_lipschitz_constant_not_positive_finite(L):
    # a zero L used to reach make_inner_solver's sigma / L as a bare
    # ZeroDivisionError
    with pytest.raises(ParameterError, match=(
            f"^Lipschitz constant must be positive and finite, got {L}$")):
        operators.ForwardMap(lambda z: z, L, linear=lambda d: d)


@pytest.mark.parametrize("kind,dim", [
    ("affine_inclusion", 7),
    ("box_constrained_quadratic", 6),
    ("bilinear_saddle", 8),
    ("l1_composite", 6),
])
def test_zoo_solution_residual_and_reproducibility(kind, dim):
    prob = make_problem(kind, dim, seed=42)
    assert prob.known_solution is not None
    assert solution_residual(prob) <= 1e-8
    again = make_problem(kind, dim, seed=42)
    np.testing.assert_array_equal(prob.known_solution, again.known_solution)


def test_l1_solution_matches_sign_enumeration():
    prob = make_problem("l1_composite", 5, seed=13)
    M = prob.data["matrix"]
    y = prob.data["observation"]
    weight = prob.data["l1_weight"]
    np.testing.assert_allclose(
        prob.known_solution, solve_l1_bruteforce(M, y, weight), atol=1e-8)


def test_make_problem_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        make_problem("nope", 4, 0)
    with pytest.raises(ParameterError):
        make_problem("affine_inclusion", 0, 0)
    with pytest.raises(ParameterError):
        make_problem("bilinear_saddle", 5, 0)  # odd dimension


def test_affine_zero_point_singular_raises():
    T = AffineOperator(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(OracleError):
        T.zero_point()


# -- dense builds in place, bit for bit ---------------------------------------

DENSE_SIZES = [1, 2, 5, 8, 64, 300]


@pytest.mark.parametrize("n", DENSE_SIZES)
@pytest.mark.parametrize("kind", ["affine_inclusion",
                                  "box_constrained_quadratic"])
def test_dense_build_is_the_direct_expression_bit_for_bit(kind, n):
    for seed in (0, 1, 2, 11):
        problem = make_problem(kind, n, seed)
        data, L, known = dense_problem(kind, n, seed)
        assert problem.data.keys() == data.keys()
        for key, value in data.items():
            assert bits(problem.data[key]) == bits(value), key
        F = problem.forward
        assert bits(None if F is None else F.lipschitz_L) == bits(L)
        assert bits(problem.known_solution) == bits(known)


def three_array_problem(kind, n, seed):
    """``(matrix, offset, L, z*)`` of an affine or box zoo problem, built
    as the three-array construction did: the product of a fresh ``G``,
    then a fresh ``K`` and the whole skew part ``K - K^T`` at once."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G @ G.T
    A /= n
    del G
    if kind == "affine_inclusion":
        K = rng.standard_normal((n, n))
        skew = np.subtract(K, K.T)
        skew *= 0.5
        A += skew
        A.flat[::n + 1] += 0.5
        b = rng.standard_normal(n)
        return A, b, None, np.linalg.solve(A, -b)
    A.flat[::n + 1] += 0.3
    c = rng.standard_normal(n)
    L = float(np.linalg.eigvalsh(A)[-1])
    known = (solve_box_qp_bruteforce(A, c, np.zeros(n), np.ones(n))
             if n <= 12 else None)
    return A, c, L, known


@pytest.mark.parametrize("n", [1, 2, 5, operators._SKEW_ROWS - 1,
                               operators._SKEW_ROWS, operators._SKEW_ROWS + 1,
                               300])
@pytest.mark.parametrize("kind", ["affine_inclusion",
                                  "box_constrained_quadratic"])
def test_two_array_build_is_the_three_array_build_bit_for_bit(kind, n):
    # the product computed into a buffer allocated first, K drawn into G's
    # buffer and the skew part added a block of rows at a time change no bit
    for seed in range(5):
        problem = make_problem(kind, n, seed)
        A, b, L, known = three_array_problem(kind, n, seed)
        assert bits(problem.data["matrix"]) == bits(A)
        assert bits(problem.data["offset"]) == bits(b)
        F = problem.forward
        assert bits(None if F is None else F.lipschitz_L) == bits(L)
        assert bits(problem.known_solution) == bits(known)


def check_resolvent_bits(problem, lam, points):
    A, b = problem.data["matrix"], problem.data["offset"]
    for w in points:  # the first point factors, the rest reuse the factor
        z, v = problem.resolvent.resolve(lam, w)
        z_ref, v_ref = affine_resolve(A, b, lam, w)
        assert bits(z) == bits(z_ref) and bits(v) == bits(v_ref), (lam, w)


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_affine_resolvent_is_the_direct_factorisation_bit_for_bit(n):
    for seed in (0, 3):
        problem = make_problem("affine_inclusion", n, seed)
        rng = np.random.default_rng(seed)
        for lam in (0.5, 1, 3.7):
            check_resolvent_bits(problem, lam, rng.standard_normal((3, n)))


def test_affine_resolvent_of_a_signed_zero_matrix_is_bit_for_bit():
    # adding the identity turned each off-diagonal -0.0 of lam A into +0.0;
    # a factor that kept them would flip the sign of zero outputs
    A = np.array([[1.0, -0.0, 0.5], [-0.0, 2.0, -0.0], [-0.5, 0.0, 1.0]])
    b = np.array([0.0, -0.0, 0.0])
    T = AffineOperator(A, b)
    problem = operators.TestProblem("affine_inclusion", 3, AffineResolvent(T),
                                    data={"matrix": A, "offset": b})
    points = np.array(list(itertools.product((0.0, -0.0, 1.0), repeat=3)))
    for lam in (1, 0.25):
        check_resolvent_bits(problem, lam, points)
