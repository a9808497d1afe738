"""Operator oracles, the enlargement membership oracle and the problem zoo.

Resolvent oracles expose ``resolve(lam, w) -> (z_tilde, v)`` with
``z_tilde + lam * v == w`` and ``v`` a selection of the operator at
``z_tilde``.  The enlargement membership test is closed-form for affine
operators only; composite instances are certified through the additive
decomposition of enlargements.
"""

import itertools

import numpy as np
import scipy.linalg

from . import linalg
from .errors import OracleError, ParameterError

# Brute-force oracles (grid / sign enumeration) are exponential in the
# dimension; refuse beyond this.
_BRUTE_FORCE_DIM_CAP = 20


class AffineOperator:
    """Single-valued affine map ``z -> A z + b``.

    Monotone iff the symmetric part of ``A`` is positive semidefinite.
    """

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = linalg.as_vector(offset)
        n = self.offset.shape[0]
        if self.matrix.shape != (n, n):
            raise ParameterError(
                f"matrix shape {self.matrix.shape} does not match offset "
                f"dimension {n}")

    @property
    def dim(self):
        return self.offset.shape[0]

    def __call__(self, z):
        return self.matrix @ z + self.offset

    def symmetric_part(self):
        return 0.5 * (self.matrix + self.matrix.T)

    def min_symmetric_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.symmetric_part())[0])

    def zero_point(self):
        """Solve ``A z + b = 0``; raises :class:`OracleError` if singular."""
        try:
            return np.linalg.solve(self.matrix, -self.offset)
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"affine zero-point solve failed: {exc}")


# ---------------------------------------------------------------------------
# Resolvent oracles
# ---------------------------------------------------------------------------

class ZeroResolvent:
    """Resolvent of the zero operator: identity."""

    def __init__(self, dim):
        self.dim = dim

    def resolve(self, lam, w):
        if lam <= 0.0:
            raise ParameterError(f"lambda must be positive, got {lam}")
        return w.copy(), np.zeros_like(w)


class AffineResolvent:
    """Resolvent of an affine operator: solves ``(lam A + I) z = w - lam b``."""

    def __init__(self, operator):
        self.operator = operator
        self.dim = operator.dim
        self._cache = {}

    def resolve(self, lam, w):
        if lam <= 0.0:
            raise ParameterError(f"lambda must be positive, got {lam}")
        key = float(lam)
        lu = self._cache.get(key)
        if lu is None:
            try:
                lu = scipy.linalg.lu_factor(
                    lam * self.operator.matrix + np.eye(self.dim))
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise OracleError(f"resolvent factorization failed: {exc}")
            self._cache[key] = lu
        z = scipy.linalg.lu_solve(lu, w - lam * self.operator.offset)
        v = (w - z) / lam
        return z, v


class BoxResolvent:
    """Resolvent of the normal cone of a box: projection onto the box."""

    def __init__(self, lower, upper):
        self.lower = linalg.as_vector(lower)
        self.upper = linalg.as_vector(upper)
        linalg.check_same_dim(self.lower, self.upper)
        if np.any(self.lower > self.upper):
            raise ParameterError("box has lower > upper")
        self.dim = self.lower.shape[0]

    def project(self, w):
        return np.clip(w, self.lower, self.upper)

    def resolve(self, lam, w):
        if lam <= 0.0:
            raise ParameterError(f"lambda must be positive, got {lam}")
        z = self.project(w)
        return z, (w - z) / lam


class L1Resolvent:
    """Resolvent of ``weight * subdifferential of the l1 norm``: soft threshold."""

    def __init__(self, dim, weight):
        if weight < 0.0:
            raise ParameterError(f"l1 weight must be nonnegative, got {weight}")
        self.dim = dim
        self.weight = weight

    def resolve(self, lam, w):
        if lam <= 0.0:
            raise ParameterError(f"lambda must be positive, got {lam}")
        t = lam * self.weight
        z = np.sign(w) * np.maximum(np.abs(w) - t, 0.0)
        return z, (w - z) / lam


def resolve(B, lam, w):
    """Evaluate a resolvent oracle: ``z_tilde = (lam B + I)^{-1} w``.

    Returns ``(z_tilde, v)`` with ``v = (w - z_tilde)/lam`` in ``B(z_tilde)``.
    """
    return B.resolve(lam, linalg.as_vector(w))


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------

class ForwardMap:
    """Point-to-point monotone map with known Lipschitz/cocoercivity data.

    ``project_domain`` is the projection onto the set where the Lipschitz
    bound holds (identity when that set is the whole space).
    """

    def __init__(self, fun, lipschitz_L, cocoercive=False,
                 project_domain=None, affine=None):
        self.fun = fun
        self.lipschitz_L = float(lipschitz_L)
        self.cocoercive = bool(cocoercive)
        self.project_domain = project_domain or (lambda z: z)
        self.affine = affine  # AffineOperator when the map is affine

    def __call__(self, z):
        return self.fun(z)


# ---------------------------------------------------------------------------
# Enlargement oracle (affine operators)
# ---------------------------------------------------------------------------

def enlargement_infimum(T, z, v):
    """Infimum over ``z'`` of ``<z - z', v - (A z' + b)>`` for affine ``T``.

    Returns ``(value, bounded)``; ``bounded`` is False when the infimum is
    ``-inf`` (stationarity system inconsistent).
    """
    A = T.matrix
    b = T.offset
    z = linalg.as_vector(z)
    v = linalg.as_vector(v)
    sym2 = A + A.T  # Hessian of the quadratic in z'
    rhs = A.T @ z + v - b
    sol, *_ = np.linalg.lstsq(sym2, rhs, rcond=None)
    residual = linalg.norm(sym2 @ sol - rhs)
    if residual > 1e-9 * (1.0 + linalg.norm(rhs)):
        return -np.inf, False
    value = linalg.inner(z - sol, v - T(sol))
    return value, True


def enlargement_member(T, z, v, eps, tol=1e-9):
    """Closed-form membership test ``v in T^eps(z)`` for affine ``T``."""
    if eps < 0.0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    value, bounded = enlargement_infimum(T, z, v)
    if not bounded:
        return False
    return value >= -eps - tol


# ---------------------------------------------------------------------------
# Brute-force solution oracles (desk scale, exponential cost)
# ---------------------------------------------------------------------------

def solve_box_qp_bruteforce(Q, c, lower, upper, tol=1e-9):
    """Exact solution of ``0 in Q z + c + N_box(z)`` by active-set enumeration.

    Enumerates all 3^n assignments of coordinates to {lower, upper, free}.
    """
    Q = np.asarray(Q, dtype=float)
    c = linalg.as_vector(c)
    n = c.shape[0]
    if n > _BRUTE_FORCE_DIM_CAP:
        raise ParameterError(
            f"brute-force box QP limited to n <= {_BRUTE_FORCE_DIM_CAP}")
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pattern = np.array(pattern)
        z = np.where(pattern == -1, lower, np.where(pattern == 1, upper, 0.0))
        free = pattern == 0
        if free.any():
            try:
                z_free = np.linalg.solve(
                    Q[np.ix_(free, free)],
                    -c[free] - Q[np.ix_(free, ~free)] @ z[~free])
            except np.linalg.LinAlgError:
                continue
            z = z.copy()
            z[free] = z_free
        if np.any(z < lower - tol) or np.any(z > upper + tol):
            continue
        g = Q @ z + c
        ok = True
        for i in range(n):
            if pattern[i] == -1 and g[i] < -tol:
                ok = False
            elif pattern[i] == 1 and g[i] > tol:
                ok = False
            elif pattern[i] == 0 and abs(g[i]) > 1e-7 * (1 + abs(c[i])):
                ok = False
        if ok:
            return np.clip(z, lower, upper)
    raise OracleError("active-set enumeration found no stationary point")


def solve_l1_bruteforce(M, y, weight, tol=1e-9):
    """Exact minimizer of ``0.5 ||M x - y||^2 + weight * ||x||_1``.

    Enumerates all 3^n sign patterns and solves each KKT system.
    """
    M = np.asarray(M, dtype=float)
    y = linalg.as_vector(y)
    n = M.shape[1]
    if n > _BRUTE_FORCE_DIM_CAP:
        raise ParameterError(
            f"brute-force l1 solve limited to n <= {_BRUTE_FORCE_DIM_CAP}")
    G = M.T @ M
    h = M.T @ y
    best = None
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        s = np.array(pattern, dtype=float)
        support = s != 0.0
        x = np.zeros(n)
        if support.any():
            try:
                x_s = np.linalg.solve(
                    G[np.ix_(support, support)],
                    h[support] - weight * s[support])
            except np.linalg.LinAlgError:
                continue
            if np.any(x_s * s[support] < -tol):
                continue
            x[support] = x_s
        grad = G @ x - h
        if support.any() and np.any(
                np.abs(grad[support] + weight * s[support]) > 1e-7):
            continue
        if np.any(np.abs(grad[~support]) > weight + 1e-9):
            continue
        obj = 0.5 * linalg.norm_sq(M @ x - y) + weight * np.abs(x).sum()
        if best is None or obj < best[0]:
            best = (obj, x)
    if best is None:
        raise OracleError("sign enumeration found no KKT point")
    return best[1]


# ---------------------------------------------------------------------------
# Test problem zoo
# ---------------------------------------------------------------------------

PROBLEM_KINDS = ("affine_inclusion", "box_constrained_quadratic",
                 "bilinear_saddle", "l1_composite")


class TestProblem:
    """A desk-scale monotone inclusion instance.

    Holds either a plain operator ``T`` (as a resolvent oracle) or a
    structured pair ``(F, B)`` plus whatever exact-solution data the
    construction could compute.
    """

    def __init__(self, kind, dim, seed, resolvent, forward=None,
                 affine_T=None, known_solution=None, data=None):
        self.kind = kind
        self.dim = dim
        self.seed = seed
        self.resolvent = resolvent
        self.forward = forward
        self.affine_T = affine_T
        self.known_solution = known_solution
        self.data = data or {}

    @property
    def lipschitz_L(self):
        return None if self.forward is None else self.forward.lipschitz_L

    def d0(self, z0):
        """Distance of ``z0`` to the (known) solution set."""
        if self.known_solution is None:
            return None
        return linalg.norm(linalg.as_vector(z0) - self.known_solution)

    def solution_residual(self):
        """Inclusion residual of the stored solution (fixed-point form)."""
        if self.known_solution is None:
            return None
        z = self.known_solution
        if self.forward is None:
            z_next, _ = self.resolvent.resolve(1.0, z)
        else:
            z_next, _ = self.resolvent.resolve(1.0, z - self.forward(z))
        return linalg.norm(z - z_next)


def _psd_plus_skew(rng, n, ridge):
    G = rng.standard_normal((n, n))
    sym = G @ G.T / n
    K = rng.standard_normal((n, n))
    skew = 0.5 * (K - K.T)
    return sym + skew + ridge * np.eye(n)


def make_problem(kind, dimension, seed, matrix=None, offset=None):
    """Build a reproducible problem instance.

    ``matrix``/``offset`` override the random affine data for the
    ``affine_inclusion`` kind (used by config files and spot checks).
    """
    if dimension < 1:
        raise ParameterError(f"dimension must be >= 1, got {dimension}")
    rng = np.random.default_rng(seed)

    if kind == "affine_inclusion":
        if matrix is not None:
            A = np.asarray(matrix, dtype=float)
            b = linalg.as_vector(offset)
            if A.shape != (dimension, dimension) or b.shape != (dimension,):
                raise ParameterError(
                    f"matrix {A.shape} and offset {b.shape} do not match "
                    f"dimension {dimension}")
        else:
            A = _psd_plus_skew(rng, dimension, 0.5)
            b = rng.standard_normal(dimension)
        T = AffineOperator(A, b)
        if T.min_symmetric_eigenvalue() < -1e-10:
            raise ParameterError("affine operator is not monotone")
        return TestProblem(
            kind, dimension, seed,
            resolvent=AffineResolvent(T),
            affine_T=T,
            known_solution=T.zero_point(),
            data={"matrix": A, "offset": b})

    if kind == "box_constrained_quadratic":
        G = rng.standard_normal((dimension, dimension))
        Q = G @ G.T / dimension + 0.3 * np.eye(dimension)
        c = rng.standard_normal(dimension)
        lower = np.zeros(dimension)
        upper = np.ones(dimension)
        L = float(np.linalg.eigvalsh(Q)[-1])
        box = BoxResolvent(lower, upper)
        F = ForwardMap(lambda z, Q=Q, c=c: Q @ z + c, L, cocoercive=True,
                       project_domain=box.project,
                       affine=AffineOperator(Q, c))
        known = None
        if dimension <= 12:
            known = solve_box_qp_bruteforce(Q, c, lower, upper)
        return TestProblem(
            kind, dimension, seed, resolvent=box, forward=F,
            known_solution=known,
            data={"matrix": Q, "offset": c, "lower": lower, "upper": upper})

    if kind == "bilinear_saddle":
        if dimension % 2 != 0:
            raise ParameterError("bilinear_saddle needs an even dimension")
        half = dimension // 2
        K = np.eye(half) + 0.5 * rng.standard_normal((half, half)) / np.sqrt(half)
        c = rng.standard_normal(half)
        d = rng.standard_normal(half)
        S = np.block([[np.zeros((half, half)), K],
                      [-K.T, np.zeros((half, half))]])
        b = np.concatenate([c, d])
        T = AffineOperator(S, b)
        x_star = np.linalg.solve(K.T, d)
        y_star = np.linalg.solve(K, -c)
        L = float(np.linalg.svd(K, compute_uv=False)[0])
        F = ForwardMap(lambda z, S=S, b=b: S @ z + b, L, cocoercive=False,
                       affine=T)
        return TestProblem(
            kind, dimension, seed,
            resolvent=ZeroResolvent(dimension), forward=F, affine_T=T,
            known_solution=np.concatenate([x_star, y_star]),
            data={"coupling": K, "offset": b})

    if kind == "l1_composite":
        M = rng.standard_normal((dimension, dimension)) / np.sqrt(dimension)
        x_true = np.zeros(dimension)
        support = rng.choice(dimension, size=max(1, dimension // 3),
                             replace=False)
        x_true[support] = rng.standard_normal(support.shape[0])
        y = M @ x_true + 0.01 * rng.standard_normal(dimension)
        weight = 0.1 * float(np.abs(M.T @ y).max())
        L = float(np.linalg.svd(M, compute_uv=False)[0]) ** 2
        F = ForwardMap(lambda z, M=M, y=y: M.T @ (M @ z - y), L,
                       cocoercive=True,
                       affine=AffineOperator(M.T @ M, -(M.T @ y)))
        known = None
        if dimension <= 14:
            known = solve_l1_bruteforce(M, y, weight)
        return TestProblem(
            kind, dimension, seed,
            resolvent=L1Resolvent(dimension, weight), forward=F,
            known_solution=known,
            data={"matrix": M, "observation": y, "l1_weight": weight})

    raise ParameterError(
        f"unsupported problem kind {kind!r}; choose from {PROBLEM_KINDS}")
