"""Operator oracles and the problem zoo.

A resolvent oracle has one point map, ``point(lam, w)``, which returns
``z_tilde = (I + lam B)^{-1} w`` and may hand back ``w`` itself.  Its
``resolve(lam, w) -> (z_tilde, v)`` is derived from that map in one place
(:func:`_resolve_via_point`): ``v = (w - z_tilde) / lam`` is a selection of
``B`` at ``z_tilde``, so ``z_tilde + lam * v == w``, and ``z_tilde`` is
never an alias of ``w``.  Steps that need only ``z_tilde`` (forward-backward
and Tseng) call ``point``; the proximal step, which needs ``v``, calls
``resolve``.
"""

import functools
import math

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

    def linear(self, d):
        """The linear part ``d -> A d`` (see :func:`linalg.matvec`)."""
        return linalg.matvec(self.matrix, d)

    def __call__(self, z):
        return self.linear(z) + self.offset

    def zero_point(self):
        """Solve ``A z + b = 0``; raises :class:`OracleError` if singular."""
        try:
            return np.linalg.solve(self.matrix, -self.offset)
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"affine zero-point solve failed: {exc}")


class SaddleOperator:
    """Skew affine map ``(x, y) -> (K y + c, -K^T x + d)`` of a saddle.

    Its matrix ``S = [[0, K], [-K^T, 0]]`` is half zeros, so products read
    only the blocks ``K`` and ``-K^T``, stacked into one ``(2, h, h)``
    array; the dense ``S`` is never built.
    """

    def __init__(self, coupling, offset):
        K = np.asarray(coupling, dtype=float)
        self.half = K.shape[0]
        self.blocks = np.stack([K, -K.T])
        self.offset = linalg.as_vector(offset)
        self.dim = self.offset.shape[0]
        if self.dim != 2 * self.half:
            raise ParameterError(
                f"coupling shape {K.shape} does not match offset "
                f"dimension {self.dim}")

    def linear(self, d):
        """The linear part ``(x, y) -> (K y, -K^T x)``: the blocks applied
        to the swapped halves ``(y, x)`` (see :func:`linalg.stacked_matvec`).
        """
        return linalg.stacked_matvec(self.blocks,
                                     d.reshape(2, self.half)[::-1])

    def __call__(self, z):
        return self.linear(z) + self.offset


# ---------------------------------------------------------------------------
# Resolvent oracles
# ---------------------------------------------------------------------------

def _resolve_via_point(oracle, lam, w):
    """``(z_tilde, (w - z_tilde) / lam)`` from ``oracle.point(lam, w)``.

    Every oracle class binds this as its own ``resolve``, not through a
    shared base class, so that each class's namespace holds it (the
    benchmark's tracer wraps ``Class.__dict__["resolve"]``).  ``z_tilde``
    is copied where the point map handed back ``w`` itself.
    """
    z = oracle.point(lam, w)
    if z is w:
        z = w.copy()
    return z, (w - z) / lam


class ZeroResolvent:
    """Resolvent of the zero operator: identity."""

    def point(self, lam, w):
        return w

    resolve = _resolve_via_point


# The LAPACK solve that scipy.linalg.lu_solve wraps, looked up once.
_getrs, = scipy.linalg.get_lapack_funcs(("getrs",), dtype=np.float64)


class AffineResolvent:
    """Resolvent of an affine operator: solves ``(lam A + I) z = w - lam b``.

    Keeps the factor of the latest stepsize only, so a constant stepsize
    factors once and a changing one holds one n x n factor at a time.
    """

    def __init__(self, operator):
        self.operator = operator
        self.dim = operator.dim
        self._lam = None
        self._lu = None

    def point(self, lam, w):
        key = float(lam)
        if key != self._lam:
            self._lam = self._lu = None  # free the old factor first
            # lam A + I in LAPACK's column order, factored in place: one
            # n x n array beyond A.  Adding 0.0 turns an off-diagonal -0.0
            # into +0.0, as adding the identity's zeros does.
            M = np.multiply(lam, self.operator.matrix, order="F")
            M += 0.0
            M.flat[::self.dim + 1] += 1.0
            # a NaN carries through both reductions, which allocate
            # nothing; lu_factor's own check would make an n x n mask
            if not (math.isfinite(M.min()) and math.isfinite(M.max())):
                raise OracleError("resolvent factorization failed: "
                                  "array must not contain infs or NaNs")
            try:
                self._lu = scipy.linalg.lu_factor(M, overwrite_a=True,
                                                  check_finite=False)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise OracleError(f"resolvent factorization failed: {exc}")
            self._lam = key
        # the factored matrix was checked, and the driver refuses a
        # non-finite iterate; the right-hand side is a fresh array
        lu, piv = self._lu
        z, info = _getrs(lu, piv, w - lam * self.operator.offset,
                         overwrite_b=True)
        if info != 0:
            raise OracleError(f"resolvent solve failed: getrs info {info}")
        return z

    resolve = _resolve_via_point


class BoxResolvent:
    """Resolvent of the normal cone of a box: projection onto the box."""

    def __init__(self, lower, upper):
        self.lower = linalg.as_vector(lower)
        self.upper = linalg.as_vector(upper)
        linalg.check_same_dim(self.lower, self.upper)
        if np.any(self.lower > self.upper):
            raise ParameterError("box has lower > upper")

    def project(self, w):
        """``np.clip(w, lower, upper)``, bit for bit, in two ufuncs."""
        return np.minimum(np.maximum(w, self.lower), self.upper)

    def point(self, lam, w):
        return self.project(w)

    resolve = _resolve_via_point


class L1Resolvent:
    """Resolvent of ``weight * subdifferential of the l1 norm``: soft threshold."""

    def __init__(self, weight):
        if not weight >= 0.0:  # so that a NaN fails
            raise ParameterError(f"l1 weight must be nonnegative, got {weight}")
        self.weight = weight

    def point(self, lam, w):
        t = lam * self.weight
        return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)

    resolve = _resolve_via_point


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------

class ForwardMap:
    """Point-to-point monotone map with known Lipschitz/cocoercivity data.

    ``lipschitz_L`` must be positive and finite.  ``linear`` is the map's
    linear part ``d -> F(z + d) - F(z)`` (every zoo map is affine), so a
    difference of two values is formed without the cancellation of
    subtracting them.  ``project_domain`` is the projection onto the set
    where the Lipschitz bound holds (identity when that set is the whole
    space).
    """

    def __init__(self, fun, lipschitz_L, *, linear, cocoercive=False,
                 project_domain=None):
        self.fun = fun
        self.lipschitz_L = float(lipschitz_L)
        if not 0.0 < self.lipschitz_L < math.inf:  # so that a NaN fails
            raise ParameterError(
                f"Lipschitz constant must be positive and finite, "
                f"got {self.lipschitz_L}")
        self.linear = linear
        self.cocoercive = bool(cocoercive)
        self.project_domain = project_domain or (lambda z: z)

    def __call__(self, z):
        return self.fun(z)


# ---------------------------------------------------------------------------
# Brute-force solution oracles (desk scale, exponential cost)
# ---------------------------------------------------------------------------

# Feasibility allowance of a KKT point: on the bounds or signs of the
# point, and on the dual bounds of its gradient.
_KKT_TOL = 1e-9
# Stationarity allowance of a KKT point: on the gradient of the free box
# coordinates (relative to 1 + |c|) and on ``grad + weight s`` of the l1
# support.
_STATIONARITY_TOL = 1e-7
# Patterns are enumerated this many at a time, so memory stays bounded.
_ENUM_CHUNK = 1024
# Widening of every KKT threshold in the batched prefilter.  Its values
# differ from a pattern's own only by round-off (the l1 solves make the same
# LAPACK call on the same data; the box right-hand sides and the gradients
# are summed in another order), far below this, so the prefilter never
# drops a pattern that the exact check would accept.
_PREFILTER_MARGIN = 1e-6


def _patterns(n, lo, hi):
    """Patterns ``lo .. hi-1`` of ``itertools.product((-1, 0, 1), repeat=n)``.

    Row ``i`` holds the base-3 digits of ``lo + i``, most significant
    first, shifted to {-1, 0, 1}.
    """
    powers = 3 ** np.arange(n - 1, -1, -1)
    return np.arange(lo, hi)[:, None] // powers % 3 - 1


def _enumerate(n, prefilter, exact):
    """Yield ``exact(pattern)`` for the patterns ``prefilter`` keeps.

    The patterns are walked in ``itertools.product`` order, a chunk of
    :data:`_ENUM_CHUNK` at a time; ``prefilter`` maps a chunk to the mask
    of its rows that may pass the exact check.
    """
    total = 3 ** n
    for lo in range(0, total, _ENUM_CHUNK):
        chunk = _patterns(n, lo, min(lo + _ENUM_CHUNK, total))
        for row in np.flatnonzero(prefilter(chunk)):
            yield exact(chunk[row])


def _solve_on_free(A, rhs, free):
    """Solve ``A[F, F] x_F = rhs[F]`` for the free set ``F`` of each row.

    One stacked solve per support size.  Returns ``(x, solved)`` with
    ``x`` zero off ``F``; a stack holding a singular matrix is solved
    pattern by pattern, and ``solved`` is False where the matrix is
    singular.
    """
    x = np.zeros(rhs.shape)
    solved = np.ones(len(free), dtype=bool)
    size = free.sum(axis=1)
    for k in range(1, free.shape[1] + 1):
        rows = np.flatnonzero(size == k)
        if not rows.size:
            continue
        cols = np.nonzero(free[rows])[1].reshape(-1, k)
        stack = A[cols[:, :, None], cols[:, None, :]]
        b = rhs[rows[:, None], cols]
        try:
            x_F = np.linalg.solve(stack, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            x_F = np.zeros_like(b)
            for i, row in enumerate(rows):
                try:
                    x_F[i] = np.linalg.solve(stack[i], b[i])
                except np.linalg.LinAlgError:
                    solved[row] = False
        x[rows[:, None], cols] = x_F
    return x, solved


def _box_kkt(pattern, z, g, c, lower, upper, margin=0.0):
    """Whether each point ``z`` with gradient ``g`` is stationary.

    ``z`` lies in the box up to :data:`_KKT_TOL`, and each coordinate's
    gradient has the sign its ``pattern`` entry (lower -1, free 0, upper
    1) requires.  Works on one pattern or a stack of rows; ``margin``
    widens every threshold.
    """
    slack = _KKT_TOL + margin
    bad = ((z < lower - slack) | (z > upper + slack)
           | ((pattern == -1) & (g < -slack))
           | ((pattern == 1) & (g > slack))
           | ((pattern == 0)
              & (np.abs(g) > _STATIONARITY_TOL * (1 + np.abs(c)) + margin)))
    return ~bad.any(axis=-1)


def _box_point(Q, c, lower, upper, pattern):
    """The point of one active-set ``pattern``, or None if it is not a
    solution."""
    z = np.where(pattern == -1, lower, np.where(pattern == 1, upper, 0.0))
    free = pattern == 0
    if free.any():
        try:
            z_free = np.linalg.solve(
                Q[np.ix_(free, free)],
                -c[free] - Q[np.ix_(free, ~free)] @ z[~free])
        except np.linalg.LinAlgError:
            return None
        z = z.copy()
        z[free] = z_free
    if not _box_kkt(pattern, z, Q @ z + c, c, lower, upper):
        return None
    return np.clip(z, lower, upper)


def solve_box_qp_bruteforce(Q, c, lower, upper):
    """Exact solution of ``0 in Q z + c + N_box(z)`` by active-set enumeration.

    Walks the 3^n assignments of coordinates to {lower, free, upper}
    (-1, 0, 1) in ``itertools.product`` order and returns the first that
    solves: its free coordinates solve the reduced linear system, it lies
    in the box and its gradient has the signs of its assignment.  Each
    chunk of patterns is first screened with one stacked solve per
    number of free coordinates, at every threshold widened by
    :data:`_PREFILTER_MARGIN`; each pattern that passes is then checked
    on its own, with its own solve, at the exact thresholds.  A stack
    holding a singular matrix is solved pattern by pattern, and the
    singular pattern skipped, as its own solve would be.  The answer is
    thus the one a pattern-by-pattern loop returns, bit for bit.
    """
    Q = np.asarray(Q, dtype=float)
    c = linalg.as_vector(c)
    n = c.shape[0]
    if n > _BRUTE_FORCE_DIM_CAP:
        raise ParameterError(
            f"brute-force box QP limited to n <= {_BRUTE_FORCE_DIM_CAP}")

    def prefilter(patterns):
        free = patterns == 0
        z = np.where(patterns == -1, lower,
                     np.where(patterns == 1, upper, 0.0))
        # z is zero on F, so each row's rhs on F is -c[F] - Q[F, ~F] z[~F]
        z_free, solved = _solve_on_free(Q, -(z @ Q.T + c), free)
        z = np.where(free, z_free, z)
        return solved & _box_kkt(patterns, z, z @ Q.T + c, c, lower, upper,
                                 _PREFILTER_MARGIN)

    for z in _enumerate(n, prefilter, functools.partial(
            _box_point, Q, c, lower, upper)):
        if z is not None:
            return z
    raise OracleError("active-set enumeration found no stationary point")


def _l1_kkt(s, x, grad, weight, margin=0.0):
    """Whether each ``x`` with gradient ``grad`` of the smooth part is a
    KKT point of sign pattern ``s``.

    ``x`` has the signs of ``s`` and ``|grad| <= weight`` holds off the
    support, both up to :data:`_KKT_TOL`, and ``grad + weight s`` is zero
    on the support.  Works on one pattern or a stack of rows; ``margin``
    widens every threshold.
    """
    support = s != 0.0
    bad = ((x * s < -(_KKT_TOL + margin))
           | (support
              & (np.abs(grad + weight * s) > _STATIONARITY_TOL + margin))
           | (~support & (np.abs(grad) > weight + _KKT_TOL + margin)))
    return ~bad.any(axis=-1)


def _l1_point(G, h, M, y, weight, s):
    """``(objective, x)`` of the KKT point of sign pattern ``s``, or None."""
    s = s.astype(float)
    support = s != 0.0
    x = np.zeros(s.shape[0])
    if support.any():
        try:
            x[support] = np.linalg.solve(
                G[np.ix_(support, support)],
                h[support] - weight * s[support])
        except np.linalg.LinAlgError:
            return None
    if not _l1_kkt(s, x, G @ x - h, weight):
        return None
    return 0.5 * linalg.norm_sq(M @ x - y) + weight * np.abs(x).sum(), x


def solve_l1_bruteforce(M, y, weight):
    """Exact minimizer of ``0.5 ||M x - y||^2 + weight * ||x||_1``.

    Walks the 3^n sign patterns in ``itertools.product((-1, 0, 1))``
    order, solves each one's KKT system and returns the KKT point of
    least objective, the first on a tie.  Each chunk of patterns is
    first screened with one stacked solve per support size, at every
    threshold widened by :data:`_PREFILTER_MARGIN`; each pattern that
    passes is then checked on its own, with its own solve, at the exact
    thresholds.  A stack holding a singular matrix is solved pattern by
    pattern, and the singular pattern skipped, as its own solve would
    be.  The answer is thus the one a pattern-by-pattern loop returns,
    bit for bit.
    """
    M = np.asarray(M, dtype=float)
    y = linalg.as_vector(y)
    n = M.shape[1]
    if n > _BRUTE_FORCE_DIM_CAP:
        raise ParameterError(
            f"brute-force l1 solve limited to n <= {_BRUTE_FORCE_DIM_CAP}")
    G = M.T @ M
    h = M.T @ y

    def prefilter(patterns):
        s = patterns.astype(float)
        x, solved = _solve_on_free(G, h - weight * s, patterns != 0)
        return solved & _l1_kkt(s, x, x @ G.T - h, weight,
                                _PREFILTER_MARGIN)

    best = None
    for point in _enumerate(n, prefilter, functools.partial(
            _l1_point, G, h, M, y, weight)):
        if point is not None and (best is None or point[0] < best[0]):
            best = point
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

    def __init__(self, kind, dim, resolvent, forward=None,
                 known_solution=None, data=None):
        self.kind = kind
        self.dim = dim
        self.resolvent = resolvent
        self.forward = forward
        self.known_solution = known_solution
        self.data = data or {}

    def d0(self):
        """Distance from the origin, where every run starts, to the known
        solution; None when no solution is known."""
        if self.known_solution is None:
            return None
        return linalg.norm(self.known_solution)


# Rows of the skew part (K - K^T) / 2 formed at a time, so a build holds
# one such block beyond its two n x n arrays.
_SKEW_ROWS = 32


def _gram(rng, n):
    """``(G G^T / n, G)`` of a standard normal ``G``.

    ``G``'s buffer is handed back for the caller to draw into or drop.
    The product's array is allocated before ``G`` on purpose, so that the
    kept matrix lies below ``G`` in the heap; keep that order.  Once glibc
    has freed one n x n array at n = 2000 (30.5 MiB), it serves later ones
    from the heap.  The LAPACK copies made after the build
    (``np.linalg.solve`` in :meth:`AffineOperator.zero_point`,
    ``eigvalsh``, ``lu_factor``) are a little larger than one such array:
    freed memory above the kept matrix joins the top of the heap, which
    they grow into, but a hole left below it is too small for them, so a
    ``G`` allocated first costs its whole size in peak memory once more.
    ``np.matmul(..., out=)`` still takes numpy's symmetric-product path,
    so the bits are those of ``G @ G.T``.
    """
    S = np.empty((n, n))
    G = rng.standard_normal((n, n))
    np.matmul(G, G.T, out=S)
    S /= n
    return S, G


def _psd_plus_skew(rng, n, ridge):
    """``G G^T / n + (K - K^T) / 2 + ridge I``, built in two n x n arrays.

    ``K`` is drawn into ``G``'s buffer, which takes the same numbers from
    the stream as a fresh ``(n, n)`` draw, and its skew part is added
    :data:`_SKEW_ROWS` rows at a time, with the elementwise arithmetic of
    one whole ``(K - K.T) * 0.5``.  The kept matrix comes from :func:`_gram`, which
    allocates it first; see there why that order matters.

    The ridge goes on the diagonal only: off it, adding the identity's
    zeros would change only a -0.0, and a sum of products of normal draws
    is never -0.0.
    """
    A, K = _gram(rng, n)
    rng.standard_normal(out=K)
    block = np.empty((min(_SKEW_ROWS, n), n))
    for lo in range(0, n, _SKEW_ROWS):
        rows = K[lo:lo + _SKEW_ROWS]
        skew = block[:len(rows)]
        # copied first: a ufunc reading the strided rows of K.T would
        # allocate a buffer for them
        np.copyto(skew, K[:, lo:lo + _SKEW_ROWS].T)
        np.subtract(rows, skew, out=skew)
        skew *= 0.5
        A[lo:lo + _SKEW_ROWS] += skew
    A.flat[::n + 1] += ridge
    return A


def make_problem(kind, dimension, seed):
    """Build a reproducible problem instance from its seed."""
    if dimension < 1:
        raise ParameterError(f"dimension must be >= 1, got {dimension}")
    rng = np.random.default_rng(seed)

    if kind == "affine_inclusion":
        # monotone by construction: the symmetric part is >= 0.5 I
        A = _psd_plus_skew(rng, dimension, 0.5)
        b = rng.standard_normal(dimension)
        T = AffineOperator(A, b)
        return TestProblem(
            kind, dimension,
            resolvent=AffineResolvent(T),
            known_solution=T.zero_point(),
            data={"matrix": A, "offset": b})

    if kind == "box_constrained_quadratic":
        Q = _gram(rng, dimension)[0]  # G is freed before eigvalsh copies Q
        Q.flat[::dimension + 1] += 0.3
        c = rng.standard_normal(dimension)
        lower = np.zeros(dimension)
        upper = np.ones(dimension)
        L = float(np.linalg.eigvalsh(Q)[-1])
        box = BoxResolvent(lower, upper)
        T = AffineOperator(Q, c)
        F = ForwardMap(T, L, cocoercive=True, project_domain=box.project,
                       linear=T.linear)
        known = None
        if dimension <= 12:
            known = solve_box_qp_bruteforce(Q, c, lower, upper)
        return TestProblem(
            kind, dimension, resolvent=box, forward=F,
            known_solution=known,
            data={"matrix": Q, "offset": c, "lower": lower, "upper": upper})

    if kind == "bilinear_saddle":
        if dimension % 2 != 0:
            raise ParameterError("bilinear_saddle needs an even dimension")
        half = dimension // 2
        K = np.eye(half) + 0.5 * rng.standard_normal((half, half)) / np.sqrt(half)
        c = rng.standard_normal(half)
        d = rng.standard_normal(half)
        b = np.concatenate([c, d])
        T = SaddleOperator(K, b)
        x_star = np.linalg.solve(K.T, d)
        y_star = np.linalg.solve(K, -c)
        L = float(np.linalg.svd(K, compute_uv=False)[0])
        F = ForwardMap(T, L, cocoercive=False, linear=T.linear)
        return TestProblem(
            kind, dimension,
            resolvent=ZeroResolvent(), forward=F,
            known_solution=np.concatenate([x_star, y_star]),
            data={"coupling": T.blocks[0], "offset": b})

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
                       cocoercive=True, linear=lambda d, M=M: M.T @ (M @ d))
        known = None
        if dimension <= 14:
            known = solve_l1_bruteforce(M, y, weight)
        return TestProblem(
            kind, dimension,
            resolvent=L1Resolvent(weight), forward=F,
            known_solution=known,
            data={"matrix": M, "observation": y, "l1_weight": weight})

    raise ParameterError(
        f"unsupported problem kind {kind!r}; choose from {PROBLEM_KINDS}")
