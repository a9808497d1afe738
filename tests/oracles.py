"""Direct formulas that the library's streaming code is checked against,
and the closed-form checks of a point against an operator."""

import numpy as np
import scipy.linalg

from monosplit import hpe_core, linalg
from monosplit.errors import DimensionMismatch, ParameterError
from monosplit.operators import (AffineResolvent, BoxResolvent, ZeroResolvent,
                                 solve_box_qp_bruteforce)
from monosplit.params import check_sigma

# Round-off allowance on the transport weights summing to 1.
WEIGHT_SUM_TOL = 1e-12
# Round-off allowance of the enlargement oracle: on the stationarity
# residual, relative to 1 + ||rhs||, and on the membership inequality.
ENLARGEMENT_TOL = 1e-9


def bits(x):
    """Shape, dtype and bytes of an array or number (signbits included)."""
    if x is None:
        return None
    x = np.asarray(x)
    return x.shape, x.dtype.str, x.tobytes()


def certify(cert, w, sigma):
    """The lhs/rhs ratio of one certificate at ``w`` by the driver's law,
    :func:`monosplit.hpe_core._error_ratio`, with no floor beyond lam > 0.
    0/0 counts as 0; a ``z~`` or ``v`` not of the shape of ``w`` raises
    :class:`DimensionMismatch`.  The shape check is the oracle's own, a
    reference for the one in :func:`monosplit.hpe_core.run`; the tests pin
    both messages in full."""
    check_sigma(sigma)
    shape = np.shape(w)
    if cert.z_tilde.shape != shape or cert.v.shape != shape:
        raise DimensionMismatch(
            f"certificate has z~ of shape {cert.z_tilde.shape} "
            f"and v of shape {cert.v.shape}, expected {shape}")
    rows = np.empty((2,) + shape)
    hpe_core._criterion_terms(cert, w, *rows)
    return hpe_core._error_ratio(*linalg.row_dots(rows, rows).tolist(),
                                 cert.lam, cert.eps, sigma, 0.0)


def transport(points, weights):
    """Aggregate graph-of-enlargement points into one certificate.

    Parameters
    ----------
    points : sequence of (z~, v, eps) triples with ``v in T^eps(z~)``.
    weights : nonnegative reals summing to 1 within
        :data:`WEIGHT_SUM_TOL`.

    Returns
    -------
    (z_avg, v_avg, eps_avg) with ``eps_avg >= 0`` and
    ``v_avg in T^{eps_avg}(z_avg)`` for maximal monotone ``T``.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0):
        raise ParameterError("transport weights must be nonnegative")
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ParameterError(
            f"transport weights sum to {weights.sum()}, expected 1 "
            f"within {WEIGHT_SUM_TOL}")
    if len(points) != weights.shape[0]:
        raise ParameterError("points and weights lengths differ")
    z_avg = sum(a * linalg.as_vector(z) for a, (z, _, _) in zip(weights, points))
    v_avg = sum(a * linalg.as_vector(v) for a, (_, v, _) in zip(weights, points))
    eps_avg = sum(
        a * (eps + linalg.inner(z - z_avg, v - v_avg))
        for a, (z, v, eps) in zip(weights, points))
    return z_avg, v_avg, eps_avg


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
    if residual > ENLARGEMENT_TOL * (1.0 + linalg.norm(rhs)):
        return -np.inf, False
    value = linalg.inner(z - sol, v - T(sol))
    return value, True


def enlargement_member(T, z, v, eps):
    """Closed-form membership test ``v in T^eps(z)`` for affine ``T``,
    within :data:`ENLARGEMENT_TOL`."""
    if eps < 0.0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    value, bounded = enlargement_infimum(T, z, v)
    if not bounded:
        return False
    return value >= -eps - ENLARGEMENT_TOL


def solution_residual(problem):
    """Inclusion residual of a problem's stored solution (fixed-point
    form), or None when it has none."""
    if problem.known_solution is None:
        return None
    z = problem.known_solution
    if problem.forward is None:
        z_next, _ = problem.resolvent.resolve(1.0, z)
    else:
        z_next, _ = problem.resolvent.resolve(1.0, z - problem.forward(z))
    return linalg.norm(z - z_next)


def dense_problem(kind, n, seed):
    """``(data, L, z*)`` of a generated affine or box zoo problem, built
    with the direct expressions, every temporary kept.

    ``L`` is None for the affine kind, and ``z*`` for a box above n = 12,
    as in :func:`monosplit.operators.make_problem`.
    """
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    if kind == "affine_inclusion":
        sym = G @ G.T / n
        K = rng.standard_normal((n, n))
        skew = 0.5 * (K - K.T)
        A = sym + skew + 0.5 * np.eye(n)
        b = rng.standard_normal(n)
        return {"matrix": A, "offset": b}, None, np.linalg.solve(A, -b)
    Q = G @ G.T / n + 0.3 * np.eye(n)
    c = rng.standard_normal(n)
    lower, upper = np.zeros(n), np.ones(n)
    known = solve_box_qp_bruteforce(Q, c, lower, upper) if n <= 12 else None
    return ({"matrix": Q, "offset": c, "lower": lower, "upper": upper},
            float(np.linalg.eigvalsh(Q)[-1]), known)


def affine_resolve(A, b, lam, w):
    """``(z~, v)`` of the resolvent of ``z -> A z + b`` at ``w``, factoring
    ``lam A + I`` afresh, every temporary kept."""
    lu = scipy.linalg.lu_factor(lam * A + np.eye(A.shape[0]))
    z = scipy.linalg.lu_solve(lu, w - lam * b)
    return z, (w - z) / lam


# -- the steps as first written, resolvent values and all --------------------

def old_resolve(B, lam, w):
    """``(z~, v)`` of resolvent oracle ``B`` as each oracle computed both:
    a copy and zeros for the zero operator, ``np.clip`` for a box,
    ``lu_factor`` and ``scipy.linalg.lu_solve`` for an affine map, and the
    soft threshold."""
    if isinstance(B, ZeroResolvent):
        return w.copy(), np.zeros_like(w)
    if isinstance(B, AffineResolvent):
        return affine_resolve(B.operator.matrix, B.operator.offset, lam, w)
    if isinstance(B, BoxResolvent):
        z = np.clip(w, B.lower, B.upper)
    else:
        z = np.sign(w) * np.maximum(np.abs(w) - lam * B.weight, 0.0)
    return z, (w - z) / lam


def old_ppm_step(B, w, lam):
    """``(z~, v, eps, lam)`` of the proximal step."""
    z_tilde, v = old_resolve(B, lam, w)
    return z_tilde, v, 0.0, lam


def old_tseng_step(F, B, w, lam, project):
    """``(z~, v, eps, lam)`` of Tseng's step, taking ``B.resolve(...)[0]``;
    ``project`` is ``F``'s domain projection as first written (``np.clip``
    onto a box, or the identity)."""
    w_proj = project(w)
    f_w = F(w_proj)
    z_tilde, _ = old_resolve(B, lam, w - lam * f_w)
    v = F.linear(z_tilde - w_proj) + (w - z_tilde) / lam
    return z_tilde, v, 0.0, lam


def old_fb_step(F, B, w, lam):
    """``(z~, v, eps, lam)`` of the forward-backward step, taking
    ``B.resolve(...)[0]``."""
    z_tilde, _ = old_resolve(B, lam, w - lam * F(w))
    v = (w - z_tilde) / lam
    dz = z_tilde - w
    eps = F.lipschitz_L * linalg.dot(dz, dz) / 4.0
    return z_tilde, v, eps, lam
