"""Admissible parameter bundles for the inertial under-relaxed solver.

The bundle ties together the inertial upper bound ``alpha``, the
relative-error tolerance ``sigma``, the target bound ``beta`` and the
derived quantities: the effective bound ``beta_prime``, the relaxation
``tau``, the energy weight ``eta`` and the stability quadratic ``q``.
The closed forms come as a package: ``tau`` is chosen so that
``beta_prime`` is a root of ``q``, which makes ``q(alpha) > 0`` exactly
the admissibility condition ``alpha < beta``.
"""

import math
from dataclasses import dataclass, field

from .errors import ParameterError

# Round-off allowance on q(beta') = 0, the root the closed forms place.
Q_ROOT_TOL = 1e-10


def _check_sigma(sigma):
    if not (0.0 <= sigma < 1.0):
        raise ParameterError(f"sigma must lie in [0, 1), got {sigma}")


def _check_beta(beta):
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")


def beta_prime_lower_bound(sigma):
    """Smallest admissible effective bound for a given ``sigma``.

    Equals ``2(1-sigma) / (3 - sigma + sqrt(9 + 2 sigma - 7 sigma^2))``;
    ``1/3`` at ``sigma = 0``.
    """
    _check_sigma(sigma)
    return 2.0 * (1.0 - sigma) / (
        3.0 - sigma + math.sqrt(9.0 + 2.0 * sigma - 7.0 * sigma ** 2))


def beta_prime(sigma, beta):
    """Effective bound: ``max(beta, beta_prime_lower_bound(sigma))``."""
    _check_beta(beta)
    return max(beta, beta_prime_lower_bound(sigma))


def beta_to_t(beta):
    """Scalar forward map ``beta -> 2(beta-1)^2 / (2(beta-1)^2 + 3 beta - 1)``.

    This is ``(1 + sigma) * tau_of(sigma, beta)`` whenever
    ``beta >= beta_prime_lower_bound(sigma)``.
    """
    d = beta - 1.0
    return 2.0 * d * d / (2.0 * d * d + 3.0 * beta - 1.0)


def tau_of(sigma, beta):
    """Relaxation factor as a function of ``(sigma, beta)``.

    ``tau = 2(b'-1)^2 / ((1+sigma) [2(b'-1)^2 + 3 b' - 1])`` with
    ``b' = beta_prime(sigma, beta)``.  Equals 1 at ``(0, 1/3)`` and
    ``1/(1+sigma)`` at ``beta = 1/3`` for any ``sigma``.
    """
    _check_sigma(sigma)
    bp = beta_prime(sigma, beta)
    # analytically <= 1; rounding at the beta_prime floor can add a few ulp
    return min(1.0, beta_to_t(bp) / (1.0 + sigma))


def eta_of(sigma, tau):
    """Energy weight ``eta = 2 / ((1+sigma) tau) - 1``; must be positive."""
    _check_sigma(sigma)
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must lie in (0, 1], got {tau}")
    if (1.0 + sigma) * tau >= 2.0:
        raise ParameterError(
            f"(1+sigma)*tau = {(1 + sigma) * tau} >= 2 gives eta <= 0")
    return 2.0 / ((1.0 + sigma) * tau) - 1.0


def q_value(alpha_prime, eta):
    """Stability quadratic ``q(a) = (eta-1) a^2 - (1+2 eta) a + eta``."""
    return (eta - 1.0) * alpha_prime ** 2 - (1.0 + 2.0 * eta) * alpha_prime + eta


def inverse_map(t, sigma=0.0):
    """Inverse of :func:`beta_to_t` on ``(0, 1 + sigma]``.

    Returns ``(4 - 2t) / (4 - t + sqrt(16 t - 7 t^2))``.
    """
    _check_sigma(sigma)
    if not (0.0 < t <= 1.0 + sigma):
        raise ParameterError(
            f"t must lie in (0, 1 + sigma] = (0, {1 + sigma}], got {t}")
    return (4.0 - 2.0 * t) / (4.0 - t + math.sqrt(16.0 * t - 7.0 * t * t))


@dataclass(frozen=True)
class AlphaSchedule:
    """Nondecreasing inertial schedule ``k -> alpha_{k-1}`` in ``[0, alpha]``.

    ``ramp_iters = 0`` is the constant schedule (required by the ergodic
    rate guarantees); a positive value ramps linearly from 0 up to
    ``alpha`` over that many iterations.
    """

    alpha: float
    ramp_iters: int = 0

    @property
    def is_constant(self):
        return self.ramp_iters == 0 or self.alpha == 0.0

    def value(self, k):
        """Extrapolation factor used at iteration ``k`` (k >= 1)."""
        if self.is_constant:
            return self.alpha
        return self.alpha * min(1.0, (k - 1) / self.ramp_iters)


@dataclass(frozen=True)
class HpeParams:
    """Validated parameter bundle.

    Use :meth:`from_beta` (supply ``alpha, sigma, beta``) or
    :meth:`from_tau` (supply ``alpha, sigma, tau`` directly).
    """

    alpha: float
    sigma: float
    beta: float
    beta_prime: float
    tau: float
    eta: float
    q_alpha: float
    schedule: AlphaSchedule = field(default=None)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_beta(cls, alpha, sigma, beta, ramp_iters=0):
        """Derive ``(beta', tau, eta, q(alpha))`` from ``(alpha, sigma, beta)``."""
        _check_sigma(sigma)
        _check_beta(beta)
        if not (0.0 <= alpha < 1.0):
            raise ParameterError(f"alpha must lie in [0, 1), got {alpha}")
        bp = beta_prime(sigma, beta)
        tau = tau_of(sigma, beta)
        eta = eta_of(sigma, tau)
        qa = q_value(alpha, eta)
        p = cls(alpha=alpha, sigma=sigma, beta=beta, beta_prime=bp, tau=tau,
                eta=eta, q_alpha=qa,
                schedule=AlphaSchedule(alpha, ramp_iters))
        return p.validate()

    @classmethod
    def from_tau(cls, alpha, sigma, tau, ramp_iters=0):
        """Expert path: accept ``(alpha, sigma, tau)`` and recover ``beta``."""
        if not (0.0 <= alpha < 1.0):
            raise ParameterError(f"alpha must lie in [0, 1), got {alpha}")
        eta = eta_of(sigma, tau)
        bp = inverse_map((1.0 + sigma) * tau, sigma)
        qa = q_value(alpha, eta)
        p = cls(alpha=alpha, sigma=sigma, beta=bp, beta_prime=bp, tau=tau,
                eta=eta, q_alpha=qa,
                schedule=AlphaSchedule(alpha, ramp_iters))
        return p.validate()

    # -- validation -------------------------------------------------------

    def validate(self):
        """Assert every invariant of the bundle; return ``self``.

        Raises :class:`ParameterError` naming the violated condition.
        """
        _check_sigma(self.sigma)
        _check_beta(self.beta)
        if not (0.0 <= self.alpha < self.beta):
            raise ParameterError(
                f"need 0 <= alpha < beta < 1, got alpha={self.alpha}, "
                f"beta={self.beta}")
        expected_tau = tau_of(self.sigma, self.beta_prime)
        if not math.isclose(self.tau, expected_tau, rel_tol=1e-12, abs_tol=1e-12):
            raise ParameterError(
                f"tau={self.tau} does not match the closed form "
                f"{expected_tau} at (sigma, beta')")
        if self.eta <= 0.0:
            raise ParameterError(f"eta = {self.eta} <= 0")
        if self.q_alpha <= 0.0:
            raise ParameterError(
                f"q(alpha) = {self.q_alpha} <= 0 (alpha too large for this "
                f"sigma/tau)")
        q_root = q_value(self.beta_prime, self.eta)
        if abs(q_root) > Q_ROOT_TOL:
            raise ParameterError(
                f"q(beta') = {q_root} not zero within {Q_ROOT_TOL}")
        if self.schedule is None or self.schedule.alpha != self.alpha:
            raise ParameterError("schedule upper bound differs from alpha")
        # a linear ramp from 0 to alpha is monotone and stays in [0, alpha]
        if self.schedule.ramp_iters < 0:
            raise ParameterError(
                f"ramp_iters must be >= 0, got {self.schedule.ramp_iters}")
        return self

    # -- derived quantities ----------------------------------------------

    def energy_inflation(self):
        """Factor ``1 + 2 alpha (1+alpha) / ((1-alpha)^2 q(alpha))``.

        Multiplies ``d0^2`` in every telescoped energy and rate bound.
        """
        a = self.alpha
        return 1.0 + 2.0 * a * (1.0 + a) / ((1.0 - a) ** 2 * self.q_alpha)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "sigma": self.sigma,
            "beta": self.beta,
            "tau": self.tau,
            "ramp_iters": self.schedule.ramp_iters,
        }

    @classmethod
    def from_dict(cls, d):
        if "tau" in d and "beta" not in d:
            return cls.from_tau(d.get("alpha", 0.0), d.get("sigma", 0.0),
                                d["tau"], d.get("ramp_iters", 0))
        return cls.from_beta(d.get("alpha", 0.0), d.get("sigma", 0.0),
                             d.get("beta", 1.0 / 3.0), d.get("ramp_iters", 0))
