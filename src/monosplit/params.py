"""Admissible parameter bundles for the inertial under-relaxed solver.

A bundle keeps the values a caller chooses: the inertial upper bound
``alpha``, the relative-error tolerance ``sigma``, the target bound
``beta`` and the relaxation ``tau``.  It derives the effective bound
``beta_prime``, the energy weight ``eta`` and the stability quadratic
``q`` from them.  The closed forms come as a package: ``tau`` is chosen
so that ``beta_prime`` is a root of ``q``, which makes ``q(alpha) > 0``
exactly the admissibility condition ``alpha < beta``.
"""

import dataclasses
import math

from .errors import ParameterError

# Relative round-off allowance on tau against its closed form.
TAU_MATCH_TOL = 1e-12
# Least admitted 1 - beta'.  Near beta' = 1, tau ~ (1 - beta')^2, and a
# tau recovered through beta (or beta through tau) keeps TAU_MATCH_TOL only
# down to 1 - beta' of about 4.4e-4.  At the limit eta is about 2e6.
MIN_BETA_PRIME_GAP = 1e-3


def check_sigma(sigma):
    if not (0.0 <= sigma < 1.0):
        raise ParameterError(f"sigma must lie in [0, 1), got {sigma}")


def check_tau(tau):
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must lie in (0, 1], got {tau}")


def _check_beta(beta):
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")


def beta_prime_lower_bound(sigma):
    """Smallest admissible effective bound for a given ``sigma``.

    Equals ``2(1-sigma) / (3 - sigma + sqrt(9 + 2 sigma - 7 sigma^2))``;
    ``1/3`` at ``sigma = 0``.
    """
    check_sigma(sigma)
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
    check_sigma(sigma)
    bp = beta_prime(sigma, beta)
    # analytically <= 1; rounding at the beta_prime floor can add a few ulp
    return min(1.0, beta_to_t(bp) / (1.0 + sigma))


def eta_of(sigma, tau):
    """Energy weight ``eta = 2 / ((1+sigma) tau) - 1``; must be positive."""
    check_sigma(sigma)
    check_tau(tau)
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
    check_sigma(sigma)
    if not (0.0 < t <= 1.0 + sigma):
        raise ParameterError(
            f"t must lie in (0, 1 + sigma] = (0, {1 + sigma}], got {t}")
    return (4.0 - 2.0 * t) / (4.0 - t + math.sqrt(16.0 * t - 7.0 * t * t))


@dataclasses.dataclass(frozen=True)
class HpeParams:
    """Parameter bundle, admissible by construction.

    The fields are the five values a caller chooses: the inertial bound
    ``alpha``, the tolerance ``sigma``, the target bound ``beta``, the
    relaxation ``tau`` and the length ``ramp_iters`` of the inertial ramp.
    Construction derives the effective bound ``beta_prime``, the energy
    weight ``eta`` and ``q_alpha = q(alpha)`` once, as plain attributes,
    then calls :meth:`validate`; an inadmissible choice raises
    :class:`ParameterError`.  Use :meth:`from_beta` (``tau`` from the
    closed form) or :meth:`from_tau` (``beta`` recovered from ``tau``).

    The inertial schedule ``k -> alpha_{k-1}`` is nondecreasing in
    ``[0, alpha]``: ``ramp_iters = 0`` (or ``alpha = 0``) is the constant
    schedule the ergodic rate guarantees need, ``is_constant``; a positive
    value ramps linearly from 0 up to ``alpha`` over that many iterations.
    """

    alpha: float
    sigma: float
    beta: float
    tau: float
    ramp_iters: int = 0

    def __post_init__(self):
        # the derivations range-check sigma, tau and beta, in that order;
        # alpha is checked before q(alpha), which overflows on a huge int
        setattr_ = object.__setattr__  # the bundle is frozen
        setattr_(self, "eta", eta_of(self.sigma, self.tau))
        setattr_(self, "beta_prime", beta_prime(self.sigma, self.beta))
        if not (0.0 <= self.alpha < self.beta):
            raise ParameterError(
                f"need 0 <= alpha < beta < 1, got alpha={self.alpha}, "
                f"beta={self.beta}")
        setattr_(self, "q_alpha", q_value(self.alpha, self.eta))
        setattr_(self, "is_constant",
                 self.ramp_iters == 0 or self.alpha == 0.0)
        self.validate()

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_beta(cls, alpha, sigma, beta, ramp_iters=0):
        """The bundle of ``(alpha, sigma, beta)``, ``tau`` from its closed
        form :func:`tau_of`."""
        return cls(alpha, sigma, beta, tau_of(sigma, beta), ramp_iters)

    @classmethod
    def from_tau(cls, alpha, sigma, tau, ramp_iters=0):
        """Expert path: the bundle of ``(alpha, sigma, tau)``, ``beta``
        recovered by :func:`inverse_map`."""
        check_tau(tau)  # before inverse_map checks t = (1 + sigma) tau
        return cls(alpha, sigma, inverse_map((1.0 + sigma) * tau, sigma),
                   tau, ramp_iters)

    # -- validation -------------------------------------------------------

    def validate(self):
        """Check what the derivations leave open.

        ``beta'`` must keep :data:`MIN_BETA_PRIME_GAP` from 1, and ``tau``
        match its closed form at ``(sigma, beta')`` to a relative
        :data:`TAU_MATCH_TOL`; that form makes ``beta'`` a root of ``q``,
        so ``q(alpha) > 0`` is left to check.  Raises
        :class:`ParameterError` naming the violated condition.
        """
        if not 1.0 - self.beta_prime >= MIN_BETA_PRIME_GAP:
            raise ParameterError(
                f"beta' = {self.beta_prime} is within {MIN_BETA_PRIME_GAP} "
                f"of 1")
        expected_tau = tau_of(self.sigma, self.beta_prime)
        if not math.isclose(self.tau, expected_tau, rel_tol=TAU_MATCH_TOL):
            raise ParameterError(
                f"tau={self.tau} does not match the closed form "
                f"{expected_tau} at (sigma, beta')")
        if self.q_alpha <= 0.0:
            raise ParameterError(
                f"q(alpha) = {self.q_alpha} <= 0 (alpha too large for this "
                f"sigma/tau)")
        if self.ramp_iters < 0:
            raise ParameterError(
                f"ramp_iters must be >= 0, got {self.ramp_iters}")

    # -- derived quantities ----------------------------------------------

    def alpha_at(self, k):
        """Extrapolation factor of the schedule at iteration ``k`` (k >= 1)."""
        if self.is_constant:
            return self.alpha
        return self.alpha * min(1.0, (k - 1) / self.ramp_iters)

    def energy_inflation(self):
        """Factor ``1 + 2 alpha (1+alpha) / ((1-alpha)^2 q(alpha))``.

        Multiplies ``d0^2`` in every telescoped energy and rate bound.
        """
        a = self.alpha
        return 1.0 + 2.0 * a * (1.0 + a) / ((1.0 - a) ** 2 * self.q_alpha)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The bundle of a dict of the five values; absent ones default.

        With both ``beta`` and ``tau`` the bundle is built from both, so a
        ``tau`` off the closed form at ``beta`` is refused.
        """
        alpha, sigma = d.get("alpha", 0.0), d.get("sigma", 0.0)
        ramp_iters = d.get("ramp_iters", 0)
        if "tau" not in d:
            return cls.from_beta(alpha, sigma, d.get("beta", 1.0 / 3.0),
                                 ramp_iters)
        if "beta" not in d:
            return cls.from_tau(alpha, sigma, d["tau"], ramp_iters)
        return cls(alpha, sigma, d["beta"], d["tau"], ramp_iters)
