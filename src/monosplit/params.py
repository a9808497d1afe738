"""Admissible parameter bundles for the inertial under-relaxed solver.

A bundle keeps the values a caller chooses: the inertial upper bound
``alpha``, the relative-error tolerance ``sigma``, the target bound
``beta`` and the length of the inertial ramp.  It derives the effective
bound ``beta_prime``, the relaxation ``tau``, the energy weight ``eta``
and the stability quadratic ``q`` from them.  The closed forms come as a
package: ``tau`` is the one that makes ``beta_prime`` a root of ``q``,
so ``q(alpha) > 0`` is exactly the admissibility condition
``alpha < beta``.
"""

import dataclasses
import math

from .errors import ParameterError

# Least admitted 1 - beta'.  Near beta' = 1, tau ~ (1 - beta')^2 and eta
# ~ 1 / tau, so the round-off in q(beta') = 0, of order eta * 1e-16, grows
# as (1 - beta')^-2.  At the limit eta is about 2e6.
MIN_BETA_PRIME_GAP = 1e-3


def check_sigma(sigma):
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
    check_sigma(sigma)
    return 2.0 * (1.0 - sigma) / (
        3.0 - sigma + math.sqrt(9.0 + 2.0 * sigma - 7.0 * sigma ** 2))


def beta_prime(sigma, beta):
    """Effective bound: ``max(beta, beta_prime_lower_bound(sigma))``."""
    _check_beta(beta)
    return max(beta, beta_prime_lower_bound(sigma))


def tau_of(sigma, beta):
    """Relaxation factor as a function of ``(sigma, beta)``.

    ``tau = 2(b'-1)^2 / ((1+sigma) [2(b'-1)^2 + 3 b' - 1])`` with
    ``b' = beta_prime(sigma, beta)``.  Equals 1 at ``(0, 1/3)`` and
    ``1/(1+sigma)`` at ``beta = 1/3`` for any ``sigma``.
    """
    check_sigma(sigma)
    bp = beta_prime(sigma, beta)
    d = bp - 1.0
    # analytically <= 1; rounding at the beta_prime floor can add a few ulp
    return min(1.0, 2.0 * d * d / (2.0 * d * d + 3.0 * bp - 1.0)
               / (1.0 + sigma))


def eta_of(sigma, tau):
    """Energy weight ``eta = 2 / ((1+sigma) tau) - 1``, positive for
    ``sigma`` in ``[0, 1)`` and ``tau`` in ``(0, 1]``."""
    check_sigma(sigma)
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must lie in (0, 1], got {tau}")
    return 2.0 / ((1.0 + sigma) * tau) - 1.0


def q_value(alpha_prime, eta):
    """Stability quadratic ``q(a) = (eta-1) a^2 - (1+2 eta) a + eta``."""
    return (eta - 1.0) * alpha_prime ** 2 - (1.0 + 2.0 * eta) * alpha_prime + eta


@dataclasses.dataclass(frozen=True)
class HpeParams:
    """Parameter bundle, admissible by construction.

    The fields are the four values a caller chooses: the inertial bound
    ``alpha``, the tolerance ``sigma``, the target bound ``beta`` and the
    length ``ramp_iters`` of the inertial ramp.  Construction derives the
    relaxation ``tau = tau_of(sigma, beta)``, the effective bound
    ``beta_prime``, the energy weight ``eta`` and ``q_alpha = q(alpha)``
    once, as plain attributes, then calls :meth:`validate`; an
    inadmissible choice raises :class:`ParameterError`.

    The inertial schedule ``k -> alpha_{k-1}`` is nondecreasing in
    ``[0, alpha]``: ``ramp_iters = 0`` (or ``alpha = 0``) is the constant
    schedule the ergodic rate guarantees need, ``is_constant``; a positive
    value ramps linearly from 0 up to ``alpha`` over that many iterations.
    """

    alpha: float
    sigma: float
    beta: float
    ramp_iters: int = 0

    def __post_init__(self):
        # the derivations range-check sigma and beta, in that order; alpha
        # is checked before q(alpha), which overflows on a huge int
        setattr_ = object.__setattr__  # the bundle is frozen
        setattr_(self, "tau", tau_of(self.sigma, self.beta))
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

    # -- validation -------------------------------------------------------

    def validate(self):
        """Check what the derivations leave open.

        ``beta'`` must keep :data:`MIN_BETA_PRIME_GAP` from 1; ``tau``
        makes ``beta'`` a root of ``q``, so ``q(alpha) > 0`` is left to
        check.  Raises :class:`ParameterError` naming the violated
        condition.
        """
        if not 1.0 - self.beta_prime >= MIN_BETA_PRIME_GAP:
            raise ParameterError(
                f"beta' = {self.beta_prime} is within {MIN_BETA_PRIME_GAP} "
                f"of 1")
        if self.q_alpha <= 0.0:
            raise ParameterError(
                f"q(alpha) = {self.q_alpha} <= 0 (alpha too large for this "
                f"sigma/beta)")
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
        """The four chosen values and the derived ``tau``, as a trace
        header records them."""
        return {"alpha": self.alpha, "sigma": self.sigma, "beta": self.beta,
                "tau": self.tau, "ramp_iters": self.ramp_iters}

    @classmethod
    def from_dict(cls, d):
        """The bundle of a dict of the four chosen values; absent ones
        default.  ``tau`` is derived, so a dict that names it is refused."""
        if "tau" in d:
            raise ParameterError("tau is derived from (sigma, beta); "
                                 "give beta instead")
        return cls(d.get("alpha", 0.0), d.get("sigma", 0.0),
                   d.get("beta", 1.0 / 3.0), d.get("ramp_iters", 0))
