"""Concrete inner solvers: proximal-point, forward-backward-forward,
and forward-backward certificate producers.

Each step function maps an extrapolated point ``w`` to a
:class:`~monosplit.hpe_core.Certificate` that provably satisfies the
relative-error criterion for its stepsize range:

* ``ppm_step``: exact resolvent of the full operator; zero residual and
  zero error (the sigma = 0 instance).
* ``tseng_step``: resolvent point of ``B`` after a forward step at the
  projected point; needs ``lam <= sigma / L`` (Lipschitz).
* ``fb_step``: resolvent point of ``B`` after a forward step at ``w`` itself;
  needs ``lam <= 2 sigma^2 / L`` (cocoercive) and carries the error
  ``eps = L ||z~ - w||^2 / 4``.

The two splitting steps build ``v`` from forward values, so they take
only the resolvent's point map ``B.point``; the proximal step takes
``v`` from ``B.resolve``.  Each step writes only into arrays it allocated
itself, never into one that ``F``, ``F.linear`` or ``B.point`` returned.
"""

import functools

import numpy as np

from . import hpe_core, linalg
from .errors import ParameterError
from .hpe_core import Certificate

INSTANCE_KINDS = ("ppm", "tseng_fbf", "forward_backward")


def ppm_step(B, w, lam):
    """One exact proximal step on the full operator via its resolvent."""
    z_tilde, v = B.resolve(lam, w)
    return Certificate(z_tilde, v, 0.0, lam)


def tseng_step(F, B, w, lam):
    """One forward-backward-forward step.

    ``v = F(z~) - F(P(w)) + (w - z~)/lam`` lies in ``(F+B)(z~)`` exactly;
    the Lipschitz bound plus projection nonexpansiveness give the error
    criterion with ``eps = 0``.  The difference of the two forward values
    is taken as ``F.linear(z~ - P(w))``, which does not cancel near the
    solution, and added into ``v`` (IEEE addition commutes).
    :func:`make_inner_solver` checks the preconditions once; the driver's
    criterion check certifies each step.
    """
    w_proj = F.project_domain(w)
    forward = np.multiply(lam, F(w_proj))
    z_tilde = B.point(lam, np.subtract(w, forward, forward))
    v = np.subtract(w, z_tilde)
    np.divide(v, lam, v)
    np.add(v, F.linear(np.subtract(z_tilde, w_proj)), v)
    return Certificate(z_tilde, v, 0.0, lam)


def fb_step(F, B, w, lam):
    """One forward-backward step.

    The residual ``lam v + z~ - w`` vanishes identically; cocoercivity
    certifies ``F(w) in F^eps(z~)`` with ``eps = L ||z~ - w||^2 / 4``,
    and the stepsize cap makes ``2 lam eps <= sigma^2 ||z~ - w||^2``.
    ``||z~ - w||^2`` is taken of ``w - z~``: negation is exact, so the
    products and their sum keep their bits.  :func:`make_inner_solver`
    checks the preconditions once; the driver's criterion check certifies
    each step.
    """
    forward = np.multiply(lam, F(w))
    z_tilde = B.point(lam, np.subtract(w, forward, forward))
    v = np.subtract(w, z_tilde)
    eps = F.lipschitz_L * linalg.dot(v, v) / 4.0
    np.divide(v, lam, v)
    return Certificate(z_tilde, v, eps, lam)


def make_inner_solver(problem, kind, params):
    """Bind the step of instance ``kind`` to a problem at its stepsize;
    returns ``(solver, lam)``, with ``solver`` a map ``w -> Certificate``.

    ``lam``, the stepsize of every step and the run's stepsize floor, is
    the instance's cap: 1 for the proximal point, ``sigma / L`` for Tseng
    and ``2 sigma^2 / L`` for forward-backward.  Refuses an unknown kind,
    then checks the problem's structure (``ppm`` resolves a plain
    operator, the splittings take ``(F, B)``), sigma, cocoercivity and the
    stepsize before any step runs.
    """
    if kind not in INSTANCE_KINDS:
        raise ParameterError(
            f"unknown instance kind {kind!r}; choose from {INSTANCE_KINDS}")
    F, B = problem.forward, problem.resolvent

    if kind == "ppm":
        if params.sigma != 0.0:
            raise ParameterError("ppm is the sigma = 0 instance")
        if F is not None:
            raise ParameterError("ppm needs a plain operator, not (F, B)")
        return functools.partial(ppm_step, B, lam=1.0), 1.0

    if F is None:
        raise ParameterError(f"{kind} needs a forward map with known L")
    tseng = kind == "tseng_fbf"
    lam = (params.sigma / F.lipschitz_L if tseng
           else 2.0 * params.sigma ** 2 / F.lipschitz_L)
    name = "tseng" if tseng else "forward-backward"
    if not (0.0 < params.sigma < 1.0):
        raise ParameterError(
            f"{name} needs sigma in (0, 1), got {params.sigma}")
    if not (tseng or F.cocoercive):
        raise ParameterError("forward-backward needs a cocoercive map")
    if not lam > 0.0:  # sigma / L or 2 sigma^2 / L can underflow to 0
        raise ParameterError(f"stepsize must be positive, got {lam}")
    step = tseng_step if tseng else fb_step
    return functools.partial(step, F, B, lam=lam), lam


def solve(problem, kind, params, stop=None):
    """Run the driver from the origin with instance ``kind``."""
    solver, lam = make_inner_solver(problem, kind, params)
    return hpe_core.run(problem, solver, params, stop=stop, lambda_floor=lam)
