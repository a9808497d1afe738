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
``v`` from ``B.resolve``.
"""

from dataclasses import dataclass

from . import hpe_core, linalg
from .errors import ParameterError
from .hpe_core import Certificate

INSTANCE_KINDS = ("ppm", "tseng_fbf", "forward_backward")


@dataclass(frozen=True)
class InstanceConfig:
    """Inner-solver selection; its stepsize is :func:`default_stepsize`."""

    kind: str

    def __post_init__(self):
        if self.kind not in INSTANCE_KINDS:
            raise ParameterError(
                f"unknown instance kind {self.kind!r}; "
                f"choose from {INSTANCE_KINDS}")


def ppm_step(B, w, lam):
    """One exact proximal step on the full operator via its resolvent."""
    z_tilde, v = B.resolve(lam, w)
    return Certificate(z_tilde=z_tilde, v=v, eps=0.0, lam=lam)


def tseng_step(F, B, w, lam):
    """One forward-backward-forward step.

    ``v = F(z~) - F(P(w)) + (w - z~)/lam`` lies in ``(F+B)(z~)`` exactly;
    the Lipschitz bound plus projection nonexpansiveness give the error
    criterion with ``eps = 0``.  For an affine ``F`` the difference is its
    linear part at ``z~ - P(w)``, which does not cancel near the solution.
    :func:`make_inner_solver` checks the preconditions once; the driver's
    criterion check certifies each step.
    """
    w_proj = F.project_domain(w)
    f_w = F(w_proj)
    z_tilde = B.point(lam, w - lam * f_w)
    if F.linear is None:
        diff = F(z_tilde) - f_w
    else:
        diff = F.linear(z_tilde - w_proj)
    v = diff + (w - z_tilde) / lam
    return Certificate(z_tilde=z_tilde, v=v, eps=0.0, lam=lam)


def fb_step(F, B, w, lam):
    """One forward-backward step.

    The residual ``lam v + z~ - w`` vanishes identically; cocoercivity
    certifies ``F(w) in F^eps(z~)`` with ``eps = L ||z~ - w||^2 / 4``,
    and the stepsize cap makes ``2 lam eps <= sigma^2 ||z~ - w||^2``.
    :func:`make_inner_solver` checks the preconditions once; the driver's
    criterion check certifies each step.
    """
    z_tilde = B.point(lam, w - lam * F(w))
    v = (w - z_tilde) / lam
    dz = z_tilde - w
    eps = F.lipschitz_L * linalg.dot(dz, dz) / 4.0
    return Certificate(z_tilde=z_tilde, v=v, eps=eps, lam=lam)


def default_stepsize(kind, problem, params):
    """Constant stepsize at the instance cap (1.0 for the proximal point)."""
    if kind == "ppm":
        return 1.0
    L = problem.lipschitz_L
    if L is None:
        raise ParameterError(f"{kind} needs a forward map with known L")
    if kind == "tseng_fbf":
        return params.sigma / L
    return 2.0 * params.sigma ** 2 / L


def make_inner_solver(problem, config, params):
    """Bind a step function to a problem; returns ``(solver, lam)``.

    ``lam``, the stepsize of every step and the run's stepsize floor, is
    the instance's cap (:func:`default_stepsize`).  Checks the problem's
    structure (``ppm`` resolves a plain operator, the splittings take
    ``(F, B)``), sigma, cocoercivity and the stepsize before any step runs.
    """
    kind = config.kind
    lam = default_stepsize(kind, problem, params)

    if kind == "ppm":
        if params.sigma != 0.0:
            raise ParameterError("ppm is the sigma = 0 instance")
        if problem.forward is not None:
            raise ParameterError("ppm needs a plain operator, not (F, B)")
        B = problem.resolvent

        def solver(w, k):
            return ppm_step(B, w, lam)
        return solver, lam

    F, B = problem.forward, problem.resolvent
    tseng = kind == "tseng_fbf"
    name = "tseng" if tseng else "forward-backward"
    if not (0.0 < params.sigma < 1.0):
        raise ParameterError(
            f"{name} needs sigma in (0, 1), got {params.sigma}")
    if not (tseng or F.cocoercive):
        raise ParameterError("forward-backward needs a cocoercive map")
    if not lam > 0.0:  # sigma / L or 2 sigma^2 / L can underflow to 0
        raise ParameterError(f"stepsize must be positive, got {lam}")

    if tseng:
        def solver(w, k):
            return tseng_step(F, B, w, lam)
    else:
        def solver(w, k):
            return fb_step(F, B, w, lam)
    return solver, lam


def solve(problem, config, params, stop=None):
    """Run the driver from the origin with one of the bundled instances."""
    solver, lam = make_inner_solver(problem, config, params)
    return hpe_core.run(problem, solver, params, stop=stop, lambda_floor=lam)
