"""Closed-form rate bounds and the audit of a recorded trace.

All evaluators are exact closed forms in ``(d0, lambda_floor, params, k)``.
:func:`audit` replays a trace against every post-hoc inequality: the
certificate law of :func:`monosplit.hpe_core.run` on each step (the
stepsize floor, ``eps >= 0`` and the error criterion, with the recorded
ratio and the running stepsize sum), the energy term, Fejer descent, step
summability, the energy bound, the monotone ``mu`` sequence of the
constant inertial schedule, the rate bounds (through
:func:`assert_bounds`) and the sign of the aggregated error.  A failed
check signals an implementation bug, not bad luck: the inequalities are
guaranteed.
"""

import math
import sys
from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

from . import hpe_core
from .errors import CertificationError, ParameterError, TheoremViolation

PASS, FAIL, SKIP = "pass", "fail", "skip"

# Round-off allowances of the audit.
BOUND_RTOL = 1e-8        # relative slack on every closed-form upper bound
ATOL = 1e-9              # absolute slack on a sign condition
DESCENT_RTOL = 1e-12     # descent slack per unit of squared distance
ENERGY_TERM_RTOL = 1e-9  # recorded s_k against its definition
ERROR_RATIO_RTOL = 1e-12  # recorded error_ratio against its recomputation

# Trace rows the error criterion turns into Python floats at a time.
_AUDIT_ROWS = 4096


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed forms need besides the iteration index.

    ``d0`` is None when no solution is known; :func:`audit` then skips the
    checks that need it.  Every bound squares ``d0``, so a ``d0`` whose
    square overflows is refused.
    """

    d0: float
    lambda_floor: float
    params: object

    def __post_init__(self):
        # pass conditions, so that a NaN fails
        if self.d0 is not None:
            if not self.d0 >= 0.0:
                raise ParameterError(f"d0 must be nonnegative, got {self.d0}")
            # an int d0 squares exactly, beyond the float range too
            if not self.d0 * self.d0 <= sys.float_info.max:
                raise ParameterError(f"d0 = {self.d0} has no finite square")
        if not self.lambda_floor > 0.0:
            raise ParameterError(
                f"lambda_floor must be positive, got {self.lambda_floor}")


def _finite(inp, *bounds):
    if not all(np.isfinite(b).all() for b in bounds):
        raise ParameterError(
            f"the closed-form bounds overflow at lambda_floor * tau = "
            f"{inp.lambda_floor * inp.params.tau:.3g}")
    return bounds


def _known_d0(inp):
    if inp.d0 is None:
        raise ParameterError("d0 is unknown: the problem has no known "
                             "solution")
    return inp.d0


def pointwise_bounds(inp, k):
    """Best-iterate bounds: ``(v_bound, eps_bound)`` at index ``k``.

    ``k`` is an index or an array of indices.  ``v_bound`` scales as
    1/sqrt(k), ``eps_bound`` as 1/k (and is zero when sigma = 0, where
    every step is exact).
    """
    p, d0 = inp.params, _known_d0(inp)
    infl = p.energy_inflation()
    denom = inp.lambda_floor * p.tau
    # a stepsize floor near the subnormal range overflows d0 / denom; the
    # audit refuses the infinite bounds, which check nothing
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v_bound = d0 / (denom * np.sqrt(k)) * math.sqrt(infl / p.eta)
        eps_bound = (p.sigma * d0 ** 2 * infl
                     / (2.0 * (1.0 - p.sigma ** 2) * denom * k))
    return v_bound, eps_bound


def ergodic_bounds(inp, k):
    """Averaged-sequence bounds ``(v_a_bound, eps_a_bound)`` at index ``k``.

    ``k`` is an index or an array of indices.  Both scale as 1/k.
    """
    p, d0 = inp.params, _known_d0(inp)
    infl = p.energy_inflation()
    denom = inp.lambda_floor * p.tau * k
    spread = (1.0
              + p.sigma / math.sqrt((1.0 - p.sigma ** 2) * p.tau)
              + math.sqrt(4.0 + (1.0 - p.tau) ** 2 / (p.eta * p.tau ** 2)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v_a = 2.0 * (1.0 + p.alpha) * d0 / denom * math.sqrt(infl)
        eps_a = 2.0 * math.sqrt(2.0) * d0 ** 2 / denom * infl * spread
    return v_a, eps_a


def iteration_budget(rho, eps_hat, inp):
    """Smallest k at which both pointwise bounds fall below ``(rho, eps_hat)``;
    a bound or a budget that overflows raises :class:`ParameterError`."""
    if not (rho > 0.0 and eps_hat > 0.0):  # so that a NaN fails
        raise ParameterError("tolerances must be positive")
    # a numpy k keeps the quotients in numpy, where a stepsize floor whose
    # product with tau underflows to 0 gives an inf bound, not an exception
    v1, e1 = _finite(inp, *pointwise_bounds(inp, np.float64(1.0)))
    k = 1.0
    with np.errstate(over="ignore"):
        if v1 > rho:
            k = max(k, (v1 / rho) ** 2)
        if e1 > 0.0 and math.isfinite(eps_hat) and e1 > eps_hat:
            k = max(k, e1 / eps_hat)
    if not math.isfinite(k):
        raise ParameterError(f"the iteration budget overflows at rho = "
                             f"{rho:.3g}, eps_hat = {eps_hat:.3g}")
    return math.ceil(k)


def _peak(values, bound):
    """Largest ``values / bound`` where the bound is positive, else 0."""
    positive = bound > 0.0
    if not positive.any():
        return 0.0
    return float(np.max(values[positive] / bound[positive]))


def assert_bounds(trace, inp):
    """Verify a trace against every rate bound; return a utilization report.

    The pointwise theorems promise one witness index per prefix; the proof's
    witness is the first iterate minimizing the energy term ``s_k`` so far.
    A prefix whose witness misses the bounds falls back to a search of the
    whole prefix before a violation is declared.  The ergodic bounds are
    checked on every prefix.

    Raises
    ------
    TheoremViolation
        Naming the iteration and the violated bound.
    ParameterError
        When ``inp.d0`` is None: the bounds need a known solution; or when
        a bound overflows and so checks nothing.
    """
    _known_d0(inp)
    n = len(trace)
    worst = {}
    if n == 0:
        return {"checked_prefixes": 0, "worst_utilization": worst}
    norm_v, eps, s_k = (trace.column(c) for c in ("norm_v", "eps", "s_k"))
    ks = np.arange(1, n + 1)
    slack = 1.0 + BOUND_RTOL

    vb, eb = _finite(inp, *pointwise_bounds(inp, ks))
    new_min = np.ones(n, dtype=bool)
    new_min[1:] = s_k[1:] < np.minimum.accumulate(s_k)[:-1]
    witness = np.maximum.accumulate(np.where(new_min, ks - 1, 0))
    missed = ~((norm_v[witness] <= vb * slack) & (eps[witness] <= eb * slack))
    for j in np.nonzero(missed)[0]:
        meets = np.nonzero((norm_v[:j + 1] <= vb[j] * slack)
                           & (eps[:j + 1] <= eb[j] * slack))[0]
        if meets.size == 0:
            raise TheoremViolation(
                f"no iterate in 1..{j + 1} meets the pointwise bounds "
                f"(v <= {vb[j]}, eps <= {eb[j]})", k=int(j + 1))
        witness[j] = meets[0]
    worst["pointwise_v"] = _peak(norm_v[witness], vb)
    worst["pointwise_eps"] = _peak(eps[witness], eb)

    vab, eab = _finite(inp, *ergodic_bounds(inp, ks))
    for name, values, bound in (
            ("ergodic_v", trace.column("norm_v_a"), vab),
            ("ergodic_eps", trace.column("eps_a"), eab)):
        over = np.nonzero(~(values <= bound * slack))[0]
        if over.size:
            j = over[0]
            raise TheoremViolation(
                f"{name} value {values[j]} exceeds bound {bound[j]} at "
                f"k={j + 1}", k=int(j + 1))
        worst[name] = _peak(values, bound)
    return {"checked_prefixes": n, "worst_utilization": worst}


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """Verdict of one audited inequality.

    ``status`` is :data:`PASS`, :data:`FAIL` or :data:`SKIP`; ``detail``
    says what was found, or why the check could not run.  ``utilization``
    is the largest ratio of a quantity to its bound, for checks that have
    one, else None.
    """

    name: str
    status: str
    detail: str
    utilization: float = None


def _first_failure(ok, what, passed):
    """``(status, detail)`` from a per-step pass mask.

    Masks are written as pass conditions, so a NaN in a column fails.
    """
    bad = np.nonzero(~ok)[0]
    if bad.size:
        return FAIL, f"{what} at k={bad[0] + 1}"
    return PASS, passed


def _error_criterion(trace, inp):
    """The certificate law on every step, and the two columns the law
    fixes: the recorded ``error_ratio`` and ``aggregate_stepsize``."""
    columns = (trace.column("resid_sq"), trace.column("norm_dz") ** 2,
               trace.column("lam"), trace.column("eps"))
    ratios = np.empty(len(trace))
    try:
        for lo in range(0, len(trace), _AUDIT_ROWS):
            # the law takes floats, as run passes them; converted a chunk
            # at a time, so a long trace is not held as Python floats
            rows = [col[lo:lo + _AUDIT_ROWS].tolist() for col in columns]
            ratios[lo:lo + len(rows[0])] = np.fromiter(
                map(hpe_core._error_ratio, *rows, repeat(inp.params.sigma),
                    repeat(inp.lambda_floor), count(lo + 1)),
                dtype=float, count=len(rows[0]))
    except (CertificationError, ParameterError) as exc:
        return FAIL, str(exc)
    recorded_ok = (np.abs(trace.column("error_ratio") - ratios)
                   <= ERROR_RATIO_RTOL * ratios)
    summed_ok = (trace.column("aggregate_stepsize")
                 == np.cumsum(trace.column("lam")))
    for ok, what in (
            (recorded_ok, "error_ratio differs from its recomputation"),
            (summed_ok, "aggregate_stepsize is not the running sum of lam")):
        status, detail = _first_failure(ok, what, None)
        if status == FAIL:
            return FAIL, detail
    return (PASS, f"all {len(trace)} steps within tolerance",
            float(ratios.max()))


def _energy_term_consistency(trace, inp):
    p = inp.params
    relax_sq = (p.tau * trace.column("lam") * trace.column("norm_v")) ** 2
    dz_sq = trace.column("norm_dz") ** 2
    expected = hpe_core._energy_term(relax_sq, dz_sq, p)
    tol = ENERGY_TERM_RTOL * (1.0 + np.abs(expected))
    ok = np.isfinite(tol) & (np.abs(trace.column("s_k") - expected) <= tol)
    return _first_failure(ok, "s_k differs from its definition",
                          "s_k matches its definition on every step")


def _fejer_descent(trace, inp):
    w_sq = trace.column("dist_w") ** 2
    resid = (w_sq - trace.column("dist_to_solution") ** 2
             - trace.column("s_k"))
    tol = np.maximum(ATOL, DESCENT_RTOL * w_sq)
    return _first_failure(np.isfinite(resid) & (resid >= -tol),
                          "||w-z*||^2 - ||z-z*||^2 < s_k",
                          f"min residual {resid.min():.3e}")


def _step_summability(trace, inp):
    p = inp.params
    total = float(np.sum(trace.column("step_norm") ** 2))
    bound = 2.0 * inp.d0 ** 2 / ((1.0 - p.alpha) * p.q_alpha)
    status = PASS if total <= bound * (1.0 + BOUND_RTOL) else FAIL
    return (status, f"sum={total:.6e} bound={bound:.6e}",
            total / bound if bound > 0.0 else None)


def _energy_bound(trace, inp):
    lhs = (trace.column("dist_to_solution") ** 2
           + np.cumsum(trace.column("s_k")))
    rhs = inp.params.energy_inflation() * inp.d0 ** 2
    return (*_first_failure(lhs <= rhs * (1.0 + BOUND_RTOL),
                            "||z-z*||^2 + sum s_j exceeds the bound",
                            f"max {lhs.max():.6e} bound {rhs:.6e}"),
            lhs.max() / rhs if rhs > 0.0 else None)


def _mu_nonincreasing(trace, inp):
    p = inp.params
    a = p.alpha
    gamma = (1.0 - p.eta) * a * a + (1.0 + p.eta) * a
    phi = np.concatenate(([inp.d0 ** 2],
                          trace.column("dist_to_solution") ** 2))
    mu = np.empty_like(phi)
    mu[0] = (1.0 - a) * phi[0]
    mu[1:] = phi[1:] - a * phi[:-1] + gamma * trace.column("step_norm") ** 2
    rise = np.diff(mu)
    return _first_failure(rise <= np.maximum(ATOL, DESCENT_RTOL * phi[:-1]),
                          "mu increases", f"max increment {rise.max():.3e}")


def _rate_bounds(trace, inp):
    try:
        worst = assert_bounds(trace, inp)["worst_utilization"]
    except TheoremViolation as exc:
        return FAIL, str(exc)
    except ParameterError as exc:  # the bounds overflow
        return SKIP, str(exc)
    shown = ", ".join(f"{name}={value:.3g}" for name, value in worst.items())
    return (PASS, f"all {len(trace)} prefixes within bounds; utilization "
                  f"{shown}", max(worst.values()))


def _aggregated_error_nonneg(trace, inp):
    eps_a = trace.column("eps_a")
    return _first_failure(eps_a >= -ATOL, "eps_a < 0",
                          f"min eps_a = {eps_a.min():.3e}")


# (name, needs a known solution, check)
_CHECKS = (
    ("error_criterion", False, _error_criterion),
    ("energy_term_consistency", False, _energy_term_consistency),
    ("fejer_descent", True, _fejer_descent),
    ("step_summability", True, _step_summability),
    ("energy_bound", True, _energy_bound),
    ("mu_nonincreasing", True, _mu_nonincreasing),
    ("rate_bounds", True, _rate_bounds),
    ("aggregated_error_nonneg", False, _aggregated_error_nonneg),
)


def audit(trace, inp):
    """Replay a trace against every post-hoc inequality.

    Returns one :class:`Check` per inequality, in a fixed order.  A check
    is skipped, with the reason, for one of three: an empty trace, no known
    solution, or rate bounds that overflow.
    """
    if len(trace) == 0:
        return [Check(name, SKIP, "empty trace: vacuous pass")
                for name, _, _ in _CHECKS]
    # an overflowing square is inf and inf - inf NaN, which the checks fail
    with np.errstate(over="ignore", invalid="ignore"):
        return [Check(name, SKIP, "no known solution: d0 and the distances "
                                  "to z* are unknown")
                if needs_solution and inp.d0 is None else
                Check(name, *check(trace, inp))
                for name, needs_solution, check in _CHECKS]
