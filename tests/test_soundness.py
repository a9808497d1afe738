"""No false FAIL: admissible library runs at the zoo's own scale audit green.

Each example is one run of a kind x instance pair of the zoo, at a drawn
dimension, seed, parameter choice and step cap.  The driver certifies
every step as it goes; afterwards every post-hoc audit check must pass,
or be skipped with its reason.  A FAIL here is a bug in the bounds or in
the run, never a tolerance to widen.
"""

import pytest

from monosplit import bounds, hpe_core, instances, operators, params

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# every kind x instance pair that the library admits
PAIRS = [("affine_inclusion", "ppm"),
         ("box_constrained_quadratic", "tseng_fbf"),
         ("box_constrained_quadratic", "forward_backward"),
         ("bilinear_saddle", "tseng_fbf"),
         ("l1_composite", "tseng_fbf"),
         ("l1_composite", "forward_backward")]
# the largest beta whose beta' keeps params.MIN_BETA_PRIME_GAP from 1
MAX_BETA = 1.0 - params.MIN_BETA_PRIME_GAP


@st.composite
def runs(draw):
    """``(kind, n, seed, instance, HpeParams, max_iters)`` of one run."""
    kind, instance = draw(st.sampled_from(PAIRS))
    if kind == "bilinear_saddle":  # an even dimension
        n = 2 * draw(st.integers(1, 4))
    else:
        n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    beta = draw(st.floats(1e-3, MAX_BETA))
    alpha = beta * draw(st.floats(0.0, 0.999))
    # the splittings take sigma in (0, 1); below 1e-3 their stepsize
    # sigma^2 / L can underflow
    sigma = 0.0 if instance == "ppm" else draw(st.floats(1e-3, 0.999))
    p = params.HpeParams(alpha=alpha, sigma=sigma, beta=beta)
    return kind, n, seed, instance, p, draw(st.integers(50, 2000))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_admissible_runs_audit_green(run):
    kind, n, seed, instance, p, max_iters = run
    problem = operators.make_problem(kind, n, seed)
    state = instances.solve(problem, instance, p, stop=hpe_core.StoppingRule(
        rho=1e-6, eps_hat=1e-9, max_iters=max_iters))
    checks = bounds.audit(state.trace, bounds.BoundInputs(
        d0=problem.d0(), lambda_floor=state.lambda_floor, params=p))
    bad = [c for c in checks if not (
        c.status == bounds.PASS or c.status == bounds.SKIP and c.detail)]
    assert bad == []
