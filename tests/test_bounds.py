import math
import tracemalloc

import mpmath
import pytest

from monosplit import bounds, hpe_core, instances, operators, params
from monosplit.bounds import (BoundInputs, assert_bounds, ergodic_bounds,
                              iteration_budget, pointwise_bounds)
from monosplit.errors import ParameterError, TheoremViolation

mpmath.mp.dps = 50

PLAIN = params.HpeParams(alpha=0.0, sigma=0.0, beta=1.0 / 3.0)


def mp_closed_forms(alpha, sigma, tau, eta, q_alpha, d0, lam, k):
    """50-digit recomputation of all four bounds from their closed forms."""
    a, s, t, e, q = map(mpmath.mpf, (alpha, sigma, tau, eta, q_alpha))
    d0, lam, k = mpmath.mpf(d0), mpmath.mpf(lam), mpmath.mpf(k)
    infl = 1 + 2 * a * (1 + a) / ((1 - a) ** 2 * q)
    v_pt = d0 / (lam * t * mpmath.sqrt(k)) * mpmath.sqrt(infl / e)
    e_pt = (0 if s == 0
            else s * d0 ** 2 * infl / (2 * (1 - s ** 2) * lam * t * k))
    v_a = 2 * (1 + a) * d0 / (lam * t * k) * mpmath.sqrt(infl)
    spread = (1 + s / mpmath.sqrt((1 - s ** 2) * t)
              + mpmath.sqrt(4 + (1 - t) ** 2 / (e * t ** 2)))
    e_a = 2 * mpmath.sqrt(2) * d0 ** 2 / (lam * t * k) * infl * spread
    return float(v_pt), float(e_pt), float(v_a), float(e_a)


# -- closed forms ------------------------------------------------------------

def test_pointwise_plain_hpe_form():
    inp = BoundInputs(d0=2.0, lambda_floor=0.5, params=PLAIN)
    for k in (1, 4, 100):
        vb, eb = pointwise_bounds(inp, k)
        assert vb == pytest.approx(2.0 / (0.5 * math.sqrt(k)), rel=1e-12)
        assert eb == 0.0
    v1, _ = pointwise_bounds(inp, 1)
    v4, _ = pointwise_bounds(inp, 4)
    assert v4 == pytest.approx(v1 / 2.0, rel=1e-12)


def test_pointwise_inertial_example():
    # alpha = 0.3, sigma = 0, tau = 1 gives eta = 1, q(0.3) = 0.1
    p = params.HpeParams(alpha=0.3, sigma=0.0, beta=1.0 / 3.0)
    inp = BoundInputs(d0=1.0, lambda_floor=1.0, params=p)
    vb, _ = pointwise_bounds(inp, 100)
    expected = 0.1 * math.sqrt(1.0 + (0.6 * 1.3) / (0.49 * 0.1))
    assert vb == pytest.approx(expected, rel=1e-12)


def test_ergodic_plain_limit_case():
    # alpha = 0, sigma -> 0, tau = 1: eps bound tends to 6 sqrt(2) d0^2/(lam k)
    inp = BoundInputs(d0=1.5, lambda_floor=2.0, params=PLAIN)
    for k in (1, 10):
        va, ea = ergodic_bounds(inp, k)
        assert ea == pytest.approx(6.0 * math.sqrt(2.0) * 1.5 ** 2 / (2.0 * k),
                                   rel=1e-12)
        assert va == pytest.approx(2.0 * 1.5 / (2.0 * k), rel=1e-12)
    va1, ea1 = ergodic_bounds(inp, 7)
    va2, ea2 = ergodic_bounds(inp, 14)
    assert va2 == pytest.approx(va1 / 2.0, rel=1e-12)
    assert ea2 == pytest.approx(ea1 / 2.0, rel=1e-12)


def test_sigma_zero_spread_term_identity():
    # at sigma = 0, eta tau^2 == tau (2 - tau), so the exact-step variant
    # sqrt(4 + (1-tau)^2/(tau(2-tau))) coincides with the generic form
    for beta in (0.34, 0.5, 0.7, 0.9):
        p = params.HpeParams(alpha=0.0, sigma=0.0, beta=beta)
        assert p.eta * p.tau ** 2 == pytest.approx(
            p.tau * (2.0 - p.tau), rel=1e-12)


def test_bounds_match_high_precision_on_grid():
    for alpha, sigma, beta in [(0.0, 0.0, 1.0 / 3.0), (0.1, 0.5, 0.4),
                               (0.25, 0.9, 0.45), (0.3, 0.0, 0.35)]:
        p = params.HpeParams(alpha=alpha, sigma=sigma, beta=beta)
        inp = BoundInputs(d0=1.7, lambda_floor=0.3, params=p)
        for k in (1, 13, 500):
            vb, eb = pointwise_bounds(inp, k)
            va, ea = ergodic_bounds(inp, k)
            mp_vb, mp_eb, mp_va, mp_ea = mp_closed_forms(
                alpha, sigma, p.tau, p.eta, p.q_alpha, 1.7, 0.3, k)
            assert vb == pytest.approx(mp_vb, rel=1e-12)
            assert eb == pytest.approx(mp_eb, rel=1e-12, abs=1e-300)
            assert va == pytest.approx(mp_va, rel=1e-12)
            assert ea == pytest.approx(mp_ea, rel=1e-12)


def test_iteration_budget():
    inp = BoundInputs(d0=1.0, lambda_floor=1.0, params=PLAIN)
    assert iteration_budget(0.1, math.inf, inp) == 100
    assert iteration_budget(0.05, math.inf, inp) == 400
    # eps term binds for inexact params when eps_hat << rho^2
    p = params.HpeParams(alpha=0.0, sigma=0.9, beta=0.4)
    inp2 = BoundInputs(d0=1.0, lambda_floor=1.0, params=p)
    assert iteration_budget(1.0, 1e-6, inp2) > iteration_budget(
        1.0, 1e-2, inp2)
    with pytest.raises(ParameterError):
        iteration_budget(0.0, 1.0, inp)


def test_bound_inputs_validation():
    with pytest.raises(ParameterError):
        BoundInputs(d0=-1.0, lambda_floor=1.0, params=PLAIN)
    with pytest.raises(ParameterError):
        BoundInputs(d0=1.0, lambda_floor=0.0, params=PLAIN)


@pytest.mark.parametrize("d0, floor, message", [
    (math.nan, 1.0, "d0 must be nonnegative, got nan"),
    (1.0, math.nan, "lambda_floor must be positive, got nan"),
    # every bound squares d0, which would overflow or pass against inf
    (math.inf, 1.0, "d0 = inf has no finite square"),
    (1e200, 1.0, r"d0 = 1e\+200 has no finite square"),
    (10 ** 200, 1.0, "d0 = 10{200} has no finite square"),
], ids=["d0", "lambda_floor", "d0_inf", "d0_square_overflows",
        "int_d0_square_overflows"])
def test_bound_inputs_refuse_nan(d0, floor, message):
    with pytest.raises(ParameterError, match=message):
        BoundInputs(d0=d0, lambda_floor=floor, params=PLAIN)


@pytest.mark.parametrize("rho, eps_hat", [(math.nan, 1.0), (0.1, math.nan)],
                         ids=["rho", "eps_hat"])
def test_iteration_budget_refuses_nan_tolerances(rho, eps_hat):
    inp = BoundInputs(d0=1.0, lambda_floor=1.0, params=PLAIN)
    with pytest.raises(ParameterError, match="tolerances must be positive"):
        iteration_budget(rho, eps_hat, inp)


@pytest.mark.parametrize("rho, d0, floor, sigma, beta, message", [
    (0.1, None, 5e-324, 5e-324, 1.0 / 3.0,
     r"the closed-form bounds overflow at lambda_floor \* tau = 4.94e-324"),
    (0.1, 1.0, 5e-324, 0.9, 0.45,
     r"the closed-form bounds overflow at lambda_floor \* tau = 0"),
    (1e-300, 1e10, 1e-10, 0.5, 0.4,
     "the iteration budget overflows at rho = 1e-300, eps_hat = 1"),
], ids=["subnormal_floor", "floor_times_tau_underflows",
        "budget_beyond_float_range"])
def test_iteration_budget_refuses_an_overflow(rho, d0, floor, sigma, beta,
                                              message, recwarn):
    # a bound or a budget of inf has no integer; None is the saddle's d0
    d0 = d0 or operators.make_problem("bilinear_saddle", 4, 1).d0()
    inp = BoundInputs(d0, floor, params.HpeParams(0.0, sigma, beta))
    with pytest.raises(ParameterError, match=f"^{message}$"):
        iteration_budget(rho, 1.0, inp)
    assert not recwarn.list


def test_bounds_need_known_d0(certified_run):
    state, _ = certified_run
    inp = BoundInputs(d0=None, lambda_floor=1.0, params=PLAIN)
    for call in (lambda: assert_bounds(state.trace, inp),
                 lambda: iteration_budget(0.1, 1.0, inp),
                 lambda: pointwise_bounds(inp, 1),
                 lambda: ergodic_bounds(inp, 1)):
        with pytest.raises(ParameterError, match="d0 is unknown"):
            call()


# -- trace assertion harness -------------------------------------------------

@pytest.fixture(scope="module")
def certified_run():
    prob = operators.make_problem("box_constrained_quadratic", 6, seed=30)
    p = params.HpeParams(alpha=0.15, sigma=0.8, beta=0.4)
    state = instances.solve(
        prob, "forward_backward", p,
        stop=hpe_core.StoppingRule(rho=1e-8, max_iters=10 ** 5))
    d0 = prob.d0()
    return state, BoundInputs(d0=d0, lambda_floor=state.lambda_floor,
                              params=p)


def test_assert_bounds_passes_and_reports(certified_run):
    state, inp = certified_run
    report = assert_bounds(state.trace, inp)
    assert report["checked_prefixes"] == len(state.trace)
    assert list(report["worst_utilization"]) == [
        "pointwise_v", "pointwise_eps", "ergodic_v", "ergodic_eps"]
    assert max(report["worst_utilization"].values()) <= 1.0 + 1e-8


def test_assert_bounds_detects_understated_d0():
    # the first exact proximal step uses > 50% of the pointwise bound on
    # this instance, so halving d0 must trip the harness
    prob = operators.make_problem("affine_inclusion", 8, seed=3)
    state = instances.solve(prob, "ppm", PLAIN,
                            stop=hpe_core.StoppingRule(rho=1e-8))
    d0 = prob.d0()
    good = BoundInputs(d0=d0, lambda_floor=state.lambda_floor, params=PLAIN)
    report = assert_bounds(state.trace, good)
    assert max(report["worst_utilization"].values()) > 0.5
    bad = BoundInputs(d0=d0 * 0.5, lambda_floor=state.lambda_floor,
                      params=PLAIN)
    with pytest.raises(TheoremViolation):
        assert_bounds(state.trace, bad)


def test_assert_bounds_matches_prefix_loop(certified_run):
    # reference: the streaming witness and per-prefix closed forms, one
    # prefix at a time
    state, inp = certified_run
    norm_v, eps, s_k = (state.trace.column(c)
                        for c in ("norm_v", "eps", "s_k"))
    best, worst_v, worst_eps = 0, 0.0, 0.0
    for k in range(1, len(state.trace) + 1):
        if s_k[k - 1] < s_k[best]:
            best = k - 1
        vb, eb = pointwise_bounds(inp, k)
        assert norm_v[best] <= vb and eps[best] <= eb
        worst_v = max(worst_v, norm_v[best] / vb)
        worst_eps = max(worst_eps, eps[best] / eb)
    worst = assert_bounds(state.trace, inp)["worst_utilization"]
    assert (worst["pointwise_v"], worst["pointwise_eps"]) == (
        worst_v, worst_eps)


def test_audit_detects_negative_eps_a(certified_run):
    state, inp = certified_run
    trace = hpe_core.IterationTrace()
    trace.extend(**state.trace.columns)
    trace.columns["eps_a"][5] = -1.0
    checks = {c.name: c for c in bounds.audit(trace, inp)}
    check = checks["aggregated_error_nonneg"]
    assert (check.status, check.detail) == (bounds.FAIL, "eps_a < 0 at k=6")


@pytest.fixture(scope="module")
def long_run():
    # the long bilinear Tseng run, its stopping rule never met: 50 000 rows
    prob = operators.make_problem("bilinear_saddle", 8, seed=1)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    state = instances.solve(prob, "tseng_fbf", p, stop=hpe_core.StoppingRule(
        rho=1e-300, eps_hat=1e-300, max_iters=50_000))
    return state, BoundInputs(d0=prob.d0(), lambda_floor=state.lambda_floor,
                              params=p)


def test_audit_of_a_long_trace_holds_a_few_columns(long_run):
    # the certificate law takes Python floats, 32 bytes a cell in a list;
    # with four whole columns converted for it the audit peaked at 19
    # float64 columns' worth, with a chunk of rows at a time at about 8
    state, inp = long_run
    rows = len(state.trace)
    assert rows == 50_000
    tracemalloc.start()
    try:
        checks = bounds.audit(state.trace, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {c.status for c in checks} == {bounds.PASS}
    assert peak <= 10 * 8 * rows


def test_audit_names_a_faulty_step_beyond_the_first_chunk(long_run):
    state, inp = long_run
    trace = hpe_core.IterationTrace()
    trace.extend(**state.trace.columns)
    k = 3 * bounds._AUDIT_ROWS + 7
    trace.columns["eps"][k - 1] = -1.0
    checks = {c.name: c for c in bounds.audit(trace, inp)}
    check = checks["error_criterion"]
    assert (check.status, check.detail) == (
        bounds.FAIL, f"negative eps -1.0 at k={k}")


def test_assert_bounds_empty_trace_vacuous():
    report = assert_bounds(hpe_core.IterationTrace(),
                           BoundInputs(d0=1.0, lambda_floor=1.0,
                                       params=PLAIN))
    assert report["checked_prefixes"] == 0
