import json
import math

import numpy as np
import pytest

from monosplit import bounds, hpe_core, instances, linalg, operators, params
from monosplit.errors import CertificationError, ParameterError
from monosplit.hpe_core import (Certificate, IterationTrace, StoppingRule,
                                certify, extrapolate, relax_update, run)

PLAIN = params.HpeParams.from_beta(alpha=0.0, sigma=0.0, beta=1.0 / 3.0)


def ppm_solver(problem, lam=1.0):
    def solver(w, k):
        return instances.ppm_step(problem.resolvent, w, lam)
    return solver


# -- single-step operations --------------------------------------------------

def test_extrapolate_cases():
    z = np.array([1.0, 1.0])
    zp = np.array([0.0, 0.0])
    np.testing.assert_array_equal(extrapolate(z, zp, 0.0), z)
    np.testing.assert_array_equal(extrapolate(z, z, 0.7), z)
    np.testing.assert_allclose(extrapolate(z, zp, 0.3),
                               np.array([1.3, 1.3]), atol=1e-15)
    with pytest.raises(ParameterError):
        extrapolate(z, zp, 0.5, alpha_max=0.3)


def test_certify_exact_step_and_fixed_point():
    w = np.array([2.0, 4.0])
    z_tilde = np.array([1.0, 2.0])
    cert = Certificate(z_tilde=z_tilde, v=(w - z_tilde) / 1.0, eps=0.0,
                       lam=1.0)
    assert certify(cert, w, sigma=0.0) == 0.0
    fixed = Certificate(z_tilde=w, v=np.zeros(2), eps=0.0, lam=1.0)
    assert certify(fixed, w, sigma=0.5) == 0.0  # 0/0 convention


def test_certify_fb_boundary_ratio_is_one():
    rng = np.random.default_rng(0)
    L, sigma = 2.0, 0.6
    lam = 2.0 * sigma ** 2 / L
    for _ in range(10):
        w = rng.standard_normal(4)
        z_tilde = w + rng.standard_normal(4)
        cert = Certificate(z_tilde=z_tilde, v=(w - z_tilde) / lam,
                           eps=L * linalg.norm_sq(z_tilde - w) / 4.0, lam=lam)
        ratio = certify(cert, w, sigma)
        assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-9


def test_certify_rejects_violations():
    w = np.zeros(2)
    bad = Certificate(z_tilde=np.array([1.0, 0.0]), v=np.array([5.0, 0.0]),
                      eps=0.0, lam=1.0)
    with pytest.raises(CertificationError):
        certify(bad, w, sigma=0.5)
    # sigma = 0 with a nonzero residual must also fail
    with pytest.raises(CertificationError):
        certify(bad, w, sigma=0.0)


def test_relax_update_cases():
    w = np.array([2.0, 4.0])
    cert = Certificate(z_tilde=np.zeros(2), v=np.array([1.0, 2.0]), eps=0.0,
                       lam=1.0)
    np.testing.assert_array_equal(relax_update(w, cert, 1.0), [1.0, 2.0])
    zero = Certificate(z_tilde=w, v=np.zeros(2), eps=0.0, lam=1.0)
    np.testing.assert_array_equal(relax_update(w, zero, 0.7), w)
    half = Certificate(z_tilde=np.zeros(2), v=np.array([2.0, 0.0]), eps=0.0,
                       lam=1.0)
    np.testing.assert_array_equal(
        relax_update(np.array([2.0, 0.0]), half, 0.5), [1.0, 0.0])
    with pytest.raises(ParameterError):
        relax_update(w, cert, 0.0)


# -- the driver --------------------------------------------------------------

def test_run_exact_pp_distance_nonincreasing():
    prob = operators.make_problem("affine_inclusion", 6, seed=1)
    state = run(prob, ppm_solver(prob), PLAIN, lambda_floor=1.0,
                stop=StoppingRule(rho=1e-10))
    assert state.verdict == "solved"
    dist = state.trace.column("dist_to_solution")
    assert np.all(np.diff(dist) <= 1e-12)


def test_run_terminates_immediately_at_a_zero():
    prob = operators.make_problem("affine_inclusion", 4, seed=2)
    state = run(prob, ppm_solver(prob), PLAIN, z0=prob.known_solution,
                lambda_floor=1.0)
    assert state.verdict == "solved"
    assert state.k == 1


def test_update_rule_holds_bitwise():
    prob = operators.make_problem("affine_inclusion", 5, seed=3)
    p = params.HpeParams.from_beta(alpha=0.2, sigma=0.0, beta=0.4)
    state = run(prob, ppm_solver(prob), p, lambda_floor=1.0,
                record_vectors=True, stop=StoppingRule(rho=1e-9))
    for z_next, w, cert in zip(state.z_history[1:], state.w_history,
                               state.certificates):
        np.testing.assert_array_equal(
            z_next, w - p.tau * cert.lam * cert.v)


def test_plain_hpe_reduction_matches_reference_loop():
    # alpha = 0, tau = 1 is plain inexact-proximal iteration; compare with
    # an independent hand-rolled loop to 1e-12 per coordinate
    prob = operators.make_problem("affine_inclusion", 6, seed=4)
    state = run(prob, ppm_solver(prob), PLAIN, lambda_floor=1.0,
                record_vectors=True, stop=StoppingRule(max_iters=50,
                                                       rho=0.0))
    z = np.zeros(6)
    for k in range(50):
        z, _ = prob.resolvent.resolve(1.0, z)
        np.testing.assert_allclose(state.z_history[k + 1], z, atol=1e-12)


def test_run_rejects_stepsize_below_floor():
    prob = operators.make_problem("affine_inclusion", 4, seed=5)
    with pytest.raises(ParameterError):
        run(prob, ppm_solver(prob, lam=0.5), PLAIN, lambda_floor=1.0)


def test_run_rejects_negative_eps():
    prob = operators.make_problem("affine_inclusion", 4, seed=6)

    def bad(w, k):
        z, v = prob.resolvent.resolve(1.0, w)
        return Certificate(z_tilde=z, v=v, eps=-1e-3, lam=1.0)

    with pytest.raises(CertificationError):
        run(prob, bad, PLAIN, lambda_floor=1.0)


def test_run_aborts_on_uncertified_inner_solver():
    prob = operators.make_problem("affine_inclusion", 4, seed=7)

    def sloppy(w, k):
        z, v = prob.resolvent.resolve(1.0, w)
        return Certificate(z_tilde=z + 0.5, v=v, eps=0.0, lam=1.0)

    with pytest.raises(CertificationError) as err:
        run(prob, sloppy, PLAIN, lambda_floor=1.0)
    assert err.value.k == 1


@pytest.mark.parametrize("alpha, steps", [(0.0, 82), (0.2, 63)])
def test_criterion_residual_does_not_cancel_near_the_solution(alpha, steps):
    # lam v + z~ - w used to cancel at the scale of |w| and push the
    # ratio past 1 + 1e-9 at k=81 (alpha 0) and k=61 (alpha 0.2)
    prob = operators.make_problem("box_constrained_quadratic", 5, 13)
    p = params.HpeParams.from_beta(alpha=alpha, sigma=0.5, beta=0.4)
    state = instances.solve(prob, instances.InstanceConfig(kind="tseng_fbf"),
                            p, stop=StoppingRule(rho=1e-8, eps_hat=1e-12))
    assert (state.verdict, state.k) == ("solved", steps)
    assert state.trace.column("error_ratio").max() <= 1.0 + 1e-9


# -- post-hoc checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def inertial_run():
    prob = operators.make_problem("affine_inclusion", 8, seed=8)
    p = params.HpeParams.from_beta(alpha=0.3, sigma=0.0, beta=0.35)
    state = run(prob, ppm_solver(prob), p, lambda_floor=1.0,
                stop=StoppingRule(rho=1e-9))
    return prob, p, state


def audited(inertial_run, trace=None):
    prob, p, state = inertial_run
    inp = bounds.BoundInputs(d0=prob.d0(state.z0), lambda_floor=1.0,
                             params=p)
    checks = bounds.audit(state.trace if trace is None else trace, inp)
    return {c.name: c for c in checks}


def assert_descent_slack_absolute(inertial_run):
    # the audit allows max(ATOL, DESCENT_RTOL * dist^2); on this run that
    # is the absolute 1e-9
    prob, _, state = inertial_run
    scale = max(prob.d0(state.z0), state.trace.column("dist_w").max(),
                state.trace.column("dist_to_solution").max()) ** 2
    assert bounds.DESCENT_RTOL * scale <= 1e-9


def test_fejer_check_nonnegative(inertial_run):
    assert_descent_slack_absolute(inertial_run)
    assert audited(inertial_run)["fejer_descent"].status == bounds.PASS


def test_fejer_check_detects_corruption(inertial_run):
    _, _, state = inertial_run
    corrupted = IterationTrace()
    for row in state.trace.rows():
        row = dict(row)
        row.pop("k")
        corrupted.append(**row)
    corrupted.columns["s_k"][3] += 10.0  # overstate the energy term
    check = audited(inertial_run, corrupted)["fejer_descent"]
    assert (check.status, check.detail.endswith("k=4")) == (bounds.FAIL, True)


def test_summability_check(inertial_run):
    checks = audited(inertial_run)
    assert checks["step_summability"].status == bounds.PASS
    assert checks["step_summability"].utilization <= 1.0
    # constant schedule: the mu sequence never increases
    assert_descent_slack_absolute(inertial_run)
    assert checks["mu_nonincreasing"].status == bounds.PASS


def test_energy_check(inertial_run):
    check = audited(inertial_run)["energy_bound"]
    assert check.status == bounds.PASS
    assert check.utilization <= 1.0


# -- trace serialization -----------------------------------------------------

def test_trace_jsonl_roundtrip(tmp_path, inertial_run):
    _, _, state = inertial_run
    path = tmp_path / "trace.jsonl"
    state.trace.write_jsonl(path, header={"note": "x"})
    trace, meta = IterationTrace.read_jsonl(path)
    assert meta["schema_version"] == hpe_core.TRACE_SCHEMA_VERSION
    assert meta["note"] == "x"
    assert len(trace) == len(state.trace)
    for name in trace.columns:
        np.testing.assert_array_equal(trace.column(name),
                                      state.trace.column(name))


def test_trace_csv_header_order(tmp_path, inertial_run):
    _, _, state = inertial_run
    path = tmp_path / "trace.csv"
    state.trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ("k,norm_v,eps,lambda,error_ratio,step_norm,s_k,"
                      "dist_to_solution,Lambda,norm_v_a,eps_a")


def test_trace_read_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {"schema_version": 1}}\nnot json\n')
    with pytest.raises(ParameterError, match="line 2"):
        IterationTrace.read_jsonl(path)


def test_trace_read_reports_missing_columns(tmp_path):
    path = tmp_path / "short.jsonl"
    path.write_text(json.dumps({"k": 1, "norm_v": 0.1}) + "\n")
    with pytest.raises(ParameterError, match="missing columns"):
        IterationTrace.read_jsonl(path)
