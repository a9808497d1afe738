import json
import math

import numpy as np
import pytest

from monosplit import bounds, hpe_core, instances, linalg, operators, params
from monosplit.ergodic import ErgodicState
from monosplit.errors import (CertificationError, DimensionMismatch,
                              ParameterError)
from monosplit.hpe_core import (Certificate, IterationTrace, StoppingRule,
                                certify, extrapolate, relax_update, run)
from recorder import Recorder

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
    rec = Recorder(ppm_solver(prob))
    state = run(prob, rec, p, lambda_floor=1.0, stop=StoppingRule(rho=1e-9))
    # the w of step k + 1 is extrapolated from z_k = w - tau lam v of step k
    z_prev = z = np.zeros(5)
    for w, cert in rec.steps:
        np.testing.assert_array_equal(w, z + p.alpha * (z - z_prev))
        z_prev, z = z, w - p.tau * cert.lam * cert.v
    np.testing.assert_array_equal(state.z_curr, z)


def test_plain_hpe_reduction_matches_reference_loop():
    # alpha = 0, tau = 1 is plain inexact-proximal iteration; compare with
    # an independent hand-rolled loop to 1e-12 per coordinate
    prob = operators.make_problem("affine_inclusion", 6, seed=4)
    rec = Recorder(ppm_solver(prob))
    state = run(prob, rec, PLAIN, lambda_floor=1.0,
                stop=StoppingRule(max_iters=50, rho=0.0))
    iterates = rec.iterates(state)
    assert len(iterates) == 50
    z = np.zeros(6)
    for k in range(50):
        z, _ = prob.resolvent.resolve(1.0, z)
        np.testing.assert_allclose(iterates[k], z, atol=1e-12)


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


# -- the driver against its single-step functions ----------------------------

def replay(problem, solver, p, stop, z0):
    """``run`` rebuilt from the public single-step functions: its trace."""
    z_prev = z = z0
    erg = ErgodicState(dim=z0.shape[0])
    z_star = problem.known_solution
    trace = IterationTrace()
    for k in range(1, stop.max_iters + 1):
        w = extrapolate(z, z_prev, p.schedule.value(k), p.alpha)
        cert = solver(w, k)
        ratio = certify(cert, w, p.sigma)
        z_next = relax_update(w, cert, p.tau)
        dz_sq = linalg.norm_sq(cert.z_tilde - w)
        erg.update(cert)
        norm_v = math.sqrt(linalg.norm_sq(cert.v))
        trace.append(
            norm_v=norm_v, eps=cert.eps, lam=cert.lam, error_ratio=ratio,
            step_norm=linalg.norm(z_next - z),
            s_k=max(p.eta * linalg.norm_sq(z_next - w),
                    (1.0 - p.sigma * p.sigma) * p.tau * dz_sq),
            dist_to_solution=linalg.norm(z_next - z_star),
            resid_sq=linalg.norm_sq(cert.lam * cert.v
                                    + (cert.z_tilde - w)),
            norm_dz=math.sqrt(dz_sq), dist_w=linalg.norm(w - z_star),
            aggregate_stepsize=erg.aggregate_stepsize,
            norm_v_a=linalg.norm(erg.v_avg), eps_a=erg.eps_avg_raw)
        z_prev, z = z, z_next
        if norm_v <= stop.rho and cert.eps <= stop.eps_hat:
            break
    return trace


def assert_same_bits(trace, expected):
    assert len(trace) == len(expected)
    for name in trace.columns:
        assert (np.asarray(trace.columns[name], dtype=float).tobytes()
                == np.asarray(expected.columns[name], dtype=float).tobytes()
                ), name


@pytest.mark.parametrize("kind, instance, sigma, ramp_iters", [
    ("affine_inclusion", "ppm", 0.0, 0),
    ("box_constrained_quadratic", "forward_backward", 0.5, 0),
    ("bilinear_saddle", "tseng_fbf", 0.5, 0),
    ("l1_composite", "forward_backward", 0.7, 0),
    ("l1_composite", "tseng_fbf", 0.5, 25),
])
def test_run_matches_its_single_step_replay_bit_for_bit(kind, instance,
                                                        sigma, ramp_iters):
    prob = operators.make_problem(kind, 6, seed=11)
    p = params.HpeParams.from_beta(alpha=0.2, sigma=sigma, beta=0.4,
                                   ramp_iters=ramp_iters)
    solver, floor = instances.make_inner_solver(
        prob, instances.InstanceConfig(kind=instance), p)
    stop = StoppingRule(rho=1e-9, eps_hat=1e-12, max_iters=150)
    state = run(prob, solver, p, stop=stop, lambda_floor=floor)
    assert state.k > 30
    assert_same_bits(state.trace,
                     replay(prob, solver, p, stop, np.zeros(6)))


def separable_box_problem(n, seed):
    """``F(z) = d * z + c`` on the box ``[0, 1]^n``: solution ``clip(-c/d)``."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n)
    c = rng.standard_normal(n)
    box = operators.BoxResolvent(np.zeros(n), np.ones(n))
    F = operators.ForwardMap(lambda z: d * z + c, float(d.max()),
                             cocoercive=True, project_domain=box.project,
                             linear=lambda dz: d * dz)
    return operators.TestProblem("separable_box", n, seed, resolvent=box,
                                 forward=F,
                                 known_solution=np.clip(-c / d, 0.0, 1.0))


@pytest.mark.parametrize("instance", ["forward_backward", "tseng_fbf"])
def test_run_matches_its_replay_at_a_million_coordinates(instance):
    n = 10 ** 6
    prob = separable_box_problem(n, seed=12)
    p = params.HpeParams.from_beta(alpha=0.2, sigma=0.5, beta=0.4)
    solver, floor = instances.make_inner_solver(
        prob, instances.InstanceConfig(kind=instance), p)
    stop = StoppingRule(rho=0.0, max_iters=16)
    state = run(prob, solver, p, stop=stop, lambda_floor=floor)
    assert state.k == 16
    assert_same_bits(state.trace, replay(prob, solver, p, stop, np.zeros(n)))
    checks = bounds.audit(state.trace, bounds.BoundInputs(
        d0=prob.d0(state.z0), lambda_floor=floor, params=p))
    assert [c.status for c in checks] == [bounds.PASS] * len(checks)
    if instance == "forward_backward":
        # on the cap the criterion holds with equality up to round-off
        ratio = state.trace.column("error_ratio")
        assert np.all((1.0 - 1e-6 <= ratio) & (ratio <= 1.0 + 1e-9))


def test_run_refuses_a_certificate_of_another_dimension():
    # shape-(1,) vectors used to broadcast through step 1 and end at k=2
    # in a CertificationError about sigma=0
    prob = operators.make_problem("affine_inclusion", 4, seed=9)

    def short(w, k):
        return Certificate(z_tilde=np.ones(1), v=-np.ones(1), eps=0.0,
                           lam=1.0)

    with pytest.raises(DimensionMismatch, match="k=1"):
        run(prob, short, PLAIN, lambda_floor=1.0)

    def short_v(w, k):
        z, v = prob.resolvent.resolve(1.0, w)
        return Certificate(z_tilde=z, v=v[:1], eps=0.0, lam=1.0)

    with pytest.raises(DimensionMismatch, match="k=1"):
        run(prob, short_v, PLAIN, lambda_floor=1.0)
