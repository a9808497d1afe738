import itertools
import json
import math

import numpy as np
import pytest

from monosplit import bounds, hpe_core, instances, linalg, operators, params
from monosplit.ergodic import ErgodicState
from monosplit.errors import (CertificationError, DimensionMismatch,
                              ParameterError)
from monosplit.hpe_core import (Certificate, IterationTrace, StoppingRule,
                                run)
from oracles import certify
from recorder import Recorder

PLAIN = params.HpeParams(alpha=0.0, sigma=0.0, beta=1.0 / 3.0)


def ppm_solver(problem, lam=1.0):
    def solver(w):
        return instances.ppm_step(problem.resolvent, w, lam)
    return solver


# -- single-step operations --------------------------------------------------

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
    with pytest.raises(CertificationError,
                       match=r"^criterion violated: ratio="):
        certify(bad, w, sigma=0.5)
    # sigma = 0 with a nonzero residual must also fail
    with pytest.raises(CertificationError,
                       match=r"^criterion violated: lhs=\S+ with sigma=0$"):
        certify(bad, w, sigma=0.0)


@pytest.mark.parametrize("eps, lam, error, message", [
    (-5.0, 1.0, CertificationError, "negative eps -5.0"),
    (0.0, 0.0, ParameterError, "stepsize 0.0 below the floor 0.0"),
    (0.0, -1.0, ParameterError, "stepsize -1.0 below the floor 0.0"),
    (0.0, math.nan, ParameterError, "non-finite stepsize nan"),
    (math.nan, 1.0, CertificationError, "non-finite eps nan"),
], ids=["negative_eps", "zero_stepsize", "negative_stepsize", "nan_stepsize",
        "nan_eps"])
def test_certify_refuses_what_run_refuses(eps, lam, error, message):
    # v is the exact step at lam = 1: only eps or lam breaks the law; the
    # message names the fault, with no step index
    w = np.array([2.0, 4.0])
    z_tilde = np.array([1.0, 2.0])
    cert = Certificate(z_tilde=z_tilde, v=(w - z_tilde) / 1.0, eps=eps,
                       lam=lam)
    with pytest.raises(error) as exc:
        certify(cert, w, sigma=0.5)
    assert str(exc.value) == message


def test_certify_refuses_a_certificate_of_another_dimension():
    # z~ and v of shape (1,) used to broadcast against w and certify
    w = np.zeros(4)
    short = Certificate(z_tilde=np.ones(1), v=-np.ones(1), eps=0.0, lam=1.0)
    with pytest.raises(DimensionMismatch) as exc:
        certify(short, w, sigma=0.5)
    assert str(exc.value) == ("certificate has z~ of shape (1,) and v of "
                              "shape (1,), expected (4,)")


def test_a_certificate_is_immutable():
    cert = Certificate(np.ones(2), -np.ones(2), 0.0, 1.0)
    assert cert == (cert.z_tilde, cert.v, cert.eps, cert.lam)
    for name in ("z_tilde", "v", "eps", "lam"):
        with pytest.raises(AttributeError):
            setattr(cert, name, 2.0)
    assert cert.eps == 0.0 and cert.lam == 1.0


# -- the driver --------------------------------------------------------------

def test_run_exact_pp_distance_nonincreasing():
    prob = operators.make_problem("affine_inclusion", 6, seed=1)
    state = run(prob, ppm_solver(prob), PLAIN, lambda_floor=1.0,
                stop=StoppingRule(rho=1e-10))
    assert state.verdict == "solved"
    dist = state.trace.column("dist_to_solution")
    assert np.all(np.diff(dist) <= 1e-12)


def test_run_terminates_immediately_at_a_zero():
    # a zero offset puts the solution at the origin, where the run starts
    rng = np.random.default_rng(2)
    T = operators.AffineOperator(
        np.eye(4) + 0.1 * rng.standard_normal((4, 4)), np.zeros(4))
    prob = operators.TestProblem(
        "affine_inclusion", 4, operators.AffineResolvent(T),
        known_solution=T.zero_point())
    np.testing.assert_array_equal(prob.known_solution, np.zeros(4))
    state = run(prob, ppm_solver(prob), PLAIN, lambda_floor=1.0)
    assert state.verdict == "solved"
    assert state.k == 1


def test_the_stopping_rule_takes_floats_or_whole_columns():
    # certify applies the rule to a trace's columns at once: each row's
    # verdict must be the driver's on that row's two floats
    stop = StoppingRule(rho=1e-6, eps_hat=1e-9)
    odd = [math.nan, math.inf, -math.inf, 0.0]
    norm_v = [stop.rho, np.nextafter(stop.rho, 0.0),
              np.nextafter(stop.rho, 1.0)] + odd
    eps = [stop.eps_hat, np.nextafter(stop.eps_hat, 0.0),
           np.nextafter(stop.eps_hat, 1.0)] + odd
    pairs = [(float(a), float(b)) for a in norm_v for b in eps]
    rows = [stop.met(a, b) for a, b in pairs]
    assert {type(verdict) for verdict in rows} == {bool}
    assert rows.count(True) == 4 * 4  # at or below both: 0.0 and -inf too
    assert stop.met(*np.array(pairs).T).tolist() == rows
    # an int threshold beyond 2**53 rounds for a column, so for a float too
    big = StoppingRule(rho=2 ** 53 + 3)
    assert big.met(2.0 ** 53 + 4, 0.0)
    assert big.met(np.array([2.0 ** 53 + 4]), np.zeros(1)).tolist() == [True]


def test_a_step_whose_norm_v_underflows_is_refused():
    # ||v||^2 of v = 1e-300 * 1 is 0: the trace would record norm_v 0, the
    # run would "solve" at k=1 and its audit would fail
    prob = operators.make_problem("affine_inclusion", 6, seed=1)

    def tiny(w):
        v = np.full(6, 1e-300)
        return Certificate(z_tilde=w - v, v=v, eps=0.0, lam=1.0)

    with pytest.raises(CertificationError,
                       match=r"^\|\|v\|\|\^2 underflows at k=1$"):
        run(prob, tiny, PLAIN, lambda_floor=1.0)


@pytest.mark.parametrize("scale, lam, message", [
    # ||z~ - w||^2 overflows: the law's slack was inf and its ratio 0, and
    # the run wrote Infinity cells and a null eps_a
    (1e160, 0.1, r"non-finite criterion terms at k=1: lhs=0\.0, "
                 r"\|\|z~ - w\|\|\^2=inf"),
    # only ||v||^2 overflows: the run recorded norm_v = inf
    (1e155, 1e-150, r"\|\|v\|\|\^2 overflows at k=1"),
], ids=["dz", "v"])
def test_a_step_whose_squares_overflow_is_refused(scale, lam, message):
    # numpy's overflow warnings are errors in this suite
    prob = operators.make_problem("bilinear_saddle", 4, 1)

    def huge(w):
        v = np.full(prob.dim, scale)
        return Certificate(z_tilde=w - lam * v, v=v, eps=0.0, lam=lam)

    with pytest.raises(CertificationError, match="^" + message + "$") as exc:
        run(prob, huge, params.HpeParams(0.0, 0.5, 0.4),
            StoppingRule(max_iters=2), lambda_floor=lam)
    assert exc.value.k == 1


def test_the_law_refuses_non_finite_terms():
    # an infinite ||z~ - w||^2 made the slack infinite and the ratio 0
    for resid_sq, dz_sq in ((0.0, math.inf), (math.inf, 1.0),
                            (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(CertificationError,
                           match="^non-finite criterion terms at k=3: "):
            hpe_core._error_ratio(resid_sq, dz_sq, 0.1, 0.0, 0.5, 0.1, k=3)
    with pytest.raises(CertificationError, match="lhs=nan"):
        hpe_core._error_ratio(0.0, 1.0, math.inf, 0.0, 0.5, 0.1)


def test_update_rule_holds_bitwise():
    prob = operators.make_problem("affine_inclusion", 5, seed=3)
    p = params.HpeParams(alpha=0.2, sigma=0.0, beta=0.4)
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
    # the floor is exact: a step 100 times below a floor of 1e-15 fails
    with pytest.raises(ParameterError, match=r"^stepsize 1e-17 below the "
                                             r"floor 1e-15 at k=1$"):
        run(prob, ppm_solver(prob, lam=1e-17), PLAIN, lambda_floor=1e-15)


def test_audit_rejects_stepsize_below_floor():
    prob = operators.make_problem("affine_inclusion", 4, seed=5)
    state = run(prob, ppm_solver(prob, lam=1e-17), PLAIN, lambda_floor=1e-17,
                stop=StoppingRule(max_iters=3))
    checks = bounds.audit(state.trace, bounds.BoundInputs(
        d0=prob.d0(), lambda_floor=1e-15, params=PLAIN))
    check = next(c for c in checks if c.name == "error_criterion")
    assert (check.status, check.detail) == (
        bounds.FAIL, "stepsize 1e-17 below the floor 1e-15 at k=1")


def test_run_rejects_negative_eps():
    prob = operators.make_problem("affine_inclusion", 4, seed=6)

    def bad(w):
        z, v = prob.resolvent.resolve(1.0, w)
        return Certificate(z_tilde=z, v=v, eps=-1e-3, lam=1.0)

    with pytest.raises(CertificationError):
        run(prob, bad, PLAIN, lambda_floor=1.0)


def test_run_aborts_on_uncertified_inner_solver():
    prob = operators.make_problem("affine_inclusion", 4, seed=7)

    def sloppy(w):
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
    p = params.HpeParams(alpha=alpha, sigma=0.5, beta=0.4)
    state = instances.solve(prob, "tseng_fbf", p,
                            stop=StoppingRule(rho=1e-8, eps_hat=1e-12))
    assert (state.verdict, state.k) == ("solved", steps)
    assert state.trace.column("error_ratio").max() <= 1.0 + 1e-9


# -- post-hoc checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def inertial_run():
    prob = operators.make_problem("affine_inclusion", 8, seed=8)
    p = params.HpeParams(alpha=0.3, sigma=0.0, beta=0.35)
    state = run(prob, ppm_solver(prob), p, lambda_floor=1.0,
                stop=StoppingRule(rho=1e-9))
    return prob, p, state


def audited(inertial_run, trace=None):
    prob, p, state = inertial_run
    inp = bounds.BoundInputs(d0=prob.d0(), lambda_floor=1.0, params=p)
    checks = bounds.audit(state.trace if trace is None else trace, inp)
    return {c.name: c for c in checks}


def assert_descent_slack_absolute(inertial_run):
    # the audit allows max(ATOL, DESCENT_RTOL * dist^2); on this run that
    # is the absolute 1e-9
    prob, _, state = inertial_run
    scale = max(prob.d0(), state.trace.column("dist_w").max(),
                state.trace.column("dist_to_solution").max()) ** 2
    assert bounds.DESCENT_RTOL * scale <= 1e-9


def test_fejer_check_nonnegative(inertial_run):
    assert_descent_slack_absolute(inertial_run)
    assert audited(inertial_run)["fejer_descent"].status == bounds.PASS


def test_fejer_check_detects_corruption(inertial_run):
    _, _, state = inertial_run
    corrupted = IterationTrace()
    corrupted.extend(**state.trace.columns)
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
    state.trace.write_jsonl(path, {"note": "x"})
    trace, meta = IterationTrace.read_jsonl(path)
    assert meta == {"note": "x"}
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
    path.write_text('{"meta": {}}\n' + json.dumps({"k": 1, "norm_v": 0.1})
                    + "\n")
    with pytest.raises(ParameterError, match="line 2 differs from the "
                       "writer's row at column 'norm_v'"):
        IterationTrace.read_jsonl(path)


# -- the driver against its single-step functions ----------------------------

def replay(problem, solver, p, stop):
    """``run`` rebuilt from :func:`oracles.certify`, the two update
    formulas and the ergodic averages read off the running sums, from the
    origin: its trace."""
    z_prev = z = np.zeros(problem.dim)
    erg = ErgodicState(dim=problem.dim)
    z_star = problem.known_solution
    trace = IterationTrace()
    for k in range(1, stop.max_iters + 1):
        w = z + p.alpha * (z - z_prev)
        cert = solver(w)
        ratio = certify(cert, w, p.sigma)
        z_next = w - p.tau * cert.lam * cert.v
        dz_sq = linalg.norm_sq(cert.z_tilde - w)
        erg.update(cert)
        z_a, v_a = erg.sums / erg.aggregate_stepsize
        norm_v = math.sqrt(linalg.norm_sq(cert.v))
        trace.append(
            norm_v=norm_v, eps=cert.eps, lam=cert.lam, error_ratio=ratio,
            step_norm=linalg.norm(z_next - z),
            s_k=max(p.eta * linalg.norm_sq(z_next - w),
                    (1.0 - p.sigma * p.sigma) * p.tau * dz_sq),
            dist_to_solution=(math.nan if z_star is None
                              else linalg.norm(z_next - z_star)),
            resid_sq=linalg.norm_sq(cert.lam * cert.v
                                    + (cert.z_tilde - w)),
            norm_dz=math.sqrt(dz_sq),
            dist_w=math.nan if z_star is None else linalg.norm(w - z_star),
            aggregate_stepsize=erg.aggregate_stepsize,
            norm_v_a=linalg.norm(v_a),
            eps_a=((erg.eps_sum + erg.cross_sum) / erg.aggregate_stepsize
                   - linalg.dot(z_a, v_a)))
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


@pytest.mark.parametrize("kind, instance, sigma, n", [
    pytest.param("affine_inclusion", "ppm", 0.0, 6,
                 id="affine_inclusion-ppm-0.0"),
    pytest.param("box_constrained_quadratic", "forward_backward", 0.5, 6,
                 id="box_constrained_quadratic-forward_backward-0.5"),
    pytest.param("bilinear_saddle", "tseng_fbf", 0.5, 6,
                 id="bilinear_saddle-tseng_fbf-0.5"),
    pytest.param("l1_composite", "forward_backward", 0.7, 6,
                 id="l1_composite-forward_backward-0.7"),
    pytest.param("l1_composite", "tseng_fbf", 0.5, 6,
                 id="l1_composite-tseng_fbf-0.5"),
    # no known solution above n = 12: the run takes its 5-row path and
    # records NaN distances
    pytest.param("box_constrained_quadratic", "forward_backward", 0.5, 13,
                 id="box_constrained_quadratic-forward_backward-0.5-n13"),
    pytest.param("bilinear_saddle", "tseng_fbf", 0.5, 64,
                 id="bilinear_saddle-tseng_fbf-0.5-n64"),
])
def test_run_matches_its_single_step_replay_bit_for_bit(kind, instance,
                                                        sigma, n):
    prob = operators.make_problem(kind, n, seed=11)
    p = params.HpeParams(alpha=0.2, sigma=sigma, beta=0.4)
    solver, floor = instances.make_inner_solver(prob, instance, p)
    stop = StoppingRule(rho=1e-9, eps_hat=1e-12, max_iters=150)
    state = run(prob, solver, p, stop=stop, lambda_floor=floor)
    assert state.k > 30
    assert (prob.known_solution is None) == (n == 13)
    assert_same_bits(state.trace,
                     replay(prob, solver, p, stop))


def separable_box_problem(n, seed, known=True):
    """``F(z) = d * z + c`` on the box ``[0, 1]^n``: solution ``clip(-c/d)``,
    given to the problem when ``known``."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n)
    c = rng.standard_normal(n)
    box = operators.BoxResolvent(np.zeros(n), np.ones(n))
    F = operators.ForwardMap(lambda z: d * z + c, float(d.max()),
                             cocoercive=True, project_domain=box.project,
                             linear=lambda dz: d * dz)
    return operators.TestProblem("separable_box", n, resolvent=box,
                                 forward=F,
                                 known_solution=(np.clip(-c / d, 0.0, 1.0)
                                                 if known else None))


@pytest.mark.parametrize("instance", ["forward_backward", "tseng_fbf"])
def test_run_matches_its_replay_at_a_million_coordinates(instance):
    n = 10 ** 6
    prob = separable_box_problem(n, seed=12)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    solver, floor = instances.make_inner_solver(prob, instance, p)
    stop = StoppingRule(rho=0.0, max_iters=16)
    state = run(prob, solver, p, stop=stop, lambda_floor=floor)
    assert state.k == 16
    assert_same_bits(state.trace, replay(prob, solver, p, stop))
    checks = bounds.audit(state.trace, bounds.BoundInputs(
        d0=prob.d0(), lambda_floor=floor, params=p))
    assert [c.status for c in checks] == [bounds.PASS] * len(checks)
    if instance == "forward_backward":
        # on the cap the criterion holds with equality up to round-off
        ratio = state.trace.column("error_ratio")
        assert np.all((1.0 - 1e-6 <= ratio) & (ratio <= 1.0 + 1e-9))


def test_run_refuses_a_certificate_of_another_dimension():
    # shape-(1,) vectors used to broadcast through step 1 and end at k=2
    # in a CertificationError about sigma=0
    prob = operators.make_problem("affine_inclusion", 4, seed=9)

    def short(w):
        return Certificate(z_tilde=np.ones(1), v=-np.ones(1), eps=0.0,
                           lam=1.0)

    with pytest.raises(DimensionMismatch, match="k=1"):
        run(prob, short, PLAIN, lambda_floor=1.0)

    def short_v(w):
        z, v = prob.resolvent.resolve(1.0, w)
        return Certificate(z_tilde=z, v=v[:1], eps=0.0, lam=1.0)

    with pytest.raises(DimensionMismatch, match="k=1"):
        run(prob, short_v, PLAIN, lambda_floor=1.0)


# -- block boundaries --------------------------------------------------------

# At n = 2500 a block holds the z~ and v of 6 steps.  With a known
# solution ("m4") a step's work array has 7 rows, without it ("m2") 5.
BLOCK_N = 2500
BLOCK_STEPS = hpe_core._BLOCK_FLOATS // (2 * BLOCK_N)


def stopping_at(solver, last):
    """``solver``, except that its call ``last`` returns ``v = 0`` at
    ``z~ = w``, an exact zero that fires any stopping rule."""
    calls = itertools.count(1)

    def stepped(w):
        cert = solver(w)
        if next(calls) != last:
            return cert
        return Certificate(z_tilde=w.copy(), v=np.zeros_like(w), eps=0.0,
                           lam=cert.lam)
    return stepped


@pytest.mark.parametrize("ending", ["stop", "cap"])
@pytest.mark.parametrize("known", [True, False], ids=["m4", "m2"])
def test_run_matches_its_replay_across_block_boundaries(monkeypatch, known,
                                                        ending):
    K = BLOCK_STEPS
    assert K == 6
    prob = separable_box_problem(BLOCK_N, seed=13, known=known)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    solver, floor = instances.make_inner_solver(prob, "forward_backward", p)
    recorded = []
    record = hpe_core._record

    def counted(trace, erg, block, steps, *rest):
        recorded.append((len(steps), block.shape))
        return record(trace, erg, block, steps, *rest)

    monkeypatch.setattr(hpe_core, "_record", counted)
    for length in (1, K - 1, K, K + 1, 2 * K + 3):
        def steps():
            # the run and its replay each count their own calls
            return stopping_at(solver, length) if ending == "stop" else solver

        stop = (StoppingRule() if ending == "stop"
                else StoppingRule(rho=0.0, max_iters=length))
        recorded.clear()
        state = run(prob, steps(), p, stop=stop, lambda_floor=floor)
        assert state.k == len(state.trace) == length
        assert state.verdict == ("solved" if ending == "stop"
                                 else "max_iters")
        # whole blocks of z~ and v, then the rest; a cap under K shrinks
        # the block
        size = K if ending == "stop" else min(K, length)
        assert recorded == [
            (held, (size, 2, BLOCK_N)) for held in [size] * (length // size)
            + [length % size] * (length % size > 0)]
        assert_same_bits(state.trace,
                         replay(prob, steps(), p, stop))


@pytest.mark.parametrize("fault, error", [
    (dict(eps=-1.0), CertificationError),
    (dict(eps=10.0), CertificationError),
    (dict(lam=1e-6), ParameterError),
], ids=["negative_eps", "criterion", "below_floor"])
@pytest.mark.parametrize("known", [True, False], ids=["m4", "m2"])
def test_a_step_that_fails_mid_block_ends_the_run_at_its_step(known, fault,
                                                              error):
    # no inner call follows a failed step, whatever the block holds
    last = BLOCK_STEPS + 2
    prob = separable_box_problem(BLOCK_N, seed=14, known=known)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    solver, floor = instances.make_inner_solver(prob, "forward_backward", p)

    calls = itertools.count(1)

    def failing(w):
        cert = solver(w)
        if next(calls) != last:
            return cert
        return cert._replace(**fault)

    rec = Recorder(failing)
    with pytest.raises(error, match=rf"at k={last}\b"):
        run(prob, rec, p, stop=StoppingRule(rho=0.0), lambda_floor=floor)
    assert len(rec.steps) == last
