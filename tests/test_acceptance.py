"""Acceptance suite: one test per criterion, each emitting one verdict line.

Criteria 3-5 and 8 share one bank of seeded runs (20 per inner-solver
kind, all on problems with independently computed exact solutions).
"""

import math

import numpy as np
import pytest

from monosplit import (BoundInputs, ErgodicState, HpeParams, StoppingRule,
                       assert_bounds, audit, bounds, instances, operators,
                       params, solve)
from oracles import enlargement_member
from recorder import classical_iterates, solve_recorded

STOP = StoppingRule(rho=1e-8, eps_hat=1e-10, max_iters=10 ** 5)
SIGMAS = (0.0, 0.25, 0.5, 0.75, 0.99)


def announce(num, detail):
    print(f"criterion {num}: PASS — {detail}")


def _run(kind, instance, dim, seed, alpha, sigma, beta, record=False):
    prob = operators.make_problem(kind, dim, seed)
    p = HpeParams(alpha=alpha, sigma=sigma, beta=beta)
    if record:
        state, rec = solve_recorded(prob, instance, p, stop=STOP)
    else:
        state, rec = solve(prob, instance, p, stop=STOP), None
    assert prob.known_solution is not None
    return {"problem": prob, "params": p, "state": state,
            "instance": instance, "recorder": rec}


@pytest.fixture(scope="module")
def suite():
    runs = {"ppm": [], "tseng_fbf": [], "forward_backward": []}
    alphas = (0.0, 0.1, 0.2, 0.3)
    for i, seed in enumerate(range(20)):
        runs["ppm"].append(_run(
            "affine_inclusion", "ppm", 4 + 2 * (i % 5), seed,
            alpha=alphas[i % 4], sigma=0.0, beta=0.35, record=True))
    for i, seed in enumerate(range(20)):
        runs["tseng_fbf"].append(_run(
            "bilinear_saddle", "tseng_fbf", 4 + 2 * (i % 4), seed,
            alpha=(0.0, 0.05, 0.1)[i % 3], sigma=(0.3, 0.6, 0.9)[i % 3],
            beta=0.4))
    for i, seed in enumerate(range(10)):
        runs["forward_backward"].append(_run(
            "box_constrained_quadratic", "forward_backward", 4 + (i % 5),
            seed, alpha=(0.0, 0.1)[i % 2], sigma=(0.5, 0.7, 0.99)[i % 3],
            beta=0.4))
    for i, seed in enumerate(range(10)):
        runs["forward_backward"].append(_run(
            "l1_composite", "forward_backward", 4 + (i % 5), seed,
            alpha=(0.0, 0.15)[i % 2], sigma=(0.5, 0.7, 0.99)[i % 3],
            beta=0.4))
    return runs


def all_runs(suite):
    for rs in suite.values():
        yield from rs


def test_criterion_1_parameter_identities():
    assert params.tau_of(0.0, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    for sigma in SIGMAS:
        tau = params.tau_of(sigma, 1.0 / 3.0)
        assert tau == pytest.approx(1.0 / (1.0 + sigma), abs=1e-12)
        assert tau >= 0.5
    announce(1, "tau(0,1/3)=1 and tau(sigma,1/3)=1/(1+sigma) to 1e-12")


def test_criterion_2_root_consistency():
    sigmas = np.linspace(0.0, 0.98, 100)
    betas = np.linspace(0.02, 0.98, 100)
    worst_root = 0.0
    for sigma in sigmas:
        for beta in betas:
            bp = params.beta_prime(sigma, beta)
            tau = params.tau_of(sigma, beta)
            eta = params.eta_of(sigma, tau)
            worst_root = max(worst_root, abs(params.q_value(bp, eta)))
    assert worst_root <= 1e-10
    announce(2, f"q(beta')=0 on 100x100 grid (worst {worst_root:.1e})")


def test_criterion_3_certificate_law(suite):
    total = 0
    for run in all_runs(suite):
        ratios = run["state"].trace.column("error_ratio")
        assert ratios.max() <= 1.0 + 1e-9
        total += ratios.shape[0]
    # boundary equality for the forward-backward instance at lam = 2 sigma^2/L
    boundary_hits = 0
    for run in suite["forward_backward"]:
        ratios = run["state"].trace.column("error_ratio")
        active = ratios[ratios > 1e-6]
        assert np.all((active >= 1.0 - 1e-6) & (active <= 1.0 + 1e-9))
        boundary_hits += active.shape[0]
    assert boundary_hits > 0
    announce(3, f"{total} certified steps, ratio <= 1+1e-9; "
                f"{boundary_hits} boundary-equality steps in [1-1e-6, 1+1e-9]")


def _inputs(run):
    state = run["state"]
    return BoundInputs(d0=run["problem"].d0(),
                       lambda_floor=state.lambda_floor, params=run["params"])


def test_criterion_4_fejer_and_energy_laws(suite):
    # the audit's allowances are the acceptance tolerances
    assert (bounds.BOUND_RTOL, bounds.ATOL) == (1e-8, 1e-9)
    checked = 0
    for run in all_runs(suite):
        # every run knows its solution and keeps alpha constant, so every
        # check applies
        trace, inp = run["state"].trace, _inputs(run)
        checks = audit(trace, inp)
        assert [c for c in checks if c.status != "pass"] == []
        # the relative descent slack stays under the absolute 1e-9, so the
        # Fejer and mu checks held to max(ATOL, DESCENT_RTOL * dist^2) = 1e-9
        scale = max(inp.d0, trace.column("dist_w").max(),
                    trace.column("dist_to_solution").max()) ** 2
        assert bounds.DESCENT_RTOL * scale <= 1e-9
        checked += 1
    announce(4, f"criterion/descent/summability/energy/mu/rate audit "
                f"passes on {checked} runs")


def test_criterion_5_rate_theorems(suite):
    worst = 0.0
    for run in all_runs(suite):
        state = run["state"]
        report = assert_bounds(state.trace, _inputs(run))
        assert state.trace.column("eps_a").min() >= -1e-9
        worst = max(worst, max(report["worst_utilization"].values()))
    assert worst <= 1.0 + 1e-8
    announce(5, f"pointwise + ergodic bounds on every prefix of every run "
                f"(worst utilization {worst:.3f})")


def test_criterion_6_oracle_equivalence(suite):
    rng = np.random.default_rng(0)
    prefixes_checked = 0
    for run in suite["ppm"]:
        T = run["problem"].resolvent.operator
        certs = run["recorder"].certificates
        n = len(certs)
        picks = sorted(set(rng.integers(1, n + 1, size=50).tolist()))
        erg = ErgodicState(dim=run["problem"].dim)
        targets = set(picks)
        for j, cert in enumerate(certs, start=1):
            _, _, eps_avg = erg.update(cert)
            if j in targets:
                z_avg, v_avg = erg.sums / erg.aggregate_stepsize
                assert enlargement_member(T, z_avg, v_avg,
                                          max(eps_avg[-1], 0.0))
                prefixes_checked += 1
    mismatch = 0.0
    for run in suite["forward_backward"]:
        prob = run["problem"]
        if prob.kind != "l1_composite":
            continue
        z = run["state"].z_curr
        mismatch = max(mismatch, float(np.max(np.abs(
            z - prob.known_solution))))
    assert mismatch <= 1e-6
    announce(6, f"ergodic enlargement membership at {prefixes_checked} "
                f"prefixes; l1 iterates within {mismatch:.1e} of the "
                f"sign-enumeration solution")


def test_criterion_7_reduction_checks():
    # exact proximal point: alpha=0, tau=1, sigma=0
    prob = operators.make_problem("affine_inclusion", 6, seed=100)
    plain = HpeParams(alpha=0.0, sigma=0.0, beta=1.0 / 3.0)
    iterates = classical_iterates(
        prob, lambda w: instances.ppm_step(prob.resolvent, w, 1.0), plain, 1.0)
    z = np.zeros(6)
    for k in range(1000):
        z, _ = prob.resolvent.resolve(1.0, z)
        np.testing.assert_allclose(iterates[k], z, atol=1e-12)

    # classical forward-backward; tau = 1 (to an ulp) at the floor of beta'
    prob = operators.make_problem("box_constrained_quadratic", 6, seed=101)
    sigma = 1.0 / math.sqrt(2.0)
    p = HpeParams(0.0, sigma, params.beta_prime_lower_bound(sigma))
    lam = 2.0 * sigma ** 2 / prob.forward.lipschitz_L
    iterates = classical_iterates(prob, lambda w: instances.fb_step(
        prob.forward, prob.resolvent, w, lam), p, lam)
    z = np.zeros(6)
    for k in range(1000):
        z, _ = prob.resolvent.resolve(lam, z - lam * prob.forward(z))
        np.testing.assert_allclose(iterates[k], z, atol=1e-12)

    # classical forward-backward-forward on the whole space
    prob = operators.make_problem("bilinear_saddle", 6, seed=102)
    sigma = 0.9
    p = HpeParams(0.0, sigma, params.beta_prime_lower_bound(sigma))
    lam = sigma / prob.forward.lipschitz_L
    iterates = classical_iterates(prob, lambda w: instances.tseng_step(
        prob.forward, prob.resolvent, w, lam), p, lam)
    F = prob.forward
    z = np.zeros(6)
    for k in range(1000):
        z_tilde = z - lam * F(z)
        z = z_tilde - lam * (F(z_tilde) - F(z))
        np.testing.assert_allclose(iterates[k], z, atol=1e-12)
    announce(7, "exact PP / classical FB / classical FBF reproduced to "
                "1e-12 per coordinate over 1000 steps")


def test_criterion_8_residual_convergence_within_budget(suite):
    worst_frac = 0.0
    for run in suite["ppm"]:
        state = run["state"]
        assert state.verdict == "solved"
        assert state.trace.column("norm_v")[-1] <= 1e-8
        d0 = run["problem"].d0()
        budget = math.ceil(d0 ** 2 / (state.lambda_floor ** 2 * 1e-8 ** 2))
        assert state.k <= budget
        worst_frac = max(worst_frac, state.k / budget)
    announce(8, f"||v|| <= 1e-8 on all affine runs within the iteration "
                f"budget (worst usage {worst_frac:.2e} of budget)")
