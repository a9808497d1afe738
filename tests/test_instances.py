import collections

import numpy as np
import pytest

from monosplit import hpe_core, instances, linalg, operators, params
from monosplit.errors import ParameterError
from monosplit.instances import fb_step, ppm_step, solve, tseng_step
from monosplit.operators import (AffineOperator, AffineResolvent,
                                 BoxResolvent, ZeroResolvent, make_problem)
from oracles import (bits, certify, enlargement_member, old_fb_step,
                     old_ppm_step, old_tseng_step)
from recorder import classical_iterates


def test_instance_config_rejects_unknown_kind():
    prob = make_problem("box_constrained_quadratic", 4, seed=0)
    p = params.HpeParams(alpha=0.1, sigma=0.5, beta=0.4)
    with pytest.raises(ParameterError) as exc:
        instances.make_inner_solver(prob, "nope", p)
    assert str(exc.value) == (f"unknown instance kind 'nope'; choose from "
                              f"{instances.INSTANCE_KINDS}")
    with pytest.raises(ParameterError):
        solve(prob, "momentum", p)


# -- ppm ---------------------------------------------------------------------

def test_ppm_step_zero_operator():
    cert = ppm_step(ZeroResolvent(), np.array([1.0, -2.0]), 1.0)
    np.testing.assert_array_equal(cert.z_tilde, [1.0, -2.0])
    np.testing.assert_array_equal(cert.v, [0.0, 0.0])
    assert cert.eps == 0.0


def test_ppm_step_affine():
    B = AffineResolvent(AffineOperator(np.eye(2), np.zeros(2)))
    cert = ppm_step(B, np.array([2.0, 4.0]), 1.0)
    np.testing.assert_allclose(cert.z_tilde, [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(cert.v, [1.0, 2.0], atol=1e-14)
    assert certify(cert, np.array([2.0, 4.0]), sigma=0.0) == 0.0


def test_ppm_step_box_projection_displacement():
    B = BoxResolvent(np.zeros(2), np.ones(2))
    w = np.array([3.0, 0.5])
    cert = ppm_step(B, w, 2.0)
    np.testing.assert_array_equal(cert.z_tilde, [1.0, 0.5])
    np.testing.assert_array_equal(cert.v, [1.0, 0.0])


# -- tseng -------------------------------------------------------------------

def test_tseng_step_stepsize_cap():
    # make_inner_solver refuses before any step runs
    prob = make_problem("bilinear_saddle", 4, seed=0)
    p0 = params.HpeParams(alpha=0.1, sigma=0.0, beta=0.4)
    with pytest.raises(ParameterError,
                       match=r"tseng needs sigma in \(0, 1\), got 0\.0"):
        instances.make_inner_solver(prob, "tseng_fbf", p0)


def test_tseng_step_zero_forward_reduces_to_ppm():
    prob = make_problem("affine_inclusion", 4, seed=1)
    F0 = operators.ForwardMap(lambda z: np.zeros_like(z), lipschitz_L=1.0,
                              linear=lambda d: np.zeros_like(d))
    rng = np.random.default_rng(2)
    w = rng.standard_normal(4)
    c1 = tseng_step(F0, prob.resolvent, w, lam=0.4)
    c2 = ppm_step(prob.resolvent, w, 0.4)
    np.testing.assert_allclose(c1.z_tilde, c2.z_tilde, atol=1e-14)
    np.testing.assert_allclose(c1.v, c2.v, atol=1e-12)
    assert c1.eps == 0.0


def test_tseng_step_fixed_point():
    prob = make_problem("bilinear_saddle", 4, seed=3)
    sigma = 0.5
    lam = sigma / prob.forward.lipschitz_L
    cert = tseng_step(prob.forward, prob.resolvent, prob.known_solution, lam)
    assert linalg.norm(cert.v) <= 1e-10
    assert certify(cert, prob.known_solution, sigma) <= 1e-9


def test_tseng_inclusion_exactness():
    # v - F(z~) must be exactly what the resolvent certified as a member
    # of B(z~)
    prob = make_problem("box_constrained_quadratic", 5, seed=4)
    sigma = 0.5
    lam = sigma / prob.forward.lipschitz_L
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.standard_normal(5)
        cert = tseng_step(prob.forward, prob.resolvent, w, lam)
        w_proj = prob.forward.project_domain(w)
        _, b_member = prob.resolvent.resolve(
            lam, w - lam * prob.forward(w_proj))
        gap = cert.v - prob.forward(cert.z_tilde) - b_member
        assert linalg.norm(gap) <= 1e-10


def test_tseng_certificates_pass_on_seeded_run():
    prob = make_problem("bilinear_saddle", 8, seed=6)
    p = params.HpeParams(alpha=0.1, sigma=0.9, beta=0.4)
    state = solve(prob, "tseng_fbf", p,
                  stop=hpe_core.StoppingRule(rho=1e-8, max_iters=10 ** 5))
    assert state.verdict == "solved"
    assert state.trace.column("error_ratio").max() <= 1.0 + 1e-9


# -- forward-backward --------------------------------------------------------

def test_fb_step_requirements():
    # make_inner_solver refuses before any step runs
    prob = make_problem("box_constrained_quadratic", 4, seed=7)
    p = params.HpeParams(alpha=0.1, sigma=0.5, beta=0.4)
    p0 = params.HpeParams(alpha=0.1, sigma=0.0, beta=0.4)
    with pytest.raises(
            ParameterError,
            match=r"forward-backward needs sigma in \(0, 1\), got 0\.0"):
        instances.make_inner_solver(prob, "forward_backward", p0)
    saddle = make_problem("bilinear_saddle", 4, seed=8)
    with pytest.raises(ParameterError, match="needs a cocoercive map"):
        instances.make_inner_solver(saddle, "forward_backward", p)


def test_fb_step_boundary_ratio_and_residual():
    prob = make_problem("box_constrained_quadratic", 5, seed=9)
    sigma = 0.7
    lam = 2.0 * sigma ** 2 / prob.forward.lipschitz_L
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = rng.standard_normal(5) * 2
        cert = fb_step(prob.forward, prob.resolvent, w, lam)
        # the residual lam v + z~ - w vanishes identically
        assert linalg.norm(cert.lam * cert.v + cert.z_tilde - w) <= 1e-14
        assert cert.eps == pytest.approx(prob.forward.lipschitz_L
                                         * linalg.norm_sq(cert.z_tilde - w)
                                         / 4.0)
        if linalg.norm(cert.z_tilde - w) > 1e-8:
            ratio = certify(cert, w, sigma)
            assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-9


def test_fb_step_fixed_point():
    prob = make_problem("box_constrained_quadratic", 5, seed=11)
    sigma = 0.6
    lam = 2.0 * sigma ** 2 / prob.forward.lipschitz_L
    cert = fb_step(prob.forward, prob.resolvent, prob.known_solution, lam)
    assert linalg.norm(cert.v) <= 1e-9
    assert cert.eps <= 1e-18


def test_fb_membership_via_enlargement_oracle():
    # F(w) lies in the eps-enlargement of the affine forward map at z~
    prob = make_problem("l1_composite", 5, seed=12)
    M, y = prob.data["matrix"], prob.data["observation"]
    F_affine = AffineOperator(M.T @ M, -(M.T @ y))
    sigma = 0.8
    lam = 2.0 * sigma ** 2 / prob.forward.lipschitz_L
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = rng.standard_normal(5)
        cert = fb_step(prob.forward, prob.resolvent, w, lam)
        assert enlargement_member(F_affine, cert.z_tilde, prob.forward(w),
                                  cert.eps)


# -- classical reductions (alpha = 0; tau = 1 at the floor of beta') ----------

def test_fb_reduction_to_classical_iterates():
    prob = make_problem("l1_composite", 6, seed=14)
    sigma = 1.0 / math_sqrt2()
    p = params.HpeParams(0.0, sigma, params.beta_prime_lower_bound(sigma))
    lam = 2.0 * sigma ** 2 / prob.forward.lipschitz_L
    iterates = classical_iterates(
        prob, lambda w: fb_step(prob.forward, prob.resolvent, w, lam), p, lam)
    z = np.zeros(6)
    assert len(iterates) == 1000
    for k in range(1000):
        z, _ = prob.resolvent.resolve(lam, z - lam * prob.forward(z))
        np.testing.assert_allclose(iterates[k], z, atol=1e-12)


@pytest.mark.parametrize("alpha, steps", [(0.0, 402), (0.2, 319)])
def test_tseng_difference_does_not_cancel_near_the_solution(alpha, steps):
    # F(z~) - F(P(w)) as two forward values used to cancel and push the
    # ratio past 1 + 1e-9 at k=373 (alpha 0) and k=302 (alpha 0.2)
    prob = make_problem("box_constrained_quadratic", 5, 13)
    p = params.HpeParams(alpha=alpha, sigma=0.9, beta=0.4)
    state = solve(prob, "tseng_fbf", p,
                  stop=hpe_core.StoppingRule(rho=1e-8, eps_hat=1e-12))
    assert (state.verdict, state.k) == ("solved", steps)
    assert state.trace.column("error_ratio").max() <= 1.0 + 1e-9


def test_tseng_reduction_to_classical_iterates():
    # on B = 0 the scheme is z_k = z~_k - lam (F(z~_k) - F(z_{k-1}))
    prob = make_problem("bilinear_saddle", 6, seed=15)
    sigma = 0.9
    p = params.HpeParams(0.0, sigma, params.beta_prime_lower_bound(sigma))
    lam = sigma / prob.forward.lipschitz_L
    iterates = classical_iterates(prob, lambda w: tseng_step(
        prob.forward, prob.resolvent, w, lam), p, lam)
    F = prob.forward
    z = np.zeros(6)
    assert len(iterates) == 1000
    for k in range(1000):
        z_tilde = z - lam * F(z)
        z_new = z_tilde - lam * (F(z_tilde) - F(z))
        np.testing.assert_allclose(iterates[k], z_new, atol=1e-12)
        z = z_new


def math_sqrt2():
    return 2.0 ** 0.5


# -- wiring ------------------------------------------------------------------

def test_make_inner_solver_enforces_sigma_for_ppm():
    prob = make_problem("affine_inclusion", 4, seed=16)
    p = params.HpeParams(alpha=0.1, sigma=0.5, beta=0.4)
    with pytest.raises(ParameterError):
        instances.make_inner_solver(prob, "ppm", p)


def test_make_inner_solver_requires_structure():
    prob = make_problem("affine_inclusion", 4, seed=17)
    p = params.HpeParams(alpha=0.1, sigma=0.5, beta=0.4)
    for kind in ("tseng_fbf", "forward_backward"):
        with pytest.raises(ParameterError,
                           match=f"^{kind} needs a forward map with known L$"):
            instances.make_inner_solver(prob, kind, p)


def test_default_stepsizes_sit_at_the_caps():
    prob = make_problem("box_constrained_quadratic", 4, seed=18)
    p = params.HpeParams(alpha=0.1, sigma=0.5, beta=0.4)
    plain = make_problem("affine_inclusion", 4, seed=18)
    p0 = params.HpeParams(alpha=0.1, sigma=0.0, beta=0.4)
    L = prob.forward.lipschitz_L
    assert instances.make_inner_solver(plain, "ppm", p0)[1] == 1.0
    assert instances.make_inner_solver(prob, "tseng_fbf", p)[1] == 0.5 / L
    assert instances.make_inner_solver(
        prob, "forward_backward", p)[1] == 0.5 / L


def test_a_stepsize_that_underflows_is_refused():
    # 2 sigma^2 / L is 0 at sigma = 1e-200; a step would divide by it
    prob = make_problem("box_constrained_quadratic", 4, seed=19)
    p = params.HpeParams(alpha=0.1, sigma=1e-200, beta=0.4)
    with pytest.raises(ParameterError,
                       match=r"^stepsize must be positive, got 0\.0$"):
        instances.make_inner_solver(prob, "forward_backward", p)


# -- the steps against the steps as first written ----------------------------

def step_pairs(n, seed):
    """``(kind, dim, F, B, project)`` of each zoo kind at about ``n``, with
    ``F``'s domain projection as first written.

    The box, saddle (``n`` rounded up to even) and l1 problems bring their
    own pairs; the affine resolvent is paired with the box problem's
    forward map, taken on the whole space.
    """
    box = make_problem("box_constrained_quadratic", n, seed)
    lower, upper = box.resolvent.lower, box.resolvent.upper
    pairs = [("box_constrained_quadratic", n, box.forward, box.resolvent,
              lambda w: np.clip(w, lower, upper))]
    for kind, dim in (("bilinear_saddle", n + n % 2), ("l1_composite", n)):
        prob = make_problem(kind, dim, seed)
        pairs.append((kind, dim, prob.forward, prob.resolvent, lambda w: w))
    F = box.forward
    whole = operators.ForwardMap(F.fun, F.lipschitz_L, cocoercive=True,
                                 linear=F.linear)
    affine = make_problem("affine_inclusion", n, seed)
    pairs.append(("affine_inclusion", n, whole, affine.resolvent,
                  lambda w: w))
    return pairs


def step_points(n, rng):
    """Normal points, spread past the unit box, and one of signed zeros
    and points on its bounds."""
    edge = np.resize([0.0, -0.0, 1.0, 0.5, 2.0, -1.0, -0.0], n)
    return [2.0 * rng.standard_normal(n) for _ in range(3)] + [edge]


def assert_same_certificate(cert, expected, where):
    got = (cert.z_tilde, cert.v, cert.eps, cert.lam)
    for name, x, y in zip(("z_tilde", "v", "eps", "lam"), got, expected):
        assert bits(x) == bits(y), (name,) + where


@pytest.mark.parametrize("n", [1, 2, 5, 8, 64])
def test_steps_are_the_steps_as_first_written_bit_for_bit(n):
    # the point maps replace a copy and zeros, np.clip, lu_solve and each
    # resolvent's discarded v; every certificate keeps its bits
    for seed in (0, 1, 7):
        rng = np.random.default_rng(seed)
        for kind, dim, F, B, project in step_pairs(n, seed):
            for lam in (0.5 / F.lipschitz_L, 1, 0.5):
                for i, w in enumerate(step_points(dim, rng)):
                    where = (kind, seed, lam, i)
                    assert_same_certificate(tseng_step(F, B, w, lam),
                                            old_tseng_step(F, B, w, lam,
                                                           project),
                                            where)
                    assert_same_certificate(fb_step(F, B, w, lam),
                                            old_fb_step(F, B, w, lam),
                                            where)
                    assert_same_certificate(ppm_step(B, w, lam),
                                            old_ppm_step(B, w, lam), where)


class CountingResolvent:
    """A resolvent oracle that counts its ``point`` and ``resolve`` calls."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = collections.Counter()

    def point(self, lam, w):
        self.calls["point"] += 1
        return self.oracle.point(lam, w)

    def resolve(self, lam, w):
        self.calls["resolve"] += 1
        return self.oracle.resolve(lam, w)


@pytest.mark.parametrize("step", [tseng_step, fb_step])
def test_splitting_steps_take_one_point_and_no_resolve(step):
    rng = np.random.default_rng(20)
    for kind, dim, F, B, _ in step_pairs(4, seed=20):
        counting = CountingResolvent(B)
        step(F, counting, rng.standard_normal(dim), 0.5 / F.lipschitz_L)
        assert counting.calls == {"point": 1}, kind


# -- steps write only into arrays of their own -------------------------------

class CopyingResolvent:
    """``oracle``'s point map, handing back a copy of each point."""

    def __init__(self, oracle):
        self.oracle = oracle

    def point(self, lam, w):
        return self.oracle.point(lam, w).copy()


# The cached values of the constant map and of its linear part.
SHIFT = np.linspace(-1.0, 2.0, 5)
ZERO = np.zeros(5)


def sharing_problems():
    """``(name, problem, copying)``: a problem whose forward map's ``fun``
    and ``linear`` return their argument or a cached array, and whose
    resolvent's ``point`` may return its input, and the same problem with
    each of those results copied.

    The identity map (1-cocoercive) goes with a box that excludes the
    origin, and the constant map ``SHIFT`` (cocoercive at any ``L``) with
    the box and the zero resolvent, so that every run from the origin
    moves.
    """
    n = SHIFT.shape[0]
    maps = {"identity": (lambda z: z, lambda d: d),
            "constant": (lambda z: SHIFT, lambda d: ZERO)}
    resolvents = {"zero": ZeroResolvent(),
                  "box": BoxResolvent(np.full(n, 0.5), np.full(n, 2.0))}
    for fname, bname in (("identity", "box"), ("constant", "box"),
                         ("constant", "zero")):
        (fun, linear), B = maps[fname], resolvents[bname]
        sharing = operators.ForwardMap(fun, 1.0, linear=linear,
                                       cocoercive=True)
        copying = operators.ForwardMap(lambda z, f=fun: f(z).copy(), 1.0,
                                       linear=lambda d, f=linear: f(d).copy(),
                                       cocoercive=True)
        yield (f"{fname}-{bname}",
               operators.TestProblem("sharing", n, B, forward=sharing),
               operators.TestProblem("copying", n, CopyingResolvent(B),
                                     forward=copying))


class Snapshots:
    """Wrap an inner solver; keep each point it is handed and each
    certificate it returns, with the bits of each taken at once."""

    def __init__(self, solver):
        self.solver = solver
        self.kept = []

    def __call__(self, w):
        cert = self.solver(w)
        arrays = (w,) + tuple(cert)
        self.kept.append((arrays, [bits(x) for x in arrays]))
        return cert

    def assert_unchanged(self):
        for arrays, taken in self.kept:
            assert [bits(x) for x in arrays] == taken


@pytest.mark.parametrize("kind", ["tseng_fbf", "forward_backward"])
def test_steps_write_only_into_arrays_of_their_own(kind):
    # a step that wrote into what F, F.linear or B.point returned would
    # change a point the driver handed it, a cached array or an earlier
    # certificate, and the run would differ from one with copying maps
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    stop = hpe_core.StoppingRule(rho=1e-9, max_iters=40)
    for name, sharing, copying in sharing_problems():
        states = []
        for prob in (sharing, copying):
            solver, lam = instances.make_inner_solver(prob, kind, p)
            kept = Snapshots(solver)
            states.append(hpe_core.run(prob, kept, p, stop=stop,
                                       lambda_floor=lam))
            kept.assert_unchanged()
        shared, copied = states
        assert shared.k == copied.k > 1, name
        assert bits(shared.z_curr) == bits(copied.z_curr), name
        for column in shared.trace.columns:
            assert (bits(shared.trace.column(column))
                    == bits(copied.trace.column(column))), (name, column)
    assert bits(SHIFT) == bits(np.linspace(-1.0, 2.0, 5))
    assert bits(ZERO) == bits(np.zeros(5))
