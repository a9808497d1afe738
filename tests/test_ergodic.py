import numpy as np
import pytest

from monosplit import hpe_core, instances, linalg, operators, params
from monosplit.ergodic import ErgodicState
from monosplit.errors import ParameterError
from monosplit.hpe_core import Certificate
from oracles import enlargement_member, transport
from recorder import solve_recorded


def direct_ergodic(certs):
    """O(k) recomputation of the averaged sequences straight from the sums."""
    Lam = sum(c.lam for c in certs)
    z_a = sum(c.lam * c.z_tilde for c in certs) / Lam
    v_a = sum(c.lam * c.v for c in certs) / Lam
    eps_a = sum(c.lam * (c.eps + linalg.inner(c.z_tilde - z_a, c.v))
                for c in certs) / Lam
    # second form: subtracting v_a changes nothing since the weights of
    # (z_tilde - z_a) sum to zero
    eps_b = sum(c.lam * (c.eps + linalg.inner(c.z_tilde - z_a, c.v - v_a))
                for c in certs) / Lam
    return Lam, z_a, v_a, eps_a, eps_b


def test_single_step_average_equals_pointwise():
    cert = Certificate(z_tilde=np.array([1.0, 2.0]), v=np.array([0.5, 0.0]),
                       eps=0.3, lam=2.0)
    st = ErgodicState(dim=2)
    _, v_avg_sq, eps_avg = st.update(cert)
    z_avg, v_avg = st.sums / st.aggregate_stepsize
    np.testing.assert_allclose(z_avg, cert.z_tilde, atol=1e-15)
    np.testing.assert_allclose(v_avg, cert.v, atol=1e-15)
    assert v_avg_sq[-1] == pytest.approx(linalg.norm_sq(cert.v), abs=1e-15)
    assert eps_avg[-1] == pytest.approx(cert.eps, abs=1e-12)
    assert st.aggregate_stepsize == 2.0


def test_two_step_antisymmetric_case():
    z = np.array([1.0, -1.0])
    v = np.array([2.0, 0.5])
    c1 = Certificate(z_tilde=z, v=v, eps=0.0, lam=1.0)
    c2 = Certificate(z_tilde=-z, v=-v, eps=0.0, lam=1.0)
    st = ErgodicState(dim=2)
    st.update(c1)
    _, v_avg_sq, eps_avg = st.update(c2)
    z_avg, v_avg = st.sums / st.aggregate_stepsize
    np.testing.assert_allclose(z_avg, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(v_avg, np.zeros(2), atol=1e-15)
    assert v_avg_sq[-1] == pytest.approx(0.0, abs=1e-30)
    _, _, _, eps_a, eps_b = direct_ergodic([c1, c2])
    assert eps_avg[-1] == pytest.approx(eps_a, abs=1e-12)
    assert eps_avg[-1] == pytest.approx(linalg.inner(z, v), abs=1e-12)
    assert eps_a == pytest.approx(eps_b, abs=1e-12)


def test_streaming_matches_direct_summation_on_a_run():
    prob = operators.make_problem("box_constrained_quadratic", 6, seed=20)
    p = params.HpeParams(alpha=0.1, sigma=0.7, beta=0.4)
    _, rec = solve_recorded(
        prob, "forward_backward", p,
        stop=hpe_core.StoppingRule(rho=1e-7, max_iters=10 ** 4))
    certs = rec.certificates
    for prefix in {1, 2, 5, len(certs) // 2, len(certs)}:
        st = ErgodicState(dim=prob.dim)
        for c in certs[:prefix]:
            _, v_avg_sq, eps_avg = st.update(c)
        Lam, z_a, v_a, eps_a, eps_b = direct_ergodic(certs[:prefix])
        assert st.aggregate_stepsize == pytest.approx(Lam, rel=1e-12)
        z_avg, v_avg = st.sums / st.aggregate_stepsize
        np.testing.assert_allclose(z_avg, z_a, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(v_avg, v_a, rtol=1e-10, atol=1e-12)
        assert v_avg_sq[-1] == pytest.approx(linalg.norm_sq(v_a), rel=1e-10,
                                             abs=1e-24)
        assert eps_avg[-1] == pytest.approx(eps_a, rel=1e-10, abs=1e-10)
        assert eps_a == pytest.approx(eps_b, rel=1e-10, abs=1e-10)


def test_eps_avg_nonnegative_along_whole_run():
    prob = operators.make_problem("l1_composite", 6, seed=21)
    p = params.HpeParams(alpha=0.2, sigma=0.9, beta=0.45)
    state = instances.solve(
        prob, "forward_backward", p,
        stop=hpe_core.StoppingRule(rho=1e-7, max_iters=10 ** 4))
    assert state.trace.column("eps_a").min() >= -1e-9


# -- transportation formula --------------------------------------------------

def test_transport_single_point_identity():
    z, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    z_a, v_a, e_a = transport([(z, v, 0.5)], [1.0])
    np.testing.assert_array_equal(z_a, z)
    np.testing.assert_array_equal(v_a, v)
    assert e_a == pytest.approx(0.5, abs=1e-15)


def test_transport_two_graph_points_quarter_formula():
    rng = np.random.default_rng(22)
    A = operators._psd_plus_skew(rng, 3, 0.2)
    T = operators.AffineOperator(A, rng.standard_normal(3))
    z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
    pts = [(z1, T(z1), 0.0), (z2, T(z2), 0.0)]
    z_a, v_a, e_a = transport(pts, [0.5, 0.5])
    expected = 0.25 * linalg.inner(z1 - z2, T(z1) - T(z2))
    assert e_a == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert e_a >= -1e-12  # monotonicity makes it nonnegative


def test_transport_membership_property():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A = operators._psd_plus_skew(rng, 4, 0.3)
        T = operators.AffineOperator(A, rng.standard_normal(4))
        m = int(rng.integers(2, 6))
        pts = []
        for _ in range(m):
            z = rng.standard_normal(4)
            pts.append((z, T(z), 0.0))
        w = rng.random(m)
        w /= w.sum()
        z_a, v_a, e_a = transport(pts, w)
        assert e_a >= -1e-12
        assert enlargement_member(T, z_a, v_a, max(e_a, 0.0))


def test_transport_weight_validation():
    pts = [(np.zeros(2), np.zeros(2), 0.0)] * 2
    with pytest.raises(ParameterError):
        transport(pts, [0.5, 0.6])
    with pytest.raises(ParameterError):
        transport(pts, [1.5, -0.5])
    with pytest.raises(ParameterError):
        transport(pts, [1.0])
