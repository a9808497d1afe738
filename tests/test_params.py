import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from monosplit import params
from monosplit.errors import ParameterError

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

mpmath.mp.dps = 50

SIGMAS = (0.0, 0.25, 0.5, 0.75, 0.99)


def mp_lower_bound(sigma):
    s = mpmath.mpf(sigma)
    return 2 * (1 - s) / (3 - s + mpmath.sqrt(9 + 2 * s - 7 * s ** 2))


def mp_tau(sigma, beta):
    s = mpmath.mpf(sigma)
    bp = max(mpmath.mpf(beta), mp_lower_bound(s))
    d = bp - 1
    return 2 * d * d / ((1 + s) * (2 * d * d + 3 * bp - 1))


# -- closed-form scalar maps -------------------------------------------------

def test_beta_prime_sigma_zero_floor():
    assert params.beta_prime(0.0, 0.1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert params.beta_prime(0.0, 0.5) == 0.5


def test_beta_prime_high_sigma_against_high_precision():
    lb = params.beta_prime_lower_bound(0.99)
    assert lb == pytest.approx(float(mp_lower_bound(0.99)), rel=1e-13)
    assert lb < 0.005  # tiny floor, so beta wins the max
    assert params.beta_prime(0.99, 0.2) == 0.2


def test_tau_identities():
    assert params.tau_of(0.0, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    for sigma in SIGMAS:
        assert params.tau_of(sigma, 1.0 / 3.0) == pytest.approx(
            1.0 / (1.0 + sigma), abs=1e-12)
        assert params.tau_of(sigma, 1.0 / 3.0) >= 0.5


def test_tau_half_case_against_high_precision():
    assert params.tau_of(0.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    for sigma in SIGMAS:
        for beta in (0.05, 1.0 / 3.0, 0.4, 0.6, 0.9):
            assert params.tau_of(sigma, beta) == pytest.approx(
                float(mp_tau(sigma, beta)), rel=1e-13)


def test_tau_monotone_nonincreasing_in_beta():
    for sigma in SIGMAS:
        grid = np.linspace(1.0 / 3.0, 0.999, 200)
        taus = [params.tau_of(sigma, b) for b in grid]
        assert all(t2 <= t1 + 1e-15 for t1, t2 in zip(taus, taus[1:]))
        assert all(0.0 < t <= 1.0 for t in taus)


def test_eta_values():
    assert params.eta_of(0.0, 1.0) == 1.0
    assert params.eta_of(0.5, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-14)
    assert params.eta_of(0.0, 0.5) == 3.0
    with pytest.raises(ParameterError):
        params.eta_of(0.0, 1.5)


def test_q_value_cases():
    for a in (-1.0, 0.0, 0.3, 2.0):
        assert params.q_value(a, 1.0) == pytest.approx(1.0 - 3.0 * a, abs=1e-14)
    assert params.q_value(0.0, 2.5) == 2.5
    assert params.q_value(0.5, 3.0) == 0.0


# -- bundle construction and validation -------------------------------------

def test_from_beta_plain_case():
    p = params.HpeParams(alpha=0.0, sigma=0.0, beta=1.0 / 3.0)
    assert p.tau == pytest.approx(1.0, abs=1e-12)
    assert p.eta == pytest.approx(1.0, abs=1e-12)
    assert p.q_alpha == pytest.approx(1.0, abs=1e-12)


def test_from_beta_high_sigma_case():
    p = params.HpeParams(alpha=0.3, sigma=0.99, beta=1.0 / 3.0)
    assert p.tau == pytest.approx(1.0 / 1.99, abs=1e-12)
    assert p.eta == pytest.approx(1.0, abs=1e-12)
    assert p.q_alpha == pytest.approx(0.1, abs=1e-12)


def test_from_beta_rejects_alpha_at_least_beta():
    with pytest.raises(ParameterError):
        params.HpeParams(alpha=0.4, sigma=0.0, beta=1.0 / 3.0)


@pytest.mark.parametrize("alpha", [10 ** 400, -(10 ** 400)],
                         ids=["huge", "huge_negative"])
def test_alpha_beyond_the_float_range_is_refused_by_its_range(alpha):
    # the range check must come before q(alpha), which overflows here
    with pytest.raises(ParameterError, match="need 0 <= alpha < beta < 1"):
        params.HpeParams(alpha, 0.5, 0.4)


def _chosen(bundle):
    """The values a caller chooses, as ``from_dict`` takes them."""
    return dataclasses.asdict(bundle)


def test_dict_roundtrip():
    p = params.HpeParams(alpha=0.2, sigma=0.7, beta=0.5)
    assert _chosen(p) == {"alpha": 0.2, "sigma": 0.7, "beta": 0.5}
    assert params.HpeParams.from_dict(_chosen(p)) == p


def test_from_dict_refuses_tau_off_the_closed_form_at_beta():
    # tau is derived: a dict that names it is refused, even at its closed
    # form, rather than silently ignored
    for tau in (0.3, 0.5, params.tau_of(0.5, 0.4)):
        for d in ({"tau": tau}, {"alpha": 0.1, "sigma": 0.5, "beta": 0.4,
                                 "tau": tau}):
            with pytest.raises(ParameterError, match="tau is derived"):
                params.HpeParams.from_dict(d)
    # a key the bundle does not take is refused, not quietly defaulted
    for key, value in (("ramp_iters", 10), ("ramp_iters", 0),
                       ("sigam", 0.5)):
        with pytest.raises(ParameterError, match=re.escape(
                f"unknown parameters: ['{key}']")):
            params.HpeParams.from_dict({"alpha": 0.3, key: value})


@given(alpha=st.floats(0.0, 1.0, exclude_max=True),
       sigma=st.floats(0.0, 1.0, exclude_max=True),
       beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bundle_roundtrips_or_is_refused(alpha, sigma, beta):
    try:
        p = params.HpeParams(alpha, sigma, beta)
    except ParameterError:
        return
    assert params.HpeParams.from_dict(_chosen(p)) == p
    assert p.tau == params.tau_of(sigma, beta)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.9])
def test_admissibility_near_beta_one_is_one_clean_cut(sigma):
    # 3000 log-spaced 1 - beta: the bundle accepts every beta up to the
    # named gap and refuses every one beyond it, always with one message
    gaps = np.logspace(-15, -1, 3000)[::-1]
    accepted = []
    for gap in gaps:
        try:
            params.HpeParams(0.0, sigma, 1.0 - gap)
        except ParameterError as exc:
            accepted.append(False)
            assert re.fullmatch(r"beta' = \S+ is within 0\.001 of 1",
                                str(exc))
        else:
            accepted.append(True)
    cut = accepted.index(False)
    assert not any(accepted[cut:])
    assert gaps[cut] < params.MIN_BETA_PRIME_GAP <= gaps[cut - 1]


def test_derived_values_are_not_settable():
    p = params.HpeParams(alpha=0.1, sigma=0.5, beta=0.4)
    assert [f.name for f in dataclasses.fields(p)] == [
        "alpha", "sigma", "beta"]
    for name in ("tau", "eta", "beta_prime", "q_alpha"):
        with pytest.raises(TypeError):
            params.HpeParams(0.1, 0.5, 0.4, **{name: getattr(p, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0.5)


def test_energy_inflation_plain_case():
    p = params.HpeParams(alpha=0.0, sigma=0.0, beta=1.0 / 3.0)
    assert p.energy_inflation() == 1.0
    p = params.HpeParams(alpha=0.3, sigma=0.0, beta=1.0 / 3.0)
    # 1 + 2*0.3*1.3 / (0.49 * 0.1)
    assert p.energy_inflation() == pytest.approx(
        1.0 + 0.78 / 0.049, rel=1e-12)
