"""``ErgodicState.fold`` of a block against one ``update`` per step."""

import numpy as np
import pytest

from monosplit.ergodic import ErgodicState
from monosplit.hpe_core import Certificate

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402


def certificates(dim):
    """Certified-looking steps of ``dim``-vectors, with int and float
    stepsizes and zero and positive errors."""
    floats = strategies.floats
    vectors = hnp.arrays(float, dim, elements=floats(-1e3, 1e3))
    return strategies.builds(
        Certificate, z_tilde=vectors, v=vectors,
        eps=strategies.one_of(strategies.just(0.0), floats(0.0, 1e3)),
        lam=strategies.one_of(strategies.integers(1, 4), floats(1e-3, 1e3)))


@settings(max_examples=60, deadline=None)
@given(strategies.integers(1, 6).flatmap(lambda dim: strategies.tuples(
    strategies.lists(certificates(dim), max_size=4),
    strategies.lists(certificates(dim), min_size=1, max_size=9))))
@example(([], [Certificate(z_tilde=np.array([1.0, -2.0]),
                           v=np.array([0.5, 3.0]), eps=0.0, lam=2)]))
@example(([Certificate(z_tilde=np.array([0.1]), v=np.array([0.3]), eps=0.2,
                       lam=0.7)] * 3,
          [Certificate(z_tilde=np.array([0.2]), v=np.array([-0.1]), eps=0,
                       lam=1)] * 2))
def test_fold_of_a_block_is_its_updates_bit_for_bit(carried_and_block):
    carried, block = carried_and_block
    dim = block[0].v.shape[0]
    folded, updated = ErgodicState(dim), ErgodicState(dim)
    for cert in carried:
        folded.update(cert)
        updated.update(cert)
    columns = folded.fold(
        [c.lam for c in block], [c.eps for c in block],
        np.stack([np.stack((c.z_tilde, c.v)) for c in block]))
    one_by_one = np.concatenate(
        [updated.update(cert) for cert in block], axis=1)
    assert np.stack(columns).tobytes() == one_by_one.tobytes()
    for name in ("aggregate_stepsize", "eps_sum", "cross_sum"):
        assert type(getattr(folded, name)) is float
        assert (np.float64(getattr(folded, name)).tobytes()
                == np.float64(getattr(updated, name)).tobytes()), name
    assert folded.sums.tobytes() == updated.sums.tobytes()
