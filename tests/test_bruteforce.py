"""The batched 3^n solution oracles against the pattern-by-pattern loops.

``box_loop`` and ``l1_loop`` are the enumerators as first written: one
pattern at a time, in ``itertools.product`` order.  The batched oracles
in :mod:`monosplit.operators` must return their answers bit for bit.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from monosplit import linalg
from monosplit.errors import OracleError
from monosplit.operators import (make_problem, solve_box_qp_bruteforce,
                                 solve_l1_bruteforce)


# -- the reference loops -----------------------------------------------------

def box_loop(Q, c, lower, upper, tol=1e-9):
    Q = np.asarray(Q, dtype=float)
    c = linalg.as_vector(c)
    n = c.shape[0]
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pattern = np.array(pattern)
        z = np.where(pattern == -1, lower, np.where(pattern == 1, upper, 0.0))
        free = pattern == 0
        if free.any():
            try:
                z_free = np.linalg.solve(
                    Q[np.ix_(free, free)],
                    -c[free] - Q[np.ix_(free, ~free)] @ z[~free])
            except np.linalg.LinAlgError:
                continue
            z = z.copy()
            z[free] = z_free
        if np.any(z < lower - tol) or np.any(z > upper + tol):
            continue
        g = Q @ z + c
        ok = True
        for i in range(n):
            if pattern[i] == -1 and g[i] < -tol:
                ok = False
            elif pattern[i] == 1 and g[i] > tol:
                ok = False
            elif pattern[i] == 0 and abs(g[i]) > 1e-7 * (1 + abs(c[i])):
                ok = False
        if ok:
            return np.clip(z, lower, upper)
    raise OracleError("active-set enumeration found no stationary point")


def l1_loop(M, y, weight, tol=1e-9):
    M = np.asarray(M, dtype=float)
    y = linalg.as_vector(y)
    n = M.shape[1]
    G = M.T @ M
    h = M.T @ y
    best = None
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        s = np.array(pattern, dtype=float)
        support = s != 0.0
        x = np.zeros(n)
        if support.any():
            try:
                x_s = np.linalg.solve(
                    G[np.ix_(support, support)],
                    h[support] - weight * s[support])
            except np.linalg.LinAlgError:
                continue
            if np.any(x_s * s[support] < -tol):
                continue
            x[support] = x_s
        grad = G @ x - h
        if support.any() and np.any(
                np.abs(grad[support] + weight * s[support]) > 1e-7):
            continue
        if np.any(np.abs(grad[~support]) > weight + 1e-9):
            continue
        obj = 0.5 * linalg.norm_sq(M @ x - y) + weight * np.abs(x).sum()
        if best is None or obj < best[0]:
            best = (obj, x)
    if best is None:
        raise OracleError("sign enumeration found no KKT point")
    return best[1]


def _box_reference(prob):
    d = prob.data
    return box_loop(d["matrix"], d["offset"], d["lower"], d["upper"])


def _l1_reference(prob):
    d = prob.data
    return l1_loop(d["matrix"], d["observation"], d["l1_weight"])


# -- bit for bit on zoo data -------------------------------------------------

# (dimension, number of seeds): the loops cost 3^n solves per seed
_ZOO_SIZES = ((4, 100), (5, 100), (6, 20), (8, 3))
_REFERENCES = {"box_constrained_quadratic": _box_reference,
               "l1_composite": _l1_reference}


@pytest.mark.parametrize("kind", sorted(_REFERENCES))
@pytest.mark.parametrize("n,seeds", _ZOO_SIZES)
def test_zoo_solution_is_the_loops_bit_for_bit(kind, n, seeds):
    for seed in range(seeds):
        prob = make_problem(kind, n, seed)  # calls the batched oracle
        expected = _REFERENCES[kind](prob)
        assert prob.known_solution.tobytes() == expected.tobytes(), seed


# -- cases random data never reaches ----------------------------------------

def test_box_returns_the_first_of_two_stationary_patterns():
    # (0, -1) gives z0 = 1 - 5e-10 and (1, -1) gives z0 = 1; both pass
    # the exact check, and (0, -1) comes first
    Q, c = np.eye(2), np.array([-(1 - 5e-10), 0.5])
    lower, upper = np.zeros(2), np.ones(2)
    z = solve_box_qp_bruteforce(Q, c, lower, upper)
    assert z[0] == 1 - 5e-10
    assert z.tobytes() == box_loop(Q, c, lower, upper).tobytes()


def test_l1_keeps_the_first_of_two_tied_kkt_points():
    # sign patterns (0, -1) and (1, -1) both pass the exact check, and
    # their objectives round to the same float: the strict < keeps (0, -1)
    M, y, weight = np.eye(2), np.array([0.1 + 5e-10, -1.0]), 0.1
    x = solve_l1_bruteforce(M, y, weight)
    assert x[0] == 0.0
    assert x.tobytes() == l1_loop(M, y, weight).tobytes()


def test_l1_skips_singular_supports_as_the_loop_does():
    # columns 0 and 1 are equal, so every support holding both has a
    # singular G_SS, and the stack of supports of size 2 is solved pattern
    # by pattern; the solution's support {1, 2} is in that stack
    M = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    y, weight = np.array([1.0, 1.0, 2.0]), 0.1
    G = M.T @ M
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(G[:2, :2], np.ones(2))
    x = solve_l1_bruteforce(M, y, weight)
    assert list(x != 0.0) == [False, True, True]
    assert x.tobytes() == l1_loop(M, y, weight).tobytes()


# -- bounded memory ----------------------------------------------------------

def traced_peak(fn):
    """The most memory ``fn()`` holds at once, in bytes allocated through
    Python (numpy arrays included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", sorted(_REFERENCES))
def test_oracle_memory_stays_bounded_at_n9(kind):
    # the patterns are generated a chunk at a time: the whole 3^9 x 9
    # pattern array alone would take 1.4 MB
    d = make_problem(kind, 9, seed=1).data
    if kind == "l1_composite":
        args = (d["matrix"], d["observation"], d["l1_weight"])
        oracle = solve_l1_bruteforce
    else:
        args = (d["matrix"], d["offset"], d["lower"], d["upper"])
        oracle = solve_box_qp_bruteforce
    assert traced_peak(lambda: oracle(*args)) < 1_000_000


@pytest.mark.parametrize("kind", ["affine_inclusion",
                                  "box_constrained_quadratic"])
def test_dense_memory_stays_bounded_at_n400(kind):
    # a build holds at most two n x n float64 arrays at once; the first
    # resolvent step adds one (lam A + I, factored in place) and the n^2
    # bool mask of lu_factor's finiteness check; a cached step adds no n x n
    # array.  The slack covers vectors, the affine build's block of skew
    # rows and fixed overheads.
    n = 400
    square, slack = 8 * n * n, 64 * 8 * n
    assert traced_peak(lambda: make_problem(kind, n, seed=1)) \
        <= 2 * square + slack
    if kind == "affine_inclusion":
        resolvent = make_problem(kind, n, seed=1).resolvent
        w = np.ones(n)
        assert traced_peak(lambda: resolvent.resolve(0.5, w)) \
            <= square + n * n + slack
        assert traced_peak(lambda: resolvent.resolve(0.5, w)) < n * n


def test_affine_resolvent_holds_the_latest_factor_only(monkeypatch):
    # three stepsizes leave one n x n factor held, not one per stepsize;
    # a stepsize repeated in a row factors once
    n = 400
    square, slack = 8 * n * n, 64 * 8 * n
    resolvent = make_problem("affine_inclusion", n, seed=1).resolvent
    w = np.ones(n)
    tracemalloc.start()
    try:
        for lam in (0.5, 1, 3.7):
            resolvent.resolve(lam, w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= square + slack
    factor = scipy.linalg.lu_factor
    factored = []

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    for lam in (0.5, 0.5, 0.5, 1, 1, 0.5):
        resolvent.resolve(lam, w)
    assert len(factored) == 3
