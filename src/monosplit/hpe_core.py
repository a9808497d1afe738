"""Driver for the inertial under-relaxed inexact proximal framework.

One iteration: extrapolate with the inertial factor, ask the inner solver
for a certificate ``(z~, v, eps, lam)``, verify the relative-error
criterion

    ||lam v + z~ - w||^2 + 2 lam eps <= sigma^2 ||z~ - w||^2,

then take the relaxed step ``z_next = w - tau lam v``.  Every iteration is
recorded in a columnar trace, which :func:`monosplit.bounds.audit` replays
against every post-hoc inequality.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .ergodic import ErgodicState
from .errors import CertificationError, ParameterError

# Round-off allowance for exactly-zero residuals (inner solvers that
# reconstruct v = (w - z~)/lam reassemble lam*v with a few ulp of error).
_ZERO_SLACK = 1e-18
# Relative round-off allowance on the criterion ratio lhs / rhs <= 1.
CRITERION_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """One inner-solver output claimed to satisfy the error criterion."""

    z_tilde: np.ndarray
    v: np.ndarray
    eps: float
    lam: float


@dataclass(frozen=True)
class StoppingRule:
    """Pointwise stopping: ``||v|| <= rho`` and ``eps <= eps_hat``."""

    rho: float = 1e-8
    eps_hat: float = 1e-10
    max_iters: int = 10 ** 6


# Fixed export order; ergodic columns appended last.
TRACE_COLUMNS = ("k", "norm_v", "eps", "lam", "error_ratio", "step_norm",
                 "s_k", "dist_to_solution", "resid_sq", "norm_dz", "dist_w",
                 "aggregate_stepsize", "norm_v_a", "eps_a")
CSV_COLUMNS = ("k", "norm_v", "eps", "lambda", "error_ratio", "step_norm",
               "s_k", "dist_to_solution", "Lambda", "norm_v_a", "eps_a")

TRACE_SCHEMA_VERSION = 1


class IterationTrace:
    """Columnar per-iteration record of a run."""

    def __init__(self):
        self.columns = {name: [] for name in TRACE_COLUMNS if name != "k"}

    def __len__(self):
        return len(self.columns["norm_v"])

    def append(self, **values):
        for name, col in self.columns.items():
            col.append(values[name])

    def column(self, name):
        return np.asarray(self.columns[name], dtype=float)

    def rows(self):
        n = len(self)
        for i in range(n):
            row = {"k": i + 1}
            row.update({name: self.columns[name][i] for name in self.columns})
            yield row

    # -- export / import --------------------------------------------------

    def write_jsonl(self, path, header=None):
        with open(path, "w") as fh:
            meta = {"schema_version": TRACE_SCHEMA_VERSION}
            if header:
                meta.update(header)
            fh.write(json.dumps({"meta": meta}) + "\n")
            # NaN (no known solution) is written as null: strict JSON
            for row in self.rows():
                fh.write(json.dumps({name: None if value != value else value
                                     for name, value in row.items()}) + "\n")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows():
                writer.writerow([
                    row["k"], row["norm_v"], row["eps"], row["lam"],
                    row["error_ratio"], row["step_norm"], row["s_k"],
                    row["dist_to_solution"], row["aggregate_stepsize"],
                    row["norm_v_a"], row["eps_a"]])

    @classmethod
    def read_jsonl(cls, path):
        trace = cls()
        meta = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParameterError(
                        f"malformed trace line {lineno}: {exc}")
                if "meta" in row:
                    meta = row["meta"]
                    continue
                missing = [c for c in TRACE_COLUMNS if c not in row]
                if missing:
                    raise ParameterError(
                        f"trace line {lineno} missing columns {missing}")
                trace.append(**{name: math.nan if row[name] is None
                                else row[name] for name in trace.columns})
        return trace, meta


@dataclass
class SolverState:
    """Final state of one run plus everything needed for re-verification."""

    k: int
    z_curr: np.ndarray
    z_prev: np.ndarray
    w: np.ndarray
    z0: np.ndarray
    verdict: str
    params: object
    lambda_floor: float
    ergodic: ErgodicState
    trace: IterationTrace
    z_history: list = None
    w_history: list = None
    certificates: list = None


# ---------------------------------------------------------------------------
# Single-step operations
# ---------------------------------------------------------------------------

def extrapolate(z_curr, z_prev, alpha_k, alpha_max=None):
    """Inertial extrapolation ``w = z_curr + alpha_k (z_curr - z_prev)``."""
    if alpha_max is not None and not (0.0 <= alpha_k <= alpha_max + 1e-15):
        raise ParameterError(
            f"alpha_k = {alpha_k} outside [0, {alpha_max}]")
    linalg.check_same_dim(z_curr, z_prev)
    return z_curr + alpha_k * (z_curr - z_prev)


def _criterion_terms(cert, w):
    """``(||lam v + z~ - w||^2, ||z~ - w||^2)`` of one certificate.

    ``z~ - w`` is formed first, so the residual does not cancel at the
    scale of ``|w|``.
    """
    dz = cert.z_tilde - w
    return linalg.norm_sq(cert.lam * cert.v + dz), linalg.norm_sq(dz)


def _error_ratio(resid_sq, dz_sq, lam, eps, sigma, k=None):
    lhs = resid_sq + 2.0 * lam * eps
    rhs = sigma * sigma * dz_sq
    slack = _ZERO_SLACK * (1.0 + dz_sq)
    if lhs <= slack:
        return 0.0
    if rhs <= 0.0:
        raise CertificationError(
            f"criterion violated at k={k}: lhs={lhs} with sigma=0",
            k=k, ratio=math.inf)
    ratio = lhs / rhs
    if not ratio <= 1.0 + CRITERION_TOL:  # so that a NaN ratio fails
        raise CertificationError(
            f"criterion violated at k={k}: ratio={ratio}", k=k, ratio=ratio)
    return ratio


def _energy_term(relax_sq, dz_sq, params):
    """Energy term ``max(eta ||z_k - w||^2, (1-sigma^2) tau ||z~ - w||^2)``.

    ``relax_sq`` is ``||z_k - w||^2`` and ``dz_sq`` is ``||z~ - w||^2``.
    """
    return max(params.eta * relax_sq,
               (1.0 - params.sigma * params.sigma) * params.tau * dz_sq)


def certify(cert, w, sigma):
    """Check the relative-error criterion; return the lhs/rhs ratio.

    The convention 0/0 -> 0 covers exact fixed points.  Raises
    :class:`CertificationError` when the ratio exceeds
    ``1 + CRITERION_TOL``.
    """
    if not (0.0 <= sigma < 1.0):
        raise ParameterError(f"sigma must lie in [0, 1), got {sigma}")
    resid_sq, dz_sq = _criterion_terms(cert, w)
    return _error_ratio(resid_sq, dz_sq, cert.lam, cert.eps, sigma)


def relax_update(w, cert, tau):
    """Relaxed correction step ``z_next = w - tau lam v``."""
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must lie in (0, 1], got {tau}")
    return w - tau * cert.lam * cert.v


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def run(problem, inner_solver, params, stop=None, z0=None, lambda_floor=0.0,
        record_vectors=False):
    """Iterate the framework until the stopping rule fires or the cap hits.

    Parameters
    ----------
    problem : TestProblem or None
        Supplies the dimension, and the known solution for distance
        columns, when given.
    inner_solver : callable ``(w, k) -> Certificate``
    params : HpeParams
    stop : StoppingRule, optional
    z0 : starting point; defaults to the origin.
    lambda_floor : enforced lower bound on every certificate stepsize.
    record_vectors : keep per-iteration vectors (needed by post-hoc checks
        that go beyond the scalar trace; memory grows with k * dim).

    Returns
    -------
    SolverState with ``verdict`` in {"solved", "max_iters"}.
    """
    stop = stop or StoppingRule()
    if z0 is None:
        if problem is None:
            raise ParameterError("need either a problem or an explicit z0")
        z0 = np.zeros(problem.dim)
    z0 = linalg.as_vector(z0)
    z_star = None if problem is None else problem.known_solution
    params.validate()

    sigma, tau = params.sigma, params.tau
    z_prev = z0.copy()
    z = z0.copy()
    trace = IterationTrace()
    erg = ErgodicState(dim=z0.shape[0])
    z_hist = [z0.copy()] if record_vectors else None
    w_hist = [] if record_vectors else None
    certs = [] if record_vectors else None

    verdict = "max_iters"
    w = z.copy()
    k = 0
    for k in range(1, stop.max_iters + 1):
        alpha_k = params.schedule.value(k)
        w = extrapolate(z, z_prev, alpha_k, params.alpha)

        cert = inner_solver(w, k)
        if cert.lam < lambda_floor - 1e-15 or cert.lam <= 0.0:
            raise ParameterError(
                f"stepsize {cert.lam} below the floor {lambda_floor} at k={k}")
        if cert.eps < 0.0:
            raise CertificationError(f"negative eps {cert.eps} at k={k}", k=k)

        resid_sq, dz_sq = _criterion_terms(cert, w)
        ratio = _error_ratio(resid_sq, dz_sq, cert.lam, cert.eps, sigma, k=k)

        z_next = relax_update(w, cert, tau)
        if not np.all(np.isfinite(z_next)):
            raise CertificationError(f"non-finite iterate at k={k}", k=k)

        step_sq = linalg.norm_sq(z_next - z)
        s_k = _energy_term(linalg.norm_sq(z_next - w), dz_sq, params)
        erg.update(cert)

        norm_v = math.sqrt(linalg.norm_sq(cert.v))
        if z_star is not None:
            dist = math.sqrt(linalg.norm_sq(z_next - z_star))
            dist_w = math.sqrt(linalg.norm_sq(w - z_star))
        else:
            dist = dist_w = math.nan
        trace.append(
            norm_v=norm_v, eps=cert.eps, lam=cert.lam, error_ratio=ratio,
            step_norm=math.sqrt(step_sq), s_k=s_k, dist_to_solution=dist,
            resid_sq=resid_sq, norm_dz=math.sqrt(dz_sq), dist_w=dist_w,
            aggregate_stepsize=erg.aggregate_stepsize,
            norm_v_a=math.sqrt(linalg.norm_sq(erg.v_avg)),
            eps_a=erg.eps_avg_raw)

        if record_vectors:
            z_hist.append(z_next.copy())
            w_hist.append(w.copy())
            certs.append(cert)

        z_prev, z = z, z_next
        if norm_v <= stop.rho and cert.eps <= stop.eps_hat:
            verdict = "solved"
            break

    return SolverState(
        k=k, z_curr=z, z_prev=z_prev, w=w, z0=z0, verdict=verdict,
        params=params, lambda_floor=lambda_floor, ergodic=erg, trace=trace,
        z_history=z_hist, w_history=w_hist, certificates=certs)
