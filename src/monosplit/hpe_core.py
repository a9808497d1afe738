"""Driver for the inertial under-relaxed inexact proximal framework.

One iteration: extrapolate with the inertial factor, ask the inner solver
for a certificate ``(z~, v, eps, lam)``, verify the relative-error
criterion

    ||lam v + z~ - w||^2 + 2 lam eps <= sigma^2 ||z~ - w||^2,

then take the relaxed step ``z_next = w - tau lam v``.  Every iteration is
recorded in a columnar trace, which :func:`monosplit.bounds.audit` replays
against every post-hoc inequality.
"""

import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .ergodic import ErgodicState
from .errors import CertificationError, DimensionMismatch, ParameterError

# Round-off allowance for exactly-zero residuals (inner solvers that
# reconstruct v = (w - z~)/lam reassemble lam*v with a few ulp of error).
_ZERO_SLACK = 1e-18
# Relative round-off allowance on the criterion ratio lhs / rhs <= 1.
CRITERION_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """One inner-solver output claimed to satisfy the error criterion.

    ``z_tilde`` and ``v`` are arrays of the shape of the point ``w`` the
    inner solver was given.
    """

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
        """Write a meta line, then one JSON object per row.

        The bytes are those of ``json.dumps`` on each row dict, except
        that NaN (no known solution) is written as null: strict JSON.
        """
        with open(path, "w") as fh:
            meta = {"schema_version": TRACE_SCHEMA_VERSION}
            if header:
                meta.update(header)
            fh.write(json.dumps({"meta": meta}) + "\n")
            self._write_rows(fh, _JSON_ROW, TRACE_COLUMNS[1:],
                             _JSON_NON_FINITE)

    def write_csv(self, path):
        """Write the CSV columns as ``csv.writer`` writes each row."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
            self._write_rows(fh, _CSV_ROW, _CSV_SOURCES, {})

    def _write_rows(self, fh, template, names, non_finite):
        """Fill ``template`` with each row's ``k`` and ``names`` values.

        Each value is formatted once, column by column, a bounded chunk of
        rows at a time.
        """
        cols = [self.columns[name] for name in names]
        for lo in range(0, len(self), _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            texts = [map(int.__repr__, range(lo + 1, min(hi, len(self)) + 1))]
            texts += [_texts(col[lo:hi], non_finite) for col in cols]
            fh.write("".join(map(template.__mod__, zip(*texts))))

    @classmethod
    def read_jsonl(cls, path):
        """Read a JSONL trace, line by line; return ``(trace, meta)``.

        A null value reads as NaN.  An unreadable file raises
        :class:`ParameterError`, and so does, naming its line, a line that
        is not a JSON object, a meta that is not an object, a missing
        column, or a cell that is neither null nor a number (an int or a
        float, within the float range).
        """
        trace = cls()
        meta = {}
        row_values = operator.itemgetter(*TRACE_COLUMNS)
        rows = []
        linenos = []
        try:
            fh = open(path, "rb")  # json.loads decodes, so bad UTF-8 fails
        except OSError as exc:
            raise ParameterError(f"cannot read trace {path}: {exc}")
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError as exc:  # also bad UTF-8, huge integers
                    raise ParameterError(
                        f"malformed trace line {lineno}: {exc}")
                if not isinstance(row, dict):
                    raise ParameterError(
                        f"trace line {lineno} is not a JSON object")
                if "meta" in row:
                    meta = row["meta"]
                    if not isinstance(meta, dict):
                        raise ParameterError(
                            f"trace line {lineno}: meta must be an object")
                    continue
                try:
                    rows.append(row_values(row))
                except KeyError:
                    missing = [c for c in TRACE_COLUMNS if c not in row]
                    raise ParameterError(
                        f"trace line {lineno} missing columns {missing}")
                linenos.append(lineno)
                if len(rows) == _CHUNK_ROWS:
                    trace._extend(rows, linenos)
        trace._extend(rows, linenos)
        return trace, meta

    def _extend(self, rows, linenos):
        """Move rows of :data:`TRACE_COLUMNS` values into the columns.

        ``linenos`` holds the line of each row.  Each column's cells are
        type-checked together; a null value becomes NaN.
        """
        for name, column_values in zip(TRACE_COLUMNS, zip(*rows)):
            if not _FLOAT_OR_NULL.issuperset(map(type, column_values)):
                bad = [i for i, value in enumerate(column_values)
                       if not _is_cell(value)]
                if bad:
                    raise ParameterError(
                        f"trace line {linenos[bad[0]]}, column {name!r}: "
                        f"{json.dumps(column_values[bad[0]])} is not a "
                        f"number or null")
            if name == "k":
                continue
            if None in column_values:
                column_values = [math.nan if value is None else value
                                 for value in column_values]
            self.columns[name].extend(column_values)
        rows.clear()
        linenos.clear()


# Rows are written, or read into the columns, this many at a time.
_CHUNK_ROWS = 128
_JSON_ROW = "{%s}\n" % ", ".join(f"{json.dumps(name)}: %s"
                                 for name in TRACE_COLUMNS)
# The trace column of each CSV column after k, in CSV order.
_CSV_SOURCES = ("norm_v", "eps", "lam", "error_ratio", "step_norm", "s_k",
                "dist_to_solution", "aggregate_stepsize", "norm_v_a", "eps_a")
_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\r\n"
_JSON_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
_FLOAT_OR_NULL = frozenset({float, type(None)})


def _is_cell(value):
    """Whether a JSON value is a trace cell: null, a float, or an int in
    the float range (``true`` and ``false`` read as bools, not ints)."""
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) in _FLOAT_OR_NULL


def _number_text(value):
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"trace values must be ints or floats, got {value!r}")


def _texts(values, non_finite):
    """``repr`` of each int or float, with ``non_finite`` respelling the
    reprs ``nan``, ``inf`` and ``-inf``."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # an int, e.g. lam from a config's "lambda": 1
        texts = list(map(_number_text, values))
    else:
        if math.isfinite(sum(values)):  # then every value is finite
            return texts
    return [non_finite.get(text, text) for text in texts]


@dataclass
class SolverState:
    """Final state of one run plus everything needed for re-verification."""

    k: int
    z_curr: np.ndarray
    z0: np.ndarray
    verdict: str
    lambda_floor: float
    ergodic: ErgodicState
    trace: IterationTrace


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
    resid = cert.lam * cert.v + dz
    return linalg.dot(resid, resid), linalg.dot(dz, dz)


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

def run(problem, inner_solver, params, stop=None, z0=None, lambda_floor=0.0):
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

    The inputs are validated once, on entry: ``z0`` and the known solution
    are finite vectors of one dimension, and the validated bundle keeps
    every ``alpha_k`` of its schedule in ``[0, alpha]`` and ``tau`` in
    ``(0, 1]``.  Each step then checks only its certificate: the shapes
    of ``z~`` and ``v``, the stepsize floor, ``eps >= 0``, the error
    criterion and a finite next iterate.  The step computes exactly what
    :func:`extrapolate`, :func:`certify`, :func:`relax_update` and
    :func:`linalg.inner` compute, in the same order.

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
    if z_star is not None:
        z_star = linalg.as_vector(z_star)
        linalg.check_same_dim(z0, z_star)
    params.validate()

    sigma, tau, alpha = params.sigma, params.tau, params.alpha
    if not (0.0 < tau <= 1.0):
        raise ParameterError(f"tau must lie in (0, 1], got {tau}")
    ramp = None if params.schedule.is_constant else params.schedule.value
    rho, eps_hat = stop.rho, stop.eps_hat
    shape = z0.shape
    dot = linalg.dot

    z_prev = z0.copy()
    z = z0.copy()
    trace = IterationTrace()
    erg = ErgodicState(dim=shape[0])

    verdict = "max_iters"
    k = 0
    for k in range(1, stop.max_iters + 1):
        alpha_k = alpha if ramp is None else ramp(k)
        w = z + alpha_k * (z - z_prev)

        cert = inner_solver(w, k)
        v, lam, eps = cert.v, cert.lam, cert.eps
        if cert.z_tilde.shape != shape or v.shape != shape:
            raise DimensionMismatch(
                f"certificate at k={k} has z~ of shape {cert.z_tilde.shape} "
                f"and v of shape {v.shape}, expected {shape}")
        if lam < lambda_floor - 1e-15 or lam <= 0.0:
            raise ParameterError(
                f"stepsize {lam} below the floor {lambda_floor} at k={k}")
        if eps < 0.0:
            raise CertificationError(f"negative eps {eps} at k={k}", k=k)

        resid_sq, dz_sq = _criterion_terms(cert, w)
        ratio = _error_ratio(resid_sq, dz_sq, lam, eps, sigma, k=k)

        z_next = w - tau * lam * v
        relax = z_next - w
        relax_sq = dot(relax, relax)
        # ||z_next - w||^2 is finite only if every z_next coordinate is
        if not math.isfinite(relax_sq) and not np.isfinite(z_next).all():
            raise CertificationError(f"non-finite iterate at k={k}", k=k)

        step = z_next - z
        step_sq = dot(step, step)
        s_k = _energy_term(relax_sq, dz_sq, params)
        erg.update(cert)

        norm_v = math.sqrt(dot(v, v))
        if z_star is not None:
            gap = z_next - z_star
            dist = math.sqrt(dot(gap, gap))
            gap = w - z_star
            dist_w = math.sqrt(dot(gap, gap))
        else:
            dist = dist_w = math.nan
        v_avg_sq, eps_a = erg.scalars()
        trace.append(
            norm_v=norm_v, eps=eps, lam=lam, error_ratio=ratio,
            step_norm=math.sqrt(step_sq), s_k=s_k, dist_to_solution=dist,
            resid_sq=resid_sq, norm_dz=math.sqrt(dz_sq), dist_w=dist_w,
            aggregate_stepsize=erg.aggregate_stepsize,
            norm_v_a=math.sqrt(v_avg_sq), eps_a=eps_a)

        z_prev, z = z, z_next
        if norm_v <= rho and eps <= eps_hat:
            verdict = "solved"
            break

    return SolverState(
        k=k, z_curr=z, z0=z0, verdict=verdict, lambda_floor=lambda_floor,
        ergodic=erg, trace=trace)
