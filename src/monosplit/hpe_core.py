"""Driver for the inertial under-relaxed inexact proximal framework.

One iteration: extrapolate ``w = z + alpha_k (z - z_prev)``, ask the inner
solver for a certificate ``(z~, v, eps, lam)``, check it against the
certificate law of :func:`_error_ratio` (``lam`` at least the stepsize
floor, ``eps >= 0`` and the relative-error criterion

    ||lam v + z~ - w||^2 + 2 lam eps <= sigma^2 ||z~ - w||^2),

then take the relaxed step ``z_next = w - tau lam v``.  :func:`run` and
:func:`monosplit.bounds.audit` both check a certificate through that one
law.  Every iteration is recorded in a columnar trace, which the audit
replays against every post-hoc inequality.
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
# Absolute round-off allowance on a stepsize under its floor.
_BOUND_SLACK = 1e-15
# Relative round-off allowance on the criterion ratio lhs / rhs <= 1.
CRITERION_TOL = 1e-9


@dataclass(frozen=True, slots=True)
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

    def extend(self, **columns):
        """Append rows given column by column, one sequence per column."""
        for name, col in self.columns.items():
            col.extend(columns[name])

    def append(self, **values):
        """Append one row: :meth:`extend` by a row of one value each."""
        self.extend(**{name: (value,) for name, value in values.items()})

    def column(self, name):
        return np.asarray(self.columns[name], dtype=float)

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
        is not strict UTF-8 (a byte-order mark included) or not a JSON
        object, a meta that is not an object, a missing column, a cell
        that is neither null nor a number (an int or a float, within the
        float range), or a ``k`` that does not run 1, 2, ....
        """
        trace = cls()
        meta = {}
        row_values = operator.itemgetter(*TRACE_COLUMNS)
        rows = []
        linenos = []
        try:
            fh = open(path, "rb")  # each line is decoded on its own
        except OSError as exc:
            raise ParameterError(f"cannot read trace {path}: {exc}")
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError) as exc:  # bad UTF-8 too
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
                    trace._extend_read(rows, linenos)
        trace._extend_read(rows, linenos)
        return trace, meta

    def _extend_read(self, rows, linenos):
        """Move rows of :data:`TRACE_COLUMNS` values into the columns.

        ``linenos`` holds the line of each row.  Each column's cells are
        type-checked together; a null value becomes NaN.  ``k`` must go
        on from the rows read so far.
        """
        first_k = len(self) + 1
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
                steps = range(first_k, first_k + len(column_values))
                if column_values != tuple(steps):
                    i = next(i for i, step in enumerate(steps)
                             if column_values[i] != step)
                    raise ParameterError(
                        f"trace line {linenos[i]}, column 'k': "
                        f"{json.dumps(column_values[i])} is not step "
                        f"{steps[i]}")
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
    except TypeError:  # an int, e.g. a "lam": 1 read back from a trace
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
    verdict: str
    lambda_floor: float
    trace: IterationTrace


# ---------------------------------------------------------------------------
# Single-step operations
# ---------------------------------------------------------------------------

def _check_shape(cert, shape, k=None):
    """Refuse, with :class:`DimensionMismatch` naming step ``k`` when
    given, a certificate whose ``z~`` or ``v`` is not of ``shape``."""
    if cert.z_tilde.shape != shape or cert.v.shape != shape:
        raise DimensionMismatch(
            f"certificate{_at(k)} has z~ of shape {cert.z_tilde.shape} "
            f"and v of shape {cert.v.shape}, expected {shape}")


def _criterion_terms(cert, w, resid, dz):
    """Write ``lam v + z~ - w`` into ``resid`` and ``z~ - w`` into ``dz``,
    the two rows whose squared norms the criterion compares.

    ``z~ - w`` is formed first, so the residual does not cancel at the
    scale of ``|w|``.
    """
    np.subtract(cert.z_tilde, w, dz)
    np.multiply(cert.lam, cert.v, resid)
    np.add(resid, dz, resid)


def _error_ratio(resid_sq, dz_sq, lam, eps, sigma, lambda_floor, k=None):
    """The certificate law of step ``k``; returns the criterion's lhs/rhs.

    ``lam`` must be positive and at least ``lambda_floor`` (else
    :class:`ParameterError`), ``eps`` nonnegative and the ratio at most
    ``1 + CRITERION_TOL``, with 0/0 -> 0 (else :class:`CertificationError`).
    Each check is a pass condition, so a NaN fails; the message calls a
    NaN ``lam`` or ``eps`` non-finite, and names step ``k`` when given.
    """
    if not (lam > 0.0 and lam >= lambda_floor - _BOUND_SLACK):
        fault = (f"non-finite stepsize {lam}" if lam != lam else
                 f"stepsize {lam} below the floor {lambda_floor}")
        raise ParameterError(fault + _at(k))
    if not eps >= 0.0:
        fault = "non-finite" if eps != eps else "negative"
        raise CertificationError(f"{fault} eps {eps}{_at(k)}", k=k)
    lhs = resid_sq + 2.0 * lam * eps
    rhs = sigma * sigma * dz_sq
    slack = _ZERO_SLACK * (1.0 + dz_sq)
    if lhs <= slack:
        return 0.0
    if rhs <= 0.0:
        raise CertificationError(
            f"criterion violated{_at(k)}: lhs={lhs} with sigma=0", k=k)
    ratio = lhs / rhs
    if not ratio <= 1.0 + CRITERION_TOL:  # so that a NaN ratio fails
        raise CertificationError(
            f"criterion violated{_at(k)}: ratio={ratio}", k=k)
    return ratio


def _at(k):
    """The `` at k=...`` suffix of a message about step ``k``, if any."""
    return "" if k is None else f" at k={k}"


def _energy_term(relax_sq, dz_sq, params):
    """Energy term ``max(eta ||z_k - w||^2, (1-sigma^2) tau ||z~ - w||^2)``.

    ``relax_sq`` is ``||z_k - w||^2`` and ``dz_sq`` is ``||z~ - w||^2``,
    numbers or arrays of one column each.
    """
    scale = (1.0 - params.sigma * params.sigma) * params.tau
    return np.maximum(params.eta * relax_sq, scale * dz_sq)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

# A run records its steps in blocks of at most this many floats (256 KB).
_BLOCK_FLOATS = 2 ** 15


def run(problem, inner_solver, params, stop=None, *, lambda_floor):
    """Iterate from the origin until the stopping rule fires or the cap hits.

    Parameters
    ----------
    problem : TestProblem
        Supplies the dimension, and the known solution (None when unknown)
        for the distance columns.
    inner_solver : callable ``(w, k) -> Certificate``
    params : HpeParams
        Admissible by construction, so the driver does not re-check it.
    stop : StoppingRule, optional
    lambda_floor : enforced lower bound on every certificate stepsize.

    The inputs are validated once, on entry: the known solution is a
    finite vector of the problem's dimension.  A bundle keeps every
    ``alpha_k`` of its schedule in ``[0, alpha]`` and ``tau`` in ``(0, 1]``
    from its construction on.  Each step checks the shapes of ``z~`` and
    ``v``, the certificate law of :func:`_error_ratio`, a finite next
    iterate and the stopping rule.  The trace and the ergodic state are
    filled a block of steps at a time (see :func:`_record`), bit for bit
    as step by step.

    Returns
    -------
    SolverState with ``verdict`` in {"solved", "max_iters"}.
    """
    stop = stop or StoppingRule()
    z = np.zeros(problem.dim)
    z_star = problem.known_solution
    if z_star is not None:
        z_star = linalg.as_vector(z_star)
        linalg.check_same_dim(z, z_star)

    sigma, tau, alpha = params.sigma, params.tau, params.alpha
    ramp = None if params.is_constant else params.alpha_at
    rho, eps_hat = stop.rho, stop.eps_hat
    shape = z.shape

    # Every vector whose squared norm a step needs is written into one row
    # of this array, so that the step takes all of them in one call.  The
    # step row z_k - z_{k-1} is also the next step's inertial direction; it
    # starts as z_0 - z_0 = 0.
    rows = np.zeros((5,) + shape)
    resid, dz, relax, step, v_row = rows
    squared_norms = linalg.RowDots(rows, rows)
    # z~, v (and z_k, w) of each step not yet recorded; scalars in steps
    width = 2 if z_star is None else 4
    block = np.empty((max(1, min(stop.max_iters,
                                 _BLOCK_FLOATS // (width * shape[0]))),
                      width) + shape)
    steps = []

    trace = IterationTrace()
    erg = ErgodicState(dim=shape[0])

    verdict = "max_iters"
    k = 0
    for k in range(1, stop.max_iters + 1):
        alpha_k = alpha if ramp is None else ramp(k)
        w = z + alpha_k * step

        cert = inner_solver(w, k)
        v, lam, eps = cert.v, cert.lam, cert.eps
        _check_shape(cert, shape, k)
        _criterion_terms(cert, w, resid, dz)
        z_next = w - tau * lam * v
        np.subtract(z_next, w, relax)
        np.subtract(z_next, z, step)
        v_row[...] = v
        resid_sq, dz_sq, relax_sq, step_sq, v_sq = squared_norms()

        ratio = _error_ratio(resid_sq, dz_sq, lam, eps, sigma, lambda_floor,
                             k=k)
        # ||z_next - w||^2 is finite only if every z_next coordinate is
        if not math.isfinite(relax_sq) and not np.isfinite(z_next).all():
            raise CertificationError(f"non-finite iterate at k={k}", k=k)
        # the trace would record a nonzero v whose ||v||^2 underflows as 0
        if v_sq < sys.float_info.min and v.any():
            raise CertificationError(f"||v||^2 underflows at k={k}", k=k)

        held = block[len(steps)]
        held[0], held[1] = cert.z_tilde, v
        if z_star is not None:
            held[2], held[3] = z_next, w
        norm_v = math.sqrt(v_sq)
        steps.append((lam, eps, ratio, norm_v, step_sq, relax_sq, resid_sq,
                      dz_sq))

        z = z_next
        if norm_v <= rho and eps <= eps_hat:
            verdict = "solved"
            break
        if len(steps) == len(block):
            _record(trace, erg, block, steps, params, z_star)
    if steps:
        _record(trace, erg, block, steps, params, z_star)

    return SolverState(k=k, z_curr=z, verdict=verdict,
                       lambda_floor=lambda_floor, trace=trace)


def _record(trace, erg, block, steps, params, z_star):
    """Fold ``steps``, whose vectors the first rows of ``block`` hold, into
    the trace and the ergodic state column by column, keeping each
    certificate's own ``lam`` and ``eps`` objects; empty ``steps``."""
    (lam, eps, ratio, norm_v, step_sq, relax_sq, resid_sq,
     dz_sq) = zip(*steps)
    held = block[:len(steps)]
    total, v_avg_sq, eps_a = erg.fold(lam, eps, held[:, :2])
    dz_sq = np.array(dz_sq)
    if z_star is None:
        dist = dist_w = (math.nan,) * len(steps)
    else:
        gaps = held[:, 2:] - z_star
        dist, dist_w = np.sqrt(linalg.row_dots(gaps, gaps)).T.tolist()
    trace.extend(
        norm_v=norm_v, eps=eps, lam=lam, error_ratio=ratio,
        step_norm=np.sqrt(step_sq).tolist(),
        s_k=_energy_term(np.array(relax_sq), dz_sq, params).tolist(),
        dist_to_solution=dist, resid_sq=resid_sq,
        norm_dz=np.sqrt(dz_sq).tolist(), dist_w=dist_w,
        aggregate_stepsize=total.tolist(),
        norm_v_a=np.sqrt(v_avg_sq).tolist(), eps_a=eps_a.tolist())
    steps.clear()
