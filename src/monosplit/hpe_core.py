"""Driver for the inertial under-relaxed inexact proximal framework.

One iteration: extrapolate ``w = z + alpha (z - z_prev)``, ask the inner
solver for a certificate ``(z~, v, eps, lam)``, check it against the
certificate law of :func:`_error_ratio` (``lam`` at least the stepsize
floor, ``eps >= 0`` and the relative-error criterion

    ||lam v + z~ - w||^2 + 2 lam eps <= sigma^2 ||z~ - w||^2),

then take the relaxed step ``z_next = w - tau lam v``.  :func:`run` and
:func:`monosplit.bounds.audit` both check a certificate through that one
law.  Every iteration is recorded in a columnar trace, which the audit
replays against every post-hoc inequality.
"""

import csv
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import orjson

from . import linalg
from .ergodic import ErgodicState
from .errors import CertificationError, DimensionMismatch, ParameterError

# Round-off allowance for exactly-zero residuals (inner solvers that
# reconstruct v = (w - z~)/lam reassemble lam*v with a few ulp of error).
_ZERO_SLACK = 1e-18
# Relative round-off allowance on the criterion ratio lhs / rhs <= 1.
CRITERION_TOL = 1e-9


class Certificate(NamedTuple):
    """One inner-solver output claimed to satisfy the error criterion.

    ``z_tilde`` and ``v`` are arrays of the shape of the point ``w`` the
    inner solver was given.  A named tuple: immutable, and built
    positionally at about a third of a frozen dataclass's cost.
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

    def __post_init__(self):  # floats, as a column comparison takes them
        for name in ("rho", "eps_hat"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def met(self, norm_v, eps):
        """Whether a step of ``||v|| = norm_v`` and error ``eps`` stops
        the run, on :func:`run`'s floats or on a trace's whole columns."""
        return (norm_v <= self.rho) & (eps <= self.eps_hat)


# Fixed export order; ergodic columns appended last.
TRACE_COLUMNS = ("k", "norm_v", "eps", "lam", "error_ratio", "step_norm",
                 "s_k", "dist_to_solution", "resid_sq", "norm_dz", "dist_w",
                 "aggregate_stepsize", "norm_v_a", "eps_a")
CSV_COLUMNS = ("k", "norm_v", "eps", "lambda", "error_ratio", "step_norm",
               "s_k", "dist_to_solution", "Lambda", "norm_v_a", "eps_a")


class IterationTrace:
    """Columnar per-iteration record of a run.

    The columns after ``k`` are float64 arrays: the rows of one
    C-contiguous store, grown by doubling.  ``columns[name]`` and
    :meth:`column` are views of the first ``len(trace)`` cells of a row,
    valid until the next :meth:`extend`.
    """

    def __init__(self):
        self._store = np.empty((len(TRACE_COLUMNS) - 1, 0))
        self._len = 0

    def __len__(self):
        return self._len

    @property
    def columns(self):
        """Each column after ``k``, in the order in which the writer takes
        them, :data:`TRACE_COLUMNS` order."""
        return dict(zip(TRACE_COLUMNS[1:], self._store[:, :self._len]))

    def extend(self, **columns):
        """Append rows given column by column, one sequence per column;
        each cell is stored as its float, a None as NaN."""
        first, end = self._len, self._len + len(columns["norm_v"])
        if end > self._store.shape[1]:  # grow to twice the rows, or more
            self._store = np.concatenate((self._store[:, :first], np.empty(
                (len(self._store), max(end, 2 * first) - first))), axis=1)
        for row, name in zip(self._store, TRACE_COLUMNS[1:]):
            row[first:end] = columns[name]
        self._len = end

    def append(self, **values):
        """Append one row: :meth:`extend` by a row of one value each."""
        self.extend(**{name: (value,) for name, value in values.items()})

    def column(self, name):
        return self._store[_ROW_OF[name], :self._len]

    # -- export / import --------------------------------------------------

    def write_jsonl(self, path, meta):
        """Write ``{"meta": meta}`` as line 1, then one JSON object per row.

        The bytes are those of ``json.dumps`` on each row dict of floats,
        except that NaN (no known solution) is written as null: strict
        JSON.  Strict JSON has no infinity, so a column that holds one
        raises :class:`ParameterError`, naming it, before the file is
        opened.
        """
        store = self._store[:, :len(self)]
        for name, col in zip(TRACE_COLUMNS[1:], store):
            if np.isinf(col).any():
                raise ParameterError(f"an infinite {name!r} cell is not JSON")
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for lo in range(0, len(self), _CHUNK_ROWS):
                fh.write(_row_texts(lo + 1, store[:, lo:lo + _CHUNK_ROWS]))

    def write_csv(self, path):
        """Write the CSV columns through ``csv.writer``, each cell after
        ``k`` as ``float.__repr__`` spells it."""
        cells = [map(float.__repr__, self.column(name))
                 for name in _CSV_SOURCES]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(zip(itertools.count(1), *cells))

    @classmethod
    def read_jsonl(cls, path):
        """Read a trace as :meth:`write_jsonl` writes it; return
        ``(trace, meta)``.

        Line 1 is ``{"meta": meta}`` alone, ``meta`` an object, and every
        later line, its newline included, is byte for byte the row that
        :meth:`write_jsonl` writes for the values it holds.  Each line is
        decoded as strict JSON in strict UTF-8 by ``orjson.loads``, and
        ``meta`` is line 1's value as ``json.loads`` reads it, which keeps
        an int beyond 64 bits an int.  Anything else raises
        :class:`ParameterError` naming its line, and for a row the column
        at which its bytes part from the writer's, as does an unreadable
        file.
        """
        trace = cls()
        try:
            fh = open(path, "rb")  # each line is decoded on its own
        except OSError as exc:
            raise ParameterError(f"cannot read trace {path}: {exc}")
        with fh:
            line = next(fh, b"")
            _decode(line, 1)
            head = _decode(line, 1, json.loads)
            if (type(head) is not dict or list(head) != ["meta"]
                    or type(head["meta"]) is not dict):
                raise ParameterError('trace line 1 is not {"meta": {...}}')
            for lines in iter(
                    lambda: list(itertools.islice(fh, _CHUNK_ROWS)), []):
                trace._extend_read(lines)
        return trace, head["meta"]

    def _extend_read(self, lines):
        """Decode the row ``lines``, a nonempty list of bytes, into the
        columns if they are the writer's text of the values they hold."""
        first = len(self) + 1
        rows = map(_decode, lines, itertools.count(first + 1))
        columns = list(zip(*map(_cells, rows)))
        text, data = _row_texts(first, columns).encode(), b"".join(lines)
        if text != data:  # name the line and column where they part
            at = len(os.path.commonprefix([text, data]))
            start = text.rfind(b"\n", 0, at) + 1
            lineno = first + 1 + text.count(b"\n", 0, start)
            raise ParameterError(
                f"trace line {lineno} differs from the writer's row at "
                f"column {TRACE_COLUMNS[text.count(b', ', start, at)]!r}")
        self.extend(**dict(zip(TRACE_COLUMNS[1:], columns)))


# Rows are written, or read into the columns, this many at a time.
_CHUNK_ROWS = 128
# The text of a row before each of its cells
_ROW_SEPARATORS = [f'{", " if i else "{"}{json.dumps(name)}: '
                   for i, name in enumerate(TRACE_COLUMNS)]
# The trace column of each CSV column after k, in CSV order.
_CSV_SOURCES = ("norm_v", "eps", "lam", "error_ratio", "step_norm", "s_k",
                "dist_to_solution", "aggregate_stepsize", "norm_v_a", "eps_a")
# the store row of each column after k
_ROW_OF = {name: i for i, name in enumerate(TRACE_COLUMNS[1:])}
# orjson writes a one-digit negative exponent with no leading zero
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d\b)")

# The first orjson.loads allocates what orjson keeps for the life of the
# process.  Made by the first certify of a run, after the large arrays of
# a big problem, it would sit at the top of the heap and keep the C
# allocator from returning their memory when they are freed; made here,
# it sits below them.
orjson.loads(b'{"meta": {}}')


def _decode(line, lineno, loads=orjson.loads):
    """The JSON value of trace line ``lineno``, given as bytes, as
    ``loads`` reads it: ``orjson.loads``, strict JSON in strict UTF-8, or
    ``json.loads`` of a line that orjson takes, which keeps an int beyond
    64 bits an int and recurses as deep as the line nests."""
    try:
        return loads(line)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 too
        raise ParameterError(f"malformed trace line {lineno}: {exc}")


def _cells(row):
    """The cells after ``k`` of a decoded row: each float cell itself and
    any other cell NaN, which the writer spells null.  A null cell thus
    reads as NaN, and any other is not spelled as its line; a row that is
    not an object is all NaN."""
    get = row.get if type(row) is dict else {}.get
    return [cell if type(cell) is float else math.nan
            for cell in map(get, TRACE_COLUMNS[1:])]


def _row_texts(first, columns):
    """The writer's text of the rows from step ``first`` on, a line per
    row: ``columns`` are the cells after ``k`` in :data:`TRACE_COLUMNS`
    order, one nonempty chunk of one length per column, each as
    :func:`_texts` takes it.  The writer writes this text, and the reader
    takes no other."""
    texts = [map(int.__repr__, range(first, first + len(columns[0])))]
    texts += map(_texts, columns)
    parts = []
    for separator, cells in zip(_ROW_SEPARATORS, texts):
        parts += itertools.repeat(separator), cells
    parts.append(itertools.repeat("}\n"))
    return "".join(itertools.chain.from_iterable(zip(*parts)))


def _texts(values):
    """JSON text of each finite float or NaN of a nonempty chunk, a list
    or tuple of floats or a C-contiguous float64 array: its
    ``float.__repr__``, with NaN spelled null.

    ``orjson.dumps`` writes the same shortest round-trip digits as repr,
    and spells them alike but for the exponent form.  It writes 1e16 and
    1e-7 for repr's 1e+16 and 1e-07, which the text respells, and 0.00001
    for 1e-05: the cells of 1e-5 <= |x| < 1e-4 take their repr.
    """
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    if "e" in text:
        text = _ONE_DIGIT_EXPONENT.sub(
            "e-0", text.replace("e", "e+").replace("e+-", "e-"))
    texts = text[1:-1].split(",")
    if "0.0000" in text:
        for i, x in enumerate(values):
            if 1e-5 <= abs(x) < 1e-4:
                texts[i] = float.__repr__(x)
    return texts


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
    :class:`ParameterError`), ``eps`` nonnegative, both sides' terms finite
    and the ratio at most ``1 + CRITERION_TOL``, with 0/0 -> 0 (else
    :class:`CertificationError`).  Each check is a pass condition, so a NaN
    fails; the message calls a NaN ``lam`` or ``eps`` non-finite, and names
    step ``k`` when given.
    """
    if not (lam > 0.0 and lam >= lambda_floor):
        fault = (f"non-finite stepsize {lam}" if lam != lam else
                 f"stepsize {lam} below the floor {lambda_floor}")
        raise ParameterError(fault + _at(k))
    if not eps >= 0.0:
        fault = "non-finite" if eps != eps else "negative"
        raise CertificationError(f"{fault} eps {eps}{_at(k)}", k=k)
    lhs = resid_sq + 2.0 * lam * eps
    # an infinite ||z~ - w||^2 would make the slack infinite, the ratio 0
    if not (math.isfinite(lhs) and math.isfinite(dz_sq)):
        raise CertificationError(f"non-finite criterion terms{_at(k)}: "
                                 f"lhs={lhs}, ||z~ - w||^2={dz_sq}", k=k)
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


# numpy's overflow warnings are off while a run steps: a step whose
# criterion terms or ||v||^2 overflow is refused, naming its k
@np.errstate(over="ignore")
def run(problem, inner_solver, params, stop=None, *, lambda_floor):
    """Iterate from the origin until the stopping rule fires or the cap hits.

    Parameters
    ----------
    problem : TestProblem
        Supplies the dimension, and the known solution (None when unknown)
        for the distance columns.
    inner_solver : callable ``w -> Certificate``
        Maps the extrapolated point of a step to its certificate; the
        driver names the step ``k`` in every error it raises.
    params : HpeParams
        Admissible by construction, so the driver does not re-check it.
    stop : StoppingRule, optional
    lambda_floor : enforced lower bound on every certificate stepsize.

    The inputs are validated once, on entry: the known solution is a
    finite vector of the problem's dimension.  A bundle keeps ``alpha`` in
    ``[0, beta)`` and ``tau`` in ``(0, 1]`` from its construction on.  Each
    step checks the shapes of ``z~`` and ``v``, the certificate law of
    :func:`_error_ratio`, a finite next iterate and the stopping rule.  The
    trace and the ergodic state are filled a block of steps at a time (see
    :func:`_record`), bit for bit as step by step.

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
    met = stop.met
    shape = z.shape
    # bound here, not at import, so that a wrapper installed on a module
    # function before the run (a profiler's) sees every call
    add, subtract, multiply, matmul = (np.add, np.subtract, np.multiply,
                                       np.matmul)
    error_ratio, isfinite, sqrt = _error_ratio, math.isfinite, math.sqrt
    tiny, huge = sys.float_info.min, sys.float_info.max

    # Every vector whose squared norm a step needs is written into one row
    # of this array, so that the step takes all of them in one stacked
    # product; with a known solution, so are z_{k+1} - z* and w - z*.  The
    # step row z_k - z_{k-1} is also the next step's inertial direction; it
    # starts as z_0 - z_0 = 0.
    rows = np.zeros((5 if z_star is None else 7,) + shape)
    resid, dz, relax, step, v_row, *gaps = rows
    gap, gap_w = gaps or (None, None)
    # the operands of linalg.row_dots(rows, rows), laid out once
    lhs, rhs = rows[:, None, :], rows[:, :, None]
    # z~ and v of each step not yet recorded; its scalars in steps
    block = np.empty((max(1, min(stop.max_iters,
                                 _BLOCK_FLOATS // (2 * shape[0]))), 2) + shape)
    steps = []

    trace = IterationTrace()
    erg = ErgodicState(dim=shape[0])

    verdict = "max_iters"
    k = 0
    for k in range(1, stop.max_iters + 1):
        # w = z + alpha (z - z_prev), in an array of this step's own
        w = multiply(alpha, step)
        add(z, w, w)

        cert = inner_solver(w)
        z_tilde, v, eps, lam = cert
        if z_tilde.shape != shape or v.shape != shape:
            _check_shape(cert, shape, k)
        _criterion_terms(cert, w, resid, dz)
        # z_next = w - tau lam v
        z_next = multiply(tau * lam, v)
        subtract(w, z_next, z_next)
        subtract(z_next, w, relax)
        subtract(z_next, z, step)
        v_row[...] = v
        if z_star is not None:
            subtract(z_next, z_star, gap)
            subtract(w, z_star, gap_w)
        squares = matmul(lhs, rhs).ravel().tolist()
        resid_sq, dz_sq, relax_sq, _, v_sq = squares[:5]

        ratio = error_ratio(resid_sq, dz_sq, lam, eps, sigma, lambda_floor,
                            k=k)
        # ||z_next - w||^2 is finite only if every z_next coordinate is
        if not isfinite(relax_sq) and not np.isfinite(z_next).all():
            raise CertificationError(f"non-finite iterate at k={k}", k=k)
        # the trace would record a nonzero v whose ||v||^2 underflows as 0,
        # or a finite v whose ||v||^2 overflows as inf
        if not tiny <= v_sq <= huge and v.any():
            flow = "overflows" if v_sq > 1.0 else "underflows"
            raise CertificationError(f"||v||^2 {flow} at k={k}", k=k)

        held = block[len(steps)]
        held[0], held[1] = z_tilde, v
        norm_v = sqrt(v_sq)
        steps.append((lam, eps, ratio, norm_v, *squares))

        z = z_next
        if met(norm_v, eps):
            verdict = "solved"
            break
        if len(steps) == len(block):
            _record(trace, erg, block, steps, params)
    if steps:
        _record(trace, erg, block, steps, params)

    return SolverState(k=k, z_curr=z, verdict=verdict,
                       lambda_floor=lambda_floor, trace=trace)


def _record(trace, erg, block, steps, params):
    """Fold ``steps``, whose ``z~`` and ``v`` the first rows of ``block``
    hold, into the trace and the ergodic state column by column; empty
    ``steps``.  A step is its certificate's ``lam`` and ``eps``, its ratio
    and ``||v||``, then the squared norms of its work-array rows, in row
    order."""
    (lam, eps, ratio, norm_v, resid_sq, dz_sq, relax_sq, step_sq, _,
     *dist_sq) = np.array(steps, dtype=float).T
    total, v_avg_sq, eps_a = erg.fold(lam, eps, block[:len(steps)])
    dist, dist_w = (np.sqrt(dist_sq) if dist_sq
                    else np.full((2, len(steps)), math.nan))
    trace.extend(
        norm_v=norm_v, eps=eps, lam=lam, error_ratio=ratio,
        step_norm=np.sqrt(step_sq), s_k=_energy_term(relax_sq, dz_sq, params),
        dist_to_solution=dist, resid_sq=resid_sq, norm_dz=np.sqrt(dz_sq),
        dist_w=dist_w, aggregate_stepsize=total, norm_v_a=np.sqrt(v_avg_sq),
        eps_a=eps_a)
    steps.clear()
