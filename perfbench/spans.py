"""Span tracing from outside the program, and the arithmetic on spans.

:class:`Tracer` replaces public entry points of ``monosplit`` (module
functions and class methods that callers look up by name at call time)
with wrappers that record one span per call: site, start, end, parent
span and job id.  Spans stay in compact in-memory arrays until the run
writes them out.  Nothing under ``src/`` changes, and uninstalling puts
every original attribute back.
"""

import functools
import os
import weakref
from array import array
from time import perf_counter

import numpy as np

# Layer metric group -> the entry points it wraps, as (module, owner, name).
# ``owner`` is None for a module-level function.  hpe_core._error_ratio is
# the one private name: the error-criterion check has no public entry
# point of its own, and it is timed on its own.
SITES = (
    ("cli.command", "cli", None, "main"),
    ("cli.load_config", "cli", None, "load_config"),
    ("cli.certify_trace", "cli", None, "certify_trace"),
    ("params.validate", "params", "HpeParams", "validate"),
    ("operators.make_problem", "operators", None, "make_problem"),
    ("operators.solution_oracle", "operators", None,
     "solve_box_qp_bruteforce"),
    ("operators.solution_oracle", "operators", None, "solve_l1_bruteforce"),
    ("operators.forward", "operators", "ForwardMap", "__call__"),
    ("operators.resolve", "operators", "ZeroResolvent", "resolve"),
    ("operators.resolve", "operators", "AffineResolvent", "resolve"),
    ("operators.resolve", "operators", "BoxResolvent", "resolve"),
    ("operators.resolve", "operators", "L1Resolvent", "resolve"),
    ("operators.lu_factor", "scipy.linalg", None, "lu_factor"),
    ("linalg.inner", "linalg", None, "inner"),
    ("instances.step", "instances", None, "ppm_step"),
    ("instances.step", "instances", None, "tseng_step"),
    ("instances.step", "instances", None, "fb_step"),
    ("hpe_core.run", "hpe_core", None, "run"),
    ("hpe_core.error_check", "hpe_core", None, "_error_ratio"),
    ("hpe_core.trace_append", "hpe_core", "IterationTrace", "append"),
    ("hpe_core.trace_io", "hpe_core", "IterationTrace", "write_jsonl"),
    ("hpe_core.trace_io", "hpe_core", "IterationTrace", "write_csv"),
    ("hpe_core.trace_io", "hpe_core", "IterationTrace", "read_jsonl"),
    ("ergodic.update", "ergodic", "ErgodicState", "update"),
    ("bounds.assert_bounds", "bounds", None, "assert_bounds"),
    ("bounds.closed_form", "bounds", None, "pointwise_bounds"),
    ("bounds.closed_form", "bounds", None, "ergodic_bounds"),
)

GROUPS = tuple(dict.fromkeys(group for group, *_ in SITES))

# Dense matrices a forward call multiplies by, per problem kind, in units
# of n^2 entries: l1_composite evaluates M^T (M z - y), the others one
# n x n product.
_FORWARD_MATRICES = {"box_constrained_quadratic": 1, "bilinear_saddle": 1,
                     "l1_composite": 2, "affine_inclusion": 1}


def _col(arr, lo=0, hi=None):
    """A numpy copy of ``arr[lo:hi]``.

    Copying keeps numpy from holding a buffer of the live array, which
    would stop the tracer from appending to it.
    """
    return np.frombuffer(arr[lo:hi], dtype=arr.typecode)


def self_times(start, end, parent):
    """Per-span self time: duration minus the time its children cover.

    ``parent`` holds each span's parent index into the same arrays, or -1
    for a root.  Spans come from one thread, so the children of a span run
    one after another inside it and the time they cover is the sum of
    their durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.shape[0])
    return dur - covered


class Tracer:
    """In-memory span recorder that wraps the program's entry points."""

    def __init__(self, modules):
        """``modules`` maps the short module names in :data:`SITES` to
        imported module objects."""
        self.modules = modules
        self.site_labels = [f"{module}.{owner}.{name}" if owner
                            else f"{module}.{name}"
                            for _, module, owner, name in SITES]
        self.site_groups = [group for group, *_ in SITES]
        self.site = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"forward_bytes": 0, "trace_io_bytes": 0}
        self.current_job = [-1]
        self._stack = [-1]
        self._forward_bytes = weakref.WeakKeyDictionary()
        self._saved = []

    def __len__(self):
        return len(self.start)

    # -- installation ------------------------------------------------------

    def install(self):
        for sid, (group, module, owner, name) in enumerate(SITES):
            target = self.modules[module]
            if owner is not None:
                target = getattr(target, owner)
            raw = target.__dict__[name] if owner else getattr(target, name)
            after = self._after_hook(group)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, sid, after))
            else:
                wrapped = self._wrap(raw, sid, after)
            self._saved.append((target, name, raw))
            setattr(target, name, wrapped)

    def uninstall(self):
        while self._saved:
            target, name, raw = self._saved.pop()
            setattr(target, name, raw)

    def _after_hook(self, group):
        if group == "operators.make_problem":
            return self._register_forward
        if group == "operators.forward":
            return self._count_forward
        if group == "hpe_core.trace_io":
            return self._count_trace_io
        return None

    def _register_forward(self, args, kwargs, result):
        if result.forward is not None:
            self._forward_bytes[result.forward] = (
                8 * _FORWARD_MATRICES[result.kind] * result.dim ** 2)

    def _count_forward(self, args, kwargs, result):
        self.counters["forward_bytes"] += self._forward_bytes.get(args[0], 0)

    def _count_trace_io(self, args, kwargs, result):
        self.counters["trace_io_bytes"] += os.path.getsize(args[1])

    def _wrap(self, fn, sid, after):
        sites, parents, jobs = self.site, self.parent, self.job
        starts, ends, stack, current_job = (self.start, self.end, self._stack,
                                            self.current_job)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            i = len(starts)
            sites.append(sid)
            parents.append(stack[-1])
            jobs.append(current_job[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapped

    # -- aggregation -------------------------------------------------------

    def group_totals(self, lo, hi):
        """Per-group ``{calls, s, self_s}`` over spans ``lo:hi``.

        The slice must hold whole root spans, so that every parent index
        of a span in it points into it.
        """
        start, end = _col(self.start, lo, hi), _col(self.end, lo, hi)
        parent, site = _col(self.parent, lo, hi), _col(self.site, lo, hi)
        local_parent = np.where(parent >= 0, parent - lo, -1)
        dur = end - start
        self_t = self_times(start, end, local_parent)
        n_sites = len(self.site_labels)
        calls = np.bincount(site, minlength=n_sites)
        busy = np.bincount(site, weights=dur, minlength=n_sites)
        own = np.bincount(site, weights=self_t, minlength=n_sites)
        totals = {g: {"calls": 0, "s": 0.0, "self_s": 0.0} for g in GROUPS}
        for sid, group in enumerate(self.site_groups):
            totals[group]["calls"] += int(calls[sid])
            totals[group]["s"] += float(busy[sid])
            totals[group]["self_s"] += float(own[sid])
        return totals

    def site_calls(self, lo, hi):
        """Calls per site label over spans ``lo:hi``."""
        calls = np.bincount(_col(self.site, lo, hi),
                            minlength=len(self.site_labels))
        return {label: int(c) for label, c in zip(self.site_labels, calls)}

    def group_time_by_job(self, group, lo, hi):
        """Total duration of ``group`` spans per job id over ``lo:hi``."""
        site, job = _col(self.site, lo, hi), _col(self.job, lo, hi)
        dur = _col(self.end, lo, hi) - _col(self.start, lo, hi)
        in_group = np.isin(site, [sid for sid, g in enumerate(self.site_groups)
                                  if g == group])
        per_job = {}
        for j, d in zip(job[in_group].tolist(), dur[in_group].tolist()):
            per_job[j] = per_job.get(j, 0.0) + d
        return per_job

    def write(self, path, jobs):
        """Write every span, the site table and the job table to ``path``."""
        np.savez_compressed(
            path,
            site=_col(self.site), parent=_col(self.parent),
            job=_col(self.job), start=_col(self.start), end=_col(self.end),
            site_labels=np.array(self.site_labels),
            site_groups=np.array(self.site_groups),
            job_labels=np.array(jobs))
