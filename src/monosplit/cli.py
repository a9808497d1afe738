"""Command-line harness: parameter tables, solve runs, sweeps, trace audits.

Config files are JSON with an explicit ``schema_version``; unknown fields
are rejected, so that a config means one run and a trace certifies only
against the config it records.
"""

import argparse
import collections
import csv
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import bounds, hpe_core, instances, operators, params as params_mod
from .errors import ConfigError, MonosplitError, ParameterError

CONFIG_SCHEMA_VERSION = 1

_CURVE_SIGMAS = (0.0, 0.25, 0.5, 0.75, 0.99)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _is_real(x):
    """A finite int or float; an int beyond the float range is not one."""
    if type(x) is int:  # a JSON true or false is a bool, not an int
        return abs(x) <= sys.float_info.max
    return type(x) is float and math.isfinite(x)


def _is_vector(x):
    return isinstance(x, list) and all(_is_real(v) for v in x)


# A config field: whether it is required, its type (a description and a
# test; None: not checked here), and an integer's least and greatest value.
_Field = collections.namedtuple("_Field", "required kind least greatest",
                                defaults=(False, None, None, None))
_REQUIRED = _Field(True)
_INTEGER = ("an integer", lambda x: type(x) is int)
_REAL = _Field(kind=("a finite real number", _is_real))
_GRID = _Field(kind=("a list of finite real numbers", _is_vector))


def _one_of(kinds):
    """A required field that names one of ``kinds``."""
    return _Field(True, (f"one of {', '.join(kinds)}", kinds.__contains__))


# Every field of every config section.  A dimension above 4096 exhausts
# memory or numpy's array limits: every zoo kind builds dense float64
# matrices of order n or n/2, an affine or box build two at once (2 x 134 MB).
_CONFIG_FIELDS = {
    "config": {"schema_version": _Field(True, _INTEGER), "problem": _REQUIRED,
               "instance": _REQUIRED, "params": _REQUIRED,
               "stopping": _Field(), "sweep": _Field()},
    "problem": {"kind": _one_of(operators.PROBLEM_KINDS),
                "dimension": _Field(True, _INTEGER, 1, 4096),
                "seed": _Field(True, _INTEGER, 0)},
    "instance": {"kind": _one_of(instances.INSTANCE_KINDS)},
    "params": {"alpha": _REAL, "sigma": _REAL, "beta": _REAL},
    "stopping": {"rho": _REAL, "eps_hat": _REAL,
                 "max_iters": _Field(False, _INTEGER, 1)},
    # in the bench CSV's column order
    "sweep": {"alpha": _GRID, "sigma": _GRID, "beta": _GRID},
}


def _section(d, name):
    """Check config section ``name`` against its fields; return it."""
    fields = _CONFIG_FIELDS[name]
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown fields in {name}: {sorted(unknown)}")
    missing = {key for key in fields if fields[key].required} - set(d)
    if missing:
        raise ConfigError(f"missing fields in {name}: {sorted(missing)}")
    for key, value in d.items():
        _, kind, least, greatest = fields[key]
        if kind is not None and not kind[1](value):
            raise ConfigError(f"{name}.{key} must be {kind[0]}, "
                              f"got {json.dumps(value)}")
        if least is not None and value < least:
            raise ConfigError(f"{name}.{key} must be >= {least}, got {value}")
        if greatest is not None and value > greatest:
            raise ConfigError(f"{name}.{key} must be <= {greatest}, "
                              f"got {value}")
    return d


def load_config(path):
    """Parse and validate an experiment config file, leaving it as read."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 too
        raise ConfigError(f"cannot read config {path}: {exc}")
    _section(raw, "config")
    if raw["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw['schema_version']} "
            f"(expected {CONFIG_SCHEMA_VERSION})")

    prob = _section(raw["problem"], "problem")
    problem = operators.make_problem(prob["kind"], prob["dimension"],
                                     prob["seed"])

    kind = _section(raw["instance"], "instance")["kind"]

    params = params_mod.HpeParams.from_dict(
        _section(raw["params"], "params"))

    stop = hpe_core.StoppingRule(**_section(raw.get("stopping", {}),
                                            "stopping"))

    sweep = raw.get("sweep")
    if sweep is not None:
        _section(sweep, "sweep")
        if not any(sweep.values()):
            raise ConfigError("sweep present but every grid is empty")

    return {"problem": problem, "instance": kind, "params": params,
            "stop": stop, "sweep": sweep, "raw": raw}


# ---------------------------------------------------------------------------
# params subcommand
# ---------------------------------------------------------------------------

def cmd_params(args):
    if args.curve:
        with open(args.curve, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sigma", "beta", "tau"])
            grid = np.linspace(0.01, 0.99, 99)
            for sigma in _CURVE_SIGMAS:
                for beta in grid:
                    writer.writerow([repr(float(sigma)), repr(float(beta)),
                                     repr(float(params_mod.tau_of(
                                         sigma, float(beta))))])
        print(f"wrote relaxation curve to {args.curve}")
        return 0
    sigma, beta = args.sigma, args.beta
    bp = params_mod.beta_prime(sigma, beta)
    tau = params_mod.tau_of(sigma, beta)
    eta = params_mod.eta_of(sigma, tau)
    print(f"sigma      = {sigma}")
    print(f"beta       = {beta}")
    print(f"beta_prime = {bp}")
    print(f"tau        = {tau}")
    print(f"eta        = {eta}")
    if args.alpha is not None:
        try:
            params_mod.HpeParams(args.alpha, sigma, beta)
            flag = ""
        except ParameterError:
            flag = "  (inadmissible)"
        try:
            q = params_mod.q_value(args.alpha, eta)
        except OverflowError:  # alpha^2 is beyond the float range
            q = math.nan
        print(f"q(alpha)   = {q}{flag}")
    return 0


# ---------------------------------------------------------------------------
# solve subcommand
# ---------------------------------------------------------------------------

def _line(check):
    return f"[{check.status.upper()}] {check.name}: {check.detail}"


def trace_meta(cfg, verdict):
    """The meta line of the trace of a run of ``cfg`` that ends with
    ``verdict``: ``solve`` writes it, and ``certify`` compares a trace's
    with it whole.  The stepsize floor is the inner solver's own."""
    p = cfg["params"]
    _, lam = instances.make_inner_solver(cfg["problem"], cfg["instance"], p)
    # trace schema 1 records an inertial ramp; 0 is no ramp
    return {"schema_version": 1, "config": cfg["raw"],
            "params": {"alpha": p.alpha, "sigma": p.sigma, "beta": p.beta,
                       "tau": p.tau, "ramp_iters": 0},
            "lambda_floor": lam, "verdict": verdict}


def cmd_solve(args):
    cfg = load_config(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    state = instances.solve(cfg["problem"], cfg["instance"], cfg["params"],
                            stop=cfg["stop"])

    state.trace.write_jsonl(os.path.join(out_dir, "trace.jsonl"),
                            trace_meta(cfg, state.verdict))

    checks = certify_trace(state.trace, cfg)
    summary = {
        "verdict": state.verdict,
        "iterations": state.k,
        "final_norm_v": state.trace.columns["norm_v"][-1],
        "final_eps": state.trace.columns["eps"][-1],
        "checks": [vars(c) for c in checks],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(json.dumps(summary, indent=2))

    print(f"verdict={state.verdict} k={state.k} "
          f"norm_v={summary['final_norm_v']:.3e} "
          f"eps={summary['final_eps']:.3e}")
    failed = [c for c in checks if c.status == bounds.FAIL]
    for check in failed:
        print(_line(check), file=sys.stderr)
    if failed:
        return 3
    return 0 if state.verdict == "solved" else 1


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------

def _bench_cell(cfg, overrides):
    """Solve one sweep cell on the sweep's shared problem; return its CSV row.

    The cell's values replace those of the config's ``params`` section,
    so a cell runs with the parameters a ``solve`` of its config would.
    The problem, instance and stopping rule are shared by every cell.
    """
    row = [repr(float(v)) for v in overrides.values()]
    try:
        cell = dict(cfg, params=params_mod.HpeParams.from_dict(
            dict(cfg["raw"]["params"], **overrides)))
        state = instances.solve(cell["problem"], cell["instance"],
                                cell["params"], stop=cell["stop"])
        checks = certify_trace(state.trace, cell)
    except MonosplitError as exc:
        return row + ["error", "", 0, "nan", "nan", "nan", str(exc)]
    failed = "; ".join(_line(c) for c in checks if c.status == bounds.FAIL)
    if failed:
        return row + ["error", "", 0, "nan", "nan", "nan", failed]
    worst = next(c.utilization for c in checks if c.name == "rate_bounds")
    return row + ["ok", state.verdict, state.k,
                  float.__repr__(state.trace.column("norm_v")[-1]),
                  float.__repr__(state.trace.column("eps")[-1]),
                  repr(math.nan if worst is None else worst), ""]


def cmd_bench(args):
    cfg = load_config(args.config)
    sweep = cfg["sweep"]
    if not sweep:
        raise ConfigError("bench needs a nonempty 'sweep' section")
    # each cell lists its overrides in grid order, the CSV's column order
    grid_names = [name for name in _CONFIG_FIELDS["sweep"] if sweep.get(name)]
    cells = sorted((dict(zip(grid_names, values)) for values in
                    itertools.product(*(sweep[name] for name in grid_names))),
                   key=lambda c: tuple(sorted(c.items())))

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(grid_names + ["status", "verdict", "iterations",
                                      "final_norm_v", "final_eps",
                                      "worst_bound_utilization", "error"])
        for cell in cells:
            writer.writerow(_bench_cell(cfg, cell))
    print(f"wrote {len(cells)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# certify subcommand
# ---------------------------------------------------------------------------

def certify_trace(trace, cfg):
    """Audit a trace against the config it was recorded with.

    ``solve``, ``bench`` and ``certify`` all audit through this one
    function: the run starts at the origin, and the stepsize floor is the
    inner solver's own.
    """
    problem, params = cfg["problem"], cfg["params"]
    _, lam = instances.make_inner_solver(problem, cfg["instance"], params)
    return bounds.audit(trace, bounds.BoundInputs(
        d0=problem.d0(), lambda_floor=lam, params=params))


def _check_end(trace, stop, path):
    """Refuse, with :class:`ConfigError`, a trace that does not end where
    a run of its stopping rule does: at the first row whose ``norm_v``
    and ``eps`` meet the rule, or at ``max_iters`` when no row does.
    Returns the verdict of that run."""
    met = stop.met(trace.column("norm_v"), trace.column("eps"))
    if met.any():
        end, verdict = int(met.argmax()) + 1, "solved"
        where = f"at k={end}, the first step that meets its stopping rule"
    else:
        end, verdict = stop.max_iters, "max_iters"
        where = (f"at max_iters={end}, as no recorded step meets its "
                 f"stopping rule")
    if len(trace) != end:
        raise ConfigError(f"trace {path} ends at k={len(trace)}, but a run "
                          f"of its config ends {where}")
    return verdict


def cmd_certify(args):
    cfg = load_config(args.config)
    trace, meta = hpe_core.IterationTrace.read_jsonl(args.trace)
    if meta.get("config") != cfg["raw"]:
        raise ConfigError(f"trace {args.trace} " + (
            f"was recorded with another config than {args.config}"
            if "config" in meta else "records no config"))
    want = trace_meta(cfg, _check_end(trace, cfg["stop"], args.trace))
    # repr tells 1 from 1.0 and true; it runs only on a value equal to
    # the one written, so never on a value nested deeper than that one
    differ = sorted(meta.keys() ^ want.keys() | {
        key for key in meta.keys() & want.keys()
        if meta[key] != want[key] or repr(meta[key]) != repr(want[key])})
    if differ:
        raise ConfigError(f"the meta line of trace {args.trace} differs from "
                          f"the one a run of its config writes in {differ}")
    checks = certify_trace(trace, cfg)
    for check in checks:
        print(_line(check))
    return 3 if any(c.status == bounds.FAIL for c in checks) else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="monosplit",
        description="Inertial under-relaxed splitting solvers for monotone "
                    "inclusions, with per-iteration certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="parameter tables and the "
                                      "relaxation curve")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0 / 3.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--curve", metavar="PATH",
                   help="write the tau(sigma, beta) curve as CSV")
    # take "-1e200" as a value, not an option: argparse's pattern, widened
    p._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("solve", help="run one configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    # only 1, the value perfbench/run.py passes: every cell runs in this
    # process, on the one problem the command builds
    p.add_argument("--jobs", type=int, default=1, choices=[1])
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("certify", help="re-verify a recorded trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_certify)
    return parser


@functools.cache
def _parser():
    """The parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MonosplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
