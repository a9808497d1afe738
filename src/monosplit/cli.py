"""Command-line harness: parameter tables, solve runs, sweeps, trace audits.

Config files are JSON with an explicit ``schema_version``; unknown fields
are rejected so that golden fixtures stay unambiguous.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds, hpe_core, instances, operators, params as params_mod
from .errors import ConfigError, MonosplitError, ParameterError

CONFIG_SCHEMA_VERSION = 1

_CURVE_SIGMAS = (0.0, 0.25, 0.5, 0.75, 0.99)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _expect_keys(d, context, required, optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown fields in {context}: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing fields in {context}: {sorted(missing)}")
    return d


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    """A finite int or float; an int beyond the float range is not one."""
    if isinstance(x, int) and not isinstance(x, bool):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float) and math.isfinite(x)


def _is_vector(x):
    return isinstance(x, list) and all(_is_real(v) for v in x)


def _is_matrix(x):
    return (isinstance(x, list) and all(_is_vector(row) for row in x)
            and len({len(row) for row in x}) <= 1)


_INTEGER = ("an integer", _is_integer)
_REAL = ("a finite real number", _is_real)
# The value type of every numeric field outside "sweep", by field name.
_FIELD_TYPES = {
    "dimension": _INTEGER, "seed": _INTEGER, "max_iters": _INTEGER,
    "ramp_iters": _INTEGER,
    "alpha": _REAL, "sigma": _REAL, "beta": _REAL, "tau": _REAL,
    "lambda": _REAL, "lambda_floor": _REAL, "rho": _REAL, "eps_hat": _REAL,
    "matrix": ("a list of numeric rows of equal length", _is_matrix),
    "offset": ("a list of numbers", _is_vector),
}
# The least value of an integer field, where the library needs one.
_FIELD_MINIMA = {"dimension": 1, "seed": 0, "max_iters": 1}
# The greatest: every zoo kind builds dense float64 matrices of order n or
# n/2, and an affine build holds three of them at once (n = 4096: 3 x 134
# MB), so a larger dimension exhausts memory or numpy's array limits.
_FIELD_MAXIMA = {"dimension": 4096}


def _expect_types(d, context):
    for key, value in d.items():
        if key in _FIELD_TYPES:
            kind, ok = _FIELD_TYPES[key]
            if not ok(value):
                raise ConfigError(f"{context}.{key} must be {kind}, "
                                  f"got {json.dumps(value)}")
        if key in _FIELD_MINIMA and value < _FIELD_MINIMA[key]:
            raise ConfigError(f"{context}.{key} must be >= "
                              f"{_FIELD_MINIMA[key]}, got {value}")
        if key in _FIELD_MAXIMA and value > _FIELD_MAXIMA[key]:
            raise ConfigError(f"{context}.{key} must be <= "
                              f"{_FIELD_MAXIMA[key]}, got {value}")
    return d


def load_config(path, seed_override=None):
    """Parse and validate an experiment config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # also bad UTF-8, huge integers
        raise ConfigError(f"cannot read config {path}: {exc}")
    _expect_keys(raw, "config", ("schema_version", "problem", "instance",
                                 "params"),
                 ("stopping", "sweep"))
    if raw["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw['schema_version']} "
            f"(expected {CONFIG_SCHEMA_VERSION})")

    prob = _expect_keys(raw["problem"], "problem",
                        ("kind", "dimension", "seed"), ("matrix", "offset"))
    if seed_override is not None:
        prob["seed"] = seed_override  # so the trace meta names the seed run
    _expect_types(prob, "problem")
    given = [key for key in ("matrix", "offset") if key in prob]
    if given and prob["kind"] != "affine_inclusion":
        raise ConfigError(f"problem.{given[0]} is read only by kind "
                          f"affine_inclusion, not by {prob['kind']!r}")
    if len(given) == 1:
        missing, = {"matrix", "offset"} - set(given)
        raise ConfigError(f"problem.{given[0]} needs problem.{missing}")
    problem = operators.make_problem(
        prob["kind"], prob["dimension"], prob["seed"],
        matrix=prob.get("matrix"), offset=prob.get("offset"))

    inst = _expect_types(_expect_keys(raw["instance"], "instance", ("kind",),
                                      ("lambda", "lambda_floor")), "instance")
    config = instances.InstanceConfig(
        kind=inst["kind"], lam=inst.get("lambda"),
        lambda_floor=inst.get("lambda_floor"))

    par = _expect_types(_expect_keys(
        raw["params"], "params", (),
        ("alpha", "sigma", "beta", "tau", "ramp_iters")), "params")
    if "beta" in par and "tau" in par:
        raise ConfigError("params gives both beta and tau; give one")
    params = params_mod.HpeParams.from_dict(par)

    stop = hpe_core.StoppingRule(**_expect_types(_expect_keys(
        raw.get("stopping", {}), "stopping", (),
        ("rho", "eps_hat", "max_iters")), "stopping"))

    sweep = raw.get("sweep")
    if sweep is not None:
        _expect_keys(sweep, "sweep", (), ("alpha", "sigma", "beta", "tau"))
        for name, grid in sweep.items():
            if not _is_vector(grid):
                raise ConfigError(f"sweep.{name} must be a list of finite "
                                  f"real numbers, got {json.dumps(grid)}")
        if not any(sweep.get(k) for k in ("alpha", "sigma", "beta", "tau")):
            raise ConfigError("sweep present but every grid is empty")
        if "beta" in sweep and "tau" in sweep:
            raise ConfigError("sweep has grids for both beta and tau; "
                              "give one")

    return {"problem": problem, "instance": config, "params": params,
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
            params_mod.HpeParams.from_beta(args.alpha, sigma, beta)
            flag = ""
        except ParameterError:
            flag = "  (inadmissible)"
        print(f"q(alpha)   = {params_mod.q_value(args.alpha, eta)}{flag}")
    return 0


# ---------------------------------------------------------------------------
# solve subcommand
# ---------------------------------------------------------------------------

def _run_config(cfg):
    return instances.solve(cfg["problem"], cfg["instance"], cfg["params"],
                           stop=cfg["stop"])


def _line(check):
    return f"[{check.status.upper()}] {check.name}: {check.detail}"


def cmd_solve(args):
    cfg = load_config(args.config, seed_override=args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    state = _run_config(cfg)

    header = {"config": cfg["raw"], "params": cfg["params"].to_dict(),
              "lambda_floor": state.lambda_floor, "verdict": state.verdict}
    state.trace.write_jsonl(os.path.join(out_dir, "trace.jsonl"),
                            header=header)

    summary = {
        "verdict": state.verdict,
        "iterations": state.k,
        "final_norm_v": state.trace.column("norm_v")[-1],
        "final_eps": state.trace.column("eps")[-1],
    }
    checks = certify_trace(state.trace, cfg)
    summary["checks"] = [dataclasses.asdict(c) for c in checks]
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, default=float)

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

    The cell's values replace those of the config's ``params`` section (a
    ``beta`` or ``tau`` replaces both), so a cell runs with the parameters
    a ``solve`` of its config would.  The problem, instance and stopping
    rule are shared by every cell.
    """
    row = [repr(float(v)) for v in overrides.values()]
    base = cfg["raw"]["params"]
    if not overrides.keys().isdisjoint(("beta", "tau")):
        base = {k: v for k, v in base.items() if k not in ("beta", "tau")}
    try:
        cell = dict(cfg, params=params_mod.HpeParams.from_dict(
            dict(base, **overrides)))
        state = _run_config(cell)
        checks = certify_trace(state.trace, cell)
    except MonosplitError as exc:
        return row + ["error", "", 0, "nan", "nan", "nan", str(exc)]
    failed = "; ".join(_line(c) for c in checks if c.status == bounds.FAIL)
    if failed:
        return row + ["error", "", 0, "nan", "nan", "nan", failed]
    worst = next(c.utilization for c in checks if c.name == "rate_bounds")
    return row + ["ok", state.verdict, state.k,
                  repr(float(state.trace.column("norm_v")[-1])),
                  repr(float(state.trace.column("eps")[-1])),
                  repr(math.nan if worst is None else worst), ""]


def cmd_bench(args):
    cfg = load_config(args.config, seed_override=args.seed)
    sweep = cfg["sweep"]
    if not sweep:
        raise ConfigError("bench needs a nonempty 'sweep' section")
    # each cell lists its overrides in grid order, the CSV's column order
    grid_names = [name for name in ("alpha", "sigma", "beta", "tau")
                  if sweep.get(name)]
    cells = [{}]
    for name in grid_names:
        cells = [dict(c, **{name: v}) for c in cells for v in sweep[name]]
    cells.sort(key=lambda c: tuple(sorted(c.items())))

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
    _, floor = instances.make_inner_solver(problem, cfg["instance"], params)
    return bounds.audit(trace, bounds.BoundInputs(
        d0=problem.d0(np.zeros(problem.dim)), lambda_floor=floor,
        params=params))


def cmd_certify(args):
    cfg = load_config(args.config)
    trace, meta = hpe_core.IterationTrace.read_jsonl(args.trace)
    if meta.get("config", cfg["raw"]) != cfg["raw"]:
        raise ConfigError(f"trace {args.trace} was recorded with another "
                          f"config than {args.config}")
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
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("solve", help="run one configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None)
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
