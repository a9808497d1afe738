"""monosplit benchmark: closed-loop command workloads, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_zoo --seed 1 --seconds 25 --trace 0

One client issues ``monosplit`` commands in-process through
``monosplit.cli.main``, one after another, over the jobs that
``workloads.generate`` writes for the seed.  It repeats the whole job
list in passes until ``--seconds`` have gone by (two passes at least),
checks every output of every pass, and reports medians over passes.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untimed warm-up pass, then alternates untraced and traced passes, and
reports the per-layer split.
The last line of standard output is the JSON result; every metric is
also printed as ``metric <name> <value> <unit>``.  See README.md.
"""

import os

# The single-threaded baseline: fix the BLAS pool before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Every gated and per-layer metric takes its unit from BENCHMARK.json.
UNITS = {m["name"]: m["unit"]
         for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
EXACT_UNITS = ("count", "B")
# A large_dense pass takes longer than a run's --seconds; two passes keep
# its run near a minute.  Shorter passes repeat until --seconds are up.
MIN_PASSES = 2
MIN_TRACED_PAIRS = 2
TAIL_CANDIDATES = (50, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10

_EXIT_FOR_VERDICT = {"solved": 0, "max_iters": 1}


def import_program():
    """Import monosplit from this checkout's ``src/``; exit if it is absent."""
    if not (SRC / "monosplit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no monosplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy.linalg
    from monosplit import (bounds, cli, ergodic, hpe_core, instances, linalg,
                           operators, params)
    if Path(cli.__file__).resolve().parent != SRC / "monosplit":
        sys.exit(f"perfbench: imported monosplit from {cli.__file__}, "
                 f"not from {SRC}")
    return {"bounds": bounds, "cli": cli, "ergodic": ergodic,
            "hpe_core": hpe_core, "instances": instances, "linalg": linalg,
            "operators": operators, "params": params,
            "scipy.linalg": scipy.linalg}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(samples, pct):
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(pct / 100.0 * len(xs))) - 1]


def tail_percentile(samples, candidates=TAIL_CANDIDATES,
                    min_beyond=TAIL_MIN_BEYOND):
    """Highest candidate percentile with ``min_beyond`` samples above its rank.

    Returns ``(pct, value)``, or None when no candidate qualifies.
    """
    n = len(samples)
    best = None
    for pct in sorted(candidates):
        if n - max(1, math.ceil(pct / 100.0 * n)) >= min_beyond:
            best = (pct, percentile(samples, pct))
    return best


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------

def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Client:
    """Closed-loop client: issues each job's commands and checks outputs."""

    def __init__(self, program, jobs, work_dir, tracer=None,
                 calibrator=None):
        self.cli = program["cli"]
        self.jobs = jobs
        self.work_dir = Path(work_dir)
        self.out_dir = None        # the current pass's output directory
        self.tracer = tracer
        self.calibrator = calibrator
        self.reference = {}        # job name -> (iterations, digest)
        self.failures = []
        self.job_labels = []       # span job id -> label

    def command(self, argv):
        """Run one CLI command in-process; return (exit code, seconds, output).

        An exception escaping ``main`` is reported in place of an exit code.
        The time of reference kernels that interrupted the command is
        taken out of its seconds.
        """
        cal = self.calibrator
        out = io.StringIO()
        t0 = perf_counter()
        cal_before = cal.seconds if cal is not None else 0.0
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                rc = self.cli.main(argv)
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        cal_inside = cal.seconds - cal_before if cal is not None else 0.0
        return rc, perf_counter() - t0 - cal_inside, out.getvalue()

    def run_pass(self, index):
        # Every pass writes into a new directory: rewriting the files of the
        # previous pass would time the file system's flush of replaced
        # files instead of the program.
        self.out_dir = self.work_dir / f"pass{index}"
        self.out_dir.mkdir()
        cal = self.calibrator
        if cal is not None:
            cal_before = (cal.seconds, cal.runs)
            cal.start()
        try:
            stats = self._run_jobs(index)
        finally:
            if cal is not None:
                cal.stop()
        if cal is not None:
            stats["ref_s"] = ((cal.seconds - cal_before[0])
                              / (cal.runs - cal_before[1]))
        settle_files()
        return stats

    def _run_jobs(self, index):
        stats = {"wall_s": 0.0, "solve_s": 0.0, "certify_s": 0.0,
                 "iterations": 0, "job_s": [], "failed": 0}
        for job in self.jobs:
            if self.tracer is not None:
                self.tracer.current_job[0] = len(self.job_labels)
            self.job_labels.append(f"pass{index}/{job.name}/{job.label}")
            issue = (self._bench if job.command == "bench"
                     else self._solve_certify)
            problem, seconds, iterations, digest = issue(job, stats)
            if problem is None:
                ref = self.reference.setdefault(job.name,
                                                (iterations, digest))
                if ref != (iterations, digest):
                    problem = (f"output differs from pass 0: "
                               f"{ref} vs {(iterations, digest)}")
            if problem is not None:
                stats["failed"] += 1
                self.failures.append(f"pass {index} {job.name} "
                                     f"({job.label}): {problem}")
                seconds = math.inf
            stats["iterations"] += iterations
            stats["job_s"].append(seconds)
        return stats

    def _solve_certify(self, job, stats):
        out_dir = self.out_dir / job.name
        rc, t_solve, _ = self.command(["solve", "--config", job.config,
                                       "--out", str(out_dir)])
        stats["wall_s"] += t_solve
        stats["solve_s"] += t_solve
        try:
            with open(out_dir / "summary.json") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"solve exit {rc!r}, no summary: {exc}", t_solve, 0, None
        iterations = summary["iterations"]
        if rc != _EXIT_FOR_VERDICT.get(summary["verdict"]):
            return (f"solve exit {rc!r} for verdict {summary['verdict']}",
                    t_solve, iterations, None)
        trace = out_dir / "trace.jsonl"
        with open(trace) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != iterations:
            return (f"trace has {rows} rows for {iterations} iterations",
                    t_solve, iterations, None)
        rc, t_cert, text = self.command(["certify", "--trace", str(trace),
                                         "--config", job.config])
        stats["wall_s"] += t_cert
        stats["certify_s"] += t_cert
        seconds = t_solve + t_cert
        if rc != 0 or "[FAIL]" in text or "[PASS]" not in text:
            return (f"certify exit {rc!r}: {text.strip()!r}", seconds,
                    iterations, None)
        return None, seconds, iterations, _digest(trace)

    def _bench(self, job, stats):
        out_csv = self.out_dir / f"{job.name}.csv"
        rc, seconds, _ = self.command(["bench", "--config", job.config,
                                       "--out", str(out_csv), "--jobs", "1"])
        stats["wall_s"] += seconds
        stats["solve_s"] += seconds
        if rc != 0:
            return f"bench exit {rc!r}", seconds, 0, None
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        iterations = sum(int(r["iterations"]) for r in rows)
        bad = [r for r in rows if r["status"] != "ok"]
        if len(rows) != job.cells or bad:
            return (f"bench wrote {len(rows)} rows for {job.cells} cells, "
                    f"errors {[r['error'] for r in bad]}", seconds,
                    iterations, None)
        return None, seconds, iterations, _digest(out_csv)


def settle_files():
    """Write every dirty file to disk; called only outside timed work.

    Otherwise the kernel writes back one pass's hundreds of small files
    while a later set-up or pass is being timed.
    """
    os.sync()


def measure_setup(cli, jobs):
    """Summed time of ``cli.load_config`` over every job's config."""
    total = 0.0
    for job in jobs:
        t0 = perf_counter()
        cli.load_config(job.config)
        total += perf_counter() - t0
    return total


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(program, workload, jobs, work_dir, seconds):
    kernel, period = workloads.CALIBRATION[workload]
    client = Client(program, jobs, work_dir,
                    calibrator=calibrate.Calibrator(kernel, period))
    setups, passes = [], []
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
        # A set-up before every pass spreads the set-up samples over the
        # whole run, as the passes are, instead of one burst at its start.
        setups.append(measure_setup(program["cli"], jobs))
        passes.append(client.run_pass(len(passes)))
    med = {k: statistics.median(p[k] for p in passes)
           for k in ("wall_s", "solve_s", "certify_s", "ref_s")}
    # Each pass's command time in units of the reference kernel's mean
    # time over that same pass; see calibrate.py.
    rel = {k: statistics.median(p[k] / p["ref_s"] for p in passes)
           for k in ("wall_s", "solve_s")}
    values = {
        "wall_ref": rel["wall_s"],
        "setup_s": statistics.median(setups),
        "solve_ref": rel["solve_s"],
        "iterations": passes[0]["iterations"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    extra = {"wall_s": (med["wall_s"], "s"), "solve_s": (med["solve_s"], "s"),
             f"ref_kernel.{kernel}_s": (med["ref_s"], "s")}
    if any(job.command == "solve_certify" for job in jobs):
        extra["certify_s"] = (med["certify_s"], "s")
    tails = [tail_percentile(p["job_s"]) for p in passes]
    if tails[0] is not None:
        extra["job_s.p50"] = (statistics.median(
            percentile(p["job_s"], 50) for p in passes), "s")
        extra[f"job_s.p{tails[0][0]:g}"] = (
            statistics.median(v for _, v in tails), "s")
        extra["job_s.samples"] = (len(jobs), "count")
    return client, passes, metrics, extra


def _layer_metrics(tracer, lo, hi, stats):
    totals = tracer.group_totals(lo, hi)
    calls = tracer.site_calls(lo, hi)
    out = {}
    for group, t in totals.items():
        out[f"{group}.calls"] = t["calls"]
        out[f"{group}.s"] = t["s"]
        out[f"{group}.self_s"] = t["self_s"]
    iters = stats["iterations"]
    lookups = calls["operators.AffineResolvent.resolve"]
    factors = totals["operators.lu_factor"]["calls"]
    forward_s = totals["operators.forward"]["s"]
    self_sum = sum(t["self_s"] for t in totals.values())
    out.update({
        "linalg.inner.calls_per_iter": totals["linalg.inner"]["calls"] / iters,
        "hpe_core.run.us_per_iter": 1e6 * totals["hpe_core.run"]["s"] / iters,
        "operators.forward.bytes_computed": stats["forward_bytes"],
        "operators.forward.gbps_computed":
            stats["forward_bytes"] / forward_s / 1e9 if forward_s else 0.0,
        "operators.lu_cache.lookups": lookups,
        "operators.lu_cache.hit_ratio":
            (lookups - factors) / lookups if lookups else 0.0,
        "hpe_core.trace_io.bytes": stats["trace_io_bytes"],
        "trace.wall_s": stats["wall_s"],
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": stats["wall_s"] - self_sum,
        "trace.spans": hi - lo,
        "hpe_core.run.iterations": iters,
    })
    return out


def run_traced(program, jobs, work_dir, seconds, spans_path):
    tracer = spans.Tracer(program)
    client = Client(program, jobs, work_dir, tracer)
    untraced, traced = [], []
    t0 = perf_counter()
    # An untimed warm-up pass keeps a slow first pass out of the untraced
    # median that the tracing overhead is measured against.
    warm_up = client.run_pass(0)
    while (len(traced) < MIN_TRACED_PAIRS
           or perf_counter() - t0 < seconds):
        untraced.append(client.run_pass(1 + len(untraced) + len(traced)))
        lo = len(tracer)
        before = dict(tracer.counters)
        tracer.install()
        try:
            stats = client.run_pass(1 + len(untraced) + len(traced))
        finally:
            tracer.uninstall()
        for key, value in tracer.counters.items():
            stats[key] = value - before[key]
        stats["layers"] = _layer_metrics(tracer, lo, len(tracer), stats)
        stats["site_calls"] = tracer.site_calls(lo, len(tracer))
        stats["span_range"] = (lo, len(tracer))
        traced.append(stats)
    tracer.write(spans_path, client.job_labels)

    layers = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        layers[name] = (values[0] if UNITS[name] in EXACT_UNITS
                        else statistics.median(values))
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_frac"] = layers["trace.wall_s"] / untraced_wall - 1
    metrics = {name: (value, UNITS[name]) for name, value in layers.items()}

    mismatched = [name for name in traced[0]["layers"]
                  if UNITS[name] in EXACT_UNITS
                  and len({p["layers"][name] for p in traced}) > 1]
    if any(p["site_calls"] != traced[0]["site_calls"] for p in traced):
        mismatched.append("site calls")
    return client, [warm_up] + untraced + traced, metrics, mismatched, \
        _per_class(tracer, client, traced)


def _per_class(tracer, client, traced):
    """Traced ``hpe_core.run`` microseconds per iteration for each job class.

    Uses the last traced pass; each class pools its jobs.
    """
    lo, hi = traced[-1]["span_range"]
    per_job = tracer.group_time_by_job("hpe_core.run", lo, hi)
    first = len(client.job_labels) - len(client.jobs)
    totals = {}
    for offset, job in enumerate(client.jobs):
        iters, _ = client.reference.get(job.name, (0, None))
        run_s = per_job.get(first + offset, 0.0)
        acc = totals.setdefault(job.label, [0.0, 0])
        acc[0] += run_s
        acc[1] += iters
    return {label: (1e6 * s / n if n else math.nan, n)
            for label, (s, n) in sorted(totals.items())}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    program = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        jobs = workloads.generate(args.workload, args.seed,
                                  work_dir / "configs")
        runs_dir = work_dir / "runs"
        runs_dir.mkdir()
        settle_files()
        mismatched = []
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
            client, passes, metrics, mismatched, classes = run_traced(
                program, jobs, runs_dir, args.seconds, spans_path)
            extra = {}
        else:
            client, passes, metrics, extra = run_untraced(
                program, args.workload, jobs, runs_dir, args.seconds)
            if len({p["iterations"] for p in passes}) > 1:
                mismatched.append("iterations")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    failed = sum(p["failed"] for p in passes)
    extra["fail_frac"] = (failed / attempted, "ratio")
    for line in client.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    for name in mismatched:
        print(f"perfbench: count {name} differs between passes",
              file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs {len(jobs)} passes {len(passes)} "
          f"blas_threads {BLAS_THREADS}")
    print(f"pass wall_s{' (first: untimed warm-up)' if args.trace else ''} "
          + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    if not args.trace:
        print("pass wall_ref "
              + " ".join(f"{p['wall_s'] / p['ref_s']:.1f}" for p in passes))
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for label, (us, iters) in classes.items():
            print(f"class {label} hpe_core.run.us_per_iter {us:.1f} us "
                  f"over {iters} iterations")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value} {unit}")
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
