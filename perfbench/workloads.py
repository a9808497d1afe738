"""Seeded workload generator: writes the config files each workload runs.

A workload is a fixed mix of jobs; the seed only picks the problem data
(the ``problem.seed`` of every config) and the order in which the single
closed-loop client issues the jobs.  The program under test receives
nothing but the config files written here.

Every ``solve`` job carries an iteration cap set just below its problem
kind's convergence range at ``rho = 1e-6`` (affine ``ppm`` jobs solve
first).  Most jobs therefore stop at the cap, so the iterations done per
seed stay nearly constant and the seed changes the data without changing
the amount of work much.
"""

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("desk_zoo", "sweep_exact", "large_dense")

STOPPING_RHO = 1e-6
STOPPING_EPS_HAT = 1e-9
BETA = 0.4

# (problem kind, dimension, instance, sigma, iteration cap)
DESK_VARIANTS = (
    ("bilinear_saddle", 8, "tseng_fbf", 0.5, 400),
    ("affine_inclusion", 8, "ppm", 0.0, 40),
    ("box_constrained_quadratic", 5, "forward_backward", 0.5, 80),
    ("box_constrained_quadratic", 5, "tseng_fbf", 0.5, 80),
    ("l1_composite", 5, "forward_backward", 0.5, 120),
    ("l1_composite", 5, "tseng_fbf", 0.5, 120),
)
DESK_ALPHAS = (0.0, 0.2)
DESK_SEEDS_PER_VARIANT = 10          # 6 variants x 2 alphas x 10 = 120 jobs

# ``bench`` rebuilds the problem, with its 3^n solution oracle, once in
# the command and once per grid cell.  box_constrained_quadratic stops its
# enumeration at the first stationary pattern, so its cost swings with the
# data from nearly nothing to the full 3^n; it runs at n=6, where even the
# full enumeration is a small share of the pass.  l1_composite always
# enumerates every pattern and carries the construction cost at n=9.
SWEEP_CONFIGS = (
    ("l1_composite", 9, "forward_backward", 60),
    ("box_constrained_quadratic", 6, "forward_backward", 30),
)
SWEEP_GRID = {"alpha": [0.0, 0.2], "sigma": [0.5, 0.7]}

# At n=2000 bilinear converges in 2900-3400 iterations and box in 350-380
# (seeds 1-6), so the caps of 2500 and 300 keep both close to a full
# solve while every seed stops at the cap.  Affine ``ppm`` solves in about
# 20 iterations, well before its cap: one LU factorisation, then cache hits.
# Each n=2000 command also builds its problem (0.4-1.6 s); the bilinear
# iterations are what keep the dense kernels the larger share of a pass.
LARGE_CONFIGS = (
    ("bilinear_saddle", 2000, "tseng_fbf", 0.5, 0.2, 2500),
    ("affine_inclusion", 2000, "ppm", 0.0, 0.2, 300),
    ("box_constrained_quadratic", 2000, "forward_backward", 0.5, 0.2, 300),
)

# The reference kernel (see calibrate.py) interleaved with each workload's
# commands, and its period in seconds of process CPU time: the kernel
# takes about 1.4 ms (interp) or 22 ms (dense), 7% of the period.
CALIBRATION = {
    "desk_zoo": ("interp", 0.02),
    "sweep_exact": ("interp", 0.02),
    "large_dense": ("dense", 0.3),
}


@dataclass(frozen=True)
class Job:
    """One client request: ``solve`` then ``certify``, or one ``bench``."""

    name: str
    command: str        # "solve_certify" or "bench"
    config: str         # path of the generated config file
    label: str          # job class, e.g. "tseng_fbf/bilinear_saddle/n=8"
    cells: int = 0      # grid cells a bench job must report


def _config(kind, dim, seed, instance, alpha, sigma, max_iters, sweep=None):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": kind, "dimension": dim, "seed": seed},
        "instance": {"kind": instance},
        "params": {"alpha": alpha, "sigma": sigma, "beta": BETA},
        "stopping": {"rho": STOPPING_RHO, "eps_hat": STOPPING_EPS_HAT,
                     "max_iters": max_iters},
    }
    if sweep is not None:
        cfg["sweep"] = sweep
    return cfg


def _specs(workload, rng):
    """Yield ``(command, label, config dict, cells)`` for every job."""
    if workload == "desk_zoo":
        for kind, dim, inst, sigma, cap in DESK_VARIANTS:
            for alpha in DESK_ALPHAS:
                for _ in range(DESK_SEEDS_PER_VARIANT):
                    yield ("solve_certify", f"{inst}/{kind}/n={dim}",
                           _config(kind, dim, rng.randrange(2 ** 31), inst,
                                   alpha, sigma, cap), 0)
    elif workload == "sweep_exact":
        cells = len(SWEEP_GRID["alpha"]) * len(SWEEP_GRID["sigma"])
        for kind, dim, inst, cap in SWEEP_CONFIGS:
            yield ("bench", f"bench/{kind}/n={dim}",
                   _config(kind, dim, rng.randrange(2 ** 31), inst, 0.0, 0.5,
                           cap, sweep=SWEEP_GRID), cells)
    elif workload == "large_dense":
        for kind, dim, inst, sigma, alpha, cap in LARGE_CONFIGS:
            yield ("solve_certify", f"{inst}/{kind}/n={dim}",
                   _config(kind, dim, rng.randrange(2 ** 31), inst, alpha,
                           sigma, cap), 0)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")


def generate(workload, seed, out_dir):
    """Write the workload's config files under ``out_dir``; return its jobs.

    The same ``(workload, seed)`` always writes the same bytes and returns
    the same jobs in the same order.
    """
    rng = random.Random(f"{workload}/{seed}")
    specs = list(_specs(workload, rng))
    rng.shuffle(specs)
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for i, (command, label, cfg, cells) in enumerate(specs):
        name = f"job{i:03d}"
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        jobs.append(Job(name, command, path, label, cells))
    return jobs
