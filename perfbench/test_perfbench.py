"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import hashlib
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import run
import spans
import workloads


# -- percentile rule ---------------------------------------------------------

def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == 50
    assert run.percentile(xs, 90) == 90
    assert run.percentile(xs, 99.9) == 100
    assert run.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("n, expected", [
    (120, 90),      # desk_zoo: 12 samples lie beyond p90, 1 beyond p99
    (20, 50),       # p90 would leave only 2 beyond
    (110, 90),      # exactly 11 beyond p90
    (1000, 99),     # 10 beyond p99, 1 beyond p99.9
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    pct, value = run.tail_percentile(samples)
    assert pct == expected
    assert sum(s > value for s in samples) >= 10


def test_tail_percentile_none_below_eleven_samples():
    assert run.tail_percentile([1.0] * 10) is None


def test_failed_jobs_count_as_missing_the_tail():
    samples = [1.0] * 100 + [float("inf")] * 20
    assert run.tail_percentile(samples) == (90, float("inf"))


# -- self time ---------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_self_time_of_two_roots():
    own = spans.self_times([0.0, 1.0, 5.0], [2.0, 1.5, 6.0], [-1, 0, -1])
    assert own.tolist() == [1.5, 0.5, 1.0]


# -- generator ---------------------------------------------------------------

def _files(jobs):
    return [Path(job.config).read_bytes() for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    c = workloads.generate(workload, 8, tmp_path / "c")
    assert [(j.name, j.command, j.label, j.cells) for j in a] == \
        [(j.name, j.command, j.label, j.cells) for j in b]
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_desk_zoo_has_120_jobs_over_twelve_variants(tmp_path):
    jobs = workloads.generate("desk_zoo", 3, tmp_path)
    assert len(jobs) == 120
    variants = set()
    for job in jobs:
        cfg = json.loads(Path(job.config).read_text())
        variants.add((job.label, cfg["params"]["alpha"]))
    assert len(variants) == 12


# -- tracing -----------------------------------------------------------------

@pytest.fixture(scope="module")
def program():
    return run.import_program()


def _solve(program, cfg_path, out_dir):
    assert program["cli"].main(["solve", "--config", str(cfg_path),
                                "--out", str(out_dir)]) in (0, 1)
    return hashlib.sha256((out_dir / "trace.jsonl").read_bytes()).hexdigest()


def test_tracing_keeps_traces_identical_and_restores(tmp_path, program):
    job = workloads.generate("desk_zoo", 5, tmp_path / "cfg")[0]
    original = program["hpe_core"].run
    plain = _solve(program, job.config, tmp_path / "plain")

    tracer = spans.Tracer(program)
    tracer.install()
    try:
        traced = _solve(program, job.config, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert program["hpe_core"].run is original
    assert traced == plain

    totals = tracer.group_totals(0, len(tracer))
    assert totals["cli.command"]["calls"] == 1
    assert totals["hpe_core.run"]["calls"] == 1
    assert totals["linalg.inner"]["calls"] > 0
    root = totals["cli.command"]["s"]
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(root, rel=1e-9)
    assert tracer.counters["trace_io_bytes"] > 0


def test_forward_bytes_are_eight_per_matrix_entry(tmp_path, program):
    tracer = spans.Tracer(program)
    tracer.install()
    try:
        prob = program["operators"].make_problem("l1_composite", 4, 0)
        prob.forward(np.zeros(4))
        prob = program["operators"].make_problem("bilinear_saddle", 4, 0)
        prob.forward(np.zeros(4))
    finally:
        tracer.uninstall()
    assert tracer.counters["forward_bytes"] == 8 * 2 * 16 + 8 * 16


# -- calibration -------------------------------------------------------------

def test_kernel_time_is_taken_out_of_the_command(tmp_path, program):
    job = workloads.generate("desk_zoo", 5, tmp_path / "cfg")[0]
    cal = calibrate.Calibrator("interp", 0.002)
    client = run.Client(program, [job], tmp_path / "runs", calibrator=cal)
    (tmp_path / "runs").mkdir()
    t0 = time.perf_counter()
    stats = client.run_pass(0)
    elapsed = time.perf_counter() - t0
    assert stats["failed"] == 0
    assert cal.runs > 0
    assert stats["ref_s"] == pytest.approx(cal.seconds / cal.runs)
    # Commands and kernels never overlap: their times add up to no more
    # than the pass took.
    assert 0 < stats["wall_s"] and stats["wall_s"] + cal.seconds <= elapsed
    assert signal.getsignal(signal.SIGPROF) is not cal._handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
