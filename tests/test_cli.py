import csv
import json

import numpy as np
import pytest

from monosplit import cli, hpe_core
from monosplit.errors import ConfigError


def base_config(kind="affine_inclusion", instance="ppm", dim=6, seed=7,
                alpha=0.1, sigma=0.0, beta=1.0 / 3.0, **extra):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": kind, "dimension": dim, "seed": seed},
        "instance": {"kind": instance},
        "params": {"alpha": alpha, "sigma": sigma, "beta": beta},
        "stopping": {"rho": 1e-7, "eps_hat": 1e-9, "max_iters": 100000},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


FIXTURES = [
    base_config(),
    base_config(kind="bilinear_saddle", instance="tseng_fbf", dim=6,
                sigma=0.9, beta=0.4),
    base_config(kind="box_constrained_quadratic", instance="forward_backward",
                dim=6, sigma=0.7, beta=0.4),
    base_config(kind="l1_composite", instance="forward_backward", dim=6,
                sigma=0.8, beta=0.4),
]


def solve_and_certify(tmp_path, capsys, cfg):
    """Solve, then certify the trace; return the summary and the
    ``(name, status)`` pairs that each command reports."""
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(out / "trace.jsonl"),
                     "--config", path]) == 0
    summary = json.loads((out / "summary.json").read_text())
    printed = [line.split(":")[0].split("] ")
               for line in capsys.readouterr().out.splitlines()]
    certified = [(name, status[1:].lower()) for status, name in printed]
    solved = [(c["name"], c["status"]) for c in summary["checks"]]
    return summary, solved, certified


@pytest.mark.parametrize("cfg", FIXTURES,
                         ids=[c["problem"]["kind"] for c in FIXTURES])
def test_solve_certify_roundtrip(tmp_path, capsys, cfg):
    summary, solved, certified = solve_and_certify(tmp_path, capsys, cfg)
    assert (tmp_path / "run" / "trace.csv").exists()
    assert summary["verdict"] == "solved"
    # the same audit, with the same inputs, behind both commands
    assert solved == certified
    assert {status for _, status in solved} == {"pass"}


def no_solution_config():
    # no exact solution is computed for box problems above n = 12
    cfg = base_config(kind="box_constrained_quadratic",
                      instance="forward_backward", dim=16, sigma=0.7,
                      beta=0.4)
    cfg["stopping"]["max_iters"] = 200
    return cfg


def test_certify_without_solution_reports_every_check(tmp_path, capsys):
    summary, solved, certified = solve_and_certify(
        tmp_path, capsys, no_solution_config())
    assert solved == certified
    assert [name for name, status in solved if status == "skip"] == [
        "fejer_descent", "step_summability", "energy_bound",
        "mu_nonincreasing", "rate_bounds"]
    assert all(c["detail"] for c in summary["checks"])


def test_trace_without_solution_is_strict_json(tmp_path):
    path = write_config(tmp_path, no_solution_config())
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) in (0, 1)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (out / "trace.jsonl").read_text()
    rows = [json.loads(line, parse_constant=reject)
            for line in text.splitlines()]
    assert rows[1]["dist_to_solution"] is None
    trace, meta = hpe_core.IterationTrace.read_jsonl(out / "trace.jsonl")
    assert np.isnan(trace.column("dist_w")).all()
    trace.write_jsonl(tmp_path / "again.jsonl", header=meta)
    assert (tmp_path / "again.jsonl").read_text() == text


def test_certify_refuses_trace_of_another_config(tmp_path, capsys):
    kw = dict(kind="box_constrained_quadratic", instance="forward_backward",
              sigma=0.7, beta=0.4)
    path = write_config(tmp_path, base_config(seed=3, **kw), "seed3.json")
    other = write_config(tmp_path, base_config(seed=4, **kw), "seed4.json")
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(out / "trace.jsonl"),
                     "--config", other]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_solve_determinism_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (
        out2 / "trace.jsonl").read_bytes()
    assert (out1 / "trace.csv").read_bytes() == (
        out2 / "trace.csv").read_bytes()


def test_certify_detects_corrupted_eps(tmp_path):
    cfg = base_config(kind="box_constrained_quadratic",
                      instance="forward_backward", sigma=0.7, beta=0.4)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    row = json.loads(lines[5])
    row["eps"] = row["eps"] * 100.0 + 1.0
    lines[5] = json.dumps(row)
    (out / "trace.jsonl").write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", "--trace", str(out / "trace.jsonl"),
                     "--config", path]) == 3


# every column an audit check reads
AUDITED_COLUMNS = ("norm_v", "eps", "lam", "step_norm", "s_k",
                   "dist_to_solution", "resid_sq", "norm_dz", "dist_w",
                   "norm_v_a", "eps_a")


@pytest.fixture(scope="module")
def solved_box(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("box")
    cfg = base_config(kind="box_constrained_quadratic",
                      instance="forward_backward", sigma=0.7, beta=0.4)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    return path, (out / "trace.jsonl").read_text().splitlines()


@pytest.mark.parametrize("value", ["null", "NaN"])
@pytest.mark.parametrize("column", AUDITED_COLUMNS)
def test_certify_fails_non_finite_value(tmp_path, capsys, solved_box,
                                        column, value):
    path, lines = solved_box
    row = json.loads(lines[5])
    row[column] = None
    lines = list(lines)
    lines[5] = json.dumps(row).replace("null", value)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", "--trace", str(trace),
                     "--config", path]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_certify_empty_trace_vacuous(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    trace = tmp_path / "empty.jsonl"
    trace.write_text('{"meta": {"schema_version": 1}}\n')
    assert cli.main(["certify", "--trace", str(trace),
                     "--config", path]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_config_rejects_unknown_fields(tmp_path):
    cfg = base_config()
    cfg["problem"]["extra_knob"] = 1
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2


def test_config_rejects_wrong_schema_version(tmp_path):
    cfg = base_config()
    cfg["schema_version"] = 99
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2


def test_config_invalid_params_reported(tmp_path):
    cfg = base_config(alpha=0.5, beta=1.0 / 3.0)  # alpha >= beta
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("problem", [
    # singular: the solution oracle fails
    {"kind": "affine_inclusion", "dimension": 2, "seed": 0,
     "matrix": [[0.0, 0.0], [0.0, 0.0]], "offset": [1.0, 1.0]},
    # data for n = 2 under a dimension of 3
    {"kind": "affine_inclusion", "dimension": 3, "seed": 0,
     "matrix": [[2.0, 0.0], [0.0, 2.0]], "offset": [1.0, 1.0]},
], ids=["singular", "wrong_dimension"])
def test_config_bad_affine_data_reported(tmp_path, capsys, problem):
    cfg = base_config()
    cfg["problem"] = problem
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_config_negative_ramp_reported(tmp_path):
    cfg = base_config()
    cfg["params"]["ramp_iters"] = -5
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3


def test_config_stepsize_over_cap_reported(tmp_path):
    cfg = base_config(kind="bilinear_saddle", instance="tseng_fbf",
                      sigma=0.5, beta=0.4)
    cfg["instance"]["lambda"] = 100.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3


def test_bench_sweep_and_determinism(tmp_path):
    cfg = base_config(sweep={"alpha": [0.0, 0.3]})
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert cli.main(["bench", "--config", path, "--out", str(out1)]) == 0
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "0.3"]
    assert all(r["status"] == "ok" and r["verdict"] == "solved" for r in rows)
    assert cli.main(["bench", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_cell_failure_is_recorded_not_fatal(tmp_path):
    cfg = base_config(sweep={"alpha": [0.0, 0.9]})  # 0.9 >= beta: invalid
    path = write_config(tmp_path, cfg)
    out = tmp_path / "g.csv"
    assert cli.main(["bench", "--config", path, "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "error"
    assert rows[1]["error"] != ""


def test_bench_requires_sweep(tmp_path):
    path = write_config(tmp_path, base_config())
    assert cli.main(["bench", "--config", path,
                     "--out", str(tmp_path / "g.csv")]) == 2
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path, base_config(sweep={}),
                                     "empty_sweep.json"))


def test_params_table_and_curve(tmp_path, capsys):
    assert cli.main(["params", "--sigma", "0.0", "--beta",
                     str(1.0 / 3.0)]) == 0
    out = capsys.readouterr().out
    assert "tau        = 1.0" in out
    assert cli.main(["params", "--sigma", "0.99", "--beta",
                     str(1.0 / 3.0)]) == 0
    out = capsys.readouterr().out
    assert "0.5025" in out
    curve = tmp_path / "curve.csv"
    assert cli.main(["params", "--curve", str(curve)]) == 0
    with open(curve) as fh:
        rows = list(csv.DictReader(fh))
    sigmas = sorted({r["sigma"] for r in rows})
    assert sigmas == ["0.0", "0.25", "0.5", "0.75", "0.99"]
    assert all(0.0 < float(r["tau"]) <= 1.0 for r in rows)


def test_seed_override_changes_problem(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["solve", "--config", path, "--out", str(out1),
                     "--seed", "1"]) == 0
    assert cli.main(["solve", "--config", path, "--out", str(out2),
                     "--seed", "2"]) == 0
    assert (out1 / "trace.jsonl").read_bytes() != (
        out2 / "trace.jsonl").read_bytes()
