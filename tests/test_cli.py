import csv
import json
import math
import re

import numpy as np
import pytest

from monosplit import cli, hpe_core, instances, operators, params
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


def solve_config(tmp_path, cfg):
    """Exit code of ``solve`` on ``cfg``, with its output under ``o``."""
    return cli.main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])


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
    run = tmp_path / "run"
    # trace.jsonl is the one record; write_csv converts it on demand
    assert sorted(p.name for p in run.iterdir()) == [
        "summary.json", "trace.jsonl"]
    loaded = cli.load_config(str(tmp_path / "cfg.json"))
    state = instances.solve(loaded["problem"], loaded["instance"],
                            loaded["params"], stop=loaded["stop"])
    state.trace.write_csv(tmp_path / "memory.csv")
    trace, _ = hpe_core.IterationTrace.read_jsonl(run / "trace.jsonl")
    trace.write_csv(tmp_path / "read.csv")
    assert (tmp_path / "read.csv").read_bytes() == (
        tmp_path / "memory.csv").read_bytes()
    assert summary["verdict"] == "solved"
    # the same audit, with the same inputs, behind both commands
    assert solved == certified
    assert {status for _, status in solved} == {"pass"}
    rate = next(c["detail"] for c in summary["checks"]
                if c["name"] == "rate_bounds")
    for bound in ("pointwise_v", "pointwise_eps", "ergodic_v", "ergodic_eps"):
        assert f"{bound}=" in rate


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
    trace.write_jsonl(tmp_path / "again.jsonl", meta)
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
    assert (out1 / "summary.json").read_bytes() == (
        out2 / "summary.json").read_bytes()


def certify_edited(tmp_path, capsys, cfg, edit, solved=(0, 1), step=5):
    """Solve ``cfg`` (exit code in ``solved``), ``edit`` the row of
    ``step`` of its trace in place and certify the trace; return the exit
    code and the printed lines, stdout's then stderr's."""
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) in solved
    lines = (out / "trace.jsonl").read_text().splitlines()
    row = json.loads(lines[step])
    assert row["k"] == step
    edit(row)
    lines[step] = json.dumps(row)
    (out / "trace.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["certify", "--trace", str(out / "trace.jsonl"),
                     "--config", path])
    captured = capsys.readouterr()
    return code, captured.out.splitlines() + captured.err.splitlines()


def test_certify_detects_corrupted_eps(tmp_path, capsys):
    cfg = base_config(kind="box_constrained_quadratic",
                      instance="forward_backward", sigma=0.7, beta=0.4)

    def corrupt(row):
        row["eps"] = row["eps"] * 100.0 + 1.0

    assert certify_edited(tmp_path, capsys, cfg, corrupt, solved=(0,))[0] == 3


def law_config(kind, instance, dim):
    """200 steps at alpha 0.1, sigma 0.5, beta 0.4, seed 3."""
    cfg = base_config(kind=kind, instance=instance, dim=dim, seed=3,
                      sigma=0.5, beta=0.4)
    cfg["stopping"]["max_iters"] = 200
    return cfg


# Configs whose traces pass every check until one row breaks the law.
LAW_CONFIGS = [law_config("box_constrained_quadratic", "forward_backward", 5),
               law_config("bilinear_saddle", "tseng_fbf", 8)]


def _negative_eps(row, cfg):
    row["eps"] = -1e-3


def _halved_stepsize(row, cfg):
    # s_k recomputed to match, as energy_term_consistency would
    p = params.HpeParams.from_dict(cfg["params"])
    row["lam"] /= 2.0
    row["s_k"] = hpe_core._energy_term(
        (p.tau * row["lam"] * row["norm_v"]) ** 2, row["norm_dz"] ** 2, p)


@pytest.mark.parametrize("edit,message", [
    (_negative_eps, r"negative eps -0\.001 at k=5"),
    (_halved_stepsize, r"stepsize \S+ below the floor \S+ at k=5"),
], ids=["negative_eps", "halved_stepsize"])
@pytest.mark.parametrize("cfg", LAW_CONFIGS,
                         ids=[c["problem"]["kind"] for c in LAW_CONFIGS])
def test_certify_applies_the_certificate_law(tmp_path, capsys, cfg,
                                                     edit, message):
    code, printed = certify_edited(tmp_path, capsys, cfg,
                                   lambda row: edit(row, cfg))
    assert code == 3
    failed = [line for line in printed if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert re.fullmatch(r"\[FAIL\] error_criterion: " + message, failed[0])


# the reader's message on trace line 6, the row of step 5, when it is not
# the writer's bytes
ROW_6_DIFFERS = "trace line 6 differs from the writer's row at column {!r}"


def _nudged(column, step):
    def edit(row):
        assert row[column] > 0.0
        row[column] = step(row[column])
    return edit


@pytest.mark.parametrize("edit,message", [
    (_nudged("error_ratio", lambda v: v * (1.0 + 1e-9)),
     "[FAIL] error_criterion: error_ratio differs from its recomputation "
     "at k=5"),
    (_nudged("aggregate_stepsize", lambda v: math.nextafter(v, math.inf)),
     "[FAIL] error_criterion: aggregate_stepsize is not the running sum of "
     "lam at k=5"),
    (_nudged("k", lambda v: v + 1),
     "error: " + ROW_6_DIFFERS.format("k")),
], ids=["error_ratio", "aggregate_stepsize", "k"])
@pytest.mark.parametrize("cfg", LAW_CONFIGS,
                         ids=[c["problem"]["kind"] for c in LAW_CONFIGS])
def test_certify_audits_every_recorded_column(tmp_path, capsys, cfg, edit,
                                              message):
    # no check read these three columns: each edit passed certify
    code, printed = certify_edited(tmp_path, capsys, cfg, edit)
    assert code == 3
    assert [line for line in printed
            if line.startswith(("[FAIL]", "error:"))] == [message]


# box, n=5, seed 1, Tseng: a trace that passes every check
BOX_TSENG = dict(kind="box_constrained_quadratic", instance="tseng_fbf",
                 dim=5, seed=1, alpha=0.2, sigma=0.5, beta=0.4)
OVERFLOW_CONFIG = base_config(**BOX_TSENG)
OVERFLOW_CONFIG["stopping"].update(rho=1e-6, eps_hat=1e-9, max_iters=200)


def _overflowing(**cells):
    return lambda row: row.update(cells)


NORM_DZ_FAILS = [
    "[FAIL] error_criterion: non-finite criterion terms at k=20: "
    "lhs={lhs}, ||z~ - w||^2=inf",
    "[FAIL] energy_term_consistency: s_k differs from its definition at k=20"]


@pytest.mark.parametrize("edit, failed", [
    (_overflowing(norm_dz=1e200, error_ratio=0.0), NORM_DZ_FAILS),
    (_overflowing(norm_dz=1e200), NORM_DZ_FAILS),
    (_overflowing(dist_w=1e200),
     ["[FAIL] fejer_descent: ||w-z*||^2 - ||z-z*||^2 < s_k at k=20"]),
], ids=["norm_dz_and_error_ratio", "norm_dz", "dist_w"])
def test_certify_fails_a_term_whose_square_overflows(tmp_path, capsys, edit,
                                                     failed):
    # each edit passed all eight checks, or all but error_criterion, with
    # numpy overflow warnings on stderr: an infinite square made the
    # criterion's slack and the checks' allowances infinite
    lhs = []
    code, printed = certify_edited(
        tmp_path, capsys, OVERFLOW_CONFIG,
        lambda row: (lhs.append(row["resid_sq"]), edit(row)), step=20)
    assert code == 3
    assert [line for line in printed if not line.startswith("[PASS]")] == [
        line.format(lhs=lhs[0]) for line in failed]


# every column an audit check reads
AUDITED_COLUMNS = ("norm_v", "eps", "lam", "step_norm", "s_k",
                   "dist_to_solution", "resid_sq", "norm_dz", "dist_w",
                   "norm_v_a", "eps_a", "error_ratio", "aggregate_stepsize")


@pytest.fixture(scope="module")
def solved_box(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("box")
    cfg = base_config(kind="box_constrained_quadratic",
                      instance="forward_backward", sigma=0.7, beta=0.4)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    return path, (out / "trace.jsonl").read_text().splitlines()


# the law names a NaN stepsize or eps as such
NAMED_FAULTS = {"eps": "non-finite eps nan", "lam": "non-finite stepsize nan"}


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
    captured = capsys.readouterr()
    out = captured.out
    if value == "NaN":  # not JSON: this token used to read as NaN
        at = lines[5].index("NaN")
        assert out == "" and captured.err.splitlines() == [
            f"error: malformed trace line 6: unexpected character: "
            f"line 1 column {at + 1} (char {at})"]
        return
    assert "[FAIL]" in out
    if column in NAMED_FAULTS:
        assert (f"[FAIL] error_criterion: {NAMED_FAULTS[column]} at k=5"
                in out.splitlines())


def test_certify_refuses_int_cells(tmp_path, capsys):
    # a proximal point trace at sigma 0 records lam 1.0 and eps 0.0 on
    # every row; written as the ints 1 and 0 they used to certify alike
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    text = (out / "trace.jsonl").read_text()
    floats = '"eps": 0.0, "lam": 1.0, '
    assert text.count(floats) == len(text.splitlines()) - 1
    ints = tmp_path / "ints.jsonl"
    ints.write_text(text.replace(floats, '"eps": 0, "lam": 1, '))
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(ints), "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: trace line 2 differs from the writer's row at column "
        "'eps'"]


def _set_cell(column, value):
    def edit(lines):
        row = json.loads(lines[5])
        row[column] = value
        lines[5] = json.dumps(row)
    return edit


def _spell_cell(column, text):
    def edit(lines):
        lines[5] = re.sub(f'"{column}": [^,}}]*', f'"{column}": {text}',
                          lines[5])
    return edit


FORM_FEED = ("malformed trace line 2: unexpected character: line 1 column 1 "
             "(char 0)")
INFINITE = "malformed trace line 6: number is infinity when parsed as double"
NOT_A_META_LINE = 'trace line 1 is not {"meta": {...}}'


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines.__setitem__(5, "5"),
     ROW_6_DIFFERS.format("k")),
    (lambda lines: lines.__setitem__(0, '{"meta": 5}'),
     NOT_A_META_LINE),
    (_set_cell("eps", "abc"), ROW_6_DIFFERS.format("eps")),
    (_set_cell("lam", [1, 2]), ROW_6_DIFFERS.format("lam")),
    (_set_cell("norm_v", True), ROW_6_DIFFERS.format("norm_v")),
    (_set_cell("s_k", 10 ** 400), INFINITE),
    # json.loads refuses an integer of more than 4300 digits
    (lambda lines: lines.__setitem__(5, lines[5].replace(
        '"k": 5', '"k": 1' + "0" * 5000)), INFINITE),
    # deeper than json's recursion limit: orjson reads it
    (lambda lines: lines.__setitem__(5, lines[5].replace(
        '"k": 5', '"k": ' + "[" * 100000 + "]" * 100000)),
     ROW_6_DIFFERS.format("k")),
    # form feed and vertical tab are not JSON whitespace: the reader used
    # to strip them, and each trace certified
    (lambda lines: lines.__setitem__(1, "\x0c" + lines[1]), FORM_FEED),
    (lambda lines: lines.__setitem__(1, "\x0b" + lines[1]), FORM_FEED),
    (lambda lines: lines.insert(1, "\x0c"), FORM_FEED),
    # not what solve writes, yet the reader used to take each of these (it
    # skipped a blank line): each trace certified, but for the one with no
    # meta line, which was refused for recording no config (exit 2)
    (_set_cell("junk", 0.5), ROW_6_DIFFERS.format("eps_a")),
    (lambda lines: lines.insert(5, ""),
     "malformed trace line 6: input data is empty: line 1 column 1 "
     "(char 0)"),
    (_set_cell("k", 5.0), ROW_6_DIFFERS.format("k")),
    (lambda lines: lines.__setitem__(0, lines[0].replace(
        '{"meta"', '{"seed": 1, "meta"')), NOT_A_META_LINE),
    (lambda lines: lines.pop(0), NOT_A_META_LINE),
    # json.loads read 1e400 as inf, and orjson reads this int as a float
    (_spell_cell("eps_a", "1e400"), INFINITE),
    (_spell_cell("lam", str(10 ** 20)), ROW_6_DIFFERS.format("lam")),
], ids=["bare_number_row", "meta_not_object", "string_cell", "list_cell",
        "bool_cell", "int_beyond_float_range", "int_beyond_str_limit",
        "nesting_beyond_recursion_limit", "form_feed", "vertical_tab",
        "form_feed_line", "extra_row_key", "blank_line", "float_step",
        "key_beside_meta", "no_meta_line", "float_beyond_range",
        "int_beyond_64_bits"])
def test_certify_reports_malformed_trace(tmp_path, capsys, solved_box, edit,
                                         message):
    # each of the first eight used to end certify in a traceback, exit 1
    path, lines = solved_box
    lines = list(lines)
    edit(lines)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", "--trace", str(trace),
                     "--config", path]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: " + message)


def test_certify_reports_unreadable_trace(tmp_path, capsys, solved_box):
    path, lines = solved_box
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(("\n".join(lines[:5]) + "\n").encode() + b"\xff\n")
    for argv_trace, message in [
            (tmp_path / "missing.jsonl", "error: cannot read trace "),
            (tmp_path, "error: cannot read trace "),
            (trace, "error: malformed trace line 6: ")]:
        assert cli.main(["certify", "--trace", str(argv_trace),
                         "--config", path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)


@pytest.mark.parametrize("encode", [
    lambda line: b"\xef\xbb\xbf" + line.encode(),
    lambda line: line[:-1].encode() + b', "note": "\xed\xa0\x80"}',
    lambda line: line.encode("utf-16"),
    lambda line: line.encode("utf-16-le"),
    lambda line: line.encode("utf-32"),
], ids=["utf8_bom", "lone_surrogate", "utf16_with_bom", "utf16_without_bom",
        "utf32"])
def test_certify_refuses_a_trace_line_that_is_not_utf8(tmp_path, capsys,
                                                       solved_box, encode):
    # json.loads of the raw bytes used to accept each of these lines, by
    # detecting its encoding or passing the surrogate through
    path, lines = solved_box
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b"".join(
        (encode(line) if i == 5 else line.encode()) + b"\n"
        for i, line in enumerate(lines)))
    assert cli.main(["certify", "--trace", str(trace),
                     "--config", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: malformed trace line 6: ")


def capped_box(tmp_path):
    """Exit code, config path and trace lines of a run that stops at its
    cap: 50 recorded steps, none of which meets the stopping rule."""
    cfg = base_config(kind="box_constrained_quadratic", instance="tseng_fbf",
                      dim=5, seed=1, alpha=0.2, sigma=0.5, beta=0.4)
    cfg["stopping"] = {"rho": 1e-6, "eps_hat": 1e-9, "max_iters": 50}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    rc = cli.main(["solve", "--config", path, "--out", str(out)])
    return rc, path, (out / "trace.jsonl").read_text().splitlines()


def certify_lines(tmp_path, capsys, path, lines):
    """Exit code and output of ``certify`` on ``lines`` as a trace."""
    trace = tmp_path / "edited.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["certify", "--trace", str(trace), "--config", path])
    return rc, capsys.readouterr(), trace


@pytest.mark.parametrize("rows", [0, 10], ids=["meta_only", "first_10_rows"])
def test_certify_refuses_a_trace_cut_short(tmp_path, capsys, rows):
    # both used to certify: eight vacuous [SKIP] lines, or eight [PASS]
    rc, path, lines = capped_box(tmp_path)
    assert rc == 1 and len(lines) == 51
    rc, captured, trace = certify_lines(tmp_path, capsys, path,
                                        lines[:1 + rows])
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: trace {trace} ends at k={rows}, but a run of its "
        f"config ends at max_iters=50, as no recorded step meets its "
        f"stopping rule"]


def test_certify_refuses_a_trace_that_goes_on_after_its_stop(tmp_path,
                                                             capsys):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    again = dict(last, k=last["k"] + 1)
    rc, captured, trace = certify_lines(tmp_path, capsys, path,
                                        lines + [json.dumps(again)])
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: trace {trace} ends at k={last['k'] + 1}, but a run "
        f"of its config ends at k={last['k']}, the first step that meets "
        f"its stopping rule"]


@pytest.mark.parametrize("where", ["trailing_copy", "other_seed_first"])
def test_certify_refuses_a_meta_line_after_the_first(tmp_path, capsys,
                                                      where):
    # the reader used to keep the last meta line: a copy after the rows,
    # or the true meta after one of another seed, certified
    rc, path, lines = capped_box(tmp_path)
    meta = lines[0]
    if where == "trailing_copy":
        edited = lines + [meta]
    else:
        other = json.loads(meta)
        other["meta"]["config"]["problem"]["seed"] = 2
        edited = [json.dumps(other)] + lines[1:] + [meta]
    rc, captured, _ = certify_lines(tmp_path, capsys, path, edited)
    assert rc == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: trace line 52 differs from the writer's row at column "
        "'k'"]


def test_certify_refuses_a_trace_that_records_no_config(tmp_path, capsys,
                                                        solved_box):
    # such a trace used to be audited against any config, unchecked
    path, lines = solved_box
    for rows in ([], lines[1:]):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(['{"meta": {"schema_version": 1}}']
                                   + rows) + "\n")
        assert cli.main(["certify", "--trace", str(trace),
                         "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: trace {trace} records no config"]


@pytest.mark.parametrize("key, edit", [
    ("schema_version", lambda meta: meta.update(schema_version=99)),
    ("lambda_floor", lambda meta: meta.update(lambda_floor=123)),
    ("params", lambda meta: meta["params"].update(tau=0.001)),
    ("verdict", lambda meta: meta.update(verdict="solved")),
    ("verdict", lambda meta: meta.pop("verdict")),
    ("note", lambda meta: meta.update(note="x")),
    # equal in value, not in type
    ("schema_version", lambda meta: meta.update(schema_version=1.0)),
    ("params", lambda meta: meta["params"].update(ramp_iters=False)),
    ("config", lambda meta: meta["config"]["problem"].update(seed=1.0)),
], ids=["schema_version", "lambda_floor", "params_tau", "verdict",
        "no_verdict", "extra_key", "float_schema_version", "bool_ramp_iters",
        "float_seed"])
def test_certify_refuses_an_edited_meta_line(tmp_path, capsys, key, edit):
    # each edit used to certify: of the meta line, only its config was
    # compared, and by value
    rc, path, lines = capped_box(tmp_path)
    assert rc == 1
    head = json.loads(lines[0])
    edit(head["meta"])
    rc, captured, trace = certify_lines(tmp_path, capsys, path,
                                        [json.dumps(head)] + lines[1:])
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: the meta line of trace {trace} differs from the "
        f"one a run of its config writes in ['{key}']"]


def _with(cfg, section, **fields):
    cfg[section].update(fields)
    return cfg


@pytest.mark.parametrize("cfg", [
    _with(base_config(**BOX_TSENG), "problem", seed=2 ** 64 + 1),
    _with(base_config(**BOX_TSENG), "problem", seed=2 ** 70),
    # affine ppm solves at k=21
    _with(base_config(), "stopping", max_iters=2 ** 70 + 1),
    _with(base_config(**BOX_TSENG), "stopping", rho=10 ** 30),
], ids=["seed_2_64_plus_1", "seed_2_70", "max_iters", "int_rho"])
def test_certify_takes_a_config_with_an_int_beyond_64_bits(tmp_path, capsys,
                                                           cfg):
    # the reader took the meta line's values from orjson, which reads such
    # an int as a float: certify refused each trace for another config
    rc = solve_config(tmp_path, cfg)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tmp_path / "o" / "trace.jsonl"),
                     "--config", str(tmp_path / "cfg.json")]) == rc == 0
    assert capsys.readouterr().err == ""


def test_the_meta_line_is_the_one_solve_writes(tmp_path):
    rc, path, lines = capped_box(tmp_path)
    cfg = cli.load_config(path)
    _, lam = instances.make_inner_solver(cfg["problem"], cfg["instance"],
                                         cfg["params"])
    meta = cli.trace_meta(cfg, "max_iters")
    assert meta["lambda_floor"] == lam
    assert lines[0] == json.dumps({"meta": meta})


def test_trace_meta_writes_the_params_bit_for_bit():
    # a trace's meta line records the bundle in this order, tau as tau_of
    # and the ramp length of trace schema 1 as the integer 0
    plain = {"problem": operators.make_problem("affine_inclusion", 2, 1),
             "instance": "ppm"}
    split = {"problem": operators.make_problem("bilinear_saddle", 2, 1),
             "instance": "tseng_fbf"}
    for sigma in (0.0, 0.25, 0.5, 0.75, 0.99):
        for beta in (0.05, 1.0 / 3.0, 0.45, 0.9):
            cfg = dict(split if sigma else plain, raw={},
                       params=params.HpeParams(0.01, sigma, beta))
            meta = cli.trace_meta(cfg, "solved")
            assert list(meta) == ["schema_version", "config", "params",
                                  "lambda_floor", "verdict"]
            d = meta["params"]
            assert list(d) == ["alpha", "sigma", "beta", "tau", "ramp_iters"]
            assert d["tau"].hex() == params.tau_of(sigma, beta).hex()
            assert json.dumps(d["ramp_iters"]) == "0"


def test_solve_refuses_a_trace_it_cannot_write(tmp_path, capsys,
                                               monkeypatch):
    # a far-out known solution makes ||z - z*|| overflow: solve used to
    # write "dist_to_solution": Infinity, which is not JSON
    make = operators.make_problem

    def far(kind, dim, seed):
        prob = make(kind, dim, seed)
        prob.known_solution = np.full(dim, 1e155)
        return prob

    monkeypatch.setattr(operators, "make_problem", far)
    cfg = base_config(dim=4, seed=1)
    cfg["stopping"]["max_iters"] = 2
    assert solve_config(tmp_path, cfg) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: an infinite 'dist_to_solution' cell is not JSON"]
    assert list((tmp_path / "o").iterdir()) == []


def test_config_rejects_unknown_fields(tmp_path):
    cfg = base_config()
    cfg["problem"]["extra_knob"] = 1
    assert solve_config(tmp_path, cfg) == 2


def test_config_refuses_an_instance_lambda_floor(tmp_path, capsys):
    # the floor of a bundled instance is its stepsize; there is no knob
    cfg = base_config()
    cfg["instance"]["lambda_floor"] = 0.5
    assert solve_config(tmp_path, cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: unknown fields in instance: "
                   "['lambda_floor']"]


@pytest.mark.parametrize("section, field, value", [
    ("problem", "matrix", [[2.0, 0.0], [0.0, 2.0]]),
    ("problem", "offset", [1.0, 1.0]),
    ("instance", "lambda", 0.1),
    ("params", "tau", 0.5),
    ("sweep", "tau", [0.5]),
    ("params", "ramp_iters", 10),
], ids=["problem-matrix", "problem-offset", "instance-lambda", "params-tau",
        "sweep-tau", "params-ramp_iters"])
def test_config_refuses_a_removed_field(tmp_path, capsys, section, field,
                                        value):
    # a run is a seeded zoo problem at its instance's own stepsize, with
    # tau derived from (sigma, beta) and a constant inertial schedule
    cfg = _config_with(section, field, value)
    path = write_config(tmp_path, cfg)
    trace = tmp_path / "trace.jsonl"
    hpe_core.IterationTrace().write_jsonl(trace, {"config": cfg})
    before = sorted(tmp_path.iterdir())
    out = str(tmp_path / "o")
    for argv in (["solve", "--config", path, "--out", out],
                 ["bench", "--config", path, "--out", out],
                 ["certify", "--trace", str(trace), "--config", path]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: unknown fields in {section}: ['{field}']"]
        assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("version, message", [
    (99, "unsupported schema_version 99 (expected 1)"),
    # each of these used to run as version 1, or to be refused as a 1
    (True, "config.schema_version must be an integer, got true"),
    (1.0, "config.schema_version must be an integer, got 1.0"),
    ("1", 'config.schema_version must be an integer, got "1"'),
], ids=["unsupported", "true", "float", "string"])
def test_config_rejects_wrong_schema_version(tmp_path, capsys, version,
                                             message):
    cfg = base_config()
    cfg["schema_version"] = version
    assert solve_config(tmp_path, cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {message}"]


def test_config_undecodable_reported(tmp_path, capsys):
    # non-UTF-8 bytes, and an integer past Python's str-conversion limit
    bad_bytes = tmp_path / "bytes.json"
    bad_bytes.write_bytes(b"\xff\xfe{}")
    long_int = tmp_path / "int.json"
    long_int.write_text(json.dumps(base_config()).replace(
        '"seed": 7', '"seed": 1' + "0" * 5000))
    # deeper than json's recursion limit: this one used to raise a
    # RecursionError with a traceback
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(base_config()).replace(
        '"seed": 7', '"seed": ' + "[" * 100000 + "]" * 100000))
    for path in (str(bad_bytes), str(long_int), str(deep)):
        assert cli.main(["solve", "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot read config {path}")


def test_config_invalid_params_reported(tmp_path):
    cfg = base_config(alpha=0.5, beta=1.0 / 3.0)  # alpha >= beta
    assert solve_config(tmp_path, cfg) == 3


@pytest.mark.parametrize("section,field,value", [
    ("stopping", "max_iters", 1e5),
    ("stopping", "max_iters", True),
    ("problem", "dimension", "4"),
    ("problem", "seed", "x"),
    ("sweep", "alpha", [[0.1], [0.2]]),
    ("params", "alpha", "0.1"),
    ("stopping", "rho", "1e-6"),
    ("params", "alpha", 10 ** 400),
    ("problem", "kind", 5),
    ("problem", "kind", [1]),
    ("instance", "kind", {}),
    ("instance", "kind", "nope"),
], ids=["max_iters_float", "max_iters_bool", "dimension_str", "seed_str",
        "nested_alpha_grid", "alpha_str", "rho_str", "alpha_beyond_float",
        "problem_kind_int", "problem_kind_list", "instance_kind_object",
        "instance_kind_unknown"])
def test_config_wrong_type_reported(tmp_path, capsys, section, field, value):
    cfg = base_config()
    cfg.setdefault(section, {})[field] = value
    assert solve_config(tmp_path, cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert field in err[0]


@pytest.mark.parametrize("section,field,value", [
    ("problem", "seed", -1),
    ("stopping", "max_iters", 0),
    ("stopping", "max_iters", -3),
    ("problem", "dimension", 100000),
    ("problem", "dimension", 10 ** 30),
    ("problem", "dimension", 0),
    ("problem", "dimension", -1),
], ids=["seed_negative", "max_iters_zero", "max_iters_negative",
        "dimension_too_large_to_allocate", "dimension_beyond_numpy",
        "dimension_zero", "dimension_negative"])
def test_config_out_of_range_reported(tmp_path, capsys, section, field,
                                      value):
    cfg = base_config()
    cfg[section][field] = value
    assert solve_config(tmp_path, cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert field in err[0]


def _config_with(section, key, value):
    cfg = base_config(sweep={"alpha": [0.0]})
    (cfg if section == "config" else cfg[section])[key] = value
    return cfg


@pytest.mark.parametrize("section, key", [
    (section, key) for section, fields in cli._CONFIG_FIELDS.items()
    for key, field in fields.items() if field.kind is not None])
def test_every_typed_field_refuses_a_wrong_type(tmp_path, capsys, section,
                                                key):
    kind = cli._CONFIG_FIELDS[section][key].kind
    wrong = 0.5 if kind is cli._INTEGER else "x"
    path = write_config(tmp_path, _config_with(section, key, wrong))
    for command in ("solve", "bench"):
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {section}.{key} must be "
                                 f"{kind[0]}, got ")


@pytest.mark.parametrize("section, key, value, relation", [
    (section, key, bound + step, relation)
    for section, fields in cli._CONFIG_FIELDS.items()
    for key, field in fields.items()
    for bound, step, relation in ((field.least, -1, ">="),
                                  (field.greatest, 1, "<="))
    if bound is not None])
def test_every_bounded_field_refuses_a_value_out_of_range(
        tmp_path, capsys, section, key, value, relation):
    path = write_config(tmp_path, _config_with(section, key, value))
    for command in ("solve", "bench"):
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {section}.{key} must be "
                                 f"{relation} ")


def test_seed_option_is_a_usage_error(tmp_path, capsys):
    # problem.seed is a run's one seed, so its trace certifies against the
    # file it ran from
    path = write_config(tmp_path, base_config(sweep={"alpha": [0.0]}))
    out = tmp_path / "o"
    for command in ("solve", "bench"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, "--out", str(out),
                      "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind, dim", [("box_constrained_quadratic", 5),
                                       ("bilinear_saddle", 6),
                                       ("l1_composite", 5)])
def test_ppm_on_a_structured_problem_is_refused(tmp_path, capsys, kind, dim):
    # a ppm step certifies v in B(z~) alone, which is no certificate for F + B
    cfg = base_config(kind=kind, instance="ppm", dim=dim, seed=1, sigma=0.0)
    assert solve_config(tmp_path, cfg) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ppm needs a plain operator")


def test_bench_sweep_and_determinism(tmp_path, monkeypatch):
    # affine ppm: the cells share the problem's LU cache
    cfg = base_config(sweep={"alpha": [0.0, 0.3]})
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    builds = []
    make_problem = operators.make_problem

    def counted(*args, **kwargs):
        builds.append(args[:3])
        return make_problem(*args, **kwargs)

    monkeypatch.setattr(operators, "make_problem", counted)
    assert cli.main(["bench", "--config", path, "--out", str(out1)]) == 0
    assert len(builds) == 1
    # the benchmark harness's fixed command line
    assert cli.main(["bench", "--config", path, "--out", str(out2),
                     "--jobs", "1"]) == 0
    assert len(builds) == 2
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.undo()

    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "0.3"]
    assert all(r["status"] == "ok" and r["verdict"] == "solved" for r in rows)
    assert_rows_are_cell_solves(tmp_path, cfg, rows)


def assert_rows_are_cell_solves(tmp_path, cfg, rows):
    """Each bench row reports what a ``solve`` of its cell's config does:
    the config without its sweep, the cell's values in its params."""
    for i, row in enumerate(rows):
        cell = {key: value for key, value in cfg.items() if key != "sweep"}
        cell["params"] = dict(cfg["params"], **{
            name: float(row[name]) for name in cfg["sweep"]})
        cell_path = write_config(tmp_path, cell, f"cell{i}.json")
        out = tmp_path / f"cell{i}"
        assert cli.main(["solve", "--config", cell_path,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert int(row["iterations"]) == summary["iterations"]
        assert float(row["final_norm_v"]) == summary["final_norm_v"]
        assert float(row["final_eps"]) == summary["final_eps"]


def test_bench_jobs_other_than_one_is_a_usage_error(tmp_path):
    path = write_config(tmp_path, base_config(sweep={"alpha": [0.0]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--config", path, "--out",
                  str(tmp_path / "g.csv"), "--jobs", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "g.csv").exists()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for sigma in ("0.0", "0.5", "0.7"):
            assert cli.main(["params", "--sigma", sigma]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["params", "--sigma", "x"])
        assert exc.value.code == 2
        assert cli.main(["params", "--sigma", "0.25"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out.count("sigma      = ") == 4


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


@pytest.mark.parametrize("alpha, inadmissible", [
    ("-0.5", True), ("10", True), ("nan", True), ("0.39", False),
    ("0.5", True), ("1e200", True), ("-1e200", True), ("-2.5E-1", True)])
def test_params_marks_alpha_inadmissible_by_the_bundle_rule(
        capsys, alpha, inadmissible):
    # a negative in exponent form after a space used to read as an option
    for spelling in ([f"--alpha={alpha}"], ["--alpha", alpha]):
        assert cli.main(["params", "--sigma", "0.5", "--beta", "0.4",
                         *spelling]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("q(alpha)   = ")
        assert line.endswith("  (inadmissible)") == inadmissible


def test_params_negative_sigma_in_exponent_form_is_out_of_range(capsys):
    assert cli.main(["params", "--sigma", "-1e-3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: sigma must lie in [0, 1), got -0.001"]


@pytest.mark.parametrize("command", ["params", "bench", "solve"])
def test_unwritable_output_path_reported(tmp_path, capsys, command):
    path = write_config(tmp_path, base_config(sweep={"alpha": [0.0]}))
    taken = tmp_path / "taken"
    taken.mkdir()
    (taken / "file").write_text("")
    target, argv = {
        "params": (tmp_path / "no" / "such" / "x.csv", ["params", "--curve"]),
        "bench": (taken, ["bench", "--config", path, "--out"]),
        "solve": (taken / "file", ["solve", "--config", path, "--out"]),
    }[command]
    assert cli.main(argv + [str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(target) in err[0]


def test_a_subnormal_stepsize_skips_the_rate_bounds(tmp_path, capsys):
    # tseng's stepsize sigma / L is subnormal, so d0 / (lambda tau)
    # overflows: the infinite bounds check nothing, and say so
    cfg = base_config(kind="bilinear_saddle", instance="tseng_fbf", dim=4,
                      seed=1, stopping={"max_iters": 50})
    cfg["params"] = {"sigma": 5e-324}
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("verdict=max_iters k=50 ")
    assert captured.err == ""
    checks = json.loads((out / "summary.json").read_text())["checks"]
    rate = next(c for c in checks if c["name"] == "rate_bounds")
    assert rate["status"] == "skip"
    assert rate["detail"].startswith("the closed-form bounds overflow")


def test_problem_seed_changes_the_trace(tmp_path):
    traces = []
    for seed in (1, 2):
        path = write_config(tmp_path, base_config(seed=seed), f"s{seed}.json")
        out = tmp_path / f"s{seed}"
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
        assert cli.main(["certify", "--trace", str(out / "trace.jsonl"),
                         "--config", path]) == 0
        traces.append((out / "trace.jsonl").read_bytes())
    assert traces[0] != traces[1]
