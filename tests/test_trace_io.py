"""Byte-for-byte checks of the trace writers against a row-by-row oracle,
and of the reader against ``json.loads``.

The oracle is the plain encoder: one ``json.dumps`` per row dict and one
``csv.writer`` row per trace row.  The writers format a trace column by
column, a chunk of rows at a time, and must produce exactly its bytes.
The reader must read each line as ``json.loads`` reads its bytes.
"""

import csv
import json
import math
from unittest import mock

import pytest

from monosplit import hpe_core, instances, operators, params
from monosplit.errors import ParameterError
from monosplit.hpe_core import TRACE_COLUMNS, IterationTrace

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def rows(trace):
    """Each row of ``trace``: its ``k``, then its cells in column order."""
    for k, cells in enumerate(zip(*trace.columns.values()), start=1):
        yield {"k": k, **dict(zip(trace.columns, cells))}


def oracle_jsonl(trace, path, header=None):
    with open(path, "w") as fh:
        meta = {"schema_version": hpe_core.TRACE_SCHEMA_VERSION}
        if header:
            meta.update(header)
        fh.write(json.dumps({"meta": meta}) + "\n")
        for row in rows(trace):
            fh.write(json.dumps({name: None if value != value else value
                                 for name, value in row.items()}) + "\n")


def oracle_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(hpe_core.CSV_COLUMNS)
        for row in rows(trace):
            writer.writerow([
                row["k"], row["norm_v"], row["eps"], row["lam"],
                row["error_ratio"], row["step_norm"], row["s_k"],
                row["dist_to_solution"], row["aggregate_stepsize"],
                row["norm_v_a"], row["eps_a"]])


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
               0.1, 1.0, -1.0, 1e16, 1e-5)
reals = st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False))
# a "lam": 1 read back from a trace, or a library step's lam=1, is an int
stepsizes = st.one_of(reals, st.integers(-10 ** 6, 10 ** 6))
# no known solution gives all-NaN distance columns; a trace read back from
# a file mixes NaN and finite values in one column; a norm can overflow
distances = st.one_of(st.just(math.nan), reals,
                      st.sampled_from([math.inf, -math.inf]))

COLUMN_VALUES = {"lam": stepsizes, "dist_to_solution": distances,
                 "dist_w": distances, "norm_v": st.one_of(reals,
                                                           st.just(math.nan))}


@st.composite
def traces(draw):
    n = draw(st.integers(0, 12))
    all_nan = draw(st.booleans())
    trace = IterationTrace()
    for name in trace.columns:
        if all_nan and name.startswith("dist"):
            values = [math.nan] * n
        else:
            values = draw(st.lists(COLUMN_VALUES.get(name, reals),
                                   min_size=n, max_size=n))
        trace.columns[name] = values
    return trace


def _written(writer, trace, path, *args):
    writer(trace, path, *args)
    return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(trace=traces(), chunk=st.sampled_from([1, 2, 5, 1024]))
def test_writers_match_the_row_by_row_oracle(tmp_path_factory, trace, chunk):
    tmp = tmp_path_factory.mktemp("trace")
    header = {"note": "x", "lambda_floor": 0.5}
    with mock.patch.object(hpe_core, "_CHUNK_ROWS", chunk):
        jsonl = _written(IterationTrace.write_jsonl, trace,
                         tmp / "trace.jsonl", header)
        csv_bytes = _written(IterationTrace.write_csv, trace,
                             tmp / "trace.csv")
        assert jsonl == _written(oracle_jsonl, trace, tmp / "oracle.jsonl",
                                 header)
        assert csv_bytes == _written(oracle_csv, trace, tmp / "oracle.csv")

        again, meta = IterationTrace.read_jsonl(tmp / "trace.jsonl")
        assert len(again) == len(trace)
        assert _written(IterationTrace.write_jsonl, again,
                        tmp / "again.jsonl", meta) == jsonl
        assert _written(IterationTrace.write_csv, again,
                        tmp / "again.csv") == csv_bytes


def test_solver_trace_matches_the_oracle(tmp_path):
    prob = operators.make_problem("l1_composite", 5, 3)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    state = instances.solve(
        prob, instances.InstanceConfig(kind="tseng_fbf"), p,
        stop=hpe_core.StoppingRule(rho=0.0, max_iters=300))
    assert len(state.trace) > 2 * hpe_core._CHUNK_ROWS
    state.trace.write_jsonl(tmp_path / "a.jsonl", header={"seed": 3})
    oracle_jsonl(state.trace, tmp_path / "b.jsonl", header={"seed": 3})
    state.trace.write_csv(tmp_path / "a.csv")
    oracle_csv(state.trace, tmp_path / "b.csv")
    assert (tmp_path / "a.jsonl").read_bytes() == \
        (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_writer_refuses_a_non_number(tmp_path):
    trace = IterationTrace()
    for name in trace.columns:
        trace.columns[name] = [1.0]
    trace.columns["lam"] = [True]
    with pytest.raises(TypeError, match="ints or floats"):
        trace.write_csv(tmp_path / "trace.csv")


def test_reader_keeps_column_order(tmp_path):
    path = tmp_path / "trace.jsonl"
    row = {name: float(i) for i, name in enumerate(reversed(TRACE_COLUMNS))}
    lines = [json.dumps(dict(row, k=k)) for k in (1, 2)]
    path.write_text(lines[0] + "\n\n" + lines[1] + "\n")
    trace, meta = IterationTrace.read_jsonl(path)
    assert meta == {}
    assert list(trace.columns) == list(TRACE_COLUMNS[1:])
    assert trace.columns["norm_v"] == [row["norm_v"]] * 2


META = b'{"meta": {"schema_version": 1}}'
ROW = json.dumps({name: 1 if name == "k" else 0.5
                  for name in TRACE_COLUMNS}).encode()


@pytest.mark.parametrize("line, accepted", [
    (b"\xef\xbb\xbf" + ROW, False),
    (b"\xef\xbb\xbf\xef\xbb\xbf" + ROW, False),
    (b"\xff" + ROW, False),
    (ROW.replace(b'"k": 1', b'"k": 1' + b"0" * 5000), False),
    (ROW[:-1] + b', "note": "\xed\xa0\x80"}', False),
    (ROW.decode().encode("utf-16"), False),
    (ROW.decode().encode("utf-16-le"), False),
    (ROW.decode().encode("utf-32"), False),
    (b"\x00" + ROW, False),
    (b"{]", False),
    (ROW[:-1] + ', "note": "\u00e9\U0001f600"}'.encode(), True),
], ids=["utf8_bom", "two_boms", "bad_utf8", "int_of_5001_digits",
        "lone_surrogate", "utf16_with_bom", "utf16_without_bom", "utf32",
        "odd_utf16", "bad_json", "utf8_beyond_ascii"])
def test_reader_reads_each_line_as_json_loads_does(tmp_path, line, accepted):
    # json.loads of the line decoded as strict UTF-8 is the reference:
    # the decoding's and the parser's error messages
    path = tmp_path / "trace.jsonl"
    path.write_bytes(META + b"\n" + line + b"\n")
    try:
        json.loads(line.decode("utf-8"))
    except ValueError as exc:
        assert not accepted
        with pytest.raises(ParameterError) as err:
            IterationTrace.read_jsonl(path)
        assert str(err.value) == f"malformed trace line 2: {exc}"
        return
    assert accepted
    trace, meta = IterationTrace.read_jsonl(path)
    assert meta == {"schema_version": 1}
    assert trace.columns == {name: [0.5] for name in TRACE_COLUMNS[1:]}


@pytest.mark.parametrize("ks, message", [
    ((2,), "trace line 2, column 'k': 2 is not step 1"),
    ((1, 1), "trace line 3, column 'k': 1 is not step 2"),
    ((1, 3), "trace line 3, column 'k': 3 is not step 2"),
    ((1, None), "trace line 3, column 'k': null is not step 2"),
])
@pytest.mark.parametrize("chunk", [1, 128])
def test_reader_refuses_k_out_of_step(tmp_path, ks, message, chunk):
    path = tmp_path / "trace.jsonl"
    row = json.loads(ROW)
    path.write_text("\n".join([META.decode()] + [
        json.dumps(dict(row, k=k)) for k in ks]) + "\n")
    with mock.patch.object(hpe_core, "_CHUNK_ROWS", chunk), \
            pytest.raises(ParameterError) as err:
        IterationTrace.read_jsonl(path)
    assert str(err.value) == message

