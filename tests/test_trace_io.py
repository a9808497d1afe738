"""Byte-for-byte checks of the trace writers against a row-by-row oracle,
and of the reader against ``orjson.loads``.

The oracle is the plain encoder: one ``json.dumps`` per row dict and one
``csv.writer`` row per trace row.  The JSONL writer formats a trace column
by column, a chunk of rows at a time, with ``orjson.dumps``, and must
produce exactly its bytes.  The CSV writer goes through ``csv.writer``, its
own oracle, so it is also pinned to recorded bytes.  The reader must read
each line as ``orjson.loads`` reads its bytes, refuse every line json's
decoder refuses, and take exactly what the JSONL writer writes.
"""

import csv
import json
import math
import re
from unittest import mock

import numpy as np
import orjson
import pytest

from monosplit import hpe_core, instances, operators, params
from monosplit.errors import ParameterError
from monosplit.hpe_core import TRACE_COLUMNS, IterationTrace

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


CELLS = TRACE_COLUMNS[1:]


def trace_of(columns):
    """A trace of the ``columns``, given by name, one sequence each."""
    trace = IterationTrace()
    trace.extend(**columns)
    return trace


def rows(trace):
    """Each row of ``trace``: its ``k``, then its cells in column order,
    as Python floats."""
    cells = zip(*(col.tolist() for col in trace.columns.values()))
    for k, row in enumerate(cells, start=1):
        yield {"k": k, **dict(zip(trace.columns, row))}


def oracle_jsonl(trace, path, meta):
    with open(path, "w") as fh:
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


# with where repr and orjson part: repr writes an exponent below 1e-4 and
# from 1e16 on, orjson below 1e-5 and from 1e16 on, each in its own form
_PARTING = (1e-4, math.nextafter(1e-4, 0.0), 1e-5, math.nextafter(1e-5, 0.0),
            1e16, 9999999999999998.0)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
               0.1, 1.0, -1.0) + _PARTING + tuple(-x for x in _PARTING)
reals = st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False))
# no known solution gives all-NaN distance columns; a trace read back from
# a file mixes NaN and finite values in one column
distances = st.one_of(st.just(math.nan), reals)

COLUMN_VALUES = {"dist_to_solution": distances, "dist_w": distances,
                 "norm_v": st.one_of(reals, st.just(math.nan))}


def alike_columns(n):
    """Columns of ``n`` cells that a chunk may share: one float object (a
    run's constant ``lam``), equal but distinct floats, 0.0 and -0.0
    mixed, and one NaN object."""
    return st.one_of(
        reals.map(lambda x: [x] * n),
        reals.map(lambda x: [float(repr(x)) for _ in range(n)]),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
        st.just([math.nan] * n))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 12))
    all_nan = draw(st.booleans())
    columns = {}
    for name in CELLS:
        if all_nan and name.startswith("dist"):
            columns[name] = [math.nan] * n
        else:
            columns[name] = draw(st.one_of(
                st.lists(COLUMN_VALUES.get(name, reals), min_size=n,
                         max_size=n),
                alike_columns(n)))
    return trace_of(columns)


def _written(writer, trace, path, *args):
    writer(trace, path, *args)
    return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(trace=traces(), chunk=st.sampled_from([1, 2, 5, 1024]))
def test_writers_match_the_row_by_row_oracle(tmp_path_factory, trace, chunk):
    tmp = tmp_path_factory.mktemp("trace")
    meta = {"note": "x", "lambda_floor": 0.5}
    with mock.patch.object(hpe_core, "_CHUNK_ROWS", chunk):
        jsonl = _written(IterationTrace.write_jsonl, trace,
                         tmp / "trace.jsonl", meta)
        csv_bytes = _written(IterationTrace.write_csv, trace,
                             tmp / "trace.csv")
        assert jsonl == _written(oracle_jsonl, trace, tmp / "oracle.jsonl",
                                 meta)
        assert csv_bytes == _written(oracle_csv, trace, tmp / "oracle.csv")

        again, read = IterationTrace.read_jsonl(tmp / "trace.jsonl")
        assert len(again) == len(trace) and read == meta
        assert _written(IterationTrace.write_jsonl, again,
                        tmp / "again.jsonl", read) == jsonl
        assert _written(IterationTrace.write_csv, again,
                        tmp / "again.csv") == csv_bytes


def test_solver_trace_matches_the_oracle(tmp_path):
    prob = operators.make_problem("l1_composite", 5, 3)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    state = instances.solve(
        prob, "tseng_fbf", p,
        stop=hpe_core.StoppingRule(rho=0.0, max_iters=300))
    assert len(state.trace) > 2 * hpe_core._CHUNK_ROWS
    state.trace.write_jsonl(tmp_path / "a.jsonl", {"seed": 3})
    oracle_jsonl(state.trace, tmp_path / "b.jsonl", {"seed": 3})
    state.trace.write_csv(tmp_path / "a.csv")
    oracle_csv(state.trace, tmp_path / "b.csv")
    assert (tmp_path / "a.jsonl").read_bytes() == \
        (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_csv_writer_writes_the_recorded_bytes(tmp_path):
    # the bytes of the hand-built CSV template this writer replaced
    values = (0.0, -0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf)
    trace = trace_of({name: [values[(i + j) % len(values)] for j in range(4)]
                      for i, name in enumerate(CELLS)})
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"k,norm_v,eps,lambda,error_ratio,step_norm,s_k,dist_to_solution,"
        b"Lambda,norm_v_a,eps_a\r\n"
        b"1,0.0,-0.0,5e-324,1e+16,nan,inf,-inf,1e+16,nan,inf\r\n"
        b"2,-0.0,5e-324,1e+16,nan,inf,-inf,0.0,nan,inf,-inf\r\n"
        b"3,5e-324,1e+16,nan,inf,-inf,0.0,-0.0,inf,-inf,0.0\r\n"
        b"4,1e+16,nan,inf,-inf,0.0,-0.0,5e-324,-inf,0.0,-0.0\r\n")


@pytest.mark.parametrize("block", [1, 127, 128, 129])
def test_the_store_holds_float64_views_grown_by_doubling(block):
    # 600 rows cross several doublings of the store, from the first
    # block's rows on; random bit patterns include NaNs with payloads
    rng = np.random.default_rng(block)
    values = rng.integers(0, 2 ** 64, size=(len(CELLS), 600),
                          dtype=np.uint64).view(np.float64)
    whole = trace_of(dict(zip(CELLS, values)))
    trace = IterationTrace()
    for lo in range(0, values.shape[1], block):
        trace.extend(**dict(zip(CELLS, values[:, lo:lo + block])))
        store = trace.column("lam").base
        assert store.nbytes <= 2 * 8 * len(CELLS) * len(trace)
    assert len(trace) == len(whole) == values.shape[1]
    for name, col in trace.columns.items():
        assert col.dtype == np.float64 and col.flags.c_contiguous
        assert col.shape == (len(trace),) and col.base is store
        assert trace.column(name).base is store
        assert col.tobytes() == whole.column(name).tobytes()


@pytest.mark.parametrize("lam", [True, 1, np.float64(0.1)],
                         ids=["bool", "int", "float64"])
def test_a_cell_is_stored_and_written_as_its_float(tmp_path, lam):
    # a library step may give an int or numpy lam; the trace holds floats
    trace = trace_of({name: [0.5] for name in CELLS} | {"lam": [lam]})
    float_trace = trace_of({name: [0.5] for name in CELLS}
                           | {"lam": [float(lam)]})
    assert trace.column("lam").tolist() == [float(lam)]
    trace.write_jsonl(tmp_path / "cell.jsonl", {})
    float_trace.write_jsonl(tmp_path / "float.jsonl", {})
    assert (tmp_path / "cell.jsonl").read_bytes() == \
        (tmp_path / "float.jsonl").read_bytes()
    trace.write_csv(tmp_path / "cell.csv")
    float_trace.write_csv(tmp_path / "float.csv")
    assert (tmp_path / "cell.csv").read_bytes() == \
        (tmp_path / "float.csv").read_bytes()


def test_orjson_spells_and_reads_floats_as_repr_does():
    # The writer takes orjson's digits and the reader its parse of repr's
    # text.  A release of orjson that differs fails here instead of
    # writing or reading other floats than float.__repr__ and float().
    rng = np.random.default_rng(1812_02138)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    decades = 10.0 ** rng.uniform(-8.0, 18.0, size=20_000)
    values = np.concatenate([bits.view(np.float64), decades, -decades,
                             EDGE_FLOATS])
    column = np.append(values[np.isfinite(values)], math.nan)
    values = column.tolist()
    for lo in range(0, len(values), hpe_core._CHUNK_ROWS):
        chunk = values[lo:lo + hpe_core._CHUNK_ROWS]
        texts = hpe_core._texts(chunk)
        assert texts == [
            "null" if x != x else float.__repr__(x) for x in chunk]
        # the writer's own input: a slice of a float64 column
        assert hpe_core._texts(column[lo:lo + hpe_core._CHUNK_ROWS]) == texts
    finite = np.array(values[:-1])
    read = np.array(list(map(orjson.loads, map(float.__repr__, values[:-1]))))
    np.testing.assert_array_equal(read.view(np.uint64),
                                  finite.view(np.uint64))


@pytest.mark.parametrize("column", ["norm_v", "dist_to_solution", "eps_a"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_writer_refuses_an_infinite_cell(tmp_path, column, value):
    # JSON has no infinity: the writer used to write Infinity and -Infinity
    trace = trace_of({name: [0.5, math.nan, 1e308] for name in CELLS})
    trace.columns[column][1] = value
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ParameterError, match=re.escape(
            f"an infinite {column!r} cell is not JSON")):
        trace.write_jsonl(path, {})
    assert not path.exists()


META = b'{"meta": {"schema_version": 1}}'
ROW = json.dumps({name: 1 if name == "k" else 0.5
                  for name in TRACE_COLUMNS}).encode()


def differs(lineno, column):
    """The reader's message on a row that is not the writer's bytes."""
    return (f"trace line {lineno} differs from the writer's row at column "
            f"{column!r}")


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
    # a row holds no string, so the text beyond ASCII is a meta line's
    (META[:-2] + ', "note": "\u00e9\U0001f600"}}'.encode(), True),
    # JSON's whitespace is space, tab, CR and LF; not form feed or VT.
    # It is not what the writer writes either
    (b" \t\r" + ROW + b" \t\r", False),
    (b"\x0c" + ROW, False),
    (b"\x0b" + ROW, False),
    (ROW + b"\x0c", False),
    (b"\x0c\n" + ROW, False),
    # json's decoder reads these as inf and as a lone surrogate
    (ROW.replace(b"0.5", b"1e400", 1), False),
    (META[:-2] + b', "note": "\\ud800"}}', False),
], ids=["utf8_bom", "two_boms", "bad_utf8", "int_of_5001_digits",
        "lone_surrogate", "utf16_with_bom", "utf16_without_bom", "utf32",
        "odd_utf16", "bad_json", "utf8_beyond_ascii", "json_whitespace",
        "form_feed", "vertical_tab", "trailing_form_feed",
        "form_feed_line", "float_beyond_range", "lone_surrogate_escape"])
def test_reader_reads_each_line_as_json_loads_does(tmp_path, line, accepted):
    # orjson.loads of the line's bytes is the reference, its error message
    # included; json's decoder of the line decoded as strict UTF-8, which
    # the reader used before, takes no line that it refuses
    lines = [line, ROW] if line.startswith(b'{"meta"') else [META, line]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"".join(text + b"\n" for text in lines))
    try:
        orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        assert not accepted
        with pytest.raises(ParameterError) as err:
            IterationTrace.read_jsonl(path)
        assert str(err.value) == (f"malformed trace line "
                                  f"{lines.index(line) + 1}: {exc}")
        return
    json.JSONDecoder().decode(line.decode("utf-8"))
    if not accepted:  # JSON, but not the writer's bytes
        with pytest.raises(ParameterError) as err:
            IterationTrace.read_jsonl(path)
        assert str(err.value) == differs(2, "k")
        return
    trace, meta = IterationTrace.read_jsonl(path)
    assert meta == json.loads(lines[0])["meta"]
    assert {name: col.tolist() for name, col in trace.columns.items()} == {
        name: [0.5] for name in CELLS}


@pytest.mark.parametrize("ks, message", [
    ((2,), differs(2, "k")),
    ((1, 1), differs(3, "k")),
    ((1, 3), differs(3, "k")),
    ((1, None), differs(3, "k")),
    ((True,), differs(2, "k")),
    ((1, "x"), differs(3, "k")),
    ((1, 10 ** 400), "malformed trace line 3: number is infinity when "
                     "parsed as double: line 1 column 7 (char 6)"),
    # the writer writes the int 1; "k": 1.0 used to read as step 1
    ((1.0, 2), differs(2, "k")),
    # orjson reads an int beyond 64 bits as a float
    ((1, 10 ** 20), differs(3, "k")),
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


def test_reader_refuses_an_int_cell(tmp_path):
    # the writer writes floats only; an int cell used to read as a float
    path = tmp_path / "trace.jsonl"
    row = json.loads(ROW)
    lines = [json.dumps(dict(row, k=1, lam=1, eps=0, s_k=None)),
             json.dumps(dict(row, k=2, lam=1.0, eps=-(10 ** 20), s_k=2))]
    path.write_text("\n".join([META.decode()] + lines) + "\n")
    with pytest.raises(ParameterError) as err:
        IterationTrace.read_jsonl(path)
    assert str(err.value) == differs(2, "eps")


@pytest.mark.parametrize("text, cell", [
    ("100000000000000000000", None), ("-9223372036854775809", None),
    ("18446744073709551616", None), ("1e+20", 1e20),
    ("100000000000000000000.0", None), ("-9.223372036854776e+18", -2.0 ** 63),
])
@pytest.mark.parametrize("chunk", [1, 128])
def test_reader_refuses_an_int_beyond_64_bits(tmp_path, text, cell, chunk):
    # orjson reads these ints as floats.  Of the floats, only the writer's
    # own spellings are taken: 1e+20, not 100000000000000000000.0
    path = tmp_path / "trace.jsonl"
    row = json.loads(ROW)
    lines = [json.dumps(dict(row, k=1)),
             json.dumps(dict(row, k=2, lam=None)).replace("null", text)]
    path.write_text("\n".join([META.decode()] + lines) + "\n")
    with mock.patch.object(hpe_core, "_CHUNK_ROWS", chunk):
        if cell is None:
            with pytest.raises(ParameterError) as err:
                IterationTrace.read_jsonl(path)
            assert str(err.value) == differs(3, "lam")
        else:
            trace, _ = IterationTrace.read_jsonl(path)
            assert trace.columns["lam"].tolist() == [0.5, cell]


EMPTY = "input data is empty: line 1 column 1 (char 0)"
# the first 0.5 of ROW, in its norm_v cell
CELL = "line 1 column 20 (char 19)"


@pytest.mark.parametrize("lines, message", [
    ([META, b"", ROW], f"malformed trace line 2: {EMPTY}"),
    ([META, ROW, b" "], f"malformed trace line 3: {EMPTY}"),
    ([ROW], 'trace line 1 is not {"meta": {...}}'),
    ([b'{"meta": {}, "seed": 1}', ROW],
     'trace line 1 is not {"meta": {...}}'),
    ([b'[{"meta": {}}]', ROW],
     'trace line 1 is not {"meta": {...}}'),
    ([], "malformed trace line 1: input length is 0: line 1 column 1 "
         "(char 0)"),
    ([META, ROW[:-1] + b', "junk": 0.5}'], differs(2, "eps_a")),
    # the writer writes the columns in TRACE_COLUMNS order
    ([META, json.dumps(dict(reversed(json.loads(ROW).items()))).encode()],
     differs(2, "k")),
    # json reads line 1 again, which keeps an int beyond 64 bits an int
    ([b'{"meta": {"a": ' + b"[" * 5000 + b"]" * 5000 + b"}}", ROW],
     "malformed trace line 1: maximum recursion depth exceeded while "
     "decoding a JSON array from a unicode string"),
    ([META, ROW.replace(b"0.5", b"NaN", 1)],
     f"malformed trace line 2: unexpected character: {CELL}"),
    ([META, ROW.replace(b"0.5", b"Infinity", 1)],
     f"malformed trace line 2: unexpected character: {CELL}"),
    ([META, ROW.replace(b"0.5", b"-Infinity", 1)],
     f"malformed trace line 2: no digit after minus sign: {CELL}"),
    ([META.replace(b"1", b"NaN"), ROW],
     "malformed trace line 1: unexpected character: line 1 column 29 "
     "(char 28)"),
], ids=["blank_line", "blank_last_line", "no_meta_line", "key_beside_meta",
        "meta_in_a_list", "empty_file", "extra_row_key", "reversed_keys",
        "meta_nested_beyond_recursion_limit", "nan_token",
        "infinity_token", "minus_infinity_token", "nan_token_in_meta"])
def test_reader_takes_only_what_the_writer_writes(tmp_path, lines, message):
    # each of these but meta_in_a_list used to read: blank lines were
    # skipped, a first row stood for no meta line, and json.loads took an
    # extra key and the non-standard tokens.  The reader took keys in any
    # order until it took only the writer's bytes
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    with pytest.raises(ParameterError) as err:
        IterationTrace.read_jsonl(path)
    assert str(err.value) == message


@pytest.mark.parametrize("chunk", [1, 128])
@pytest.mark.parametrize("kind", ["l1_composite", "box_constrained_quadratic"])
def test_a_solver_trace_reads_back_bit_for_bit(tmp_path, kind, chunk):
    # l1 at n = 5 has a known solution; box at n = 13 has none, so its
    # distance columns are all null
    dim = 5 if kind == "l1_composite" else 13
    prob = operators.make_problem(kind, dim, 3)
    p = params.HpeParams(alpha=0.2, sigma=0.5, beta=0.4)
    state = instances.solve(
        prob, "tseng_fbf", p,
        stop=hpe_core.StoppingRule(rho=0.0, max_iters=300))
    path = tmp_path / "a.jsonl"
    state.trace.write_jsonl(path, {"seed": 3})
    with mock.patch.object(hpe_core, "_CHUNK_ROWS", chunk):
        again, meta = IterationTrace.read_jsonl(path)
        assert len(again) == len(state.trace) == 300
        for name, column in again.columns.items():
            assert column.tobytes() == state.trace.columns[name].tobytes()
        assert (prob.known_solution is None) == math.isnan(
            again.columns["dist_w"][0])
        again.write_jsonl(tmp_path / "again.jsonl", meta)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        # the writer ends every row with a newline, the last one too
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParameterError) as err:
            IterationTrace.read_jsonl(path)
    assert str(err.value) == differs(301, "eps_a")
