"""Byte mutations of a recorded trace: ``certify`` answers each one with a
documented exit code and one kind of report, never with a traceback.

A trace is taken or refused by its format alone: the README's trace
format, which :func:`in_format` states with ``orjson.loads`` for the JSON
and ``json.loads`` for the type of each number (an int beyond 64 bits
stays an int there, where orjson reads a float).  A trace in the format is
then refused for its meta line or its length (exit 2 and one ``config
error:`` line), or audited (the checks on stdout, exit 3 iff one fails).
A trace out of the format is refused with exit 3 and one ``error:`` line
naming a trace line.
"""

import contextlib
import io
import json
import re

import orjson
import pytest

from monosplit import bounds, cli
from monosplit.hpe_core import TRACE_COLUMNS

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# The desk_zoo variants of perfbench/workloads.py, at alpha 0.2 and seed 1,
# capped at a few steps so that a mutation often lands in a row:
# (problem kind, dimension, instance, sigma)
DESK_VARIANTS = (
    ("bilinear_saddle", 8, "tseng_fbf", 0.5),
    ("affine_inclusion", 8, "ppm", 0.0),
    ("box_constrained_quadratic", 5, "forward_backward", 0.5),
    ("box_constrained_quadratic", 5, "tseng_fbf", 0.5),
    ("l1_composite", 5, "forward_backward", 0.5),
    ("l1_composite", 5, "tseng_fbf", 0.5),
)
CAP = 6

# JSON-like bytes, and the texts that the reader's past fixes refuse
TOKENS = [bytes([b]) for b in b'0123456789.-+eE{}[]",: \t\n\x0c'] + [
    b"null", b"true", b"NaN", b"Infinity", b"1e400", b"\\ud800",
    b"\xef\xbb\xbf", b"\xff", b"18446744073709551616"]
# what a cell may become, besides a scaling or another last digit: an int
# beyond 64 bits is one that orjson reads as a float, and json.dumps
# spells a NaN or an infinity as a token the reader refuses
CELL_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.sampled_from([2 ** 64, -2 ** 63 - 1]),
                        st.floats(), st.text(max_size=2))
CELL = re.compile(rb'"(\w+)": ([^,}]+)')


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A scratch directory, and per desk variant its config path and the
    bytes of the trace that ``solve`` wrote."""
    path = tmp_path_factory.mktemp("mutations")
    runs = []
    for i, (kind, dim, instance, sigma) in enumerate(DESK_VARIANTS):
        config = path / f"{i}.json"
        config.write_text(json.dumps({
            "schema_version": 1,
            "problem": {"kind": kind, "dimension": dim, "seed": 1},
            "instance": {"kind": instance},
            "params": {"alpha": 0.2, "sigma": sigma, "beta": 0.4},
            "stopping": {"rho": 1e-6, "eps_hat": 1e-9, "max_iters": CAP}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--config", str(config),
                             "--out", str(path / str(i))]) in (0, 1)
        runs.append((config, (path / str(i) / "trace.jsonl").read_bytes()))
    return path, runs


def certify(config, trace):
    """``certify``'s exit code, stdout lines and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["certify", "--trace", str(trace),
                       "--config", str(config)])
    return rc, out.getvalue().splitlines(), err.getvalue().splitlines()


def in_format(data):
    """Whether ``data`` is a trace in the writer's format: line 1 the meta
    object alone, then one row a line, each an object of exactly the
    trace columns, ``k`` the int step number and every other cell a float
    or null."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    try:
        head = orjson.loads(lines[0])
        list(map(orjson.loads, lines[1:]))
    except (IndexError, orjson.JSONDecodeError):
        return False
    if not (type(head) is dict and list(head) == ["meta"]
            and type(head["meta"]) is dict):
        return False
    for k, row in enumerate(map(json.loads, lines[1:]), start=1):
        if not (type(row) is dict and sorted(row) == sorted(TRACE_COLUMNS)
                and type(row["k"]) is int and row["k"] == k
                and all(type(row[name]) in (float, type(None))
                        for name in TRACE_COLUMNS[1:])):
            return False
    return True


def mutate_bytes(data, draw):
    """Replace, insert or delete bytes at one place."""
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    token = draw(st.sampled_from(TOKENS))
    if kind == "insert":
        return data[:at] + token + data[at:]
    gone = draw(st.integers(1, 3))
    return data[:at] + (token if kind == "replace" else b"") + data[at + gone:]


def mutate_lines(data, draw):
    """Swap, duplicate, drop or cut short one line."""
    lines = data.splitlines(keepends=True)
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["swap", "duplicate", "drop", "cut"]))
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "drop":
        del lines[i]
    else:
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 2))] + b"\n"
    return b"".join(lines)


def mutate_cell(data, draw):
    """Scale one cell of a row, change its last digit, or give it another
    JSON value."""
    lines = data.splitlines(keepends=True)
    row = draw(st.integers(1, len(lines) - 1))
    cells = [m for m in CELL.finditer(lines[row]) if m.group(1) != b"k"]
    cell = draw(st.sampled_from(cells))
    text = cell.group(2)
    kind = draw(st.sampled_from(["scale", "digit", "replace"]))
    if kind == "replace":
        text = json.dumps(draw(CELL_VALUES)).encode()
    elif text != b"null" and kind == "scale":
        text = json.dumps(float(text) * draw(st.floats())).encode()
    elif text != b"null":
        text = text[:-1] + str((int(text[-1:]) + 1) % 10).encode()
    lines[row] = (lines[row][:cell.start(2)] + text
                  + lines[row][cell.end(2):])
    return b"".join(lines)


def test_each_unmutated_trace_certifies(solved):
    path, runs = solved
    for config, data in runs:
        assert data.count(b"\n") == CAP + 1
        (path / "unmutated.jsonl").write_bytes(data)
        rc, out, err = certify(config, path / "unmutated.jsonl")
        assert (rc, err) == (0, []) and len(out) == len(bounds._CHECKS)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(variant=st.integers(0, len(DESK_VARIANTS) - 1), data=st.data())
def test_certify_answers_every_mutation_as_documented(solved, variant, data):
    path, runs = solved
    config, original = runs[variant]
    mutate = data.draw(st.sampled_from(
        [mutate_bytes, mutate_lines, mutate_cell]))
    mutated = mutate(original, data.draw)
    (path / "mutated.jsonl").write_bytes(mutated)
    rc, out, err = certify(config, path / "mutated.jsonl")
    if err:
        # a refusal: one line, and no check printed
        assert len(err) == 1 and out == []
        assert (rc, err[0].split(": ")[0]) in ((2, "config error"),
                                               (3, "error"))
    else:
        assert rc in (0, 3) and len(out) == len(bounds._CHECKS)
        assert (rc == 3) == any(line.startswith("[FAIL]") for line in out)
    if not in_format(mutated):
        assert rc == 3 and err, "a trace out of the format was read"
        assert err[0].startswith("error: ") and "trace line" in err[0]
    if mutated == original:
        assert rc == 0
