"""Fuzzed configs: junk in one field or one section of a small valid config
makes ``solve``, ``bench`` and ``certify`` exit 0, 1, 2 or 3, never with a
traceback."""

import json

import pytest

from monosplit import cli

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

BASE = {
    "schema_version": 1,
    "problem": {"kind": "affine_inclusion", "dimension": 4, "seed": 1},
    "instance": {"kind": "ppm"},
    "params": {"alpha": 0.1, "sigma": 0.0, "beta": 0.4},
    "stopping": {"rho": 1e-7, "eps_hat": 1e-9, "max_iters": 50},
    "sweep": {"alpha": [0.0, 0.2]},
}
# Where the junk goes: the whole file, a top-level field (a whole section)
# or one field of a section.
TARGETS = [()] + [(key,) for key in BASE] + [
    (section, key) for section in BASE if isinstance(BASE[section], dict)
    for key in cli._CONFIG_FIELDS[section]]
MARK = "@@junk@@"

_scalars = (st.none() | st.booleans() | st.text(max_size=6)
            | st.integers() | st.integers(-10 ** 400, 10 ** 400)
            | st.floats())  # NaN and +-inf dump as NaN and Infinity
_nested = st.recursive(
    _scalars, lambda inner: (st.lists(inner, max_size=3)
                             | st.dictionaries(st.text(max_size=4), inner,
                                               max_size=3)),
    max_leaves=8)
JUNK = st.one_of(
    _nested.map(lambda value: json.dumps(value).encode()),
    # an integer past json's digit limit, nesting past its recursion
    # limit, and bytes that are not UTF-8
    st.just(b"1" + b"0" * 5000),
    st.integers(1, 5000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.binary(min_size=1, max_size=4).map(lambda b: b"\xff" + b),
)


def _config_bytes(target, junk):
    """BASE with ``junk`` in place of ``target``."""
    if not target:
        return junk
    cfg = json.loads(json.dumps(BASE))
    *section, key = target
    (cfg[section[0]] if section else cfg)[key] = MARK
    return json.dumps(cfg).encode().replace(json.dumps(MARK).encode(), junk)


def _too_long(text):
    """Whether a config may build a problem above n = 16 or run more than
    100 steps, which no junk may make: the property is about exit codes,
    not about long runs."""
    try:
        cfg = json.loads(text)
        problem, stopping = cfg["problem"], cfg.get("stopping", {})
        dim, cap = problem["dimension"], stopping.get("max_iters", 10 ** 6)
    except (ValueError, RecursionError, LookupError, TypeError,
            AttributeError):  # no config that could run
        return False
    return ((type(dim) is int and 16 < dim <= 4096)
            or (type(cap) is int and cap > 100))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding BASE's config and the trace a solve wrote."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "base.json").write_text(json.dumps(BASE))
    assert cli.main(["solve", "--config", str(path / "base.json"),
                     "--out", str(path / "base")]) == 0
    return path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(target=st.sampled_from(TARGETS), junk=JUNK)
def test_junk_config_exits_with_a_documented_code(workdir, target, junk):
    text = _config_bytes(target, junk)
    assume(not _too_long(text))
    config = workdir / "cfg.json"
    config.write_bytes(text)
    trace = workdir / "base" / "trace.jsonl"
    for argv in (["solve", "--out", str(workdir / "run")],
                 ["bench", "--out", str(workdir / "grid.csv")],
                 ["certify", "--trace", str(trace)]):
        assert cli.main(argv + ["--config", str(config)]) in (0, 1, 2, 3)
