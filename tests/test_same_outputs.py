"""tools/same_outputs.py against a git revision of this repository."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


@pytest.fixture(autouse=True)
def git_checkout():
    try:
        head = git("rev-parse", "--verify", "HEAD")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if head.returncode != 0:
        pytest.skip("not a git checkout with a commit")


def same_outputs(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, cwd=ROOT)


def test_parent_rev_head_runs_both_trees():
    run = same_outputs("--parent-rev", "HEAD", "--workload", "sweep_exact",
                       "--seed", "1")
    counts = re.findall(r"^sweep_exact seed 1: 2 jobs, 2 commands, 2 files: "
                        r"(\d+) differences$", run.stdout, re.MULTILINE)
    assert len(counts) == 1, run.stdout + run.stderr
    assert run.returncode == (1 if int(counts[0]) else 0)
    if git("diff", "--quiet", "HEAD", "--", "src").returncode == 0:
        # this tree's src/ is HEAD's, so every output is the same
        assert counts == ["0"], run.stdout


def test_unknown_revision_exits_with_gits_error():
    run = same_outputs("--parent-rev", "no-such-revision", "--workload",
                       "sweep_exact")
    assert run.returncode == 1
    assert "git archive no-such-revision failed" in run.stderr
    assert run.stdout == ""


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("old, new, differs", [
    ('"final_norm_v", "final_eps"', '"final_norm", "final_eps"',
     ["job000.csv: differs from line 1", "job001.csv: differs from line 1"]),
    ("state.verdict, state.k,", "state.verdict, state.k + 1,",
     ["job000.csv: differs from line 2", "job001.csv: differs from line 2"]),
    ('f"wrote {len(cells)} rows', 'f"wrote {len(cells)} cells',
     ["job000 bench: stdout differs: ", "job001 bench: stdout differs: "]),
], ids=["bench_csv_header", "bench_csv_rows", "bench_stdout"])
def test_a_changed_output_is_named(tmp_path, capsys, monkeypatch, old, new,
                                   differs):
    # the copy stands for the parent tree: one output of it is changed
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "monosplit" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))
    monkeypatch.setattr(sys, "path", list(sys.path))  # compare extends it
    code = load_tool().compare(tmp_path / "src", ["sweep_exact"], [1])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == ("sweep_exact seed 1: 2 jobs, 2 commands, 2 files: "
                         "2 differences")
    assert len(lines) == 3
    for line, expected in zip(lines, differs):
        # a file's line is given whole, a command's up to its outputs
        assert line == expected or (expected.endswith(": ")
                                    and line.startswith(expected)), lines
