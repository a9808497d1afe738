"""tools/same_outputs.py against a git revision of this repository."""

import re
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
