"""Check that two source trees write the same outputs on a perfbench workload.

Usage (from the repository root):

    python3 tools/same_outputs.py --parent-rev HEAD~1 --workload desk_zoo \
        --seed 1
    python3 tools/same_outputs.py --parent-rev HEAD --workload desk_zoo \
        --workload sweep_exact --workload large_dense --seed 1 2 3

The tree compared with is the ``src/`` of git revision ``REV`` of this
repository, unpacked with ``git archive`` into a temporary directory.
Each ``--workload`` is checked on each ``--seed``.  For each pair,
``perfbench/workloads.py`` writes the workload's config files for the seed.
Every job then runs through ``monosplit.cli.main`` twice, with the same
arguments as in ``perfbench/run.py``: once with this tree's ``src/`` and once
with ``REV``'s, each tree in its own subprocess.  The two runs are compared
file by file (every ``trace.jsonl``, ``summary.json`` and bench CSV) and
command by command (exit code, standard output and standard error, with each
run's output directory masked).  Each difference is named on standard
output, a file's with the first line at which it differs, then one count
line per workload and seed; the exit code is 1 on any difference and 0 when
everything matches.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASK = "<out>"
# The benchmark's single-threaded BLAS, fixed before numpy loads.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}


def commands(job, out):
    """The argv lists of one job, as ``perfbench/run.py`` issues them."""
    if job["command"] == "bench":
        return [["bench", "--config", job["config"],
                 "--out", str(out / f"{job['name']}.csv"), "--jobs", "1"]]
    out_dir = out / job["name"]
    return [["solve", "--config", job["config"], "--out", str(out_dir)],
            ["certify", "--trace", str(out_dir / "trace.jsonl"),
             "--config", job["config"]]]


def run_jobs(src, jobs, out):
    """Run every job with the ``monosplit`` under ``src``; return, per job,
    ``[exit code, stdout, stderr]`` of each command, ``out`` masked."""
    sys.path.insert(0, str(src))
    from monosplit import cli
    if Path(cli.__file__).resolve().parent != (src / "monosplit").resolve():
        sys.exit(f"same_outputs: imported monosplit from {cli.__file__}, "
                 f"not from {src}")
    results = {}
    for job in jobs:
        results[job["name"]] = []
        for argv in commands(job, out):
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse refusing an argument
                rc = exc.code
            except Exception as exc:
                rc = f"{type(exc).__name__}: {exc}"
            results[job["name"]].append(
                [rc] + [text.getvalue().replace(str(out), MASK)
                        for text in (stdout, stderr)])
    return results


def run_tree(src, jobs, out):
    """:func:`run_jobs` in a subprocess of its own; returns its results."""
    out.mkdir()
    results = out.parent / f"{out.name}.json"
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, __file__, "--child", str(src),
                    "--jobs", json.dumps(jobs), "--out", str(out),
                    "--results", str(results)], env=env, check=True)
    return json.loads(results.read_text())


def unpack(rev, dest):
    """Write the ``src/`` of git revision ``rev`` of this repository under
    ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"same_outputs: git archive {rev} failed: "
                 f"{archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def files(out):
    """Relative path -> bytes of every file under ``out``."""
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def differences(jobs, mine, theirs, out_mine, out_theirs):
    """One line per output that differs between the two runs."""
    lines = []
    for job in jobs:
        for argv, a, b in zip(commands(job, Path(MASK)), mine[job["name"]],
                              theirs[job["name"]]):
            for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                if x != y:
                    lines.append(f"{job['name']} {argv[0]}: {what} differs: "
                                 f"{x!r} vs {y!r}")
    files_mine, files_theirs = files(out_mine), files(out_theirs)
    for name in sorted(files_mine.keys() | files_theirs.keys()):
        if name not in files_theirs:
            lines.append(f"{name}: written only by this tree")
        elif name not in files_mine:
            lines.append(f"{name}: written only by the parent tree")
        elif files_mine[name] != files_theirs[name]:
            lineno = first_line_apart(files_mine[name], files_theirs[name])
            lines.append(f"{name}: differs from line {lineno}")
    return lines, len(files_mine)


def first_line_apart(a, b):
    """The number of the first line at which the bytes ``a`` and ``b``
    differ."""
    return a.count(b"\n", 0, len(os.path.commonprefix([a, b]))) + 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent-rev", metavar="REV",
                    help="the git revision of this repository to compare "
                         "with")
    ap.add_argument("--workload", action="append",
                    help="a workload to check; repeat for several")
    ap.add_argument("--seed", type=int, nargs="+", default=[1],
                    help="the seeds to check each workload on (default 1)")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--jobs", help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--results", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        results = run_jobs(args.child, json.loads(args.jobs), args.out)
        args.results.write_text(json.dumps(results))
        return 0
    if args.parent_rev is None or args.workload is None:
        ap.error("--parent-rev and --workload are required")
    with tempfile.TemporaryDirectory(prefix="same_outputs-parent-") as tmp:
        parent = Path(tmp)
        unpack(args.parent_rev, parent)
        return compare(parent / "src", args.workload, args.seed)


def compare(parent_src, workload_names, seeds):
    """Compare this tree's ``src/`` with ``parent_src`` on each workload and
    seed; print the differences and the count lines, and return the exit
    code."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    found = False
    for workload, seed in itertools.product(workload_names, seeds):
        with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
            work = Path(tmp)
            jobs = [{"name": job.name, "command": job.command,
                     "config": job.config}
                    for job in workloads.generate(workload, seed,
                                                  work / "configs")]
            out_mine, out_theirs = work / "this", work / "parent"
            mine = run_tree(ROOT / "src", jobs, out_mine)
            theirs = run_tree(parent_src, jobs, out_theirs)
            lines, count = differences(jobs, mine, theirs, out_mine,
                                       out_theirs)
        for line in lines:
            print(line)
        commands_run = sum(len(results) for results in mine.values())
        print(f"{workload} seed {seed}: {len(jobs)} jobs, "
              f"{commands_run} commands, {count} files: "
              f"{len(lines)} differences", flush=True)
        found = found or bool(lines)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
