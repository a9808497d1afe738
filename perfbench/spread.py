"""Run-to-run spread of the benchmark over seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload desk_zoo --seeds 1-10

Runs ``perfbench/run.py`` untraced once per seed, one run at a time, and
prints for every metric the median, the quartiles and the spread: the
distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median.  A gated
metric's spread is marked ``HIGH`` when it is not below a third of the
metric's bound in BENCHMARK.json.  Exits 1 when a run fails or is not
correct.

``--save FILE`` keeps the per-seed values; a later ``--against FILE`` run
of the same seeds checks that two sets of runs agree: every median is no
worse than the saved one by more than its bound, and every count is
identical seed by seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = float(value)
    return result, printed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", metavar="FILE")
    parser.add_argument("--against", metavar="FILE")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = {m["name"] for m in spec["end_to_end"] if m["unit"] == "count"}

    values = {}
    per_seed = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        result, printed = run_once(args.workload, seed, seconds)
        ok &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in printed.items()),
              flush=True)
        per_seed[str(seed)] = printed
        for name, value in printed.items():
            values.setdefault(name, []).append(value)
    if args.save:
        Path(args.save).write_text(json.dumps(per_seed, indent=1))

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "HIGH"
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} {flag}")

    if args.against:
        before = json.loads(Path(args.against).read_text())
        for name, vals in values.items():
            old = [run[name] for run in before.values() if name in run]
            if name in counts:
                same = all(before[s].get(name) == v[name]
                           for s, v in per_seed.items() if s in before)
                print(f"{name:32} identical per seed: {same}")
                ok &= same
            elif bounds.get(name) is not None and old:
                ratio = statistics.median(vals) / statistics.median(old)
                worse = ratio > 1.0 + bounds[name]
                print(f"{name:32} median / saved median {ratio:.4f}"
                      + ("  WORSE THAN BOUND" if worse else ""))
                ok &= not worse
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
