"""Run perfbench in this checkout and in another tree, in alternating pairs.

Usage: python tools/pairs.py OTHER_TREE --workload W [--pairs 10]
           [--seeds 301 ...] [--seconds 5]

OTHER_TREE is the tree to compare against, usually a checkout of the parent
commit; it must hold its own ``perfbench/run.py``.  Pair k runs the command
of this checkout's ``BENCHMARK.json`` (``python3 perfbench/run.py``) with
``--workload W --seed S --seconds T --trace 0`` once in each tree, from
that tree's root, so that each run imports its own tree's ``src``.  S is
``seeds[k % len(seeds)]``.  Even pairs run OTHER_TREE first and odd pairs
this checkout first, and both runs of a pair get the same environment.

For each end-to-end metric of ``BENCHMARK.json`` it prints OTHER_TREE's
median and quartiles, this checkout's median, on how many pairs this
checkout's run was better, and how much worse its median is (negative:
better).  A metric whose median is worse by more than its bound is flagged.
Then each pair's seed, order, and each run's round count, ``correct`` and
``failed``.

The exit code is 1 when a metric is flagged, a run is not correct, or this
checkout's run of a pair failed more operations than OTHER_TREE's; else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(tree: Path, command, workload: str, seed: int, seconds: float,
        env) -> dict:
    """One perfbench run in ``tree``: its result line's fields, each
    metric's value in place of ``{"value", "unit"}``, and the provenance
    line's ``rounds``."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit("pairs: perfbench in %s exited %d:\n%s"
                         % (tree, done.returncode, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    result["rounds"] = json.loads(lines[-2])["rounds"]
    return result


def quartiles(values):
    """The first and third quartiles (inclusive method) of ``values``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(theirs, mine, end_to_end):
    """Per end-to-end metric: (name, their median, their quartiles, my
    median, my wins, how much worse my median is as a fraction of theirs,
    flagged)."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [r["metrics"][name] for r in theirs]
        b = [r["metrics"][name] for r in mine]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
        rows.append((name, ma, quartiles(a), mb, wins, worse,
                     worse > spec["bound"]))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", type=Path, help="the tree to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[301])
    p.add_argument("--seconds", type=float, default=5)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    other, env = args.other.resolve(), dict(os.environ)
    theirs, mine, log = [], [], []
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        order = [(other, theirs), (ROOT, mine)]
        if k % 2:
            order.reverse()
        for tree, results in order:
            results.append(run(tree, bench["command"], args.workload, seed,
                               args.seconds, env))
        log.append((seed, "other" if k % 2 == 0 else "this"))

    print("workload %s: %d pairs, seeds %s, %g s; other = %s"
          % (args.workload, args.pairs, " ".join(map(str, args.seeds)),
             args.seconds, other))
    print("%-15s %12s %28s %12s %6s %8s"
          % ("metric", "other p50", "other [q1, q3]", "this p50", "wins",
             "worse"))
    bad = False
    for name, ma, (q1, q3), mb, wins, worse, flagged in summarize(
            theirs, mine, bench["end_to_end"]):
        bad |= flagged
        print("%-15s %12.6g [%12.6g, %12.6g] %12.6g %3d/%-2d %+7.1f%%%s"
              % (name, ma, q1, q3, mb, wins, args.pairs, 100 * worse,
                 "  FLAG: worse than its bound" if flagged else ""))
    for k, ((seed, first), a, b) in enumerate(zip(log, theirs, mine), 1):
        bad |= not (a["correct"] and b["correct"]) or b["failed"] > a["failed"]
        print("pair %d seed %d, %s first: other %d rounds correct %s failed %d;"
              " this %d rounds correct %s failed %d"
              % (k, seed, first, a["rounds"], a["correct"], a["failed"],
                 b["rounds"], b["correct"], b["failed"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
