#!/usr/bin/env python3
"""kgroups benchmark: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 5 --trace 0

Set-up (importing kgroups from ./src and building the workload's inputs)
is repeated SETUP_REPEATS times and its median reported.  The run then
repeats whole rounds of the workload's operations until --seconds have
passed; a round runs every operation its fixed number of times (Op.reps),
spread through the round.  Each run of an operation is timed and adjusted
to the reference speed (see REF_S), and the operation's time is the median
over its runs.  wall_s is the sum of those times: one pass over the
workload.  Every output is judged by the checkers in checks.py after the
timed rounds.  With --trace 1 one more pass, each operation once, runs
under the span tracer; the per-layer metrics come from that pass (in raw
seconds), and trace.overhead_s is its scaled time minus wall_s.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records provenance; per-operation outcomes of the
first round go to standard error, and the traced spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import spans  # noqa: E402  (this directory is sys.path[0])
from workloads import FAILED, OK, WORKLOADS, WRONG, Context, Result  # noqa: E402

SETUP_REPEATS = 5
# On the 2-vCPU Xeon VM the benchmark was tuned on, the CPU runs at one of
# two speeds (reference_work takes about 0.6 or 1.1 ms) for seconds to
# minutes at a time, so raw seconds of the same work differ by tens of
# percent between runs.  Each operation's time is therefore multiplied by
# REF_S / r, r being the reference's time measured around it: times are
# seconds at the speed where reference_work takes REF_S.
REF_S = 0.001
SAMPLE_EVERY_S = 0.25
MODULES = ("cli", "certificates", "presentations", "areasearch", "metrics",
           "kernels", "words")


def import_kgroups() -> SimpleNamespace:
    """A fresh import of the package, its modules as attributes."""
    for name in [m for m in sys.modules if m == "kgroups" or m.startswith("kgroups.")]:
        del sys.modules[name]
    kg = importlib.import_module("kgroups")
    return SimpleNamespace(
        BACKEND=kg.BACKEND,
        **{m: importlib.import_module("kgroups." + m) for m in MODULES})


def call_cli(kg, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kg.cli.main(argv)
    except (Exception, SystemExit) as e:  # every failure is an outcome
        return Result(None, out.getvalue(), type(e).__name__)
    return Result(code, out.getvalue(), "")


def reference_work() -> int:
    """Fixed pure-Python work, sharing no code with kgroups: bytes slicing
    and tuple-keyed dict traffic, as in the word kernels and searches."""
    seen = {}
    w = b""
    for i in range(1500):
        w = (w + bytes((i & 7,)))[-12:]
        seen[(w, i & 3)] = i
    return len(seen)


class SpeedMeter:
    """Times reference_work between operations, to follow the machine's speed."""

    def __init__(self):
        self.times: list = []      # when each sample ended
        self.refs: list = []       # seconds reference_work took then

    def sample(self) -> None:
        clock = time.perf_counter
        xs = []
        for _ in range(3):
            t0 = clock()
            reference_work()
            xs.append(clock() - t0)
        self.times.append(clock())
        self.refs.append(statistics.median(xs))

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] > SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the mean reference time from the last sample before
        t0 to the first sample after t1."""
        i = max(bisect.bisect_right(self.times, t0) - 1, 0)
        j = bisect.bisect_left(self.times, t1, lo=i)
        return REF_S / statistics.mean(self.refs[i:j + 1])


def run_round(kg, ops, meter, reps=None, tracer=None):
    """Run every operation its number of times (or `reps` times).

    The runs of one operation are spread evenly through the round, between
    the other operations', so that they see the machine at different
    moments.  Returns [[(adjusted seconds, raw seconds, Result), ...] per
    operation].
    """
    counts = [reps or op.reps for op in ops]
    schedule = sorted(((k + 0.5) / n, i) for i, n in enumerate(counts)
                      for k in range(n))
    raw = [[] for _ in ops]
    clock = time.perf_counter
    gc.collect()
    for _, i in schedule:
        meter.sample_if_due()
        if tracer is not None:
            tracer.op = ops[i].name
        t0 = clock()
        res = call_cli(kg, ops[i].argv)
        raw[i].append((t0, clock(), res))
    meter.sample()
    return [[((t1 - t0) * meter.scale(t0, t1), t1 - t0, res)
             for t0, t1, res in runs] for runs in raw]


def tail(latencies):
    """The highest sample with at least ten samples above it; the slowest
    sample when there are fewer than forty."""
    s = sorted(latencies)
    return s[-11] if len(s) >= 40 else s[-1]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "kgroups" / "__init__.py").is_file():
        print("perfbench: no kgroups sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        kg = import_kgroups()
        wl = build(args.seed, False)
        setups.append(time.perf_counter() - t0)

    meter = SpeedMeter()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(kg, wl.ops, meter))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = tracer = None
    if args.trace:
        tracer = spans.install(kg)
        try:
            traced = run_round(kg, wl.ops, meter, reps=1, tracer=tracer)
        finally:
            tracer.restore()
        traced_wall = sum(runs[0][0] for runs in traced)

    # judge every output; only the untraced rounds count as attempted
    ctx = Context()
    attempted = failed = verified = 0
    correct = True
    for r, timed in enumerate(rounds + ([traced] if traced else [])):
        judged = []
        for op, runs in zip(wl.ops, timed):
            for k, (dt, _, res) in enumerate(runs):
                outcome, detail = op.judge(res, ctx)
                judged.append((op, (outcome, detail), res))
                verified += r == 0 and k == 0 and outcome == OK
                if r == 0 or outcome != OK:
                    print("round %d %-28s %10.4f s  %s %s"
                          % (r, op.name, dt, outcome, detail), file=sys.stderr)
        problem = wl.round_check(judged)
        if problem:
            print("round %d: %s" % (r, problem), file=sys.stderr)
        correct = correct and not problem and all(
            o != WRONG for _, (o, _), _ in judged)
        if r < len(rounds):
            attempted += len(judged)
            failed += sum(o == FAILED for _, (o, _), _ in judged)

    # one pass over the workload: each operation at its median time
    per_op = [statistics.median(dt for timed in rounds for dt, _, _ in timed[i])
              for i in range(len(wl.ops))]
    raw_per_op = [statistics.median(raw for timed in rounds for _, raw, _ in timed[i])
                  for i in range(len(wl.ops))]
    wall_s = sum(per_op)
    provenance = {
        "workload": args.workload, "seed": args.seed, "backend": kg.BACKEND,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "rounds": len(rounds),
        "operations_per_round": len(wl.ops),
        "runs_per_round": sum(op.reps for op in wl.ops),
        "raw_wall_s": sum(raw_per_op),
        "reference_ms": 1000 * statistics.median(meter.refs)}
    print(json.dumps(provenance, sort_keys=True))

    if tracer:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in spans.per_layer(tracer).items()}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall_s, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        dump = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        dump.write_text(json.dumps({
            "provenance": provenance, "traced_wall_s": traced_wall,
            "untraced_wall_s": wall_s,
            "totals": {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(tracer.totals.items())},
            "counters": tracer.counters,
            "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"), s))
                      for s in tracer.spans]}, indent=1))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "op_tail_s": {"value": tail(per_op), "unit": "s"},
            "verified_per_s": {"value": verified / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
