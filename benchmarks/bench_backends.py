#!/usr/bin/env python3
"""Compare the compiled word kernels against the pure-Python fallback.

Runs the same workload twice in subprocesses (the backend is chosen at
import time, so each run gets a fresh interpreter): tight loops over the
raw byte kernels, then a radius-6 ball in the kernel subgroup.  The ball
search walks raw keys with ``ops.concat``, so ``radius6_ball`` times that
kernel inside the search loop.  (The toy-amalgam certificates are proved
at the root by the area search's lower bound and run no search, so they
say nothing about the kernels.)  Prints one table with the speedups.

Usage: python benchmarks/bench_backends.py
"""

import json
import os
import subprocess
import sys

SNIPPET = r"""
import json, random, time
from kgroups.backend import ops, BACKEND
from kgroups.kernels import KernelGroup, standard_generators
from kgroups.metrics import ball_profile

rng = random.Random(1)
words = []
for _ in range(400):
    data = []
    while len(data) < 120:
        c = rng.randrange(4)
        if data and (data[-1] ^ c) == 1:
            continue
        data.append(c)
    words.append(bytes(data))

out = {"backend": BACKEND}

t0 = time.perf_counter()
for _ in range(40):
    for w in words:
        ops.free_reduce(w + bytes(b ^ 1 for b in reversed(w)))
out["free_reduce"] = time.perf_counter() - t0

t0 = time.perf_counter()
for _ in range(40):
    for u, v in zip(words, reversed(words)):
        ops.concat(u, v)
out["concat"] = time.perf_counter() - t0

t0 = time.perf_counter()
ball_profile(standard_generators(KernelGroup(2, 2, 2)), 6)
out["radius6_ball"] = time.perf_counter() - t0

print(json.dumps(out))
"""


# the sources of this checkout, whether or not kgroups is installed
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run(pure: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    if pure:
        env["KGROUPS_PURE"] = "1"
    else:
        env.pop("KGROUPS_PURE", None)
    res = subprocess.run([sys.executable, "-c", SNIPPET], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def main():
    fast = run(pure=False)
    slow = run(pure=True)
    if fast["backend"] == slow["backend"]:
        print("compiled backend unavailable; both runs used"
              f" {fast['backend']!r}")
    tasks = ("free_reduce", "concat", "radius6_ball")
    width = max(len(t) for t in tasks)
    print(f"{'task'.ljust(width)}  {fast['backend']:>10}  "
          f"{slow['backend']:>10}  speedup")
    for t in tasks:
        ratio = slow[t] / fast[t] if fast[t] else float("inf")
        print(f"{t.ljust(width)}  {fast[t]:>9.3f}s  {slow[t]:>9.3f}s  "
              f"{ratio:>6.1f}x")


if __name__ == "__main__":
    main()
