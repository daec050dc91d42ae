#!/usr/bin/env python3
"""Compare the compiled word kernels against the pure-Python fallback.

Runs the same workload twice in subprocesses (the backend is chosen at
import time, so each run gets a fresh interpreter): tight loops over the
raw byte kernels, a radius-6 ball in the kernel subgroup, and the area
search's greedy probe on [x^31, y^31].  The ball search walks raw keys
with ``ops.concat``, so ``radius6_ball`` times that kernel inside the
search loop.  ``probe_n31`` is the search-core (L1) time of the probe that
proves Area([x^31, y^31]) = 961 inside ``certify --n 31``: it ranks each
level's children by their seam lengths in Python and calls one
``insert_reduce`` per level and no ``expand``, so it mostly times Python,
not the kernels.  (The toy-amalgam certificates are proved at the root by
the area search's lower bound and run no search, so they say nothing about
the kernels.)  Prints one table with the speedups.

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
from kgroups.areasearch import greedy_probe
from kgroups.presentations import (DEFAULT_LEN_CAP_FACTOR, _heuristic_for,
                                   _variants, parse_presentation)

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

# the probe as area_search calls it for [x^31, y^31] (961 levels)
P = parse_presentation("< x, y | [x,y] >")
w = P.word("[x^31, y^31]").data
variants, _ = _variants(P)
heur, _ = _heuristic_for(P, variants, w)
h0 = heur.bound(heur.values(w))
t0 = time.perf_counter()
path = greedy_probe(w, variants, node_budget=50 * h0 + 200, heuristic=heur,
                    len_cap=len(w) + DEFAULT_LEN_CAP_FACTOR * max(map(len, variants)))
out["probe_n31"] = time.perf_counter() - t0
if path is None or len(path) != h0:
    raise SystemExit("probe_n31: no path of length %d" % h0)

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
    tasks = ("free_reduce", "concat", "radius6_ball", "probe_n31")
    width = max(len(t) for t in tasks)
    print(f"{'task'.ljust(width)}  {fast['backend']:>10}  "
          f"{slow['backend']:>10}  speedup")
    for t in tasks:
        ratio = slow[t] / fast[t] if fast[t] else float("inf")
        print(f"{t.ljust(width)}  {fast[t]:>9.3f}s  {slow[t]:>9.3f}s  "
              f"{ratio:>6.1f}x")


if __name__ == "__main__":
    main()
