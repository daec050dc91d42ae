#!/usr/bin/env python3
"""Self-check of the benchmark: python3 perfbench/selfcheck.py

Runs every workload at a tiny size through the real CLI and requires every
operation to pass its checks; then feeds each checker tampered outputs (a
witness with one item dropped, a distance off by one, a closed form off by
one, an exception, a search out of budget) and requires each to be caught.
Exits 0 when every expectation holds.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys

import checks as C
import run
from workloads import FAILED, OK, WORKLOADS, WRONG, Context, Result

failures = []


def expect(label: str, got, want) -> None:
    status = "ok" if got == want else "FAIL"
    if got != want:
        failures.append(label)
    print("%-4s %s: %r" % (status, label, got))


def tampered(res: Result, edit) -> Result:
    rep = json.loads(res.out)
    edit(rep)
    return Result(res.code, json.dumps(rep), res.error)


def main() -> int:
    if not (run.SRC / "kgroups" / "__init__.py").is_file():
        print("selfcheck: no kgroups sources under %s" % run.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    kg = run.import_kgroups()
    ctx = Context()
    results = {}
    for name, build in WORKLOADS.items():
        wl = build(7, True)
        timed = run.run_round(kg, wl.ops, run.SpeedMeter(), reps=1)
        judged = [(op, op.judge(runs[0][2], ctx), runs[0][2])
                  for op, runs in zip(wl.ops, timed)]
        expect("%s: every tiny operation passes" % name,
               [(op.name, o) for op, (o, _), _ in judged if o != OK], [])
        expect("%s: set-level check passes" % name, wl.round_check(judged), "")
        results[name] = (wl, judged)

    # the byte replay of witnesses
    wl, judged = results["area-sweep"]
    op, _, res = judged[-1]
    expect("area witness with one item dropped",
           op.judge(tampered(res, lambda r: r.update(
               area=r["area"] - 1, witness=r["witness"][1:])), ctx)[0], WRONG)
    expect("area witness with one sign flipped",
           op.judge(tampered(res, lambda r: r["witness"][0].update(
               sign=-r["witness"][0]["sign"])), ctx)[0], WRONG)
    expect("area answer with a different word",
           op.judge(tampered(res, lambda r: r.update(word="a b a^-1 b^-1")),
                    ctx)[0], WRONG)
    # the enclosed-area bound: [x^2, y^2] encloses 4, [a b, c] encloses 1 + 1
    x, y = b"\x00", b"\x02"
    expect("enclosed area of [x^2,y^2]",
           C.plane_area_bound(C.commutator(C.power(x, 2), C.power(y, 2)), 2), 4)
    expect("enclosed area of [a b, c]",
           C.plane_area_bound(C.commutator(b"\x00\x02", b"\x04"), 3), 2)
    expect("Z^2 sweep with its largest area lowered", bool(wl.round_check(
        [(o, v, tampered(r, lambda d: d.update(area=d["area"] - 1)))
         for o, v, r in judged])), True)

    # certify: closed forms, the area-fact witness, the ball evidence
    wl, judged = results["certify"]
    op, _, res = judged[1]              # n = 2: carries ball evidence
    for key in ("area_bound", "test_word_symbols", "test_word_letters",
                "subgroup_distance_bound"):
        expect("certify with %s off by one" % key, op.judge(tampered(
            res, lambda r: r.update({key: r[key] + 1})), ctx)[0], WRONG)

    def drop_fact_item(rep):
        fact = next(e for e in rep["evidence"] if e["verifier"] == "area-fact")
        fact["details"]["witness"] = fact["details"]["witness"][1:]
    expect("certify area-fact witness with one item dropped",
           op.judge(tampered(res, drop_fact_item), ctx)[0], WRONG)

    def shift_ball(rep):
        ev = next(e for e in rep["evidence"] if e["verifier"] == "subgroup-distance")
        ev["details"]["ball_size"] += 1
    expect("certify ball size off by one",
           op.judge(tampered(res, shift_ball), ctx)[0], WRONG)
    expect("certify printing different bytes on the second call",
           op.judge(Result(res.code, res.out.replace('"n": 2', '"n":2'), ""),
                    ctx)[0], WRONG)

    # toy-amalgam: closed forms and the verdict
    _, judged = results["toy-amalgam"]
    op, _, res = judged[0]
    expect("toy with required_bound off by one", op.judge(tampered(
        res, lambda r: r.update(required_bound=r["required_bound"] + 1)), ctx)[0],
        WRONG)
    expect("toy verified-bound below the bound", op.judge(tampered(
        res, lambda r: r["search"].update(lower_bound=1)), ctx)[0], WRONG)
    expect("toy refuted", op.judge(tampered(
        res, lambda r: r.update(status="refuted")), ctx)[0], WRONG)

    def out_of_budget(rep):
        rep["status"] = "inconclusive"
        rep["search"]["stop_reason"] = "push cap"
    expect("toy search out of budget",
           op.judge(Result(2, tampered(res, out_of_budget).out, ""), ctx),
           (FAILED, "inconclusive: push cap"))

    # cayley-ball: distances against the independent BFS
    _, judged = results["cayley-ball"]
    op, _, res = judged[0]
    for delta in (1, -1):
        expect("distance off by %+d" % delta, op.judge(tampered(
            res, lambda r: r.update(distance=r["distance"] + delta)), ctx)[0],
            WRONG)
    op, _, res = judged[-1]             # the exclusion
    expect("exclusion with the ball size off by one", op.judge(tampered(
        res, lambda r: r.update(explored=r["explored"] - 1)), ctx)[0], WRONG)
    expect("exclusion answered with a distance", op.judge(Result(
        0, json.dumps({"distance": 3, "explored": 10}), ""), ctx)[0], WRONG)

    # failure accounting: an exception is a failed operation, never a crash
    expect("operation that raised", op.judge(Result(None, "", "RecursionError"),
                                             ctx), (FAILED, "RecursionError"))

    print("selfcheck: %s" % ("%d failed" % len(failures) if failures else "all passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
