"""The four workloads: their inputs, and how each operation is judged.

Every operation is one `kgroups` CLI command run in-process through
`kgroups.cli.main`, so each workload times what a user of the command line
waits for.  A judge reads the command's exit code and output and returns
one of three outcomes:

* OK: the answer passed every independent check;
* FAILED: the program gave no verdict (an exception, or a search that ran
  out of budget); the reason is recorded;
* WRONG: the program gave a verdict that the checks refute.

Only `checks` is used to decide, never a verifier of the library.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import checks as C

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Result(NamedTuple):
    code: Optional[int]
    out: str
    error: str          # exception type name when the command raised


class Op(NamedTuple):
    name: str
    argv: List[str]
    judge: Callable[[Result, "Context"], Tuple[str, str]]
    # runs per round, spread through it; the median time counts
    reps: int = 1


class Workload(NamedTuple):
    ops: List[Op]
    # set-level check over one round's (op, outcome, result) triples;
    # returns a problem description or ''
    round_check: Callable[[list], str]


class Context:
    """A per-run cache for judges: expensive references, first outputs."""

    def __init__(self):
        self.cache: Dict[object, object] = {}

    def cached(self, key, make):
        if key not in self.cache:
            self.cache[key] = make()
        return self.cache[key]


def _no_round_check(_results) -> str:
    return ""


def _no_verdict(res: Result) -> Optional[Tuple[str, str]]:
    """FAILED when the command raised or printed no report (its error went
    to standard error with exit code 1)."""
    if res.error:
        return FAILED, res.error
    if not res.out.strip():
        return FAILED, "exit code %s without a report" % res.code
    return None


# -- certify ------------------------------------------------------------------

X, Y = b"\x00", b"\x02"
XY = ("x", "y")
COMM_XY = C.commutator(X, Y)

# K2_2_2 standard generators a1_2 = (x, x^-1), a2_2 = (y, y^-1),
# c1_2 = ([x,y], 1), with their inverses: the moves of the Cayley graph.
K222_GENS = ((X, C.inverse(X)), (Y, C.inverse(Y)), (COMM_XY, b""))
K222_MOVES = [m for g in K222_GENS
              for m in (g, tuple(C.inverse(f) for f in g))]


def h_key(n: int) -> C.Key:
    return (C.commutator(C.power(X, n), C.power(Y, n)), b"")


def certify(seed: int, tiny: bool) -> Workload:
    """`certify --n N` over a spread of n up to 31, plus n = 32."""
    ns = (1, 2, 3) if tiny else (1, 2, 4, 8, 16, 31, 32)
    # n <= 16 runs three times per round, so every run compares the bytes
    # of repeated calls; n = 31 and 32 take about ten seconds each and run
    # once, as a second run of each would not fit the run budget
    return Workload([Op("certify-n%d" % n, ["certify", "--n", str(n)],
                        _certify_judge(n), 3 if n <= 16 else 1) for n in ns],
                    _no_round_check)


def _certify_judge(n: int):
    def judge(res: Result, ctx: Context) -> Tuple[str, str]:
        no_verdict = _no_verdict(res)
        if no_verdict:
            return no_verdict
        if res.code != 0:
            return FAILED, "exit code %s" % res.code
        problem = _certify_problem(n, json.loads(res.out), ctx)
        if problem:
            return WRONG, problem
        if ctx.cached(("certify", n), lambda: res.out) != res.out:
            return WRONG, "a repeated call printed different bytes"
        return OK, ""
    return judge


def _certify_problem(n: int, rep: dict, ctx: Context) -> str:
    want = {"n": n, "test_word_symbols": 12 * n, "test_word_letters": 16 * n,
            "subgroup_distance_bound": n * n, "area_bound": 2 * n ** 3}
    for key, value in want.items():
        if rep.get(key) != value:
            return "%s = %r, expected %r" % (key, rep.get(key), value)
    evidence = {e["verifier"]: e for e in rep["evidence"]}
    fact = evidence["area-fact"]["details"]
    if fact["area"] != n * n:
        return "area fact %r, expected n^2 = %d" % (fact["area"], n * n)
    target = C.commutator(C.power(X, n), C.power(Y, n))
    if C.plane_area_bound(target, 2) > fact["area"]:
        return "area fact below the enclosed-area bound"
    problem = C.witness_problem(target, fact["area"], fact["witness"],
                                [COMM_XY], XY)
    if problem:
        return "area fact: " + problem
    if "subgroup-distance" in evidence:
        d = evidence["subgroup-distance"]
        radius = d["inputs"]["radius"]
        dist = ctx.cached(("ball", radius), lambda: C.ball(K222_MOVES, radius))
        if d["details"] != _distance_claim(dist, h_key(n), radius):
            return "subgroup distance evidence %r disagrees with the ball" \
                % d["details"]
    return ""


def _distance_claim(dist, key, radius) -> dict:
    if key in dist:
        return {"distance": dist[key]}
    return {"certificate": "distance > %d" % radius, "ball_size": len(dist)}


# -- toy-amalgam ----------------------------------------------------------------

TOY_NAMES = ("a", "c", "b", "d", "s")
_A, _C, _B, _D, _S = (bytes([2 * j]) for j in range(5))
TOY_RELATORS = [C.commutator(_A, _C), C.commutator(_B, _D),
                C.product(_S, C.inverse(_C), _A), C.product(_S, C.inverse(_D), _B)]
# the search's node cap; its push cap is eight times this.  The library's
# default (200,000 nodes) takes about 30 s per inconclusive instance.
TOY_NODE_CAP = 12_500


def toy_word(k: int, n: int) -> bytes:
    """[w, (u v)^n] with w = (a^-1 c)^k, u = a, v = b."""
    w = C.power(C.product(C.inverse(_A), _C), k)
    return C.commutator(w, C.power(C.product(_A, _B), n))


def toy_amalgam(seed: int, tiny: bool) -> Workload:
    """The four criterion-3 instances (k, n) in {1,2}^2, certificate mode."""
    pairs = ((1, 1),) if tiny else ((1, 1), (1, 2), (2, 1), (2, 2))
    return Workload([Op("toy-k%d-n%d" % (k, n),
                        ["toy-amalgam", "--k", str(k), "--n", str(n),
                         "--node-cap", str(TOY_NODE_CAP)],
                        _toy_judge(k, n), 3) for k, n in pairs], _no_round_check)


def _toy_judge(k: int, n: int):
    def judge(res: Result, ctx: Context) -> Tuple[str, str]:
        no_verdict = _no_verdict(res)
        if no_verdict:
            return no_verdict
        rep = json.loads(res.out)
        word = toy_word(k, n)
        want = {"k": k, "n": n, "required_bound": 2 * n * k,
                "subgroup_distance": k, "word_length": len(word)}
        for key, value in want.items():
            if rep.get(key) != value:
                return WRONG, "%s = %r, expected %r" % (key, rep.get(key), value)
        if C.parse(rep["word"], TOY_NAMES) != word:
            return WRONG, "test word differs from [(a^-1 c)^k, (a b)^n]"
        search, status = rep["search"], rep["status"]
        if status == "inconclusive" and res.code == 2:
            return FAILED, "inconclusive: " + search["stop_reason"]
        if status == "verified-bound" and res.code == 0:
            if search["lower_bound"] < 2 * n * k:
                return WRONG, "verified-bound below the required bound"
            return OK, ""
        if status == "verified-exact" and res.code == 0:
            problem = C.witness_problem(word, search["area"], search["witness"],
                                        TOY_RELATORS, TOY_NAMES)
            if problem:
                return WRONG, problem
            if search["area"] < 2 * n * k:
                return WRONG, "exact area below the required bound"
            return OK, ""
        return WRONG, "status %r with exit code %r" % (status, res.code)
    return judge


# -- area-sweep -----------------------------------------------------------------

Z2_TEXT = "< x, y | [x,y] >"
Z3_NAMES = ("a", "b", "c")
Z3_TEXT = "< a, b, c | [a,b], [b,c], [a,c] >"
_a, _b, _c = b"\x00", b"\x02", b"\x04"
Z3_RELATORS = [C.commutator(_a, _b), C.commutator(_b, _c), C.commutator(_a, _c)]
# every null-homotopic class of length <= 8 over Z^2; length 10 (93 classes)
# takes about 35 s, more than a run can spend on one workload
SWEEP_MAX_LEN = 8
# words of area 2 over Z^3, where the search's heuristic is zero.  [a b, c]
# is left out: at 6-9 s a run (8,875 nodes, 1.08M pushes) it made the
# sweep's times the least steady and its runs the longest of the benchmark.
Z3_WORDS = (C.commutator(C.power(_a, 2), _b),
            C.commutator(_a, C.product(_b, _c)))


def area_sweep(seed: int, tiny: bool) -> Workload:
    """Exact area searches to the goal, each returning a witness."""
    max_len = 4 if tiny else SWEEP_MAX_LEN
    ops = []
    for w in C.null_classes(max_len, 2):
        ops.append(Op("z2-" + C.render(w, XY).replace(" ", ""),
                      ["area", "--presentation", Z2_TEXT, "--word",
                       C.render(w, XY), "--format", "json"],
                      _area_judge(w, 2, [COMM_XY], XY, None), 3))
    for w in Z3_WORDS[:1] if tiny else Z3_WORDS:
        ops.append(Op("z3-" + C.render(w, Z3_NAMES).replace(" ", ""),
                      ["area", "--presentation", Z3_TEXT, "--word",
                       C.render(w, Z3_NAMES), "--format", "json"],
                      _area_judge(w, 3, Z3_RELATORS, Z3_NAMES, 2), 2))

    def round_check(results) -> str:
        # the largest area over all Z^2 loops of length <= L is floor(L^2/16)
        areas = [json.loads(res.out)["area"] for op, (outcome, _), res in results
                 if op.name.startswith("z2-") and outcome == OK]
        want = max_len * max_len // 16
        if len(areas) == sum(op.name.startswith("z2-") for op, _, _ in results) \
                and max(areas) != want:
            return "largest Z^2 area %d, expected floor(%d^2/16) = %d" % (
                max(areas), max_len, want)
        return ""

    return Workload(ops, round_check)


def _area_judge(word: bytes, rank: int, relators, names, expected: Optional[int]):
    def judge(res: Result, ctx: Context) -> Tuple[str, str]:
        no_verdict = _no_verdict(res)
        if no_verdict:
            return no_verdict
        rep = json.loads(res.out)
        if res.code != 0 or rep["status"] != "exact":
            return FAILED, "%s: %s" % (rep["status"], rep["stop_reason"])
        if C.parse(rep["word"], names) != word:
            return WRONG, "searched word differs from the input"
        area = rep["area"]
        if C.plane_area_bound(word, rank) > area:
            return WRONG, "area %d below the enclosed-area bound %d" % (
                area, C.plane_area_bound(word, rank))
        if expected is not None and area != expected:
            return WRONG, "area %d, expected %d" % (area, expected)
        problem = C.witness_problem(word, area, rep["witness"], relators, names)
        return (WRONG, problem) if problem else (OK, "")
    return judge


# -- cayley-ball ----------------------------------------------------------------

CAYLEY_RADIUS = 8
# many short queries keep the median and tail latencies steady across seeds;
# words of length 4 land in the fourth shell of the ball (750 elements)
CAYLEY_QUERIES = 300
CAYLEY_QUERY_LEN = 4


def random_symbol_word(rng: random.Random, length: int) -> List[int]:
    """Indices into K222_MOVES, with no move next to its own inverse."""
    out: List[int] = []
    while len(out) < length:
        m = rng.randrange(len(K222_MOVES))
        if not out or out[-1] != m ^ 1:
            out.append(m)
    return out


def cayley_ball(seed: int, tiny: bool) -> Workload:
    """Distance queries in K2_2_2 to seeded targets, plus two exclusions."""
    radius = 3 if tiny else CAYLEY_RADIUS
    count, length = (4, 2) if tiny else (CAYLEY_QUERIES, CAYLEY_QUERY_LEN)
    rng = random.Random(seed)
    ops = []
    for q in range(count):
        g: C.Key = (b"", b"")
        for m in random_symbol_word(rng, length):
            g = tuple(C.join(a, b) for a, b in zip(g, K222_MOVES[m]))
        target = ";".join(C.render(f, XY) for f in g)
        ops.append(Op("query-%d" % q, _metric_argv(target, radius),
                      _cayley_judge(g, radius, length), 3))
    for n in ((2,) if tiny else (2, 3)):
        ops.append(Op("exclude-h%d" % n, _metric_argv("h(%d)" % n, radius),
                      _cayley_judge(h_key(n), radius, None)))
    return Workload(ops, _no_round_check)


def _metric_argv(target: str, radius: int) -> List[str]:
    return ["metric", "--group", "K2_2_2", "--target", target,
            "--radius", str(radius), "--format", "json"]


def _cayley_judge(key: C.Key, radius: int, length: Optional[int]):
    """length is the symbol-word length of a query, None for an exclusion."""
    def judge(res: Result, ctx: Context) -> Tuple[str, str]:
        no_verdict = _no_verdict(res)
        if no_verdict:
            return no_verdict
        rep = json.loads(res.out)
        dist = ctx.cached(("ball", radius), lambda: C.ball(K222_MOVES, radius))
        if key in dist:
            if res.code != 0 or rep.get("distance") != dist[key]:
                return WRONG, "reported %r, the ball says distance %d" % (
                    rep.get("distance", rep.get("certificate")), dist[key])
            if length is not None and dist[key] > length:
                return WRONG, "distance exceeds the target's word length"
            return OK, ""
        if length is not None:
            return WRONG, "a word of length %d lies outside the ball" % length
        if res.code != 2 or rep.get("certificate") != "distance > %d" % radius:
            return WRONG, "reported %r for a target outside the ball" % (
                rep.get("distance", rep.get("certificate")))
        if rep["explored"] != len(dist):
            return WRONG, "explored %d, the ball has %d elements" % (
                rep["explored"], len(dist))
        return OK, ""
    return judge


WORKLOADS: Dict[str, Callable[[int, bool], Workload]] = {
    "certify": certify,
    "toy-amalgam": toy_amalgam,
    "area-sweep": area_sweep,
    "cayley-ball": cayley_ball,
}
