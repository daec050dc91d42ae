"""Span tracing of kgroups from the outside.

The tracer replaces the library functions that one layer calls in another
with timing wrappers, at the name the caller looks up (a module global, a
class attribute, or the `ops` backend handle), and puts the originals back
afterwards.  Library code is not edited.  A wrapper adds its duration to
its parent's child time, so a span's self time is its duration minus the
time of the spans it caused.

Hot calls (word kernels, products) are kept as per-name totals; the coarser
spans are also recorded one by one, with their parent and operation, and
written out at the end of the run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

# the backend calls the search, replay and word code make (`ops.<name>`)
WORDOPS = ("expand", "concat", "free_reduce", "insert_reduce", "heuristic")


class _OpsHandle:
    """Stands in for a module's `ops`: traced kernels, the rest passed on."""

    def __init__(self, ops, wrap):
        self._ops = ops
        for name in WORDOPS:
            setattr(self, name, wrap("wordops." + name, getattr(ops, name)))

    def __getattr__(self, name):
        return getattr(self._ops, name)


class Tracer:
    """Per-name call counts and times, counters, and recorded spans."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.spans: List[tuple] = []     # (id, parent id, op, name, start, end)
        self.op = ""                     # the operation now running
        # one frame per open span: [child seconds, id of nearest recorded span]
        self._stack: List[list] = [[0.0, None]]
        self._patches: List[tuple] = []

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def wrap(self, name: str, fn: Callable, record: bool = False,
             observe: Optional[Callable] = None) -> Callable:
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans) + 1 if record else parent[1]
            if record:
                spans.append(None)       # reserve the id; filled at exit
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - frame[0]
                parent[0] += dt
                if record:
                    spans[sid - 1] = (sid, parent[1], self.op, name, t0, t1)
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, **kw))

    def patch_ops(self, modules) -> None:
        handle = _OpsHandle(modules[0].ops, self.wrap)
        for mod in modules:
            self._patches.append((mod, "ops", mod.ops))
            mod.ops = handle

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def layer_self(self, layer: str) -> float:
        return sum(t[2] for name, t in self.totals.items()
                   if name.split(".", 1)[0] == layer)


def install(kg) -> Tracer:
    """Wrap every cross-layer call the four CLI workloads make.

    `kg` is a namespace with the kgroups modules as attributes.
    """
    tr = Tracer()
    cli, cert, pres, metrics, kernels, words = (
        kg.cli, kg.certificates, kg.presentations, kg.metrics, kg.kernels,
        kg.words)

    def on_search(out):
        tr.count("areasearch.settled", out.nodes)
        tr.count("areasearch.pushes", out.pushes)
        tr.count("areasearch.capped", out.stop_reason in ("node cap", "push cap"))

    def on_probe(path):
        tr.count("areasearch.probe_hits", path is not None)

    def on_distance(res):
        tr.count("metrics.explored", res.explored)

    def on_ball(res):
        tr.count("metrics.explored", res[2])

    tr.patch(cli, "main", "cli.main", record=True)
    # what the CLI commands call
    for attr, name in (("lower_bound_report", "certificates.lower_bound_report"),
                       ("toy_amalgam_check", "certificates.toy_amalgam_check"),
                       ("parse_presentation", "presentations.parse_presentation"),
                       ("area_search", "presentations.area_search"),
                       ("distance", "metrics.distance"),
                       ("h_family", "metrics.h_family"),
                       ("ambient_length", "metrics.ambient_length"),
                       ("standard_generators", "kernels.standard_generators"),
                       ("contains", "kernels.contains"),
                       ("to_text", "words.to_text")):
        obs = on_distance if attr == "distance" else None
        tr.patch(cli, attr, name, record=True, observe=obs)
    # what the certificate pipeline calls, in its own module and elsewhere
    for attr, name, obs in (
            ("substitution_split", "certificates.substitution_split", None),
            ("derive_null_expression", "certificates.derive_null_expression", None),
            ("area_search", "presentations.area_search", None),
            ("verify_null_expression", "presentations.verify_null_expression", None),
            ("distance", "metrics.distance", on_distance),
            ("_ball_search", "metrics.ball_search", on_ball),
            ("h_family", "metrics.h_family", None),
            ("rewrite_in_generators", "kernels.rewrite_in_generators", None),
            ("standard_generators", "kernels.standard_generators", None)):
        tr.patch(cert, attr, name, record=True, observe=obs)
    # what the area search calls
    tr.patch(pres, "greedy_probe", "areasearch.greedy_probe", record=True,
             observe=on_probe)
    tr.patch(pres, "run_search", "areasearch.run_search", record=True,
             observe=on_search)
    tr.patch(pres, "verify_null_expression",
             "presentations.verify_null_expression", record=True)
    # group arithmetic, wherever it is called from
    tr.patch(kernels.ProductElement, "__mul__", "kernels.product_mul")
    for mod in (words, kernels, cert, pres):
        for attr in ("mul", "inv"):
            tr.patch(mod, attr, "words." + attr)
    for mod in (words, kernels, cert, metrics):
        tr.patch(mod, "commutator", "words.commutator")
    tr.patch_ops([words, pres, kg.areasearch])
    return tr


def _self(tr: Tracer, name: str) -> float:
    return tr.totals.get(name, [0, 0.0, 0.0])[2]


def _calls(tr: Tracer, name: str) -> int:
    return int(tr.totals.get(name, [0, 0.0, 0.0])[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer) -> Dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric."""
    c = tr.counters.get
    search_s = tr.totals.get("areasearch.run_search", [0, 0.0])[1]
    ball_s = sum(tr.totals.get(n, [0, 0.0])[1]
                 for n in ("metrics.distance", "metrics.ball_search"))
    m = {
        "cli.main.self_s": (_self(tr, "cli.main"), "s"),
        "certificates.self_s": (tr.layer_self("certificates"), "s"),
        "presentations.self_s": (tr.layer_self("presentations"), "s"),
        "presentations.area_search.self_s":
            (_self(tr, "presentations.area_search"), "s"),
        "presentations.verify_null_expression.self_s":
            (_self(tr, "presentations.verify_null_expression"), "s"),
        "areasearch.self_s": (tr.layer_self("areasearch"), "s"),
        "areasearch.run_search.self_s": (_self(tr, "areasearch.run_search"), "s"),
        "areasearch.greedy_probe.self_s":
            (_self(tr, "areasearch.greedy_probe"), "s"),
        # a probe that raised counts as run, not as a hit
        "areasearch.greedy_probe.hit_ratio":
            (_ratio(c("areasearch.probe_hits", 0),
                    _calls(tr, "areasearch.greedy_probe")), "ratio"),
        "areasearch.settled": (c("areasearch.settled", 0), "count"),
        "areasearch.settled_per_s":
            (_ratio(c("areasearch.settled", 0), search_s), "1/s"),
        "areasearch.pushes": (c("areasearch.pushes", 0), "count"),
        "areasearch.capped": (c("areasearch.capped", 0), "count"),
        "metrics.self_s": (tr.layer_self("metrics"), "s"),
        "metrics.distance.self_s": (_self(tr, "metrics.distance"), "s"),
        "metrics.explored": (c("metrics.explored", 0), "count"),
        "metrics.explored_per_s": (_ratio(c("metrics.explored", 0), ball_s), "1/s"),
        "kernels.self_s": (tr.layer_self("kernels"), "s"),
        "kernels.product_mul.calls": (_calls(tr, "kernels.product_mul"), "count"),
        "kernels.product_mul.self_s": (_self(tr, "kernels.product_mul"), "s"),
        "kernels.rewrite_in_generators.self_s":
            (_self(tr, "kernels.rewrite_in_generators"), "s"),
        "words.self_s": (tr.layer_self("words"), "s"),
        "words.mul.calls": (_calls(tr, "words.mul"), "count"),
        "words.mul.self_s": (_self(tr, "words.mul"), "s"),
        "wordops.self_s": (tr.layer_self("wordops"), "s"),
    }
    for op in WORDOPS:
        m["wordops.%s.calls" % op] = (_calls(tr, "wordops." + op), "count")
        m["wordops.%s.self_s" % op] = (_self(tr, "wordops." + op), "s")
    m["wordops.expand.s_per_call"] = (
        _ratio(_self(tr, "wordops.expand"), _calls(tr, "wordops.expand")), "s")
    return m
