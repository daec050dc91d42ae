"""Finite presentations, null expressions, and exact area search.

Area of a null-homotopic word w: the least T such that w is freely equal
to a product of T conjugated relators.  The search inserts relator
variants into reduced words (areasearch module); exactness holds within a
documented completeness regime: every move cancels a letter at a seam of
the insertion (by van Kampen's lemma some optimal expression does), and
intermediate words are capped at |w| + DEFAULT_LEN_CAP_FACTOR * (longest
relator), that is 4 relator lengths past the input.  The optimum is only
claimed for expressions whose moves all cancel and whose intermediate
products stay under that cap.

Null-homotopy itself is decided through an attached evaluation into a
product of free groups that the caller declares faithful; presentations
without one still support verify/search but not the membership question.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .areasearch import (AdditiveHeuristic, SearchOutcome, greedy_probe,
                         plane_value, run_search, winding_sum)
from . import _wordops_py as ops
from .kernels import ProductElement, evaluate
from .words import (FreeGroup, Word, _read, commutator, inv, mul,
                    parse_word, signed_permutations, to_text)

DEFAULT_NODE_CAP = 200_000
DEFAULT_LEN_CAP_FACTOR = 4


class CertificateError(RuntimeError):
    """A sub-verification failed; the message names the component."""


class Evaluation:
    """Images of the alphabet in a product of free groups, declared faithful.

    Each image is a ProductElement, all of one shape, or an integer row
    (a_1, ..., a_k), which is the element of F_1^k whose i-th factor is
    x^(a_i): Z^k is a product of k rank-1 free groups.  Rows share one
    length; the empty row, the identity of Z^0, is the identity of F_1.
    Faithfulness -- that a word evaluates to the identity exactly when it
    is null-homotopic -- is the caller's assertion; this class only does
    the evaluating.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[Union[ProductElement, Sequence[int]]]):
        images = tuple(images)
        if not images:
            raise ValueError("need at least one image")
        if len({len(g) for g in images
                if not isinstance(g, ProductElement)}) > 1:
            raise ValueError("integer rows must share one length")
        self.images = tuple(g if isinstance(g, ProductElement)
                            else _row_element(g) for g in images)
        if len({(g.n, g.m) for g in self.images}) > 1:
            raise ValueError("images must share one shape")

    def eval_word(self, w: Word) -> ProductElement:
        first = self.images[0]
        return evaluate(self.images, ((j - 1, s) for j, s in w.letters),
                        first.n, first.m)


_LINE = FreeGroup(1)


def _row_element(row: Sequence[int]) -> ProductElement:
    """The integer row as an element of F_1^len(row), or of F_1 if empty;
    an entry past the letter cap raises ValueError from Word.__pow__."""
    # int() would truncate 1.5 and read "1"; bools are not entries
    if not all(type(a) is int for a in row):
        raise ValueError(f"image entries must be ints, got {list(row)}")
    x = _LINE.gen(1)
    return ProductElement([x ** a for a in row] or [_LINE.identity])


class Presentation:
    """A finite presentation with optional faithful evaluation."""

    __slots__ = ("group", "relators", "evaluation")

    def __init__(self, names: Sequence[str], relators: Sequence[Union[str, Word]],
                 evaluation: Optional[Evaluation] = None):
        self.group = FreeGroup(len(names), names=names)
        rels = []
        for rel in relators:
            w = parse_word(self.group, rel) if isinstance(rel, str) else rel
            if w.group != self.group:
                raise ValueError(f"relator {to_text(w)} is a word over"
                                 f" {', '.join(w.group.names)}, not over"
                                 f" {', '.join(self.group.names)}")
            if not w:
                raise ValueError("relators must be nonempty")
            rels.append(w)
        self.relators = tuple(rels)
        self.evaluation = evaluation
        if evaluation is not None:
            if len(evaluation.images) != self.group.rank:
                raise ValueError("need one image per alphabet symbol")
            for w in self.relators:
                if evaluation.eval_word(w):
                    raise ValueError(f"relator {to_text(w)} does not evaluate to the identity")

    def word(self, text: str) -> Word:
        return parse_word(self.group, text)

    def to_text(self) -> str:
        return "< " + ", ".join(self.group.names) + " | " + \
            ", ".join(to_text(r) for r in self.relators) + " >"

    def __repr__(self):
        return f"Presentation({self.to_text()!r})"


def parse_presentation(text: str) -> Presentation:
    """Parse `< a, b | [a,b], a^2 >` style text.  Relators are separated
    by commas outside brackets, and a parse error names its line and
    column in `text` itself."""
    t = text.strip()
    if not (t.startswith("<") and t.endswith(">")):
        raise ValueError("presentation text must be wrapped in < ... >")
    end = len(text.rstrip()) - 1            # the closing '>'
    bar = text.find("|", 0, end)
    if bar < 0:
        raise ValueError("presentation text needs a | between alphabet and relators")
    names = [n.strip() for n in text[text.index("<") + 1:bar].split(",")]
    if not all(names):
        raise ValueError("empty alphabet symbol")
    group = FreeGroup(len(names), names=names)
    body = text[:end]
    relators = []
    pos = bar
    while pos < end:
        # each relator runs to the next comma outside brackets
        data, stop = _read(group._codes, body, pos + 1, 0, ",")
        if body[pos + 1:stop].strip():
            relators.append(Word(group, data))
        pos = stop
    return Presentation(names, relators)


class NullExpression:
    """A certificate: w = product of conj . relator^sign . conj^-1.

    Relator indices are 0-based positions into the presentation's list.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Tuple[Word, int, int]]):
        self.items = tuple(items)
        for conj, ri, sign in self.items:
            # type() refuses bools: True would verify as relator 1 and
            # print as "rel": true, which from_json refuses
            if not (isinstance(conj, Word) and type(ri) is type(sign) is int):
                raise ValueError("malformed null-expression item")
            if sign not in (1, -1):
                raise ValueError("signs must be +1 or -1")

    @property
    def area(self) -> int:
        return len(self.items)

    def to_json(self) -> list:
        return [{"conj": to_text(c), "rel": ri, "sign": s}
                for c, ri, s in self.items]

    @classmethod
    def from_json(cls, P: Presentation, data: Sequence[dict]) -> "NullExpression":
        """Read to_json's form back: a list of dicts whose conj is a string
        and rel and sign ints (bools and floats are rejected), else
        ValueError."""
        if not isinstance(data, (list, tuple)):
            raise ValueError("null-expression data must be a list of items")
        if not all(isinstance(d, dict) and d.keys() >= {"conj", "rel", "sign"}
                   and isinstance(d["conj"], str) for d in data):
            raise ValueError("malformed null-expression item")
        return cls([(parse_word(P.group, d["conj"]), d["rel"], d["sign"])
                    for d in data])

    def __repr__(self):
        return f"NullExpression(area={self.area})"


def is_null_homotopic(P: Presentation, w: Word) -> bool:
    if P.evaluation is None:
        raise ValueError("no evaluation oracle attached to this presentation")
    return not P.evaluation.eval_word(w)


def verify_null_expression(P: Presentation, w: Word, expr: NullExpression) -> bool:
    """Multiply the certificate out and compare with w, freely.

    The walk stays on Word-level `mul` and `inv`: perfbench's tracer
    patches them here by name, so a bytes-level replay waits for a
    benchmark change (ROADMAP.md).  Each telescoped seam between
    consecutive items costs one XOR in `ops.concat`.
    """
    acc = P.group.identity
    for conj, ri, sign in expr.items:
        if not 0 <= ri < len(P.relators):
            raise ValueError(f"bad relator index {ri}")
        r = P.relators[ri]
        piece = mul(mul(conj, r if sign == 1 else inv(r)), inv(conj))
        acc = mul(acc, piece)
    return acc == w


# -- search plumbing ---------------------------------------------------------

def _variants(P: Presentation) -> Tuple[List[bytes], List[Tuple[int, int, bytes]]]:
    """All distinct cyclic rotations of each relator and its inverse.

    A rotation by t of r^sigma equals u^-1 r^sigma u with u the length-t
    prefix, which is what witness reconstruction needs.  Duplicates keep
    their first metadata (relator order, then +1 before -1, then rotation
    order) so witnesses are deterministic.
    """
    variants: List[bytes] = []
    meta: List[Tuple[int, int, bytes]] = []
    first: Dict[bytes, int] = {}
    for ri, rel in enumerate(P.relators):
        for sigma in (1, -1):
            rw = rel.data if sigma == 1 else ops.invert(rel.data)
            for t in range(len(rw)):
                v = ops.free_reduce(rw[t:] + rw[:t])
                if v not in first:
                    first[v] = len(variants)
                    variants.append(v)
                    meta.append((ri, sigma, rw[:t]))
    return variants, meta


def _kernel_basis(rows: Sequence[Sequence[int]], rank: int) -> List[List[int]]:
    """Primitive integer vectors spanning {f : f . r = 0 for every row r}.

    One vector per free column of the reduced row echelon form, so the
    basis is deterministic; it is the standard basis when every row is 0.
    The elimination stays in integers: each row is a multiple of its
    reduced form.
    """
    m = [list(r) for r in rows]
    pivots: List[int] = []
    for c in range(rank):
        p = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if p is None:
            continue
        top = len(pivots)
        m[top], m[p] = m[p], m[top]
        a = m[top][c]
        for i in range(len(m)):
            b = m[i][c]
            if i != top and b:
                row = [a * u - b * v for u, v in zip(m[i], m[top])]
                g = math.gcd(*row) or 1
                m[i] = [u // g for u in row]
        pivots.append(c)
    scale = math.lcm(*(m[i][pc] for i, pc in enumerate(pivots)))
    basis = []
    for c in range(rank):
        if c in pivots:
            continue
        vec = [0] * rank
        vec[c] = scale
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][c] * scale // m[i][pc]
        g = math.gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


# rows of the word's pair-area matrix tried as Heisenberg candidates, on
# top of the first basis pair: the candidate set has at most 1 + _ROWS
# members at any rank
_ROWS = 3


def _plane_term(relators: Sequence[bytes], basis: Sequence[Sequence[int]],
                w: bytes) -> Optional[Tuple[Tuple[List[int], List[int]], int]]:
    """Choose the Heisenberg map L for searching from w, with its step.

    basis is _root_bound's _kernel_basis of the relators' exponent sums:
    L's two coordinates f, g range over the integer functionals that kill
    every relator's abelianization, and in coordinates of the basis,
    L = (x, y).  Row i of w's pair-area matrix holds z_L(w) for the unit
    planes L = (e_i, e_j).  The candidates are the first basis pair
    (e_0, e_1) and, for the _ROWS rows i with the largest l1 norm,
    (e_i, sign of row i), the choice that maximizes z_L(w) for that x.
    z_L is bilinear in (x, y), so a candidate's |z_L(w)| is |row 0's
    entry 1| or row i's l1 norm, and its step is max |z_L(relator)| =
    max |z_L(variant)| (see _root_bound), one plane_value pass per
    relator.  The score is |z_L(w)| / step: the best root bound wins and
    the first wins ties.  A candidate that no relator moves is a conserved
    term: it wins outright when w moves it, with step 0, which _root_bound
    reports as an obstruction, and is skipped when w does not.  At
    dim K = 2 every candidate is a multiple of (e_0, e_1).

    Returns (L, step) with L of each letter byte as the pair (lx, ly), or
    None when the kernel has dimension < 2 or no candidate gives a term.
    """
    d = len(basis)
    if d < 2:
        return None
    rank = len(basis[0])

    def plane(x, y):
        lx: List[int] = []
        ly: List[int] = []
        for j in range(rank):
            f = sum(x[i] * basis[i][j] for i in range(d))
            g = sum(y[i] * basis[i][j] for i in range(d))
            lx += (f, -f)
            ly += (g, -g)
        return lx, ly

    def unit(i):
        return [int(k == i) for k in range(d)]

    rows = [[0] * d for _ in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        z = plane_value(w, plane(unit(i), unit(j)))
        rows[i][j], rows[j][i] = z, -z
    norms = [sum(map(abs, row)) for row in rows]

    candidates = [(unit(0), unit(1), abs(rows[0][1]))]
    for i in sorted(range(d), key=lambda i: (-norms[i], i))[:_ROWS]:
        if norms[i]:
            candidates.append((unit(i), [(v > 0) - (v < 0) for v in rows[i]],
                               norms[i]))

    best = None     # (|z(w)|, step, plane)
    for x, y, zw in candidates:
        L = plane(x, y)
        step = max((abs(plane_value(r, L)) for r in relators), default=0)
        if (zw or step) and (best is None or zw * best[1] > best[0] * step):
            best = (zw, step, L)
    return None if best is None else (best[2], best[1])


_OBSTRUCTION = " obstruction: no expression exists at any length"


def _root_bound(P: Presentation, variants: Sequence[bytes], w: bytes
                ) -> Tuple[Optional[AdditiveHeuristic], int, Optional[dict], str]:
    """The search's one root lower bound on the area of w, and its heuristic.

    Returns (heuristic, h0, witness, obstruction): the additive heuristic
    that gives every child's bound, or None with the reason no expression
    of w exists at any length.

    One rule settles every conserved term.  A functional on exponent sums
    that kills each relator's abelianization is moved by no variant, so
    when one is nonzero on w no expression exists; the relators'
    _kernel_basis spans these functionals, so testing the basis decides
    it.  That covers a generator no relator moves (its coordinate lies in
    the span) and also sums such as (1, -2) on < g, y | g y g >.  The
    linear terms kept are the exponent sums of the generators that some
    relator moves, and the Heisenberg term is _plane_term's, built on the
    same basis; a plane that no relator moves but w does (step 0) is the
    area-cocycle obstruction.  The abelianization is tested first, so its
    obstruction is reported before an area-cocycle one.  A variant is a
    conjugate of a relator or its inverse, and each term sends relators to
    the centre, so the variants' steps are the relators'.

    h0 is the larger of the heuristic's bound on w and the winding bound
    ceil(W(w) / step) over every coordinate plane of two generators the
    heuristic leaves out, which are those with exponent sum 0 in each
    relator (areasearch module docstring); both hold at any word length.
    w's exponent sums lie in the span of the relators' by then, so those
    generators' sums are 0 on w too and w's projections onto the planes
    are closed.  witness is the winding term's evidence for
    verify_lower_bound when that term attains h0, else None.
    """
    rank = P.group.rank
    relators = [r.data for r in P.relators]
    rows = [ops.exponent_sums(r, range(rank)) for r in relators]
    basis = _kernel_basis(rows, rank)
    sums = ops.exponent_sums(w, range(rank))
    if any(sum(map(operator.mul, f, sums)) for f in basis):
        return None, 0, None, "abelianization" + _OBSTRUCTION
    plane, step = _plane_term(relators, basis, w) or (None, None)
    if step == 0:
        return None, 0, None, "area-cocycle" + _OBSTRUCTION
    gens = [j for j in range(rank) if any(row[j] for row in rows)]
    heur = AdditiveHeuristic(variants, gens, plane)
    h0 = heur.bound(heur.values(w))
    planes = list(itertools.combinations(
        [j for j in range(rank) if j not in gens], 2))
    step = max((winding_sum(r, planes) for r in relators), default=0)
    if step:
        value = winding_sum(w, planes)
        hw = -(-value // step)
        if hw >= h0:
            return heur, hw, {"kind": "winding",
                              "planes": [list(p) for p in planes],
                              "step": step, "value": value}, ""
    return heur, h0, None, ""


def verify_lower_bound(P: Presentation, w: Word, witness: dict) -> bool:
    """Recheck a winding witness from P and w alone, in integers.

    w must be over P's alphabet (w.group == P.group, as area_search
    requires), else its letters would be read as P's.  The witness must
    be a dict whose planes are lists of two ints, and
    whose step and value are ints (bools and floats are rejected).  The
    planes must be distinct pairs 0 <= i < j < rank in ascending
    order whose generators have exponent sum 0 in every relator and in w,
    so each projection is a closed path; step must be the largest W of a
    relator over those planes, and nonzero, and value the W of w.  The
    witness then proves area(w) >= ceil(value / step); any set of such
    planes does.  A malformed witness gives False, never an exception.
    """
    if (w.group != P.group or not isinstance(witness, dict)
            or witness.get("kind") != "winding"):
        return False
    planes = witness.get("planes")
    if not (isinstance(planes, list)
            and all(isinstance(p, list) and len(p) == 2 for p in planes)
            and {type(v) for v in itertools.chain(      # no bool, no float
                (witness.get("step"), witness.get("value")), *planes)} == {int}):
        return False
    planes = [tuple(p) for p in planes]
    relators = [r.data for r in P.relators]
    sums = [ops.exponent_sums(d, range(P.group.rank)) for d in relators + [w.data]]
    free = {j for j in range(P.group.rank) if not any(s[j] for s in sums)}
    if not planes or planes != sorted(set(planes)) or any(
            p[0] >= p[1] or not free.issuperset(p) for p in planes):
        return False
    step = max((winding_sum(r, planes) for r in relators), default=0)
    return (witness["step"] == step != 0
            and witness["value"] == winding_sum(w.data, planes))


class AreaResult(NamedTuple):
    """Outcome of area_search: exact with witness, or exhausted with bound.

    `lower_bound` (exhausted runs) and exactness both hold within the
    completeness regime: expressions whose every move cancels a letter at
    a seam (areasearch's module docstring) and whose intermediate words
    stay within the length cap recorded in `caps`.  Other expressions are
    outside the searched space.  regime_empty means the whole regime was
    explored and holds no expression; the word may still be null.  An
    unconditional area matches the root bound, which holds for every
    expression at any length.
    """

    status: str  # "exact" or "exhausted"
    area: Optional[int]
    witness: Optional[NullExpression]
    lower_bound: Optional[int]
    nodes: int
    pushes: int
    caps: Dict[str, int]
    regime_empty: bool
    stop_reason: str
    # exact results matching the root bound carry no length-cap
    # caveat: the root bound holds regardless of intermediate word
    # lengths; lower_bound_witness, when the winding term attains the
    # area, lets verify_lower_bound recheck that bound
    unconditional: bool = False
    lower_bound_witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"status": self.status, "nodes": self.nodes,
               "pushes": self.pushes, "caps": self.caps,
               "stop_reason": self.stop_reason}
        if self.status == "exact":
            out["area"] = self.area
            out["witness"] = self.witness.to_json()
            out["unconditional"] = self.unconditional
            if self.lower_bound_witness is not None:
                out["lower_bound_witness"] = self.lower_bound_witness
        else:
            out["lower_bound"] = self.lower_bound
            out["regime_empty"] = self.regime_empty
        return out

    def __repr__(self):
        if self.status == "exact":
            return f"AreaResult(exact, area={self.area})"
        return (f"AreaResult(exhausted, lower_bound={self.lower_bound}, "
                f"regime_empty={self.regime_empty})")


def area_search(P: Presentation, w: Word, *, node_cap: int = DEFAULT_NODE_CAP,
                stop_at_bound: Optional[int] = None) -> AreaResult:
    """Minimal-area search for a null expression of w.

    When the presentation carries an evaluation, non-null-homotopic words
    are rejected up front.  _root_bound then gives the root bound h0 and
    the one additive heuristic of the run, or an obstruction, which ends
    it with no search.  Otherwise the greedy probe hunts for an expression
    of area h0 within min(node_cap, 50 * h0 + 200) expansions, and A*
    (run_search) runs when the probe finds none, with node_cap expansions
    of its own.  Either path is replayed into a verified witness; an
    exact area equal to h0 is unconditional.

    stop_at_bound turns the run into a lower-bound certificate: the probe
    is skipped and A* halts once every cheaper state is settled.  A* also
    stops after 8 * node_cap pushes; on presentations whose states have
    many children, that push cap is the budget that binds first.  The
    uniform-cost search with no heuristic terms is
    run_search(..., heuristic=AdditiveHeuristic(variants)).
    """
    if w.group != P.group:
        raise ValueError("word is not over the presentation's alphabet")
    if P.evaluation is not None and not is_null_homotopic(P, w):
        raise ValueError("word is not null-homotopic")
    variants, meta = _variants(P)
    maxlen = max((len(v) for v in variants), default=0)
    len_cap = len(w.data) + DEFAULT_LEN_CAP_FACTOR * maxlen
    push_cap = 8 * node_cap
    caps = {"node_cap": node_cap, "push_cap": push_cap, "len_cap": len_cap,
            "len_cap_factor": DEFAULT_LEN_CAP_FACTOR}

    heur, h0, lb_witness, obstruction = _root_bound(P, variants, w.data)
    if heur is None:
        return AreaResult("exhausted", None, None, None, 0, 0, caps, True,
                          obstruction)

    out = None
    if stop_at_bound is None:
        # None at once when h0 is 0, the empty word among them
        path = greedy_probe(w.data, variants, len_cap=len_cap,
                            node_budget=min(node_cap, 50 * h0 + 200),
                            heuristic=heur, target=h0)
        if path is not None:
            out = SearchOutcome(h0, path, None, 0, 0, False, "greedy probe"
                                " matched the heuristic lower bound")
    if out is None:
        out = run_search(w.data, variants, len_cap=len_cap, node_cap=node_cap,
                         push_cap=push_cap, heuristic=heur,
                         stop_at_bound=stop_at_bound)
    if out.cost is None:
        # the search's bound holds within the length cap, h0 at any length
        bound = None if out.lower_bound is None else max(out.lower_bound, h0)
        return AreaResult("exhausted", None, None, bound, out.nodes,
                          out.pushes, caps, out.regime_empty, out.stop_reason)
    witness = _witness_from_path(P, w, out.path, variants, meta)
    if witness.area != out.cost:
        raise CertificateError("area search: witness area %d differs from the"
                               " path cost %d" % (witness.area, out.cost))
    return AreaResult("exact", out.cost, witness, None, out.nodes, out.pushes,
                      caps, False, out.stop_reason,
                      unconditional=(out.cost == h0),
                      lower_bound_witness=(lb_witness if out.cost == h0
                                           else None))


def _witness_from_path(P: Presentation, w: Word, path, variants, meta
                       ) -> NullExpression:
    """Replay an insertion path into a verified NullExpression.

    Inserting variant v = u^-1 r^sigma u at position p rewrites the state
    as w_t = (prefix u^-1) r^{-sigma} (prefix u^-1)^-1 . w_{t+1}, so the
    certificate items come out in step order.
    """
    items = []
    cur = w.data
    for pos, vidx in path:
        ri, sigma, u = meta[vidx]
        conj = Word(P.group, ops.free_reduce(cur[:pos] + ops.invert(u)))
        items.append((conj, ri, -sigma))
        cur = ops.insert_reduce(cur, pos, variants[vidx])
    if cur != b"":
        raise CertificateError("witness replay: the insertion path does not"
                               " end at the empty word")
    witness = NullExpression(items)
    if not verify_null_expression(P, w, witness):
        raise CertificateError("witness replay: the expression does not"
                               " multiply out to the word")
    return witness


# -- small-n Dehn profiling --------------------------------------------------

class DehnResult(NamedTuple):
    """max Area over the null classes of length <= n.

    exact: every inner search came back exact, each within its length-cap
    regime; unconditional: each also matched its root bound, so the value
    holds with no length-cap caveat.  classes_searched counts the classes
    covered, each orbit's by one search (see dehn_function).
    """

    n: int
    value: int
    exact: bool
    witness: Optional[Word]
    classes_searched: int
    unconditional: bool = False

    def to_json(self) -> dict:
        return {"n": self.n, "value": self.value, "exact": self.exact,
                "unconditional": self.unconditional,
                "witness": to_text(self.witness) if self.witness else None,
                "classes_searched": self.classes_searched}

    def __repr__(self):
        tag = "exact" if self.exact else "lower bound"
        return f"DehnResult(n={self.n}, value={self.value}, {tag})"


def _canonical_class(data: bytes) -> bytes:
    """Cyclic-reduce, then take the least rotation of the word and its inverse.

    Area is invariant under both moves (conjugating a null expression by a
    letter, or inverting all its items, is again a null expression of the
    same length), so one representative per class suffices.
    """
    data = ops.cyclic_reduce(data)
    best = None
    for form in (data, ops.invert(data)):
        for t in range(max(len(form), 1)):
            rot = form[t:] + form[:t]
            if best is None or rot < best:
                best = rot
    return best


def with_abelian_evaluation(P: Presentation) -> Presentation:
    """P with its quotient Z^rank, one unit row per generator, as its
    evaluation.

    That evaluation is faithful only when P presents Z^rank, so every basic
    commutator [e_i, e_j] (i < j) must be a relator up to rotation and
    inversion (_canonical_class).  The Presentation then checks that every
    relator's abelianization is zero, so the relators are consequences of
    those commutators and the group is Z^rank.
    """
    rank = P.group.rank
    have = {_canonical_class(r.data) for r in P.relators}
    for i, j in itertools.combinations(range(1, rank + 1), 2):
        c = commutator(P.group.gen(i), P.group.gen(j))
        if _canonical_class(c.data) not in have:
            raise ValueError(f"the commutator {to_text(c)} is not a relator,"
                             " so the free-abelian evaluation is not"
                             " faithful")
    ev = Evaluation([[int(i == j) for j in range(rank)] for i in range(rank)])
    return Presentation(P.group.names, P.relators, ev)


def _null_classes(P: Presentation, n: int) -> List[Word]:
    """Canonical representatives of null-homotopic classes of length <= n.

    A depth-first walk over the reduced words of length <= n carries each
    prefix's image under the evaluation down to its children.  A letter's
    child joins the letter's piece onto each factor its image moves, one
    seam ``concat`` each (a Z^k row moves one factor per nonzero entry),
    and a prefix is null exactly when every factor of its image is empty.

    The walk visits only words whose first letter is positive (an even
    byte) and whose later letters are no smaller than the first.  Every
    class is still found: its representative (_canonical_class) is the
    least rotation of w and w^-1, so it starts with the least letter byte
    of both forms, which is even since a letter's inverse is the next odd
    byte, and none of its letters is smaller.  That representative is a
    reduced null word of length <= n, so the walk reaches it, and it is
    its own canonical class.
    """
    ev = P.evaluation
    letters = range(2 * P.group.rank)
    # per letter, the (factor, piece) pairs of the factors it moves
    moves = [[(i, ops.invert(w) if c & 1 else w)
              for i, w in enumerate(ev.images[c >> 1].key()) if w]
             for c in letters]
    reps = set()
    stack = [(b"", [b""] * ev.images[0].n)]
    while stack:
        prefix, image = stack.pop()
        if prefix and not any(image):
            reps.add(_canonical_class(prefix))
        if len(prefix) < n:
            back = prefix[-1] ^ 1 if prefix else None
            for c in letters[prefix[0]:] if prefix else letters[::2]:
                if c == back:
                    continue
                child = image[:]
                for i, piece in moves[c]:
                    child[i] = ops.concat(child[i], piece)
                stack.append((prefix + bytes((c,)), child))
    reps.discard(b"")
    return [Word(P.group, d) for d in sorted(reps, key=lambda d: (len(d), d))]


def dehn_function(P: Presentation, n: int, *,
                  node_cap: int = DEFAULT_NODE_CAP) -> DehnResult:
    """max Area(w) over null-homotopic |w| <= n, by exhaustive enumeration.

    Exact only when every inner search came back exact; any exhaustion
    demotes the result to a lower bound.  Enumeration cost is exponential
    in n -- this is a desk instrument for single digits.

    A signed generator permutation (``signed_permutations``) that maps the
    relator variants (``_variants``) onto themselves maps each insertion
    path to one with the same word lengths whose moves cancel where the
    old ones did, so it keeps the area, within the search's regime and
    without it.  So only the first class of each orbit
    in (length, bytes) order is searched, and its result stands for the
    whole orbit.
    """
    if n < 0:
        raise ValueError("n must be at least 0")
    if P.evaluation is None:
        raise ValueError("dehn_function needs an evaluation oracle")
    words = _null_classes(P, n)
    variants = set(_variants(P)[0])
    tables = [t for t in signed_permutations(P.group.rank)
              if {v.translate(t) for v in variants} == variants]
    results: Dict[bytes, AreaResult] = {}
    for w in words:
        if w.data not in results:
            res = area_search(P, w, node_cap=node_cap)
            for t in tables:
                results[_canonical_class(w.data.translate(t))] = res
    value, exact, witness = 0, True, None
    unconditional = True
    for w in words:
        res = results[w.data]
        if res.status == "exact":
            unconditional = unconditional and res.unconditional
            if res.area > value:
                value, witness = res.area, w
        else:
            exact = unconditional = False
            if res.lower_bound is not None and res.lower_bound > value:
                value, witness = res.lower_bound, w
    return DehnResult(n, value, exact, witness, len(words), unconditional)
