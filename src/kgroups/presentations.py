"""Finite presentations, null expressions, and exact area search.

Area of a null-homotopic word w: the least T such that w is freely equal
to a product of T conjugated relators.  The search inserts relator
variants into reduced words (areasearch module); exactness holds within a
documented completeness regime: intermediate words are capped at
|w| + len_cap_factor * (longest relator), and the optimum is only claimed
for expressions whose intermediate products stay under that cap.

Null-homotopy itself is decided through an attached evaluation into a
concrete group (a product of free groups, or free abelian) that the
caller declares faithful; presentations without one still support
verify/search but not the membership question.
"""

from __future__ import annotations

import concurrent.futures
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .areasearch import AdditiveHeuristic, greedy_probe, run_search
from . import _wordops_py as ops
from .kernels import ProductElement, identity_element
from .words import FreeGroup, Word, inv, mul, parse_word, to_text
from .words import reduce as reduce_word

DEFAULT_NODE_CAP = 200_000
DEFAULT_LEN_CAP_FACTOR = 4


class CertificateError(RuntimeError):
    """A sub-verification failed; the message names the component."""


class Evaluation:
    """Images of the alphabet in a concrete group, declared faithful.

    Supports products of free groups (ProductElement images) and free
    abelian targets (integer tuple images).  Faithfulness -- that a word
    evaluates to the identity exactly when it is null-homotopic -- is the
    caller's assertion; this class only does the evaluating.
    """

    __slots__ = ("kind", "images")

    def __init__(self, images: Sequence[Union[ProductElement, Tuple[int, ...]]]):
        images = tuple(images)
        if not images:
            raise ValueError("need at least one image")
        if isinstance(images[0], ProductElement):
            self.kind = "product"
            if not all(isinstance(g, ProductElement) for g in images):
                raise ValueError("mixed image kinds")
        else:
            self.kind = "abelian"
            images = tuple(tuple(int(v) for v in row) for row in images)
            if len({len(row) for row in images}) > 1:
                raise ValueError("abelian images must share one length")
        self.images = images

    def eval_word(self, w: Word):
        if self.kind == "product":
            out = identity_element(self.images[0].n, self.images[0].m)
            for j, s in w.letters:
                g = self.images[j - 1]
                out = out * (g if s == 1 else ~g)
            return out
        r = len(self.images[0])
        acc = [0] * r
        for j, s in w.letters:
            for c in range(r):
                acc[c] += s * self.images[j - 1][c]
        return tuple(acc)

    def is_identity(self, el) -> bool:
        if self.kind == "product":
            return not el
        return not any(el)


class Presentation:
    """A finite presentation with optional faithful evaluation."""

    __slots__ = ("group", "relators", "evaluation")

    def __init__(self, names: Sequence[str], relators: Sequence[Union[str, Word]],
                 evaluation: Optional[Evaluation] = None):
        self.group = FreeGroup(len(names), names=names)
        rels = []
        for rel in relators:
            w = parse_word(self.group, rel) if isinstance(rel, str) else rel
            if not w:
                raise ValueError("relators must be nonempty")
            rels.append(w)
        self.relators = tuple(rels)
        self.evaluation = evaluation
        if evaluation is not None:
            if len(evaluation.images) != self.group.rank:
                raise ValueError("need one image per alphabet symbol")
            for w in self.relators:
                if not evaluation.is_identity(evaluation.eval_word(w)):
                    raise ValueError(f"relator {to_text(w)} does not evaluate to the identity")

    def word(self, text: str) -> Word:
        return parse_word(self.group, text)

    def to_text(self) -> str:
        return "< " + ", ".join(self.group.names) + " | " + \
            ", ".join(to_text(r) for r in self.relators) + " >"

    def __repr__(self):
        return f"Presentation({self.to_text()!r})"


def _split_top_level(text: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_presentation(text: str, evaluation: Optional[Evaluation] = None
                       ) -> Presentation:
    """Parse `< a, b | [a,b], a^2 >` style text (commas split at depth 0)."""
    t = text.strip()
    if not (t.startswith("<") and t.endswith(">")):
        raise ValueError("presentation text must be wrapped in < ... >")
    body = t[1:-1]
    if "|" not in body:
        raise ValueError("presentation text needs a | between alphabet and relators")
    alpha, rels = body.split("|", 1)
    names = _split_top_level(alpha)
    if any(not n for n in names):
        raise ValueError("empty alphabet symbol")
    relator_texts = [r for r in _split_top_level(rels) if r]
    return Presentation(names, relator_texts, evaluation)


class NullExpression:
    """A certificate: w = product of conj . relator^sign . conj^-1.

    Relator indices are 0-based positions into the presentation's list.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Tuple[Word, int, int]]):
        self.items = tuple(items)
        for _, _, sign in self.items:
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
        return cls([(parse_word(P.group, d["conj"]), int(d["rel"]), int(d["sign"]))
                    for d in data])

    def __repr__(self):
        return f"NullExpression(area={self.area})"


def is_null_homotopic(P: Presentation, w: Word) -> bool:
    if P.evaluation is None:
        raise ValueError("no evaluation oracle attached to this presentation")
    return P.evaluation.is_identity(P.evaluation.eval_word(w))


def verify_null_expression(P: Presentation, w: Word, expr: NullExpression) -> bool:
    """Multiply the certificate out and compare with w, freely."""
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


def _exponent_sums(data: bytes, rank: int) -> List[int]:
    out = [0] * rank
    for b in data:
        out[b // 2] += 1 if b % 2 == 0 else -1
    return out


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


def _pair_areas(data: bytes, images: Sequence[Sequence[int]], d: int) -> List[int]:
    """Upper triangle of the word's antisymmetric pair-area matrix in Z^d.

    Entry (i, j), i < j, is the sum over letters of p_i s_j - p_j s_i, with
    s the letter's image and p the sum of the images before it.  For
    L = (x, y) in these coordinates, z_L = sum over i < j of
    (x_i y_j - x_j y_i) times entry (i, j).
    """
    p = [0] * d
    a = [0] * (d * (d - 1) // 2)
    for b in data:
        s = images[b]
        k = 0
        for i in range(d):
            pi, si = p[i], s[i]
            for j in range(i + 1, d):
                a[k] += pi * s[j] - p[j] * si
                k += 1
        for i in range(d):
            p[i] += s[i]
    return a


def _wedge(x: Sequence[int], y: Sequence[int]) -> Tuple[int, ...]:
    """The 2x2 minors of (x, y), divided by their gcd, first nonzero > 0."""
    d = len(x)
    m = [x[i] * y[j] - x[j] * y[i] for i in range(d) for j in range(i + 1, d)]
    g = math.gcd(*m)
    if g == 0:
        return ()
    if next(v for v in m if v) < 0:
        g = -g
    return tuple(v // g for v in m)


# rows of the word's pair-area matrix tried as Heisenberg candidates, on
# top of the first basis pair: the candidate set has at most 1 + _ROWS
# members at any rank
_ROWS = 3


def _plane_term(P: Presentation, variants: Sequence[bytes], w: bytes
                ) -> Tuple[Optional[Tuple[List[int], List[int]]], bool]:
    """Choose the Heisenberg map L for searching from w.

    L's two coordinates f, g range over the integer functionals that kill
    every relator's abelianization; in coordinates of the _kernel_basis of
    those, L = (x, y) and z_L depends only on the minors of (x, y).  The
    candidates are the first basis pair (e_0, e_1) and, for the _ROWS rows
    i of w's pair-area matrix with the largest l1 norm, (e_i, sign of row
    i), the choice that maximizes z_L(w) for that x.  Candidates with
    proportional minors are one candidate, so at dim K = 2 there is exactly
    one.  Each is scored by |z_L(w)| / max |z_L(variant)|, the best root
    bound wins and the first wins ties.

    Returns (plane, obstructed): plane is (lx, ly), L of each letter byte,
    or None when no candidate gives a term; obstructed is True when some
    candidate has z_L = 0 on every variant but not on w, so no expression
    exists at any length.
    """
    rank = P.group.rank
    basis = _kernel_basis([_exponent_sums(r.data, rank) for r in P.relators], rank)
    d = len(basis)
    if d < 2:
        return None, False
    images = []
    for j in range(rank):
        s = [f[j] for f in basis]
        images.append(s)
        images.append([-v for v in s])
    word_areas = _pair_areas(w, images, d)
    variant_areas = [_pair_areas(v, images, d) for v in variants]

    rows = [[0] * d for _ in range(d)]
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            rows[i][j], rows[j][i] = word_areas[k], -word_areas[k]
            k += 1

    def unit(i):
        return [int(k == i) for k in range(d)]

    candidates = [(unit(0), unit(1))]
    order = sorted(range(d), key=lambda i: (-sum(map(abs, rows[i])), i))
    for i in order[:_ROWS]:
        if any(rows[i]):
            candidates.append((unit(i), [(v > 0) - (v < 0) for v in rows[i]]))

    best = None     # (|z(w)|, zmax, x, y)
    tried = set()
    for x, y in candidates:
        m = _wedge(x, y)
        if not m or m in tried:
            continue
        tried.add(m)
        zw = abs(sum(a * b for a, b in zip(m, word_areas)))
        zmax = max((abs(sum(a * b for a, b in zip(m, va)))
                    for va in variant_areas), default=0)
        if zmax == 0:
            if zw:
                return None, True
            continue
        if best is None or zw * best[1] > best[0] * zmax:
            best = (zw, zmax, x, y)
    if best is None:
        return None, False
    _, _, x, y = best
    lx: List[int] = []
    ly: List[int] = []
    for j in range(rank):
        f = sum(x[i] * basis[i][j] for i in range(d))
        g = sum(y[i] * basis[i][j] for i in range(d))
        lx += (f, -f)
        ly += (g, -g)
    return (lx, ly), False


def _heuristic_for(P: Presentation, variants: Sequence[bytes], w: bytes
                   ) -> Tuple[Optional[AdditiveHeuristic], str]:
    """The additive heuristic for searching from w, or None and the reason
    no expression of w exists at any length.

    Its terms are the exponent sums that some variant moves and the
    Heisenberg term of _plane_term.  An invariant that no variant moves is
    conserved by every move, so a nonzero value on w is an obstruction.
    """
    rank = P.group.rank
    variant_sums = [_exponent_sums(v, rank) for v in variants]
    moved = [j for j in range(rank) if any(s[j] for s in variant_sums)]
    sums = _exponent_sums(w, rank)
    if any(sums[j] for j in range(rank) if j not in moved):
        return None, ("abelianization obstruction: no expression exists"
                      " at any length")
    plane, obstructed = _plane_term(P, variants, w)
    if obstructed:
        return None, ("area-cocycle obstruction: no expression exists"
                      " at any length")
    return AdditiveHeuristic(variants, moved, plane), ""


class AreaResult:
    """Outcome of area_search: exact with witness, or exhausted with bound.

    `lower_bound` (exhausted runs) and exactness both hold within the
    completeness regime recorded in `caps`: expressions whose intermediate
    words exceed the length cap are outside the searched space.
    regime_empty means the whole capped space was explored and contains no
    expression at all.
    """

    __slots__ = ("status", "area", "witness", "lower_bound", "nodes",
                 "pushes", "caps", "regime_empty", "stop_reason",
                 "unconditional")

    def __init__(self, status, area, witness, lower_bound, nodes, pushes,
                 caps, regime_empty, stop_reason, unconditional=False):
        self.status = status
        self.area = area
        self.witness = witness
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.pushes = pushes
        self.caps = caps
        self.regime_empty = regime_empty
        self.stop_reason = stop_reason
        # exact results matching the start heuristic carry no length-cap
        # caveat: the heuristic bounds the true area from below regardless
        # of intermediate word lengths
        self.unconditional = unconditional

    def to_json(self) -> dict:
        out = {"status": self.status, "nodes": self.nodes,
               "pushes": self.pushes, "caps": self.caps,
               "stop_reason": self.stop_reason}
        if self.status == "exact":
            out["area"] = self.area
            out["witness"] = self.witness.to_json()
            out["unconditional"] = self.unconditional
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
                push_cap: Optional[int] = None,
                len_cap_factor: int = DEFAULT_LEN_CAP_FACTOR,
                heuristic: bool = True,
                stop_at_bound: Optional[int] = None) -> AreaResult:
    """Minimal-area search for a null expression of w.

    When the presentation carries an evaluation, non-null-homotopic words
    are rejected up front.  stop_at_bound turns the run into a lower-bound
    certificate: it halts once every cheaper state is settled.
    """
    if w.group != P.group:
        raise ValueError("word is not over the presentation's alphabet")
    if P.evaluation is not None and not is_null_homotopic(P, w):
        raise ValueError("word is not null-homotopic")
    variants, meta = _variants(P)
    maxlen = max((len(v) for v in variants), default=0)
    len_cap = len(w.data) + len_cap_factor * maxlen
    if push_cap is None:
        push_cap = 8 * node_cap
    caps = {"node_cap": node_cap, "push_cap": push_cap, "len_cap": len_cap,
            "len_cap_factor": len_cap_factor, "heuristic": heuristic}

    heur, obstruction = _heuristic_for(P, variants, w.data)
    if heur is None:
        return AreaResult("exhausted", None, None, None, 0, 0, caps, True,
                          obstruction)
    if not heuristic:
        heur = AdditiveHeuristic(variants)

    h0 = heur.bound(heur.values(w.data))
    if heuristic and stop_at_bound is None and w.data:
        probe_path = greedy_probe(w.data, variants, len_cap=len_cap,
                                  node_budget=50 * h0 + 200, heuristic=heur)
        if probe_path is not None:
            witness = _witness_from_path(P, w, probe_path, variants, meta)
            if witness.area != h0:
                raise CertificateError("greedy probe: witness area %d differs"
                                       " from the bound %d" % (witness.area, h0))
            return AreaResult("exact", h0, witness, None, 0, 0, caps, False,
                              "greedy probe matched the heuristic lower bound",
                              unconditional=True)

    out = run_search(w.data, variants, len_cap=len_cap, node_cap=node_cap,
                     push_cap=push_cap, heuristic=heur,
                     stop_at_bound=stop_at_bound)
    if out.cost is None:
        return AreaResult("exhausted", None, None, out.lower_bound, out.nodes,
                          out.pushes, caps, out.regime_empty, out.stop_reason)
    witness = _witness_from_path(P, w, out.path, variants, meta)
    if witness.area != out.cost:
        raise CertificateError("area search: witness area %d differs from the"
                               " path cost %d" % (witness.area, out.cost))
    return AreaResult("exact", out.cost, witness, None, out.nodes, out.pushes,
                      caps, False, out.stop_reason,
                      unconditional=(out.cost == h0))


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

class DehnResult:
    __slots__ = ("n", "value", "exact", "witness", "classes_searched")

    def __init__(self, n, value, exact, witness, classes_searched):
        self.n = n
        self.value = value
        self.exact = exact
        self.witness = witness
        self.classes_searched = classes_searched

    def to_json(self) -> dict:
        return {"n": self.n, "value": self.value, "exact": self.exact,
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
    while len(data) >= 2 and (data[0] ^ data[-1]) == 1:
        data = data[1:-1]
    best = None
    for form in (data, ops.invert(data)):
        for t in range(max(len(form), 1)):
            rot = form[t:] + form[:t]
            if best is None or rot < best:
                best = rot
    return best


def _null_classes(P: Presentation, n: int) -> List[Word]:
    """Canonical representatives of null-homotopic classes of length <= n."""
    rank = P.group.rank
    letters = list(range(2 * rank))
    reps = set()
    stack: List[List[int]] = [[]]
    while stack:
        prefix = stack.pop()
        if prefix:
            w = Word(P.group, bytes(prefix))
            if is_null_homotopic(P, w):
                reps.add(_canonical_class(w.data))
        if len(prefix) < n:
            for c in letters:
                if prefix and (prefix[-1] ^ c) == 1:
                    continue
                stack.append(prefix + [c])
    reps.discard(b"")
    return [Word(P.group, d) for d in sorted(reps, key=lambda d: (len(d), d))]


def _area_of(args):
    P, w, node_cap, len_cap_factor = args
    return area_search(P, w, node_cap=node_cap, len_cap_factor=len_cap_factor)


def dehn_function(P: Presentation, n: int, *, node_cap: int = DEFAULT_NODE_CAP,
                  len_cap_factor: int = DEFAULT_LEN_CAP_FACTOR,
                  jobs: int = 1) -> DehnResult:
    """max Area(w) over null-homotopic |w| <= n, by exhaustive enumeration.

    Exact only when every inner search came back exact; any exhaustion
    demotes the result to a lower bound.  Enumeration cost is exponential
    in n -- this is a desk instrument for single digits.
    """
    if P.evaluation is None:
        raise ValueError("dehn_function needs an evaluation oracle")
    words = _null_classes(P, n)
    value, exact, witness = 0, True, None
    tasks = [(P, w, node_cap, len_cap_factor) for w in words]
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_area_of, tasks, chunksize=8))
    else:
        results = [_area_of(t) for t in tasks]
    for w, res in zip(words, results):
        if res.status == "exact":
            if res.area > value:
                value, witness = res.area, w
        else:
            exact = False
            if res.lower_bound is not None and res.lower_bound > value:
                value, witness = res.lower_bound, w
    return DehnResult(n, value, exact, witness, len(words))
