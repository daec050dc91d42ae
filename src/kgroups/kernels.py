"""Kernels of homomorphisms from products of free groups onto Z^r.

The group K(n, m, r) is the kernel of the map from a product of n rank-m
free groups to Z^r sending generator e_j of every factor to t_j (j <= r)
or to zero (j > r).  It has a finite generating set with three layers:

    a<i>_<j>   the element carrying e_i in factor 1 and e_i^-1 in factor j
               (i <= r, 2 <= j <= n)
    b<i>_<j>   the single letter e_i in factor j (i > r)
    c<i>_<j>   the commutator [e_i, e_j] in factor 1 (i < j <= r)

rewrite_in_generators expresses arbitrary kernel elements over these
symbols constructively: lift factors 2..n letter by letter, peel the
above-r letters of the factor-1 residual as conjugates, collect what is
left into conjugated basic commutators by adjacent transpositions, and
finally translate the conjugators into kernel symbols.  All of it works on
reduced bytes (see _wordops_py), and the translation telescopes: it reads
only the seam C_k^-1 C_{k+1} between neighbouring conjugators.  Both
stages emit those seams and never a whole conjugator but the first.  A
peel's seam is the inverted slice of the word between two peeled letters,
so the peels hold O(len) bytes (see peel_high_letters).  The collector
resumes its scan just before the first letter a swap can have changed,
found by counting the letters the swap cancelled, and the same kept prefix
makes each seam a few letters around two swaps (see collect_commutators).
A rewrite therefore holds bytes linear in the word and the symbols it
prints: for [x^n, y^n], about 3n^2 symbols, it takes O(n^2) Python steps
and holds O(n^2) bytes (each of its n^2 swaps still copies the word, in
C).

Non-standard surjective maps are supported by changing basis in each free
factor first (see abelian.normalize_basis) and transporting the result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _wordops_py as ops
from .abelian import (AbelianVector, BasisChange, FactorHom, data_image,
                      is_surjective, normalize_basis, standard_hom)
from .words import (_MAX_LETTERS, _MAX_RANK, FreeGroup, Word, commutator,
                    inv, mul, to_text)


class ProductElement:
    """An element of a product of n rank-m free groups."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Word]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        m = factors[0].group.rank
        if any(w.group.rank != m for w in factors):
            raise ValueError("all factors must share one rank")
        self.factors = factors

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def m(self) -> int:
        return self.factors[0].group.rank

    def __mul__(self, other: "ProductElement") -> "ProductElement":
        if self.n != other.n or self.m != other.m:
            raise ValueError("shape mismatch")
        return ProductElement([mul(a, b) for a, b in zip(self.factors, other.factors)])

    def __invert__(self) -> "ProductElement":
        return ProductElement([inv(w) for w in self.factors])

    def __eq__(self, other):
        return isinstance(other, ProductElement) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __bool__(self):
        return any(self.factors)

    def key(self) -> Tuple[bytes, ...]:
        """Hashable raw form, for visited-set bookkeeping."""
        return tuple(w.data for w in self.factors)

    def total_length(self) -> int:
        return sum(len(w) for w in self.factors)

    def __repr__(self):
        return "(" + ", ".join(to_text(w) for w in self.factors) + ")"


def identity_element(n: int, m: int) -> ProductElement:
    F = FreeGroup(m)
    return ProductElement([F.identity] * n)


def evaluate(images, letters: Iterable[Tuple[object, int]], n: int, m: int
             ) -> ProductElement:
    """The product of images[key]^sign over the (key, sign) letters, in order.

    Every image is an n-factor element of rank m.  Each factor joins its
    pieces' bytes and is freely reduced once; free reduction has a unique
    result, so this equals the letter-by-letter product.
    """
    columns: List[List[bytes]] = [[] for _ in range(n)]
    for key, sign in letters:
        g = images[key]
        if g.n != n or g.m != m:
            raise ValueError("shape mismatch")
        for col, w in zip(columns, g.factors):
            col.append(w.data if sign == 1 else ops.invert(w.data))
    F = FreeGroup(m)
    return ProductElement([Word(F, ops.free_reduce(b"".join(col)))
                           for col in columns])


class GenWord:
    """A word in the abstract symbols of a GeneratingSet.

    Stored with adjacent inverse pairs cancelled (free reduction over the
    symbol alphabet); that is harmless since evaluation is homomorphic.
    """

    __slots__ = ("gens", "syms")

    def __init__(self, gens: "GeneratingSet", syms: Iterable[Tuple[str, int]]):
        out: List[Tuple[str, int]] = []
        for name, sign in syms:
            if name not in gens.realization:
                raise ValueError(f"unknown symbol {name!r}")
            if sign not in (1, -1):
                raise ValueError("symbol signs must be +1 or -1")
            if out and out[-1][0] == name and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((name, sign))
        self.gens = gens
        self.syms = tuple(out)

    def __len__(self):
        return len(self.syms)

    def __eq__(self, other):
        return (isinstance(other, GenWord) and self.gens is other.gens
                and self.syms == other.syms)

    def to_text(self) -> str:
        if not self.syms:
            return "1"
        return " ".join(nm if s == 1 else f"{nm}^-1" for nm, s in self.syms)

    def __repr__(self):
        return f"GenWord({self.to_text()!r})"

    def eval(self) -> ProductElement:
        return self.gens.eval(self)


class GeneratingSet:
    """Named kernel generators together with their realizations."""

    __slots__ = ("group", "symbols", "realization")

    def __init__(self, group: "KernelGroup", symbols: Sequence[str],
                 realization: Dict[str, ProductElement]):
        self.group = group
        self.symbols = tuple(symbols)
        self.realization = dict(realization)
        for name in self.symbols:
            g = self.realization[name]
            if not contains(group, g):
                raise ValueError(f"realization of {name} is not in the kernel")

    def eval(self, w: GenWord) -> ProductElement:
        return evaluate(self.realization, w.syms, self.group.n, self.group.m)


class KernelGroup:
    """Descriptor of K(n, m, r), optionally with non-standard factor maps."""

    __slots__ = ("n", "m", "r", "homs", "is_standard", "_free", "_by_hom",
                 "_gens", "_basis_changes")

    def __init__(self, n: int, m: int, r: int,
                 homs: Optional[Sequence[FactorHom]] = None):
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        # the per-factor maps and their checks are O(n), and each map is
        # m x r
        if n > _MAX_LETTERS or m > _MAX_RANK:
            raise ValueError(f"need n <= {_MAX_LETTERS} and m <= {_MAX_RANK}")
        if not 0 <= r <= m:
            raise ValueError("need 0 <= r <= m")
        std = standard_hom(m, r)
        if homs is None:
            homs = [std] * n
        homs = tuple(homs)
        if len(homs) != n:
            raise ValueError(f"expected {n} factor maps, got {len(homs)}")
        # factors often share one map: check each distinct map once
        distinct = dict.fromkeys(homs)
        for h in distinct:
            if h.rank != m or h.target_rank != r:
                raise ValueError("factor map shape must be m x r")
            if not is_surjective(h):
                raise ValueError("every factor map must be surjective onto Z^r")
        self.n, self.m, self.r = n, m, r
        self.homs = homs
        self.is_standard = all(h == std for h in distinct)
        self._free = FreeGroup(m)
        # theta joins the factors of each distinct map: (map, factor indices)
        if len(distinct) == 1:
            self._by_hom = ((homs[0], range(n)),)
        else:
            by_hom: Dict[FactorHom, List[int]] = {h: [] for h in distinct}
            for i, h in enumerate(homs):
                by_hom[h].append(i)
            self._by_hom = tuple(by_hom.items())
        self._gens = None
        self._basis_changes = None

    def factor_group(self) -> FreeGroup:
        return self._free

    def basis_changes(self) -> Tuple[BasisChange, ...]:
        if self._basis_changes is None:
            change = {h: normalize_basis(h) for h in dict.fromkeys(self.homs)}
            self._basis_changes = tuple(change[h] for h in self.homs)
        return self._basis_changes

    def __repr__(self):
        tag = "" if self.is_standard else ", custom maps"
        return f"KernelGroup(n={self.n}, m={self.m}, r={self.r}{tag})"


def theta(G: KernelGroup, g: ProductElement) -> AbelianVector:
    """The defining map: sum of the per-factor abelian images.

    The image is additive, so the factors that share one map are joined
    and their exponent sums counted once.
    """
    if g.n != G.n or g.m != G.m:
        raise ValueError(f"shape mismatch: element is {g.n}x{g.m}, group wants {G.n}x{G.m}")
    f = g.factors
    out = [0] * G.r
    for h, idx in G._by_hom:
        # a bytearray, not b"".join, whose per-piece buffers would cost
        # more than the words on a product of 2^20 factors
        letters = bytearray()
        for i in idx:
            letters += f[i].data
        v = data_image(h, letters)
        for c in range(G.r):
            out[c] += v[c]
    return tuple(out)


def contains(G: KernelGroup, g: ProductElement) -> bool:
    return theta(G, g) == (0,) * G.r


def standard_generators(G: KernelGroup) -> GeneratingSet:
    """The three-layer generating set; needs n >= 2.

    Every factor's letters are its normalized basis (``basis_changes``),
    on which the factor map is standard, so the same symbol names describe
    generators of the actual kernel for any factor maps.  A standard map
    needs no move, so its basis is the factor's one-letter words.
    """
    if G.n < 2:
        raise ValueError("the generating set requires at least two factors")
    if G._gens is not None:
        return G._gens
    count = G.r * (G.n - 1) + (G.m - G.r) * G.n + G.r * (G.r - 1) // 2
    if count * G.n > _MAX_LETTERS:
        raise ValueError(f"the generating set of {G!r} is too large: {count}"
                         f" symbols of {G.n} factors each (limit"
                         f" {_MAX_LETTERS} factors in all)")
    one = G.factor_group().identity
    basis = [bc.new_basis for bc in G.basis_changes()]

    def put(factors_by_index: Dict[int, Word]) -> ProductElement:
        return ProductElement([factors_by_index.get(i, one) for i in range(1, G.n + 1)])

    symbols: List[str] = []
    realization: Dict[str, ProductElement] = {}
    for i in range(1, G.r + 1):
        for j in range(2, G.n + 1):
            name = f"a{i}_{j}"
            symbols.append(name)
            realization[name] = put({1: basis[0][i - 1], j: inv(basis[j - 1][i - 1])})
    for i in range(G.r + 1, G.m + 1):
        for j in range(1, G.n + 1):
            name = f"b{i}_{j}"
            symbols.append(name)
            realization[name] = put({j: basis[j - 1][i - 1]})
    for i in range(1, G.r + 1):
        for j in range(i + 1, G.r + 1):
            name = f"c{i}_{j}"
            symbols.append(name)
            realization[name] = put({1: commutator(basis[0][i - 1], basis[0][j - 1])})
    G._gens = GeneratingSet(G, symbols, realization)
    return G._gens


# -- the rewriting algorithm ------------------------------------------------

def _index_sign(c: int) -> Tuple[int, int]:
    """The (generator index, sign) of letter byte c."""
    return (c >> 1) + 1, -1 if c & 1 else 1


def normalize_basic_commutator(u: int, v: int) -> Tuple[int, int, int, bytes]:
    """Express [u, v] for letter bytes of distinct generators as a conjugate.

    Returns (i, j, sign, w) with i < j and w reduced bytes such that
        [u, v]  =  w [e_i, e_j]^sign w^-1.

    With a, b the letters of e_i, e_j, w is the inverted letters among
    b, a in that order, and each inverted letter flips the sign:
        [a, b^-1] = b^-1 [a,b]^-1 b,   [a^-1, b] = a^-1 [a,b]^-1 a,
        [a^-1, b^-1] = (b a)^-1 [a,b] (b a);
    [u, v] = [v, u]^-1 flips it once more when u is the higher generator.
    """
    if u >> 1 == v >> 1:
        raise ValueError("need distinct generators")
    a, b, sign = (u, v, 1) if u < v else (v, u, -1)
    w = bytes(c for c in (b, a) if c & 1)
    return (a >> 1) + 1, (b >> 1) + 1, sign * (-1) ** len(w), w


def peel_high_letters(z: Word, r: int
                      ) -> Tuple[bytes, List[Tuple[int, bytes]], Word]:
    """Split off the letters above r as conjugates, each with its seam.

    If z = B0 R1 B1 ... RK BK with each Rt a letter e_k (k > r) and the Bt
    blocks over e_1..e_r, then, writing Pt for the full prefix before Rt,

        z  =  (RK)^{PK} (R_{K-1})^{P_{K-1}} ... (R1)^{P1} . B0 B1 ... BK

    (conjugation x^w = w x w^-1; proof: induct on K, the innermost
    conjugator swallows everything to its left).  Neighbouring conjugators
    telescope: with P0 the empty word,

        z  =  PK RK (PK^-1 P_{K-1}) R_{K-1} ... (P2^-1 P1) R1 (P1^-1) . B0 ... BK,

    and since Pt = P_{t-1} R_{t-1} B_{t-1} for t >= 2 and P1 = B0, the
    seam Pt^-1 P_{t-1} is the inverted slice of z from R_{t-1} up to Rt,
    and the last seam P1^-1 inverts B0.  A slice of a reduced word is
    reduced, and so is its inverse.  Returns (PK, items, residual): PK a
    prefix of z, empty when K = 0; the items (Rt, Pt^-1 P_{t-1}) for
    t = K..1; and the residual B0...BK, reduced.  PK and the seams each
    hold at most len(z) bytes.
    """
    data = z.data
    # 0 (where P0 ends), then the position of each Rt
    cuts = [0] + [t for t, c in enumerate(data) if c >= 2 * r]
    items = [(data[t], ops.invert(data[s:t])) for s, t in zip(cuts, cuts[1:])]
    items.reverse()
    residual = bytes(c for c in data if c < 2 * r)
    return data[:cuts[-1]], items, Word(z.group, ops.free_reduce(residual))


def collect_commutators(w: Word, r: int
                        ) -> Tuple[bytes, List[Tuple[int, int, int, bytes]]]:
    """Write a zero-exponent-sum word over e_1..e_r as conjugated commutators.

    The product is  w = prod over k of  C_k [e_i,e_j]^sign C_k^-1  (i < j),
    and each conjugator comes as its seam to the next.  Returns (C_1,
    items), the items (i, j, sign, seam) in product order, each seam
    C_k^-1 C_{k+1} in reduced bytes and C_{K+1} the empty word, so
        w = C_1 [..]^s_1 seam_1 [..]^s_2 seam_2 ... [..]^s_K seam_K.

    Method: bubble toward sorted order.  One adjacent swap uses
        a b = b a . [a^-1, b^-1]
    and the emitted commutator is pushed past the suffix S via
        X S = S . X^{S^-1}.
    Each swap keeps length and lowers the inversion count; free reduction
    after a swap lowers length; so (length, inversions) descends
    lexicographically and the loop stops.  A sorted reduced word whose
    exponent sums all vanish is empty, which is where it stops.  The swap
    at position t of the word cur, with S = cur[t+2:] and c the conjugator
    normalize_basic_commutator gives for [a^-1, b^-1], emits the
    commutator conjugated by invert(S) c, and the swaps run in reverse
    product order.

    Each swap is at the first descent (a pair whose first letter has the
    higher generator), and the scan after it resumes at
    L = max(t - d // 2 - 1, 0), not at 0, where d = len(cur) - len(new)
    counts the cancelled letters.  Proof that it finds the same descent:
    the new word is cur[:t] times b a times S, freely reduced, and every
    cancelled pair takes at most one letter of cur[:t] (the other comes
    from b a or S), so the new word keeps cur[:t - d // 2] as its prefix.
    No pair (s, s+1) of cur with s < t is a descent, and the new word's
    pairs with s + 1 < t - d // 2 are such pairs; so the new word has no
    descent before L.

    The same shared prefix gives the seams, and no suffix is inverted.
    Since S = (cur[:t] b a)^-1 new and new keeps cur[:L], the swap's
    conjugator is invert(S) c = invert(new[L:]) R, with R = cur[L:t] b a c
    a few letters long (`right`).  The next swap, at t' >= L of new, has
    conjugator C' = invert(new[t'+2:]) c', and new[L:] = new[L:t'+2]
    new[t'+2:], so its seam to this swap's conjugator C is
        C'^-1 C  =  invert(new[L:t'+2] c') . R.
    R starts as w: with L = 0 it stands for the empty conjugator
    invert(w) w, so the first swap's item closes the chain at 1.  The last
    swap empties the word (d = len(cur) >= 2t + 2), so its L is 0, and
    with new empty its conjugator invert(new[L:]) R is R itself: C_1.
    """
    data = w.data
    if any(c >= 2 * r for c in data):
        raise ValueError("letters above r must be peeled off first")
    for j, s in enumerate(ops.exponent_sums(data, range(r)), start=1):
        if s:
            raise ValueError(f"exponent sum of e{j} must vanish")
    items: List[Tuple[int, int, int, bytes]] = []
    cur = right = data
    start = 0
    while True:
        for t in range(start, len(cur) - 1):
            a, b = cur[t], cur[t + 1]
            if a >> 1 > b >> 1:
                i, j, sign, c = normalize_basic_commutator(a ^ 1, b ^ 1)
                left = ops.concat(cur[start:t + 2], c)
                items.append((i, j, sign, ops.concat(ops.invert(left), right)))
                head = ops.concat(cur[:t], bytes((b, a)))
                new = ops.concat(head, cur[t + 2:])
                start = max(t - (len(cur) - len(new)) // 2 - 1, 0)
                # head keeps cur[:start] too, so this is R for the next seam
                right = ops.concat(head[start:], c)
                cur = new
                break
        else:
            break
    if cur:
        raise ValueError("collection left a nonempty sorted residue")
    items.reverse()
    return right, items


def _conjugator_symbols(G: KernelGroup, c: bytes) -> List[Tuple[str, int]]:
    """Kernel symbols whose evaluation has factor-1 coordinate exactly c.

    Each letter e_j is replaced by a kernel element carrying e_j in factor
    1: the a<j>_2 generator when j <= r, else b<j>_1 b<j>_2^-1.  Since the
    conjugated element lives in factor 1 only, the junk the substitutes
    carry in other factors conjugates the identity and vanishes.  The
    substitution is a homomorphism, so c may be a product of conjugators.
    """
    out: List[Tuple[str, int]] = []
    for j, s in map(_index_sign, c):
        if j <= G.r:
            out.append((f"a{j}_2", s))
        elif s == 1:
            out.extend([(f"b{j}_1", 1), (f"b{j}_2", -1)])
        else:
            out.extend([(f"b{j}_2", 1), (f"b{j}_1", -1)])
    return out


def _rewrite_standard(G: KernelGroup, g: ProductElement) -> List[Tuple[str, int]]:
    """The three-stage rewriting over a standard-map kernel."""
    # stage 1: lift factors 2..n letter by letter
    lift: List[Tuple[str, int]] = []
    for i in range(2, G.n + 1):
        for j, s in map(_index_sign, g.factors[i - 1].data):
            if j <= G.r:
                lift.append((f"a{j}_{i}", -s))
            else:
                lift.append((f"b{j}_{i}", s))
    gens = standard_generators(G)
    zeta = g * ~gens.eval(GenWord(gens, lift))
    if any(zeta.factors[1:]):
        raise ValueError("lift must clear factors 2..n")
    z = zeta.factors[0]

    # stage 2: peel letters above r, then collect basic commutators; each
    # returns its first conjugator and then every item with its seam to the
    # next conjugator, the peels' last seam P_1^-1 meeting the collector's
    # C_1.  stage 3: conjugators into symbols, telescoped as c_1 s_1
    # (c_1^-1 c_2) s_2 ... c_K^-1, every seam mapped straight to symbols.
    # The map is a homomorphism and GenWord's free reduction is unique, so
    # the reduced symbol word is the one the untelescoped product reduces to
    head, peels, residual = peel_high_letters(z, G.r)
    first, commutators = collect_commutators(residual, G.r)
    syms = _conjugator_symbols(G, head)
    for c, seam in peels:
        k, s = _index_sign(c)
        syms.append((f"b{k}_1", s))
        syms.extend(_conjugator_symbols(G, seam))
    syms.extend(_conjugator_symbols(G, first))
    for i, j, sign, seam in commutators:
        syms.append((f"c{i}_{j}", sign))
        syms.extend(_conjugator_symbols(G, seam))
    syms.extend(lift)
    return syms


def rewrite_in_generators(G: KernelGroup, g: ProductElement) -> GenWord:
    """Express a kernel element over the standard generating set.

    The result always satisfies eval(standard_generators(G), result) == g;
    no attempt is made to keep it short.  Non-standard factor maps are
    handled by transporting g through the per-factor basis change, which
    identifies the two kernels symbol-for-symbol.
    """
    if G.n < 2:
        raise ValueError("rewriting requires at least two factors")
    if g.n != G.n or g.m != G.m:
        raise ValueError("shape mismatch")
    if not contains(G, g):
        raise ValueError("element is not in the kernel")
    if G.is_standard:
        syms = _rewrite_standard(G, g)
    else:
        std = KernelGroup(G.n, G.m, G.r)
        pulled = ProductElement(
            [bc.unapply(w) for bc, w in zip(G.basis_changes(), g.factors)])
        syms = _rewrite_standard(std, pulled)
    return GenWord(standard_generators(G), syms)


def random_kernel_element(G: KernelGroup, length_budget: int,
                          seed: int) -> ProductElement:
    """Evaluate a random symbol word; deterministic in the seed."""
    import random   # here: no CLI command draws random numbers
    gens = standard_generators(G)
    rng = random.Random(seed)
    if not gens.symbols:
        return identity_element(G.n, G.m)
    syms = [(rng.choice(gens.symbols), rng.choice((1, -1)))
            for _ in range(length_budget)]
    return gens.eval(GenWord(gens, syms))
