"""The amalgam decomposition of K(n, m, m) over its hat subgroup.

With r = m the kernel splits as an iterated amalgam of the kernels
L_k = ker(theta_k) over M = K(n-1, m, m).  Concretely, the last free
factor is replaced by the "hat" copies

    g^_k = e_k in factor n-1 times e_k^-1 in factor n,

which generate a free rank-m subgroup meeting M trivially, giving an
internal semidirect product M x F^.  Every kernel element therefore has a
unique normal form (m_part, hat word); the run-length blocks of the hat
word are the amalgam syllables.

The predicates theta_k, p_k, in_Lk and in_M are projections of one
vector, each generator's exponent sum across all factors, which the word
kernel's exponent_sums counts; none of them builds a group or a map.
"""

from __future__ import annotations

from typing import List, Tuple

from . import _wordops_py as ops
from .kernels import KernelGroup, ProductElement, contains, evaluate
from .words import FreeGroup, Word, runs


class SplittingData:
    """Shape bookkeeping for the splitting of K(n, m, m)."""

    __slots__ = ("n", "m", "group", "hat_group", "hat_generators")

    def __init__(self, n: int, m: int):
        if n < 2:
            raise ValueError("splitting needs at least two factors")
        self.n, self.m = n, m
        self.group = KernelGroup(n, m, m)
        self.hat_group = FreeGroup(m, names=[f"g{k}" for k in range(1, m + 1)])
        F = FreeGroup(m)
        one = F.identity
        hats = []
        for k in range(1, m + 1):
            factors = [one] * n
            factors[n - 2] = F.gen(k)
            factors[n - 1] = F.gen(k, -1)
            hats.append(ProductElement(factors))
        self.hat_generators = tuple(hats)
        if not all(contains(self.group, g) for g in self.hat_generators):
            raise ValueError("hat generators must lie in the kernel")

    def eval_hat(self, hat_word: Word) -> ProductElement:
        """Evaluate a word over the hat generators inside the big product."""
        return evaluate(self.hat_generators,
                        ((k - 1, s) for k, s in hat_word.letters),
                        self.n, self.m)


def _totals(g: ProductElement) -> List[int]:
    """Each generator's exponent sum across all factors.  Exponent sums
    add up, so one count over the joined factors gives them."""
    return ops.exponent_sums(b"".join(w.data for w in g.factors), range(g.m))


def theta_k(k: int, g: ProductElement) -> Tuple[int, ...]:
    """The deleted-coordinate map: e_j -> t_j (j < k), 0 (j = k), t_{j-1} (j > k)."""
    if not 1 <= k <= g.m:
        raise ValueError(f"k must be in 1..{g.m}")
    return tuple(s for j, s in enumerate(_totals(g), 1) if j != k)


def p_k(k: int, g: ProductElement) -> int:
    """Total exponent sum of generator k across all factors."""
    if not 1 <= k <= g.m:
        raise ValueError(f"k must be in 1..{g.m}")
    return _totals(g)[k - 1]


def in_Lk(k: int, g: ProductElement) -> bool:
    return not any(theta_k(k, g))


def in_M(g: ProductElement) -> bool:
    """Membership in K(n-1, m, m), i.e. every generator's exponent sum is 0."""
    return not any(_totals(g))


def semidirect_decompose(D: SplittingData, gamma: ProductElement
                         ) -> Tuple[ProductElement, Word]:
    """Split gamma as (element of M) times (word over the hat generators).

    The hat word is forced: its image must reproduce gamma's last factor,
    and g^_k carries e_k^-1 there, so each letter e_k^s becomes g^_k^{-s}.
    The quotient m_part = gamma * eval(hat)^-1 then has trivial last factor
    and is returned over n-1 factors.
    """
    if gamma.n != D.n or gamma.m != D.m:
        raise ValueError("shape mismatch")
    if not contains(D.group, gamma):
        raise ValueError("element is not in the kernel")
    # flipping every sign keeps a reduced word reduced
    hat_word = Word(D.hat_group, bytes(c ^ 1 for c in gamma.factors[-1].data))
    rest = gamma * ~D.eval_hat(hat_word)
    if rest.factors[-1]:
        raise ValueError("hat word must clear the last factor")
    m_part = ProductElement(rest.factors[:-1])
    if not in_M(m_part):
        raise ValueError("the M-part must lie in K(n-1, m, m)")
    return m_part, hat_word


def reassemble(D: SplittingData, m_part: ProductElement, hat_word: Word
               ) -> ProductElement:
    """Inverse of semidirect_decompose: m_part (over n-1 factors) times hats."""
    F = FreeGroup(D.m)
    wide = ProductElement(list(m_part.factors) + [F.identity])
    return wide * D.eval_hat(hat_word)


class SyllableForm:
    """Normal form: the M-part plus run-length blocks of the hat word."""

    __slots__ = ("m_part", "blocks")

    def __init__(self, m_part: ProductElement, blocks: List[Tuple[int, int]]):
        for (k, e) in blocks:
            if e == 0:
                raise ValueError("block exponents must be nonzero")
        for (k1, _), (k2, _) in zip(blocks, blocks[1:]):
            if k1 == k2:
                raise ValueError("consecutive blocks must have distinct index")
        self.m_part = m_part
        self.blocks = list(blocks)

    def __repr__(self):
        return f"SyllableForm(m_part={self.m_part!r}, blocks={self.blocks})"


def syllable_form(D: SplittingData, gamma: ProductElement) -> SyllableForm:
    """Blocks = maximal same-index runs of the hat word."""
    m_part, hat_word = semidirect_decompose(D, gamma)
    return SyllableForm(m_part, runs(hat_word.data))


def amalgam_image(D: SplittingData, form: SyllableForm) -> ProductElement:
    """Realize a 0- or 1-block form inside L_k via g^_k -> e_k in factor n-1.

    The hat generator acts on M exactly as e_k in factor n-1 does, which is
    what makes this substitution an isomorphism onto its image; elements
    with two or more blocks straddle distinct conjugands and have no such
    single-factor picture.
    """
    if len(form.blocks) > 1:
        raise ValueError("only 0- or 1-block forms map into a single L_k")
    if not form.blocks:
        return form.m_part
    k, e = form.blocks[0]
    F = FreeGroup(D.m)
    factors = [F.identity] * (D.n - 1)
    factors[-1] = F.gen(k) ** e
    return form.m_part * ProductElement(factors)
