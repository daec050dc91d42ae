"""Checkers that share no code with kgroups.

Words are raw byte strings: generator j (0-based) is byte 2j, its inverse
2j + 1.  Everything here is written from the definitions (free reduction,
products of conjugated relators, lattice areas, breadth-first balls), so a
fault in the library's verifiers cannot hide a fault in its answers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def reduce_word(letters: Iterable[int]) -> bytes:
    out = bytearray()
    for c in letters:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


def inverse(w: bytes) -> bytes:
    return bytes(c ^ 1 for c in reversed(w))


def product(*words: bytes) -> bytes:
    return reduce_word(b"".join(words))


def power(w: bytes, k: int) -> bytes:
    return product(*([w if k > 0 else inverse(w)] * abs(k)))


def commutator(u: bytes, v: bytes) -> bytes:
    return product(u, v, inverse(u), inverse(v))


def join(a: bytes, b: bytes) -> bytes:
    """Product of two reduced words: only the seam can cancel."""
    i, n = 0, min(len(a), len(b))
    while i < n and a[-1 - i] == b[i] ^ 1:
        i += 1
    return a[:len(a) - i] + b[i:]


def render(w: bytes, names: Sequence[str]) -> str:
    """Text in the `name^k` run form the CLI reads; '1' for the empty word."""
    if not w:
        return "1"
    parts: List[str] = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name, k = names[w[i] // 2], (j - i) * (-1 if w[i] & 1 else 1)
        parts.append(name if k == 1 else "%s^%d" % (name, k))
        i = j
    return " ".join(parts)


def parse(text: str, names: Sequence[str]) -> bytes:
    """Read the `name^k` run form back into reduced bytes."""
    index = {name: j for j, name in enumerate(names)}
    letters: List[int] = []
    for token in text.split():
        if token == "1":
            continue
        name, _, exp = token.partition("^")
        if name not in index:
            raise ValueError("unknown symbol %r" % name)
        k = int(exp) if exp else 1
        letters.extend([2 * index[name] + (k < 0)] * abs(k))
    return reduce_word(letters)


def replay(word: bytes, items: Sequence[Tuple[bytes, bytes, int]]) -> bool:
    """Does the product of conj . rel^sign . conj^-1, in order, equal word?"""
    pieces = []
    for conj, rel, sign in items:
        if sign not in (1, -1):
            return False
        pieces += [conj, rel if sign == 1 else inverse(rel), inverse(conj)]
    return product(*pieces) == word


def witness_problem(word: bytes, area: int, witness: Sequence[dict],
                    relators: Sequence[bytes], names: Sequence[str]) -> str:
    """'' when a CLI witness (JSON items) replays to word with area items."""
    if len(witness) != area:
        return "witness has %d items for area %d" % (len(witness), area)
    items = []
    for item in witness:
        ri = item["rel"]
        if not 0 <= ri < len(relators):
            return "witness names relator %r" % ri
        items.append((parse(item["conj"], names), relators[ri], item["sign"]))
    if not replay(word, items):
        return "witness does not multiply out to the word"
    return ""


def plane_area_bound(word: bytes, rank: int) -> int:
    """Sum over coordinate planes of |signed area enclosed by the word's path|.

    Free reduction and conjugation leave each plane's signed area alone, and
    one commutator relator [e_i, e_j] moves exactly plane (i, j) by one, so
    over the free abelian presentations this is a lower bound on the area.
    """
    total = 0
    for i in range(rank):
        for j in range(i + 1, rank):
            pos = area = 0
            for c in word:
                g, s = c // 2, -1 if c & 1 else 1
                if g == i:
                    pos += s
                elif g == j:
                    area += s * pos
            total += abs(area)
    return total


Key = Tuple[bytes, ...]


def ball(moves: Sequence[Key], radius: int) -> Dict[Key, int]:
    """Distances of every element within radius of the identity.

    Elements of a product of free groups are tuples of reduced factor
    words; moves are the generators and their inverses.
    """
    ident: Key = tuple(b"" for _ in moves[0])
    dist = {ident: 0}
    frontier = [ident]
    for depth in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for mv in moves:
                h = tuple(join(a, b) for a, b in zip(g, mv))
                if h not in dist:
                    dist[h] = depth
                    nxt.append(h)
        frontier = nxt
    return dist


def null_classes(max_len: int, rank: int) -> List[bytes]:
    """One word per cyclic class (up to inversion) of nontrivial words of
    length <= max_len whose exponent sums all vanish, shortest first."""
    reps = set()

    def canonical(w: bytes) -> bytes:
        while len(w) >= 2 and w[0] == w[-1] ^ 1:
            w = w[1:-1]
        return min(f[t:] + f[:t] for f in (w, inverse(w))
                   for t in range(max(len(f), 1)))

    stack = [b""]
    while stack:
        w = stack.pop()
        if w and all(w.count(2 * j) == w.count(2 * j + 1) for j in range(rank)):
            c = canonical(w)
            if c:
                reps.add(c)
        if len(w) < max_len:
            stack.extend(w + bytes([c]) for c in range(2 * rank)
                         if not w or w[-1] != c ^ 1)
    return sorted(reps, key=lambda w: (len(w), w))
