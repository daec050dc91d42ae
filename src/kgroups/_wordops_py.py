"""Pure-Python letter crunching for reduced words stored as bytes.

Encoding: generator j (1-based) with sign +1 is byte 2*(j-1), with sign -1
byte 2*(j-1)+1, so a letter and its inverse differ exactly in the lowest
bit and `a ^ b == 1` tests cancellation.

This is the package's only word kernel.  `words`, `abelian`, `splitting`,
`presentations`, `areasearch`, `metrics`, `kernels` and `certificates`
import it as `ops`; perfbench's tracer swaps that name for a timing handle
in `words`, `presentations` and `areasearch` only.

`exponent_sums(data, gens)` is the package's one exponent-sum count:
membership, the splitting predicates, the commutator collector and the
area search's linear terms all read it.  `cyclic_reduce(data)` is the
package's one cyclic reduction: `dehn`'s word classes and the toy
amalgam's edge-power lengths both start from it.

`two_sided_step(u, w)` builds the map x -> u * x * w for fixed words u
and w, so a caller that multiplies by the same words many times (the
Cayley-ball search, one step per move acting on both ends of a key) pays
for no general seam loop: a single-letter end drops x's end letter or adds
the letter, and a longer end calls `concat` only when its seam cancels.

`concat` counts a long cancelled seam, such as the one between two
consecutive conjugated relators that `verify_null_expression` multiplies
out, with one XOR once its letter loop has cancelled `_SEAM_LOOP` letters.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

BACKEND = "python"


def free_reduce(data: bytes) -> bytes:
    """Freely reduce: delete adjacent letter/inverse pairs until none remain."""
    out = bytearray()
    for c in data:
        if out and (out[-1] ^ c) == 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


# translate table swapping each letter with its inverse (flip the low bit)
_FLIP = bytes(c ^ 1 for c in range(256))


def invert(a: bytes) -> bytes:
    return a[::-1].translate(_FLIP)


def exponent_sums(data: bytes, gens: Iterable[int]) -> List[int]:
    """The signed exponent sum in `data` of each 0-based generator in gens."""
    return [data.count(2 * j) - data.count(2 * j + 1) for j in gens]


# cancelled letters after which concat stops walking a seam letter by
# letter and counts the rest with one XOR.  The XOR costs about 11 steps of
# the loop, so a seam of s >= _SEAM_LOOP letters gains s - _SEAM_LOOP - 11
# steps.  Over one round of each perfbench workload (seed 301) the area
# search and the ball steps never cancel more than 4 letters.  certify's
# long seams come from verify_null_expression: 2,242 of its 2,319 seams of
# 2 or more letters cancel 8 or more, 2,122 of them 12 to 64 (n <= 32),
# while the commutator collector's seams are short (5 of its 2,239 reach
# 8).  On certify's 26,074 calls concat's time falls as the switch moves
# down from 32 to 5, and 8 keeps the loop on seams twice as long as the
# other workloads make.
_SEAM_LOOP = 8


def concat(a: bytes, b: bytes) -> bytes:
    """Product of two reduced words (cancel across the seam only).

    A seam that does not cancel is one test.  Short seams, which the area
    search and the ball steps make, are walked letter by letter.  A seam
    still cancelling after _SEAM_LOOP letters (in certify, two consecutive
    conjugated relators) is finished in O(1) Python steps: read the rest of a's
    end backwards (little-endian) and b's next letters, each flipped,
    forwards (big-endian) as integers; the letters cancel exactly as far as
    the bytes agree, so the XOR's byte length is what is left of the window.
    """
    if not (a and b and (a[-1] ^ b[0]) == 1):
        return a + b
    i, j = len(a) - 1, 1
    while i and j < len(b) and (a[i - 1] ^ b[j]) == 1:
        i -= 1
        j += 1
        if j == _SEAM_LOOP:
            n = min(i, len(b) - j)
            x = (int.from_bytes(a[i - n:i], "little")
                 ^ int.from_bytes(b[j:j + n].translate(_FLIP), "big"))
            k = n - (x.bit_length() + 7) // 8
            return a[:i - k] + b[j + k:]
    return a[:i] + b[j:]


def cyclic_reduce(data: bytes) -> bytes:
    """Strip the first and last letters while they cancel each other."""
    while len(data) >= 2 and (data[0] ^ data[-1]) == 1:
        data = data[1:-1]
    return data


def two_sided_step(u: bytes, w: bytes) -> Callable[[bytes], bytes]:
    """The map x -> concat(concat(u, x), w) for reduced x, specialised to
    the reduced words u and w, in one Python frame per call."""
    # an empty side cancels nothing: its letter -1 equals no byte
    ui = u[-1] ^ 1 if u else -1
    wi = w[0] ^ 1 if w else -1
    if len(u) <= 1 and len(w) <= 1:
        def step(x: bytes) -> bytes:
            x = x[1:] if x and x[0] == ui else u + x
            return x[:-1] if x and x[-1] == wi else x + w
    else:
        def step(x: bytes) -> bytes:
            x = concat(u, x) if x and x[0] == ui else u + x
            return concat(x, w) if x and x[-1] == wi else x + w
    return step


def insert_reduce(word: bytes, pos: int, rv: bytes) -> bytes:
    """Insert a reduced variant at pos and reduce."""
    return concat(concat(word[:pos], rv), word[pos:])


def heuristic(state: bytes, hparams) -> int:
    """Always 0.  Nothing in the package calls it: it stays only because
    perfbench's tracer looks up every name in its WORDOPS list on `ops`."""
    return 0


def expand(state: bytes, variants: Sequence[bytes],
           len_cap: int) -> List[Tuple[bytes, int, int]]:
    """The single-insertion successors that cancel, within the length cap.

    Variant v at position p is kept only when it cancels a letter at a
    seam: v's first letter cancels state[p-1] or its last letter cancels
    state[p].  Some optimal expression cancels at every move (van Kampen's
    lemma, areasearch's module docstring), so no other child is needed.
    Returns (child, pos, variant_index) tuples, variants outer, positions
    ascending.
    """
    out = []
    n = len(state)
    for vidx, rv in enumerate(variants):
        head, tail = rv[0] ^ 1, rv[-1] ^ 1
        for pos in range(n + 1):
            if not ((pos and state[pos - 1] == head)
                    or (pos < n and state[pos] == tail)):
                continue
            child = insert_reduce(state, pos, rv)
            if len(child) <= len_cap:
                out.append((child, pos, vidx))
    return out
