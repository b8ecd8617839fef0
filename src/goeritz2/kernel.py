"""Normalization kernel: spur and generalized-bigon removal on step bytes.

A curve word is passed as its code, one byte 4e+h per step (crossed edge e,
entered hexagon h).  Inputs are closed chains: each step leaves, through one
of its sides, the hexagon the step before entered.  Two steps cross the same
edge iff their bytes agree above the low two bits.

`remove_spurs` cancels spurs (an arc entering and leaving a hexagon through
the same side).  On a closed chain two adjacent steps cross the same edge iff
they form one of the 24 spur pairs (4e+h, 4e+h'), h' the hexagon across e
from h, that is iff their bytes XOR to less than 4, and deleting such a pair
leaves a closed chain.  `remove_spurs` runs `freely_reduce` on the linear
word, then trims equal pairs at the two ends of the cyclic word.

Free cancellation is confluent: the reduced word does not depend on the order
in which pairs cancel (Lyndon-Schupp, Combinatorial Group Theory, I.1).  So
the generator action may cancel the spurs inside each rail byte's image once,
when it builds its substitution table, and hand the kernel only the spurs
that meet across image boundaries; and `freely_reduce` may delete many pairs
at once.  It first makes two whole-word rounds.  Each marks every adjacent
same-edge pair with a few big-integer operations, keeps the left one of two
pairs that overlap, and deletes the kept pairs with one `bytes.translate`.
A stack-based loop then jumps between the pairs that are left, one
Python-level step per spur site.  In every half twist's image the tests
meet, spurs cascade at most two pairs deep, so the rounds cancel them all
and the loop finds no pair; deeper cascades (4 in a full twist about P, any
depth in an outside word) are left to the loop.  On a traced seed-1
`replay_large` benchmark pass, 49,080 of the kernel's 232,068 input steps
cancel as spurs, and the rounds take half the time the loop alone took.

`_find_run` returns the smallest start of a generalized bigon run: a subpath
that crosses a curve, runs parallel to it through fence chords (each leaving
by a side next to the curve's side), and recrosses it.  Every hexagon has its
sides in the cyclic order A Z B X C Y of their curves, so on a closed chain
the walk reads only that position of each crossed curve: after crossing the
curve at p, the first fence is at p +- 1, the fences then alternate between
p + 1 and p - 1, and the run ends at p.  So a run reads as triples of
consecutive positions pos[j], pos[j+1], pos[j+2] of the cyclic word:

* a short run (i, i + 2) exists iff triple i reads (p, p +- 1, p);
* a long run (i, k), k >= i + 3, exists iff triple i reads
  (p, p + s, p - s), each triple from i + 1 to k - 3 repeats the position
  two steps back (the fences alternate), and triple k - 2 reads
  (p -+ 1, p +- 1, p), its last position the one midpoint mod 6 of the two
  fences before it.

Each triple has at most one of these four kinds (short, open, alternate,
close), read from its two turns mod 6, so each start has at most one run,
and a long run is the match of open, alternate* and close in the kinds.
One product of the positions' big integer by a constant reads every start's
triple as one byte, 36 p0 + 6 p1 + p2, and one `translate` gives its kind.
The first run is the earlier of the first short triple and the leftmost long
match in the doubled kinds (a match from i + n repeats one from i), kept if
it is shorter than the word, k < i + n.  A longer match leaves no later
start of the word that opens a long run: each reads a triple of its
alternation, its close, or (p +- 1, p, p + s).
`_slide_run` replaces the run by the mirrored path on the far side of the
curve.  `normalize_steps` alternates the two to a fixed point.

Moves are free-homotopy moves: no strand-nesting checks are made here.
Callers re-embed canonically afterwards, and trace the result unless it is
the slide-free twist image of an interned curve (`action`).
"""

from __future__ import annotations

import re

from .surface import EDGE_CURVE, HEX_SIDES, OTHER_HEX

BACKEND = "python"

_EDGE_OF_BYTE = bytes(x >> 2 for x in range(256))

# Two step bytes cross the same edge iff their XOR is below 4: the XOR's byte
# maps to 0x80 then, else to 0.  Step bytes are below 48, so a byte with its
# high bit set is one marked for deletion.
_PAIRED = bytes(0x80 if x < 4 else 0 for x in range(256))
_MARKED = bytes(range(0x80, 0x100))
# Whole-word rounds before the loop: no half twist's image cascades deeper.
_ROUNDS = 2

# Position of each step byte's curve in the side order of every hexagon (6: none).
_SIDE_CURVES = tuple(EDGE_CURVE[e] for e in HEX_SIDES[0])
_POSITION = bytes(_SIDE_CURVES.index(EDGE_CURVE[x >> 2]) if x < 48 else 6 for x in range(256))

# Kind of each triple 36 p0 + 6 p1 + p2 of positions by its turns
# (p1 - p0, p2 - p1) mod 6: short (p, p +- 1, p), open (p, p + s, p - s),
# alternate (q, q +- 2, q) and close (q, q +- 2, q +- 1); "-" is none.
_TURN_KINDS = {(1, 5): "s", (5, 1): "s", (1, 4): "o", (5, 2): "o",
               (2, 4): "a", (4, 2): "a", (2, 5): "c", (4, 1): "c"}
_KIND = "".join(_TURN_KINDS.get(((x // 6 - x // 36) % 6, (x - x // 6) % 6), "-")
                for x in range(216)).ljust(256, "-").encode()
_LONG_RUN = re.compile(b"oa*c")
# Positions p0 p1 ... as a big-endian integer, times this, hold
# 36 p_i + 6 p_(i+1) + p_(i+2) in p_i's byte.
_THREE_POSITIONS = 36 + 6 * 256 + 256 * 256


def _same_edge_pairs(x: int, n: int) -> bytes:
    """Byte i is 0x80 iff steps i and i+1 of an n-step code cross the same
    edge, else 0, given the code as a big-endian integer x: one XOR of x with
    itself shifted by one byte, whose first byte no step pairs with."""
    return (x ^ (x >> 8)).to_bytes(n, "big")[1:].translate(_PAIRED)


def freely_reduce(code: bytes) -> bytes:
    """Free cancellation of a linear word.

    Each of `_ROUNDS` whole-word rounds deletes a set of disjoint adjacent
    same-edge pairs at once (of two overlapping pairs, the left one); a
    stack-based loop then jumps between the pairs that are left.  By
    confluence, every order of cancellation gives this word.
    """
    for _ in range(_ROUNDS):
        n = len(code)
        if n < 2:
            return code
        x = int.from_bytes(code, "big")
        marked = int.from_bytes(_same_edge_pairs(x, n), "big")
        if not marked:
            return code
        # pair byte i stands over code byte i + 1: mark both bytes of each kept pair
        kept = marked & ~(marked >> 8)
        code = (x | kept | (kept << 8)).to_bytes(n, "big").translate(None, _MARKED)
    n = len(code)
    if n < 2:
        return code
    pairs = _same_edge_pairs(int.from_bytes(code, "big"), n)
    out, pos = bytearray(), 0
    while True:
        i = pairs.find(0x80, pos)
        if i < 0:
            out += code[pos:]
            break
        out += code[pos:i]
        j = i + 2
        while out and j < n and (out[-1] ^ code[j]) < 4:
            out.pop()
            j += 1
        pos = j
    return bytes(out)


def remove_spurs(code: bytes) -> bytes:
    """The cyclic word with every spur pair cancelled.

    Returns the same word as cancelling the leftmost adjacent pair until none
    is left and then the wrap-around pair (last, first) while they are equal:
    the free cancellation of the linear word, then the trim of its two ends.
    """
    out = freely_reduce(code)
    i, j = 0, len(out) - 1
    while i < j and (out[i] ^ out[j]) < 4:
        i += 1
        j -= 1
    return out[i:j + 1]


def _find_run(code: bytes) -> tuple[int, int] | None:
    """The smallest start i of a bigon run and its end k, as indices into
    code + code (i < len(code), i + 1 < k < i + len(code)), or None."""
    n = len(code)
    if n < 3:  # i + 2 <= k < i + n
        return None
    # positions are below 6, so no triple's byte carries into the next
    x = int.from_bytes((code + code[:2]).translate(_POSITION), "big")
    kinds = (x * _THREE_POSITIONS).to_bytes(n + 4, "big")[2:n + 2].translate(_KIND)
    i = kinds.find(b"s")
    run = _LONG_RUN.search(kinds + kinds)
    if run and run.end() + 1 < run.start() + n and (i < 0 or run.start() < i):
        return run.start(), run.end() + 1
    return (i, i + 2) if i >= 0 else None


def _slide_run(code: bytes, i: int, k: int) -> bytes:
    """The word with the run i..k replaced by the mirrored fence path on the
    far side of the curve.  The result starts just after the run's end and
    closes with the new path."""
    ww = code + code
    out = bytearray(ww[k + 1:i + len(code)])
    cur = OTHER_HEX[ww[i] >> 2][ww[i] & 3]
    for f in ww[i + 1:k]:
        fp = (f >> 2) ^ 1
        cur = OTHER_HEX[fp][cur]
        out.append(4 * fp + cur)
    return bytes(out)


def normalize_steps(code: bytes) -> tuple[bytes, int]:
    """Spur and bigon removal to a fixed point: (reduced code, bigons slid).

    The reduced code may be empty.
    """
    code = remove_spurs(code)
    slides = 0
    while code:
        run = _find_run(code)
        if run is None:
            break
        code = remove_spurs(_slide_run(code, *run))
        slides += 1
    return code, slides
