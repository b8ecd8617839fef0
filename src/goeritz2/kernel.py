"""Normalization kernel: spur and generalized-bigon removal on step bytes.

A curve word is passed as its code, one byte 4e+h per step (crossed edge e,
entered hexagon h).  Inputs are closed chains: each step leaves, through one
of its sides, the hexagon the step before entered.  Two steps cross the same
edge iff their bytes agree above the low two bits.

`remove_spurs` cancels spurs (an arc entering and leaving a hexagon through
the same side).  On a closed chain two adjacent steps cross the same edge iff
they form one of the 24 spur pairs (4e+h, 4e+h'), h' the hexagon across e
from h, and deleting such a pair leaves a closed chain.  `freely_reduce`
cancels them in one linear pass: stack-based free cancellation, which jumps
between the adjacent same-edge pairs that one big-integer XOR marks.
`remove_spurs` then trims equal pairs at the two ends of the cyclic word.
It pays one Python-level step per spur site.

Free cancellation is confluent: the reduced word does not depend on the order
in which pairs cancel (Lyndon-Schupp, Combinatorial Group Theory, I.1).  So
the generator action may cancel the spurs inside each rail byte's image once,
when it builds its substitution table, and hand the kernel only the spurs
that meet across image boundaries.  On a traced seed-1 `replay_large`
benchmark pass, 49,080 of the kernel's 232,068 input steps cancel as spurs.

`_find_run` returns the smallest start of a generalized bigon run: a subpath
that crosses a curve, runs parallel to it through fence chords (each leaving
by a side next to the curve's side), and recrosses it.  Every hexagon has its
sides in the cyclic order A Z B X C Y of their curves, so on a closed chain
the walk reads only that position of each crossed curve: after crossing the
curve at p, the first fence is at p +- 1, the fences then alternate between
p + 1 and p - 1, and the run ends at p.  A prefilter runs this walk from every
start at once, one check per pass: it packs each start's state and the next
position into one byte of a big integer and maps the bytes through the
transition table.  Only the starts still alive or returned after a few passes
are walked, in order.  `_slide_run` replaces the run by the mirrored path on
the far side of the curve.  `normalize_steps` alternates the two to a fixed
point.

Moves are free-homotopy moves: no strand-nesting checks are made here.
Callers re-embed canonically afterwards.
"""

from __future__ import annotations

from .surface import EDGE_CURVE, HEX_SIDES, OTHER_HEX

BACKEND = "python"

_EDGE_OF_BYTE = bytes(x >> 2 for x in range(256))

# Position of each step byte's curve in the side order of every hexagon (6: none).
_SIDE_CURVES = tuple(EDGE_CURVE[e] for e in HEX_SIDES[0])
_POSITION = bytes(_SIDE_CURVES.index(EDGE_CURVE[x >> 2]) if x < 48 else 6 for x in range(256))

# Walk states, all below 32 so that a state times 8 plus a position fits a byte:
# 0 failed, 1 returned, 2 + p crossed the curve at p, 8 + 2p + (last fence at p + 1).
_FAILED, _RETURNED = 0, 1
_START = bytes(2 + p if p < 6 else _FAILED for p in range(256))


def _transitions() -> bytes:
    """Next state of every byte 8 * state + position."""
    step = bytearray(256)
    step[8 * _RETURNED:8 * _RETURNED + 8] = bytes((_RETURNED,)) * 8
    for p in range(6):
        for sigma in (1, -1):
            fence = 8 + 2 * p + (sigma == 1)
            step[8 * (2 + p) + (p + sigma) % 6] = fence
            step[8 * fence + p] = _RETURNED
            step[8 * fence + (p - sigma) % 6] = 8 + 2 * p + (sigma == -1)
    return bytes(step)


_STEP = _transitions()
_DONE = bytes((_FAILED, _RETURNED))
_SURVIVED = bytes(x != _FAILED for x in range(256))
# Walks that stay alive longer are rare (none on the ladder and atlas inputs)
# and are finished one start at a time.
_PREFILTER_PASSES = 8


def _same_edge_pairs(code: bytes) -> bytes:
    """Byte i is 0 iff steps i and i+1 cross the same edge (one big-int XOR)."""
    e = code.translate(_EDGE_OF_BYTE)
    return (int.from_bytes(e[:-1], "big") ^ int.from_bytes(e[1:], "big")).to_bytes(
        len(e) - 1, "big")


def freely_reduce(code: bytes) -> bytes:
    """Free cancellation of a linear word: stack-based, jumping between the
    adjacent same-edge pairs that one big-integer XOR marks."""
    n = len(code)
    if n < 2:
        return code
    pairs = _same_edge_pairs(code)
    out, pos = bytearray(), 0
    while True:
        i = pairs.find(0, pos)
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


def _prefilter(pos: bytes, n: int) -> bytes:
    """Byte i is 0 iff the walk from start i fails within the first passes.

    `pos` holds the positions of the doubled word's crossed curves.
    """
    state = pos[:n].translate(_START)
    for k in range(1, min(n, _PREFILTER_PASSES + 1)):
        # the walk from every start i takes its check at position i + k
        packed = (int.from_bytes(state, "big") << 3) | int.from_bytes(pos[k:k + n], "big")
        state = packed.to_bytes(n, "big").translate(_STEP)
        if not state.translate(None, _DONE):
            break
    return state.translate(_SURVIVED)


def _find_run(code: bytes) -> tuple[int, int] | None:
    """The smallest start i of a bigon run and its end k, as indices into
    code + code (i < len(code), i + 1 < k < i + len(code)), or None."""
    n = len(code)
    pos = (code + code).translate(_POSITION)
    candidates = _prefilter(pos, n)
    step = _STEP
    i = candidates.find(1)
    while i >= 0:
        s = _START[pos[i]]
        for k in range(i + 1, i + n):
            s = step[8 * s + pos[k]]
            if s <= _RETURNED:
                break
        if s == _RETURNED:
            return i, k
        i = candidates.find(1, i + 1)
    return None


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
