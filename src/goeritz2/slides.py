"""Corner slides decided at their vertex, from crossing ranks along edges.

`curve.canonical_form` runs the sweep (`slide_corners`) and re-embeds its
result once; only `curve.signature` uses that form, and no slid word is stored.
The renderer spreads crossings along each side by the ranks.
"""

from __future__ import annotations

from collections import Counter

from .curve import (
    _ARC_CLASS,
    _CLASS_CROSSES,
    _ORIGIN,
    _VERIFIED,
    Step,
    _encode,
    _least_rotation,
    _trace,
)
from .errors import InternalInvariantError
from .surface import EDGE_CURVE, HEX_SIDES, OTHER_HEX, hex_neighbors, shared_vertex

# the vertex where two sides of a hexagon meet
_CORNER = {(e, f): shared_vertex(e, f) for h in range(4) for e in HEX_SIDES[h]
           for f in hex_neighbors(h, e)}


def is_index2_pass(steps, i: int) -> bool:
    """Is arc i a corner pass crossing an index-2 A/B/C edge?"""
    e1, e2 = steps[i][0], steps[(i + 1) % len(steps)][0]
    return (e1, e2) in _CORNER and bool((e1 if EDGE_CURVE[e1] < 3 else e2) & 1)


class Slides:
    """A realizable word, its class counts and its crossings' ranks along edges.

    Position p on edge e has rank slot[p] - base[e] (0 nearest the origin),
    read off one trace of the start word's normal curve (which enters the
    word in the set of verified words, `curve._VERIFIED`).  The corner pass at
    arc i, at vertex v, slides iff both its crossings are nearest v on their
    edges and its three rewritten arcs add no spur and no interleaving chord
    class, the verdict re-embedding the slid word gives.  The slide is then
    an isotopy across v: only its two crossings move, to the v ends of the
    other two edges at v, so each decision and update takes constant time.
    """

    def __init__(self, steps: list[Step]):
        n, size = len(steps), Counter(e for e, _ in steps)
        code = _encode(steps)
        self.counts, path, r = _trace(code)
        _VERIFIED.add(_least_rotation(code))
        self.steps, self.size = steps, [size[e] for e in range(12)]
        self.base = [sum(self.size[:e]) for e in range(12)]
        self.slot = [path[(p - r) % n] >> 1 for p in range(n)]
        self.mask = sum(1 << c for c, k in enumerate(self.counts) if k)

    def rank(self, p: int) -> int:
        return self.slot[p] - self.base[self.steps[p][0]]

    def _arc(self, k: int) -> int:
        e, h = self.steps[k]
        return _ARC_CLASS[48 * e + 12 * h + self.steps[(k + 1) % len(self.steps)][0]]

    def slide(self, i: int) -> bool:
        """Slide the corner pass at arc i across its vertex if the word stays realizable."""
        steps, base, size = self.steps, self.base, self.size
        j = (i + 1) % len(steps)
        (e1, h1), (e2, h2) = steps[i], steps[j]
        f1, f2 = e2 ^ 1, e1 ^ 1  # the crossing order swaps
        g1 = OTHER_HEX[f1][OTHER_HEX[e1][h1]]
        if OTHER_HEX[f2][g1] != h2:
            raise InternalInvariantError("corner slide broke the chain")
        v = _CORNER[e1, e2]
        for p, e in ((i, e1), (j, e2)):
            if self.rank(p) != (0 if _ORIGIN[e] == v else size[e] - 1):
                return False
        arcs = {(i - 1) % len(steps), i, j}
        old, kept = [self._arc(k) for k in arcs], (steps[i], steps[j])
        steps[i], steps[j] = (f1, g1), (f2, h2)
        new = [self._arc(k) for k in arcs]
        if min(new) >= 0:  # no spur
            counts, mask = self.counts[:], self.mask
            for c in old:
                counts[c] -= 1
            for c in new:
                counts[c] += 1
            for c in old + new:
                mask = mask | 1 << c if counts[c] else mask & ~(1 << c)
            if not any(_CLASS_CROSSES[c] & mask for c in new):  # no interleaving
                self.counts, self.mask = counts, mask
                for p, e, f in ((i, e1, f1), (j, e2, f2)):  # leave e, arrive on f, at v
                    size[e] -= 1
                    base[e] += _ORIGIN[e] == v
                    base[f] -= _ORIGIN[f] == v
                    self.slot[p] = base[f] if _ORIGIN[f] == v else base[f] + size[f]
                    size[f] += 1
                return True
        steps[i], steps[j] = kept
        return False


def slide_corners(steps: list[Step]) -> list[Step]:
    """Slide every index-2 corner pass of a minimal word that can slide, in place."""
    slides, n = Slides(steps), len(steps)
    # flags[i]: is arc i an index-2 pass?  A slide at i rewrites steps i and
    # i+1, so only arcs i-1, i and i+1 can change.
    flags = bytearray(is_index2_pass(steps, i) for i in range(n))
    for _ in range(n + 8):
        # one sweep: attempt each index-2 pass once, keeping valid slides;
        # a slide rewrites two entries in place, so the sweep can continue.
        # Every pass is retried on the next sweep: a slide anywhere can change
        # the pairing families that blocked a distant pass, so narrower retry
        # policies lose route independence.
        progressed = False
        i = flags.find(1)
        while i >= 0:
            if slides.slide(i):
                progressed = True
                for k in (i - 1, i, (i + 1) % n):
                    flags[k] = is_index2_pass(steps, k)
                i = flags.find(1, i + 2)
            else:
                i = flags.find(1, i + 1)
        if not progressed:
            return steps
    raise InternalInvariantError("canonicalization failed to stabilize")
