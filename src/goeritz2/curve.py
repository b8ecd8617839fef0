"""Simple closed curves on the six-curve complex as cyclic crossing words.

A curve transverse to the system is the cyclic sequence of its edge crossings;
each step records the edge crossed and the hexagon entered.  The in-hexagon
arcs are then chords between sides, and a curve is embeddable iff its chords
can be drawn disjointly.  Minimal position is reached by removing spurs and
generalized bigons (kernel), after which the word is re-embedded canonically
from its normal coordinates.  Two curves are compared by
`action.curve_key`, their 24 intersection numbers.

A word is stored as its code, one byte 4e+h per step (`CurveWord.code`);
`steps` decodes it on demand.  The kernel, re-embedding, rotation and counts
all work on the code: curve counts are one `translate` and six `count`s, and
the least rotation is found by slice comparisons among the positions of the
least byte, which membership tests find.

Arc and disk queries read subsequences of the code.  An arc runs from one
A/B/C crossing to the next and stays in the pants it enters, as every X/Y/Z
edge borders two hexagons of one pants (checked in `surface`).  One
`translate` gives the A/B/C positions (`_arc_starts`); an arc's type, pants
and edges are one table lookup on the bytes at two consecutive ones, and
`split_arcs` slices the code between them.  A curve bounds a disk in V (W)
iff the X/Y/Z (A/B/C) curves it crosses cancel to nothing.

Re-embedding is table-driven and linear in the word length.  Static tables,
built once at import from `surface`, number the 60 chord classes and hold
each class's interleave bitmask and each edge side's fan order.  The class of
every arc is one byte, read for all arcs at once from two translated copies
of the code by a big-integer OR; membership tests find the present classes
and `count`s their sizes.  The normal multicurve with those counts becomes a
successor table over crossing states.  The present class ends, in slot
order, tile the slots once along the first sides of the edges and once
along the second sides, so each half of the table is one slice assignment
of chained spans, cut from one shared list of state numbers.  The counts of
n crossings re-embed as one curve iff the walk of n - 1 successors from the
first state closes there without passing it again; the traced bytes are
then compared with the input by substring tests in both directions.

That check's verdict depends only on the cyclic word, so each word is traced
once per process: a set of verified words (`_VERIFIED`) holds the least
rotations whose trace passed, and `_reembed` and `validate` trace only a
word not in it.  A word whose trace raises is never recorded.  The set is
bounded by 128 KiB of codes, which holds every distinct word of the depth-6
atlas and its round trips, and evicts the oldest words first.
`goeritz2.clear_caches()` empties it with the generator-action memo.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter

from . import kernel
from .kernel import _EDGE_OF_BYTE, _POSITION
from .errors import (
    EmptyAfterNormalization,
    InconsistentCoordinates,
    InternalInvariantError,
    MalformedInput,
    MalformedWord,
    NotEmbeddable,
    ParityViolation,
)
from .surface import (
    CORNER_AFTER,
    CURVE_NAMES,
    EDGE_CURVE,
    EDGE_ENDPOINTS,
    EDGE_HEXES,
    EDGE_OF_TOKEN,
    EDGE_TOKENS,
    HEX_OF_TOKEN,
    HEX_CURVE_SIDE,
    HEX_PANTS,
    HEX_SIDES,
    HEX_TOKENS,
    OTHER_HEX,
    SIDE_POS,
    VERTEX_TOKENS,
    fan_key_from,
)

Step = tuple[int, int]  # (edge id, hexagon entered)

CURVE_FORMAT = "goeritz-curve/1"


# vertex from which crossings along each edge are counted (lower token name)
_ORIGIN = tuple(min(EDGE_ENDPOINTS[e], key=VERTEX_TOKENS.__getitem__) for e in range(12))


# ------------------------------------------------------------------ the word


class CurveWord:
    """A closed curve as a cyclic word of (edge, hexagon-entered) steps.

    The word is stored as its code, one byte 4e+h per step; `steps` decodes
    it.  `CurveWord(steps)` takes a step sequence or its code.
    """

    __slots__ = ("code", "normalized")

    def __init__(self, steps, normalized: bool = False):
        self.code = steps if isinstance(steps, bytes) else _encode(steps)
        self.normalized = normalized

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(map(_STEP_OF_BYTE.__getitem__, self.code))

    def __len__(self) -> int:
        return len(self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveWord) and \
            _least_rotation(self.code) == _least_rotation(other.code)

    def __hash__(self) -> int:
        return hash(_least_rotation(self.code))

    def __repr__(self) -> str:
        body = " ".join(f"{EDGE_TOKENS[x >> 2]}>{HEX_TOKENS[x & 3]}" for x in self.code)
        return f"CurveWord[{body}]"

    def tokens(self) -> list[list[str]]:
        return [[EDGE_TOKENS[x >> 2], HEX_TOKENS[x & 3]] for x in self.code]

    @staticmethod
    def from_tokens(pairs) -> "CurveWord":
        steps = []
        for pair in pairs:
            try:
                et, ht = pair
                steps.append((EDGE_OF_TOKEN[et], HEX_OF_TOKEN[ht]))
            except (KeyError, ValueError, TypeError):
                raise MalformedInput(f"bad step token {pair!r}") from None
        return validate(steps)


def _check_chain(steps: list[Step]) -> None:
    n = len(steps)
    if n == 0:
        raise MalformedWord("empty step list")
    for i in range(n):
        e, h = steps[i]
        if h not in EDGE_HEXES[e]:
            raise MalformedWord(
                f"step {i}: {HEX_TOKENS[h]} is not adjacent to {EDGE_TOKENS[e]}")
        e2, h2 = steps[(i + 1) % n]
        if SIDE_POS[h][e2] < 0:
            raise MalformedWord(
                f"step {i}: next edge {EDGE_TOKENS[e2]} is not a side of {HEX_TOKENS[h]}")
        if h2 != OTHER_HEX[e2][h]:
            raise MalformedWord(
                f"step {i + 1}: expected hexagon {HEX_TOKENS[OTHER_HEX[e2][h]]}")


def _check_parity(steps: list[Step]) -> None:
    abc = sum(1 for e, _ in steps if EDGE_CURVE[e] < 3)
    xyz = len(steps) - abc
    if abc % 2 or xyz % 2:
        raise ParityViolation(f"crossing parities: ABC={abc}, XYZ={xyz}")


def _check_embeddable(steps: list[Step]) -> None:
    code = _encode(steps)
    # chord classes present in a hexagon must not interleave (spur chords exempt)
    present = 0
    for i in set(_arc_classes(code)) - {_SPUR_ARC}:
        present |= 1 << i
    for i, (h, e1, e2) in enumerate(_CLASS_KEYS):
        clash = present & _CLASS_CROSSES[i] & -(2 << i) if present >> i & 1 else 0
        if clash:
            j = (clash & -clash).bit_length() - 1
            raise NotEmbeddable(
                f"chords {(EDGE_TOKENS[e1], EDGE_TOKENS[e2])} and "
                f"{tuple(EDGE_TOKENS[x] for x in _CLASS_KEYS[j][1:])} "
                f"interleave in {HEX_TOKENS[h]}")
    # complete for a spur-free word: its counts re-embed as one curve tracing it
    core = kernel.remove_spurs(code)
    if core:
        least = _least_rotation(core)
        if least in _VERIFIED:
            return
        try:
            _trace(core)
        except (InternalInvariantError, NotEmbeddable) as exc:
            _check_edge_orders(core)  # the more specific reason, where it applies
            raise NotEmbeddable(f"spur-free word is not one embedded curve: {exc}") from None
        _VERIFIED.add(least)


def _check_edge_orders(core: bytes) -> None:
    """Per-edge order consistency of a spur-free word's crossings."""
    n = len(core)
    keyed: dict[int, list[tuple[int, ...]]] = {}
    for i, x in enumerate(core):
        # chord on the entered side lives in h, chord behind lives in the other hexagon
        e, h = x >> 2, x & 3
        side_chord = {h: core[(i + 1) % n] >> 2, OTHER_HEX[e][h]: core[i - 1] >> 2}
        keyed.setdefault(e, []).append(
            tuple(fan_key_from(k, e, side_chord[k], _ORIGIN[e]) for k in EDGE_HEXES[e]))
    for e, ks in keyed.items():
        ks.sort()
        for (a1, b1), (a2, b2) in zip(ks, ks[1:]):
            if b2 < b1:
                raise NotEmbeddable(
                    f"crossing order along {EDGE_TOKENS[e]} is not realizable")


def validate(steps) -> CurveWord:
    """Check the chain, parity and embeddability conditions."""
    steps = [(int(e), int(h)) for e, h in steps]
    _check_chain(steps)
    _check_parity(steps)
    _check_embeddable(steps)
    return CurveWord(steps)


# ------------------------------------------------------------- coordinates
#
# Re-embedding runs on small integers.  A step (e, h) is the byte 4e+h, so an
# encoded word sorts like its step tuples.  The 60 chord classes (h, lo, hi)
# are numbered in sorted key order.  Crossing slot s of edge e is the global
# slot off[e] + s, and state 2g+k is "at slot g, entering EDGE_HEXES[e][k]";
# a normal multicurve is a successor table over these states.


def _encode(steps) -> bytes:
    return bytes(4 * e + h for e, h in steps)


def _ascending(h: int, e: int) -> bool:
    """Does the stored boundary of h walk side e in increasing slot order?"""
    return _ORIGIN[e] == CORNER_AFTER[(SIDE_POS[h][e] - 1) % 6]


_CLASS_KEYS = tuple((h, e1, e2) for h in range(4) for e1 in range(12) for e2 in range(e1 + 1, 12)
                    if SIDE_POS[h][e1] >= 0 and SIDE_POS[h][e2] >= 0)
# a class may be keyed with its two edges in either order
_CLASS_OF = {(h, e1, e2): i for i, (h, e, f) in enumerate(_CLASS_KEYS)
             for e1, e2 in ((e, f), (f, e))}
# side positions (lo < hi) of each class's chord on its hexagon's boundary
_CLASS_SPAN = tuple(tuple(sorted((SIDE_POS[h][e1], SIDE_POS[h][e2])))
                    for h, e1, e2 in _CLASS_KEYS)
# edge sides (2e+k) of each class's lo and hi end
_CLASS_ENDS = tuple((2 * e1 + EDGE_HEXES[e1].index(h), 2 * e2 + EDGE_HEXES[e2].index(h))
                    for h, e1, e2 in _CLASS_KEYS)
# strands of a class pair slots in opposite order along its two sides
_CLASS_ANTI = tuple(_ascending(h, e1) == _ascending(h, e2) for h, e1, e2 in _CLASS_KEYS)


def _crossing_classes(i: int) -> int:
    """Bitmask of the classes whose chords cross the chord of class i."""
    (a, b), h = _CLASS_SPAN[i], _CLASS_KEYS[i][0]
    mask = 0
    for j, (c, d) in enumerate(_CLASS_SPAN):
        if (a < c < b < d or c < a < d < b) and _CLASS_KEYS[j][0] == h:
            mask |= 1 << j
    return mask


def _fans() -> tuple[tuple[int, ...], ...]:
    """Class ends 2i+(0 lo, 1 hi) on each edge side, in slot order from the edge's origin."""
    keyed: list[list[tuple[int, int]]] = [[] for _ in range(24)]
    for i, (h, e1, e2) in enumerate(_CLASS_KEYS):
        for end, (e, other) in enumerate(((e1, e2), (e2, e1))):
            key = fan_key_from(h, e, other, _ORIGIN[e])
            keyed[_CLASS_ENDS[i][end]].append((key, 2 * i + end))
    return tuple(tuple(end for _, end in sorted(k)) for k in keyed)


_CLASS_CROSSES = tuple(map(_crossing_classes, range(len(_CLASS_KEYS))))
_FAN = _fans()
# class of the arc entering by step byte x and leaving by edge y: _ARC_CLASS[12x+y];
# -1 for a spur (y is the entry edge), -2 if the two edges are not sides of one hexagon
_ARC_CLASS = tuple(-1 if x >> 2 == y else _CLASS_OF.get((x & 3, x >> 2, y), -2)
                   for x in range(48) for y in range(12))
# step bytes of the two states 2g, 2g+1 of a slot on edge e
_SLOT_BYTES = tuple(bytes(4 * e + h for h in EDGE_HEXES[e]) for e in range(12))
_STEP_OF_BYTE = tuple((x >> 2, x & 3) for x in range(48))
# step byte of the same crossing traversed backwards
_REVERSED = bytes(4 * (x >> 2) + OTHER_HEX[x >> 2].get(x & 3, x & 3) if x < 48 else x
                  for x in range(256))
# system curve (0..5) of each step byte's edge, and that curve's letter
_CURVE_OF_BYTE = bytes(EDGE_CURVE[x >> 2] if x < 48 else 255 for x in range(256))
_LETTER_OF_BYTE = bytes(CURVE_NAMES[c].encode()[0] if c < 6 else 0 for c in _CURVE_OF_BYTE)
_ABC_BYTES = bytes(x for x in range(48) if EDGE_CURVE[x >> 2] < 3)
_XYZ_BYTES = bytes(x for x in range(48) if EDGE_CURVE[x >> 2] >= 3)
# doubled letters of the curves each system's disk test reads: X/Y/Z in V, A/B/C in W
_DOUBLED_CURVES = {"V": tuple(bytes((c, c)) for c in range(3, 6)),
                   "W": tuple(bytes((c, c)) for c in range(3))}


def _arc_table() -> bytes:
    """Class id (or _SPUR_ARC) of the arc byte (h << 6) | (p << 3) | q: in
    hexagon h, from the side at curve position p to the side at position q."""
    table = bytearray(b"\xff" * 256)
    for h in range(4):
        for e in HEX_SIDES[h]:
            for f in HEX_SIDES[h]:
                arc = h << 6 | _POSITION[4 * e] << 3 | _POSITION[4 * f]
                table[arc] = _SPUR_ARC if e == f else _CLASS_OF[h, e, f]
    return bytes(table)


# An arc enters a hexagon by one step and leaves it by the next.  Its byte is
# (_ARC_FROM[x] | _POSITION[y]), which names its class when y's edge is a side
# of x's hexagon: the hexagon's side of curve type t (0 A/B/C, 1 X/Y/Z) is edge
# 2c + bit t of _SIDE_BITS, and _TYPE_BIT holds a step's own bit at its type.
_SPUR_ARC = 254
_ARC_OF = _arc_table()
_ARC_FROM = bytes((x & 3) << 6 | _POSITION[x] << 3 if x < 48 else 0 for x in range(256))
_STEP_BYTES = bytes(4 * e + h for e in range(12) for h in EDGE_HEXES[e])
_SIDE_BITS = bytes((HEX_CURVE_SIDE[x & 3][0] & 1) | (HEX_CURVE_SIDE[x & 3][3] & 1) << 1
                   for x in range(256))
_TYPE_MASK = bytes(1 << (EDGE_CURVE[x >> 2] >= 3) if x < 48 else 0 for x in range(256))
_TYPE_BIT = bytes((x >> 2 & 1) << (EDGE_CURVE[x >> 2] >= 3) if x < 48 else 0 for x in range(256))


def _big(w: bytes, table: bytes) -> int:
    return int.from_bytes(w.translate(table), "big")


def _arc_classes(w: bytes) -> bytes:
    """Class id of every arc of an encoded word, or _SPUR_ARC, in one byte each
    (arc i enters by step i and leaves by step i+1)."""
    nw = w[1:] + w[:1]
    if w.translate(None, _STEP_BYTES) or \
            _big(w, _SIDE_BITS) & _big(nw, _TYPE_MASK) != _big(nw, _TYPE_BIT):
        _raise_bad_arc(w, nw)
    return (_big(w, _ARC_FROM) | _big(nw, _POSITION)).to_bytes(len(w), "big").translate(_ARC_OF)


def _raise_bad_arc(w: bytes, nw: bytes) -> None:
    """Raise for a word with an arc whose two sides are not sides of one hexagon."""
    bad = None
    for x, y in dict.fromkeys(zip(w, nw)):
        i = _ARC_CLASS[12 * x + (y >> 2)]
        if i == -1:
            raise InternalInvariantError("coordinates of a word with spurs")
        if i == -2:
            bad = (x & 3, *sorted((x >> 2, y >> 2)))
    raise InconsistentCoordinates("bad chord class ({},{},{})".format(*bad))


def _arc_counts(w: bytes) -> list[int]:
    """Chord-class counts of an encoded word, indexed by class id."""
    arcs = _arc_classes(w)
    if _SPUR_ARC in arcs:
        raise InternalInvariantError("coordinates of a word with spurs")
    counts = [0] * len(_CLASS_KEYS)
    for i in range(len(_CLASS_KEYS)):
        if i in arcs:
            counts[i] = arcs.count(i)
    return counts


def to_coordinates(w: CurveWord) -> dict[tuple[int, int, int], int]:
    """Chord-class counts {(hexagon, lo edge, hi edge): n}.  Word must be spur-free."""
    counts = _arc_counts(w.code)
    return {_CLASS_KEYS[i]: c for i, c in enumerate(counts) if c}


def _class_counts(coords) -> list[int]:
    """Normal coordinates as a list of class counts."""
    counts = [0] * len(_CLASS_KEYS)
    for (h, e1, e2), c in {k: int(v) for k, v in coords.items() if v}.items():
        i = _CLASS_OF.get((h, e1, e2))
        if i is None or c < 0:
            raise InconsistentCoordinates(f"bad chord class ({h},{e1},{e2})")
        counts[i] += c
    return counts


# State numbers 0, 1, 2, ...: each span of the successor table is a slice of
# this list, so states are not made again per class.  `_states` grows it to
# the largest word seen by rebinding, so a list in use never changes.
_STATES = list(range(2048))


def _states(size: int) -> list[int]:
    global _STATES
    states = _STATES
    if len(states) < size:
        states = _STATES = list(range(size))
    return states


# The 120 class ends 2i+(0 lo, 1 hi) in slot order: those on the first side
# (2e) of each edge, edge by edge, then those on the second sides (2e+1).
_ENDS = tuple(end for k in (0, 1) for e in range(12) for end in _FAN[2 * e + k])
_END_CLASS = tuple(end >> 1 for end in _ENDS)
# per end id: a strand that enters the class's hexagon at this end leaves it
# across the partner end's edge, so its next state has the other bit k there
_END_EXIT = tuple(1 - (_CLASS_ENDS[end >> 1][1 - (end & 1)] & 1)
                  for end in range(2 * len(_CLASS_KEYS)))


def _embedding(counts: list[int]) -> tuple[list[int], bytes]:
    """Successor table and state bytes of the normal multicurve with these counts.

    Checks that no two classes present in a hexagon interleave and that both
    sides of every edge carry the same number of crossings.  The present
    class ends, in slot order, tile the slots once along the first sides of
    the edges and once along the second sides; each end's states lead to the
    slots of its partner end, so each side's successors are one chain of
    spans, assigned as one slice.
    """
    present = list(compress(range(len(counts)), counts))
    mask = sum(1 << i for i in present)
    for i in present:
        if _CLASS_CROSSES[i] & mask:
            raise NotEmbeddable(
                f"interleaving chord classes in {HEX_TOKENS[_CLASS_KEYS[i][0]]}")
    crossings = [0] * 24  # per edge side 2e+k
    for i in present:
        lo, hi = _CLASS_ENDS[i]
        crossings[lo] += counts[i]
        crossings[hi] += counts[i]
    for e in range(12):
        if crossings[2 * e] != crossings[2 * e + 1]:
            raise InconsistentCoordinates(
                f"edge {EDGE_TOKENS[e]} endpoint counts differ: {crossings[2 * e:2 * e + 2]}")
    code = b"".join([_SLOT_BYTES[e] * crossings[2 * e] for e in range(12)])
    n = len(code) >> 1
    sizes = list(map(counts.__getitem__, _END_CLASS))
    ends, sizes = list(compress(_ENDS, sizes)), list(filter(None, sizes))
    # the present ends on first sides fill slots 0..n-1 in order, then those
    # on second sides fill them again
    start, pos, first = [0] * len(_ENDS), 0, 0
    for t, (end, c) in enumerate(zip(ends, sizes)):
        if pos == n:
            first, pos = t, 0
        start[end] = pos
        pos += c
    states, spans = _states(len(code)), []
    for end, c in zip(ends, sizes):
        # a descending span down to state 0 or 1 needs stop None: -1 would wrap
        lo = 2 * start[end ^ 1] + _END_EXIT[end]
        spans.append(states[lo + 2 * c - 2:lo - 2 if lo > 1 else None:-2]
                     if _CLASS_ANTI[end >> 1] else states[lo:lo + 2 * c:2])
    nxt = [0] * len(code)
    nxt[0::2] = list(chain.from_iterable(spans[:first]))
    nxt[1::2] = list(chain.from_iterable(spans[first:]))
    return nxt, code


def _traces(nxt: list[int]):
    """State paths of all components, in order of their lowest slot.

    Each path starts at that slot, entering the second hexagon of its edge.
    """
    seen = bytearray(len(nxt) // 2)
    for g in range(len(seen)):
        if not seen[g]:
            start = 2 * g + 1
            path = [start]
            append = path.append
            d = nxt[start]
            while d != start:
                append(d)
                d = nxt[d]
            yield path
            for d in path:
                seen[d >> 1] = 1


def _path_code(code: bytes, path: list[int]) -> bytes:
    """The step bytes of a state path, read by one itemgetter call."""
    return bytes(itemgetter(*path)(code)) if len(path) > 1 else code[path[0]:path[0] + 1]


def from_normal_coordinates(coords) -> list[CurveWord]:
    """All components of the unique normal multicurve with these chord counts."""
    nxt, code = _embedding(_class_counts(coords))
    return [CurveWord(_path_code(code, path)) for path in _traces(nxt)]


# ------------------------------------------------------------- normalization


def reversed_steps(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The same curve traversed backwards."""
    return tuple((e, OTHER_HEX[e][h]) for e, h in reversed(steps))


def _least_rotation(w: bytes) -> bytes:
    """The lexicographically least rotation of w.

    It starts at an occurrence of the least byte, found by membership tests
    in increasing byte order.  The rotations that start there are compared by
    slices of w + w: first on a short prefix, then on prefixes four times
    longer among those tied, up to their full length.
    """
    n = len(w)
    if n < 2:
        return w
    least = next(filter(w.__contains__, range(256)))
    ww, pieces = w + w, w.split(bytes((least,)))
    # the least byte's positions: the lengths of the pieces before each, plus its index
    starts = list(map(add, accumulate(map(len, pieces[:-1])), count()))
    k = 8
    while len(starts) > 1:
        k = min(k, n)
        heads = list(map(ww.__getitem__, map(slice, starts, map(k.__add__, starts))))
        best = min(heads)
        starts = list(compress(starts, map(best.__eq__, heads)))
        if k == n:
            break
        k *= 4
    return ww[starts[0]:starts[0] + n]


def _reversed(w: bytes) -> bytes:
    """Code of the same curve traversed backwards."""
    return w[::-1].translate(_REVERSED)


def canonical_unoriented(w: CurveWord) -> bytes:
    """Rotation- and reversal-minimal form of the code."""
    return min(_least_rotation(w.code), _least_rotation(_reversed(w.code)))


def _theta_letters(code: bytes, system: str) -> list[str]:
    """Letters of the X/Y/Z crossings (system V) or the A/B/C crossings (W), in order."""
    return list(code.translate(_LETTER_OF_BYTE, _ABC_BYTES if system == "V" else _XYZ_BYTES)
                .decode())


def _bounds_disk(code: bytes, system: str) -> bool:
    """Does the curve bound a disk in V (W)?  The X/Y/Z (A/B/C) curves it
    crosses, a word in the free product of three copies of Z/2, must cancel
    to nothing; a reduced word stays nonempty when also read cyclically.

    Cancellation is confluent, so one round of deleting the doubled letters
    (one replace each) runs before the stack loop finishes the cascades."""
    word = code.translate(_CURVE_OF_BYTE, _ABC_BYTES if system == "V" else _XYZ_BYTES)
    for pair in _DOUBLED_CURVES[system]:
        word = word.replace(pair, b"")
    stack: list[int] = []
    for c in word:
        if stack and stack[-1] == c:
            stack.pop()
        else:
            stack.append(c)
    return not stack


def normalize(w: CurveWord) -> CurveWord:
    """Minimal position: spur and generalized-bigon removal, then re-embedding."""
    code, _ = kernel.normalize_steps(w.code)
    if not code:
        raise EmptyAfterNormalization("curve is null-homotopic")
    return _reembed(code)


def _trace(w: bytes) -> tuple[list[int], list[int], int]:
    """Class counts, traced states and alignment of an encoded minimal word.

    The counts must re-embed as a single normal curve that traces w forwards
    or backwards (then the path is reversed): position p is path[(p - r) % n].
    """
    counts = _arc_counts(w)
    nxt, code = _embedding(counts)
    # the slots number n = len(w), so one cycle of n states is the only component
    n, path, d = len(w), [1], 1
    append = path.append
    for _ in repeat(None, n - 1):
        d = nxt[d]
        append(d)
    if not n or nxt[d] != 1 or path.count(1) > 1:
        found = sum(1 for _ in _traces(nxt))
        raise InternalInvariantError(f"minimal word re-embedded into {found} components")
    traced, ww = _path_code(code, path), w + w
    r = ww.find(traced)
    if r < 0:
        r = ww.find(traced[::-1].translate(_REVERSED))
        if r < 0:
            raise InternalInvariantError("re-embedding changed the cyclic word")
        path.reverse()
    return counts, path, r


# Total code bytes the set of verified words may hold.
_VERIFIED_BYTES = 128 * 1024


class _VerifiedWords(OrderedDict):
    """Least rotations of the codes whose `_trace` passed, oldest first.

    The verdict depends only on the cyclic word, so a word found here needs
    no new trace.  `add` evicts the oldest codes while the set holds more
    than `_VERIFIED_BYTES` bytes of codes.
    """

    size = 0

    def add(self, least: bytes) -> None:
        if least in self:
            return
        self[least] = None
        self.size += len(least)
        while self.size > _VERIFIED_BYTES:
            self.size -= len(self.popitem(last=False)[0])

    def clear(self) -> None:
        super().clear()
        self.size = 0


_VERIFIED = _VerifiedWords()


def _reembed(code: bytes) -> CurveWord:
    """Canonical embedded realization of a minimal word's code; verifies class
    invariants (`_trace`, once per cyclic word) and returns the word's least
    rotation."""
    least = _least_rotation(code)
    if least not in _VERIFIED:
        _trace(code)
        _VERIFIED.add(least)
    return CurveWord(least, normalized=True)


def ensure_normal(w: CurveWord) -> CurveWord:
    return w if w.normalized else normalize(w)


def canonical_form(w: CurveWord) -> CurveWord:
    """The `normalize()` word of w.

    The name exists only for the benchmark's tracer, which looks it up, and
    goes away with ROADMAP item 5.
    """
    return ensure_normal(w)


def signature(w: CurveWord) -> tuple[int, ...]:
    """The 24 intersection numbers of w (`action.curve_key`).

    The name exists only for the benchmark's tracer, which looks it up, and
    goes away with ROADMAP item 5.
    """
    from .action import curve_key  # action builds on this module
    return curve_key(w)


# ------------------------------------------------------------------- queries


@dataclass(frozen=True)
class Counts:
    a: int
    b: int
    c: int
    x: int
    y: int
    z: int

    def abc(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def total_abc(self) -> int:
        return self.a + self.b + self.c

    def as_tuple(self) -> tuple[int, ...]:
        return (self.a, self.b, self.c, self.x, self.y, self.z)


def counts(w: CurveWord) -> Counts:
    curves = ensure_normal(w).code.translate(_CURVE_OF_BYTE)
    return Counts(*map(curves.count, range(6)))


def is_separating(w: CurveWord) -> bool:
    """Mod-2 homology test against the symplectic pairs (B,Z) and (C,Y)."""
    c = counts(w)
    return c.b % 2 == 0 and c.c % 2 == 0 and c.y % 2 == 0 and c.z % 2 == 0


ARC_TYPES = ("AA", "AB", "AC", "BB", "BC", "CC")
_FORBIDDEN_PAIRS = (("AA", "BB"), ("AA", "BC"), ("AA", "CC"),
                    ("AB", "CC"), ("AC", "BB"), ("BB", "CC"))


@dataclass(frozen=True)
class Arc:
    """A component arc of the curve on one pair of pants."""

    pants: int                   # 1 or 2
    start_edge: int              # A/B/C edge crossed at the start
    end_edge: int                # A/B/C edge crossed at the end
    inner_edges: tuple[int, ...]  # X/Y/Z crossings, in order
    inner_hexes: tuple[int, ...]  # hexagons entered at those crossings

    @property
    def type(self) -> str:
        return _ARC_OF_ENDS[96 * self.start_edge + 4 * self.end_edge][0]


# (type, pants) of the arc from A/B/C step byte x to y: _ARC_OF_ENDS[24x+y]
_ARC_OF_ENDS = tuple(
    ("".join(sorted(CURVE_NAMES[EDGE_CURVE[x >> 2]] + CURVE_NAMES[EDGE_CURVE[y >> 2]])),
     HEX_PANTS[x & 3]) for x in range(24) for y in range(24))
_IS_ABC = bytes(x < 48 and EDGE_CURVE[x >> 2] < 3 for x in range(256))
_HEX_OF_BYTE = bytes(x & 3 for x in range(256))


def _arc_starts(code: bytes) -> list[int]:
    """Positions of the A/B/C crossings of a code: arc k runs from the k-th to the next."""
    return list(compress(count(), code.translate(_IS_ABC)))


def _arc_ends(code: bytes) -> list[tuple[str, int]]:
    """(type, pants) of each arc, read from its two ends."""
    ends = bytes(map(code.__getitem__, _arc_starts(code)))
    return [_ARC_OF_ENDS[24 * x + y] for x, y in zip(ends, ends[1:] + ends[:1])]


def split_arcs(w: CurveWord) -> list[Arc]:
    """Cut the cyclic word at its A/B/C crossings, in traversal order: each arc
    is the slice of the code between two consecutive ones, so it crosses only
    X/Y/Z edges inside and stays in the pants it enters."""
    code = ensure_normal(w).code
    starts = _arc_starts(code)
    arcs = []
    for i, j in zip(starts, starts[1:] + starts[:1]):
        inner = code[i + 1:j] if i < j else code[i + 1:] + code[:j]
        arcs.append(Arc(HEX_PANTS[code[i] & 3], code[i] >> 2, code[j] >> 2,
                        tuple(inner.translate(_EDGE_OF_BYTE)),
                        tuple(inner.translate(_HEX_OF_BYTE))))
    return arcs


def arc_census(w: CurveWord) -> dict[tuple[str, int], int]:
    """Counts |DE|_i of arc types per pair of pants, read from the arcs' ends
    (`_arc_ends`): no arc is built."""
    return _census(_arc_ends(ensure_normal(w).code))


def _census(arcs: list[tuple[str, int]]) -> dict[tuple[str, int], int]:
    """Arc-type counts per pair of pants; raises if a forbidden pair coexists."""
    census = {(t, i): 0 for t in ARC_TYPES for i in (1, 2)}
    for arc in arcs:
        census[arc] += 1
    for t1, t2 in _FORBIDDEN_PAIRS:
        for i in (1, 2):
            if census[(t1, i)] and census[(t2, i)]:
                raise NotEmbeddable(
                    f"incompatible arc types {t1},{t2} coexist on pants {i}")
    return census


# ------------------------------------------------------------- serialization


def to_doc(w: CurveWord) -> dict:
    w = ensure_normal(w)
    return {"format": CURVE_FORMAT, "representation": "steps", "steps": w.tokens()}


def coordinates_doc(w: CurveWord) -> dict:
    w = ensure_normal(w)
    coords = to_coordinates(w)
    nested: dict[str, dict[str, int]] = {}
    for (h, e1, e2), c in sorted(coords.items()):
        nested.setdefault(HEX_TOKENS[h], {})[f"{EDGE_TOKENS[e1]}-{EDGE_TOKENS[e2]}"] = c
    return {"format": CURVE_FORMAT, "representation": "normal", "coordinates": nested}


def from_doc(doc: dict) -> CurveWord:
    if not isinstance(doc, dict) or doc.get("format") != CURVE_FORMAT:
        raise MalformedInput(f"not a {CURVE_FORMAT} document")
    rep = doc.get("representation")
    if rep == "steps":
        steps = doc.get("steps", [])
        if not isinstance(steps, list):
            raise MalformedInput(f"steps must be a list, not {type(steps).__name__}")
        return CurveWord.from_tokens(steps)
    if rep == "normal":
        coords = {}
        hexes = doc.get("coordinates") or {}
        if not isinstance(hexes, dict):
            raise MalformedInput(f"coordinates must be an object, not {type(hexes).__name__}")
        for ht, chords in hexes.items():
            if ht not in HEX_OF_TOKEN:
                raise MalformedInput(f"unknown hexagon {ht!r}")
            if not isinstance(chords, dict):
                raise MalformedInput(f"chords of {ht} must be an object, not {type(chords).__name__}")
            for pair, c in chords.items():
                try:
                    t1, t2 = pair.split("-")
                    e1, e2 = EDGE_OF_TOKEN[t1], EDGE_OF_TOKEN[t2]
                except (ValueError, KeyError, AttributeError):
                    raise MalformedInput(f"bad side pair {pair!r}") from None
                if type(c) is not int:
                    raise MalformedInput(f"count of {ht} {pair} must be an integer, not {type(c).__name__}")
                coords[(HEX_OF_TOKEN[ht], min(e1, e2), max(e1, e2))] = c
        comps = from_normal_coordinates(coords)
        if len(comps) != 1:
            raise MalformedInput(
                f"normal coordinates describe {len(comps)} components, expected 1")
        return validate(list(comps[0].steps))
    raise MalformedInput(f"unknown representation {rep!r}")


def dumps(w: CurveWord) -> str:
    return json.dumps(to_doc(w), indent=1) + "\n"


def loads(text: str) -> CurveWord:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad curve document: {exc}") from None
    return from_doc(doc)


# ------------------------------------------------------------- stock curves

# already its normalize() word, code 00 19 07 1e
P_CURVE = normalize(CurveWord.from_tokens([["A1", "H1"], ["X1", "H2"], ["A2", "H4"], ["X2", "H3"]]))

PUSHOFFS = {
    "A": CurveWord.from_tokens([["Y1", "H2"], ["Z1", "H1"]]),
    "B": CurveWord.from_tokens([["Z1", "H2"], ["X1", "H1"]]),
    "C": CurveWord.from_tokens([["Y1", "H1"], ["X1", "H2"]]),
    "X": CurveWord.from_tokens([["B1", "H3"], ["C1", "H1"]]),
    "Y": CurveWord.from_tokens([["C1", "H3"], ["A1", "H1"]]),
    "Z": CurveWord.from_tokens([["A1", "H3"], ["B1", "H1"]]),
}
