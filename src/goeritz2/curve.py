"""Simple closed curves on the six-curve complex as cyclic crossing words.

A curve transverse to the system is the cyclic sequence of its edge crossings;
each step records the edge crossed and the hexagon entered.  The in-hexagon
arcs are then chords between sides, and a curve is embeddable iff its chords
can be drawn disjointly.  Minimal position is reached by removing spurs and
generalized bigons (kernel), after which the word is re-embedded canonically
from its normal coordinates.  Equal codes mean equal curves, but one curve
may have several minimal words; reducing curves are compared exactly by
their reduction certificate words (`reduction`).

A word is stored as its code, one byte 4e+h per step (`CurveWord.code`);
`steps` decodes it on demand.  The kernel, re-embedding, rotation and counts
all work on the code: curve counts are one `translate` and six `count`s, and
the least rotation ranks the pieces between runs of the least byte and finds
the least rotation of the ranks, at most half as long (`_least_rotation`).

Arc and disk queries read subsequences of the code.  An arc runs from one
A/B/C crossing to the next and stays in the pants it enters, as every X/Y/Z
edge borders two hexagons of one pants (checked in `surface`).  One
`translate` gives the A/B/C positions (`_arc_starts`); an arc's type, pants
and edges are one table lookup on the bytes at two consecutive ones, and
`split_arcs` slices the code between them.  `arc_census` reads every arc's
type and pants at once, from big-integer sums over the A/B/C bytes.  A
curve bounds a disk in V (W) iff the X/Y/Z (A/B/C) curves it crosses cancel
to nothing.

Re-embedding is table-driven and linear in the word length.  Static tables,
built once at import from `surface`, number the 60 chord classes and hold
each class's interleave bitmask and each edge side's fan order.  The class of
every arc is one byte, read for all arcs at once by a big-integer OR of two
translated copies of the code.  What depends only on the set of present
classes is built once per set (`_layout`), and each half of the successor
table is one slice assignment of spans of one shared list of state numbers
(`_embedding`).  The counts of n crossings re-embed as one curve iff the
walk of n - 1 successors from the first state closes there without passing
it again, and then the traced bytes are the input's (`_trace`).

That check's verdict depends only on the cyclic word, so normalized curves
are interned: a code has one live `CurveWord`, held weakly in `_CURVES`, and
a curve's facts (`CurveWord`) are computed once while it lives.  The trace
runs only on words from outside: `validate` traces the spur-free core of its
input and hands it to the `normalize` that follows (`_normal`), and
`_reembed` traces a code no live curve holds.  A word whose trace raises is
never interned.  The images of an interned curve under a relabeling, and
under a twist in which the kernel slid no run, are interned untraced
(`action` gives the argument; the tests and `selftest --full` trace them),
and remember the code they were made from (`CurveWord`).
"""

from __future__ import annotations

import json
import re
import weakref
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, compress, count, islice, repeat
from math import gcd
from operator import add, itemgetter, mul

from . import kernel
from .kernel import _EDGE_OF_BYTE, _POSITION
from .errors import (
    EmptyAfterNormalization,
    InconsistentCoordinates,
    InternalInvariantError,
    MalformedInput,
    MalformedWord,
    NotEmbeddable,
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

# the reducing verdict of a word not yet checked (`CurveWord`)
_UNCHECKED = object()

CURVE_FORMAT = "goeritz-curve/1"


# vertex from which crossings along each edge are counted (lower token name)
_ORIGIN = tuple(min(EDGE_ENDPOINTS[e], key=VERTEX_TOKENS.__getitem__) for e in range(12))


# ------------------------------------------------------------------ the word


class CurveWord:
    """A closed curve as a cyclic word of (edge, hexagon-entered) steps.

    The word is stored as its code, one byte 4e+h per step; `steps` decodes
    it.  `CurveWord(steps)` takes a step sequence or its code.

    A normalized word holds three facts of its curve, each filled the first
    time it is asked for: its `Counts` (`counts`), its reducing verdict, the
    `reducing_reason` string or None (`handlebody`; `_UNCHECKED` until
    then), and its reduction pass (`reduction._pass`, once one succeeds).
    They are functions of the code and live and die with the object, of
    which the library makes one per live code (`_CURVES`).  An interned
    image of an interned curve Q under a relabeling, or under a twist in
    which the kernel slid no run, also remembers its first maker
    (`_preimage`): the operation that undoes it, a relabeling name or a
    twist spec `(curves, direction)`, and Q's code, never Q itself.  That
    operation hands back Q's live curve without computing it (`action`).
    `CurveWord(code, normalized=True)` asserts that the code is the least
    rotation of an embedded minimal word: it checks nothing and is not
    interned.  An unnormalized word holds no fact; `validate` may leave it
    its `normalize()` word (`_normal`).
    """

    __slots__ = ("code", "normalized", "_counts", "_reason", "_pass", "_normal", "_preimage",
                 "__weakref__")

    def __init__(self, steps, normalized: bool = False):
        self.code = steps if isinstance(steps, bytes) else _encode(steps)
        self.normalized = normalized
        self._counts = None
        self._reason = _UNCHECKED
        self._pass = None
        self._normal = None
        self._preimage = None

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(map(_STEP_OF_BYTE.__getitem__, self.code))

    def __len__(self) -> int:
        return len(self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveWord) and _cyclic(self) == _cyclic(other)

    def __hash__(self) -> int:
        return hash(_cyclic(self))

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


def _check_embeddable(steps: list[Step]) -> bytes:
    """Raise unless the steps are one embedded curve; return the traced spur-free core."""
    code = _encode(steps)
    # chord classes present in a hexagon must not interleave (spur chords exempt)
    clash = _first_clash(bytes(sorted(set(_arc_classes(code)) - {_SPUR_ARC})))
    if clash:
        (h, *first), (_, *second) = map(_CLASS_KEYS.__getitem__, clash)
        raise NotEmbeddable(
            f"chords {tuple(EDGE_TOKENS[x] for x in first)} and "
            f"{tuple(EDGE_TOKENS[x] for x in second)} interleave in {HEX_TOKENS[h]}")
    # complete for a spur-free word: its counts re-embed as one curve tracing it
    core = kernel.remove_spurs(code)
    if core:
        try:
            _trace(core)
        except (InternalInvariantError, NotEmbeddable) as exc:
            _check_edge_orders(core)  # the more specific reason, where it applies
            raise NotEmbeddable(f"spur-free word is not one embedded curve: {exc}") from None
    return core


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


def _index(i: int, what: str, value, size: int) -> int:
    """An edge or hexagon number of step i, an integer in range(size)."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value or not 0 <= k < size:
        raise MalformedWord(f"step {i}: {what} {value!r} is not an integer in 0-{size - 1}")
    return k


def validate(steps) -> CurveWord:
    """Check the steps' ranges, then the chain and embeddability conditions.

    A closed chain crosses each system of three curves an even number of
    times: every A/B/C edge joins the two pants and every X/Y/Z edge the two
    balls, so no parity check is needed (`ParityViolation` is never raised).
    A traced core in which the kernel slides no run is the `normalize()`
    word, which the word keeps, so the kernel and the trace run once.
    """
    checked = []
    for i, step in enumerate(steps):
        try:
            e, h = step
        except (TypeError, ValueError):
            raise MalformedWord(f"step {i}: {step!r} is not an (edge, hexagon) pair") from None
        checked.append((_index(i, "edge", e, 12), _index(i, "hexagon", h, 4)))
    steps = checked
    _check_chain(steps)
    core = _check_embeddable(steps)
    w = CurveWord(steps)
    if core and not kernel.normalize_steps(core)[1]:
        w._normal = _interned(_least_rotation(core))
    return w


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


def _class_sizes(w: bytes) -> tuple[bytes, list[int]]:
    """The chord classes of an encoded spur-free word's arcs, ascending, and
    how many arcs each has.  A long word's first arcs hold most of its
    classes, so the set reads those and what `translate` leaves of the rest."""
    arcs = _arc_classes(w)
    seen = set(arcs[:64])
    seen.update(arcs.translate(None, bytes(seen)))
    if _SPUR_ARC in seen:
        raise InternalInvariantError("coordinates of a word with spurs")
    present = bytes(sorted(seen))
    return present, list(map(arcs.count, present))


def to_coordinates(w: CurveWord) -> dict[tuple[int, int, int], int]:
    """Chord-class counts {(hexagon, lo edge, hi edge): n}.  Word must be spur-free."""
    present, sizes = _class_sizes(w.code)
    return dict(zip(map(_CLASS_KEYS.__getitem__, present), sizes))


def _class_counts(coords) -> tuple[bytes, list[int]]:
    """Normal coordinates as their classes, ascending, and the class counts."""
    counts = [0] * len(_CLASS_KEYS)
    for (h, e1, e2), c in {k: int(v) for k, v in coords.items() if v}.items():
        i = _CLASS_OF.get((h, e1, e2))
        if i is None or c < 0:
            raise InconsistentCoordinates(f"bad chord class ({h},{e1},{e2})")
        counts[i] += c
    return bytes(compress(count(), counts)), list(filter(None, counts))


def _first_clash(present: bytes) -> tuple[int, int] | None:
    """The first two of these ascending class ids whose chords interleave."""
    mask = sum(1 << i for i in present)
    for i in present:
        clash = _CLASS_CROSSES[i] & mask & -(2 << i)
        if clash:
            return i, (clash & -clash).bit_length() - 1
    return None


# State numbers 0, 1, 2, ...: each span of the successor table is a slice of
# this list, so states are not made again per class.  A longer word gets a
# list of its own (`_embedding`), so outside input never grows the shared one.
_STATES = list(range(2048))


# The 120 class ends 2i+(0 lo, 1 hi) in slot order: those on the first side
# (2e) of each edge, edge by edge, then those on the second sides (2e+1).
_ENDS = tuple(end for k in (0, 1) for e in range(12) for end in _FAN[2 * e + k])


@lru_cache(maxsize=128)  # enumerate_atlas(7) uses 31 class sets
def _layout(present: bytes) -> tuple:
    """Where the ends of a nonempty set of classes (ascending ids) sit.

    Raises NotEmbeddable if two of the classes interleave; a raise is not
    cached.  For the class ends in slot order it returns how many lie on
    first sides, their state bytes and, in bytes: each end's index in the
    class sizes; its partner's index in the slot starts (the first-side
    ends' prefix sums with their total, then the second-side ends'); the
    bit k of the states its strands lead to, as they leave the class's
    hexagon across the partner end's edge; and whether they run against
    the slots.
    """
    clash = _first_clash(present)
    if clash:
        raise NotEmbeddable(
            f"interleaving chord classes in {HEX_TOKENS[_CLASS_KEYS[clash[0]][0]]}")
    ends = [end for end in _ENDS if end >> 1 in present]
    side = {end: _CLASS_ENDS[end >> 1][end & 1] for end in ends}
    first = sum(~side[end] & 1 for end in ends)
    start = {end: t + (t >= first) for t, end in enumerate(ends)}
    return (first, tuple(_SLOT_BYTES[side[end] >> 1] for end in ends),
            bytes(map(present.index, (end >> 1 for end in ends))),
            bytes(start[end ^ 1] for end in ends),
            bytes(~side[end ^ 1] & 1 for end in ends),
            bytes(_CLASS_ANTI[end >> 1] for end in ends))


def _embedding(present: bytes, sizes: list[int], copies: int = 1) -> tuple[list[int], bytes]:
    """Successor table and state bytes of the normal multicurve whose classes
    (ascending ids, `_layout`) have these sizes.

    Checks that no two of the classes interleave in a hexagon and that both
    sides of every edge carry the same number of crossings: the state bytes
    read along the first sides equal those read along the second.  The
    class ends, in slot order, tile the slots once along the first sides of
    the edges and once along the second sides; each end's states lead to the
    slots of its partner end, so each side's successors are one chain of
    spans, assigned as one slice.  The sequences made per call are lists
    and bytes: CPython 3.11 never reuses a freed tuple of 20 items, so
    tuples made per call would pile up.  A count mismatch is reported in
    the numbers of that many parallel copies of the multicurve (`from_doc`).
    """
    if not present:
        return [], b""
    first, slots, size_of, partner, exits, antis = _layout(present)
    ends = list(map(sizes.__getitem__, size_of))
    starts = [*accumulate(ends[:first], initial=0), *accumulate(ends[first:], initial=0)]
    both, n = b"".join(map(mul, slots, ends)), starts[first]
    code, other = both[:2 * n], both[2 * n:]
    if code != other:
        e, sides = next((e, c) for e, c in enumerate([code.count(s), other.count(s)]
                                                     for s in _SLOT_BYTES) if c[0] != c[1])
        raise InconsistentCoordinates(
            f"edge {EDGE_TOKENS[e]} endpoint counts differ: {[copies * c for c in sides]}")
    states = _STATES if 2 * n <= len(_STATES) else list(range(2 * n))
    nxt = [0] * (2 * n)
    spans = zip(map(starts.__getitem__, partner), ends, exits, antis)
    for k, size in enumerate((first, len(ends) - first)):  # the first sides, then the second
        half = []
        for s, c, x, anti in islice(spans, size):
            # a descending span down to state 0 or 1 needs stop None: -1 would wrap
            lo = 2 * s + x
            half += states[lo + 2 * c - 2:lo - 2 if lo > 1 else None:-2] if anti \
                else states[lo:lo + 2 * c:2]
        nxt[k::2] = half
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
            d = nxt[start]
            while d != start:
                path.append(d)
                d = nxt[d]
            yield path
            for d in path:
                seen[d >> 1] = 1


def _path_code(code: bytes, path: list[int]) -> bytes:
    """The step bytes of a state path, read by one itemgetter call."""
    return bytes(itemgetter(*path)(code)) if len(path) > 1 else code[path[0]:path[0] + 1]


def from_normal_coordinates(coords) -> list[CurveWord]:
    """All components of the unique normal multicurve with these chord counts."""
    nxt, code = _embedding(*_class_counts(coords))
    return [CurveWord(_path_code(code, path)) for path in _traces(nxt)]


# ------------------------------------------------------------- normalization


def reversed_steps(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The same curve traversed backwards."""
    return tuple((e, OTHER_HEX[e][h]) for e, h in reversed(steps))


# Rank pieces only where the least byte occurs more often than this: on the
# benchmark workloads' words, a few rounds of slice comparisons among fewer
# starts take less time.
_FEW_STARTS = 32


def _least_rotation(w: bytes) -> bytes:
    """The lexicographically least rotation of w.

    It starts a maximal run of the least byte, found by membership tests in
    increasing byte order.  Cut w into pieces that each start one (the run,
    then the bytes up to the next run): the rotations that start there
    compare as their sequences of pieces, and pieces compare as bytes, since
    a longer run or a piece that ends sooner meets the least byte first.  So
    the pieces are ranked, and the least rotation of the rank sequence, at
    most half as long, picks the start.  Curve words have no runs, and then
    the pieces are what `split` leaves.  Where the least byte occurs only a
    few times, or the pieces take more than 256 ranks, the rotations that
    start at its positions are compared by slices of w + w instead: first
    on a short prefix, then on prefixes four times longer among those tied,
    up to their full length.
    """
    n = len(w)
    if n < 2:
        return w
    least = next(filter(w.__contains__, range(256)))
    mark = bytes((least,))
    parts = w.split(mark)
    if len(parts) > _FEW_STARTS:
        pieces, cut, width = parts[1:-1] + [parts[-1] + parts[0]], len(parts[0]), 1
        if not all(pieces):  # runs: cut w at the start of one that does not wrap
            cut = len(w.rstrip(mark)) if w[-1] == least else cut
            pieces = re.findall(rb"\x%02x+[^\x%02x]+" % (least, least), w[cut:] + w[:cut])
            width = 0
        ranks = sorted(set(pieces))
        if len(ranks) <= 256:
            rank = dict(zip(ranks, range(256)))
            code = bytes(map(rank.__getitem__, pieces))
            j = (code + code).find(_least_rotation(code))
            i = (cut + j * width + sum(map(len, pieces[:j]))) % n
            return w[i:] + w[:i]
    # the least byte's positions: the lengths of the parts before each, plus its index
    starts = list(map(add, accumulate(map(len, parts[:-1])), count()))
    ww, k = w + w, 8
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


def _cyclic(w: CurveWord) -> bytes:
    """The least rotation of the code, which a normalized word's code is:
    `_interned` and `action._relabel` make only least rotations."""
    return w.code if w.normalized else _least_rotation(w.code)


def canonical_unoriented(w: CurveWord) -> bytes:
    """Rotation- and reversal-minimal form of the code."""
    return min(_cyclic(w), _least_rotation(_reversed(w.code)))


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
    if w._normal is not None:  # found by `validate`
        return w._normal
    code, _ = kernel.normalize_steps(w.code)
    if not code:
        raise EmptyAfterNormalization("curve is null-homotopic")
    return _reembed(code)


def _trace(w: bytes) -> tuple[list[int], int]:
    """Traced states and alignment of an encoded minimal word.

    Its class counts must re-embed as one normal curve that traces w forwards
    or backwards (then the path is reversed): position p is path[(p - r) % n].
    """
    present, sizes = _class_sizes(w)
    nxt, code = _embedding(present, sizes)
    # the slots number n = len(w), so one cycle of n states is the only component
    n, path, d = len(w), [1], 1
    for _ in repeat(None, n - 1):
        d = nxt[d]
        path.append(d)  # specialized by the interpreter: faster than a bound append
    ww, r = w + w, -1
    if n and nxt[d] == 1:
        traced = _path_code(code, path)
        r = ww.find(traced)
        if r < 0:
            r = ww.find(traced[::-1].translate(_REVERSED))
            path.reverse()
    # a walk that passes state 1 before it closes repeats its bytes, which only
    # a word that repeats itself can match: only then are the passes counted
    if r < 0 or ww.find(w, 1) < n:
        if not n or nxt[d] != 1 or path.count(1) > 1:
            found = sum(1 for _ in _traces(nxt))
            raise InternalInvariantError(f"minimal word re-embedded into {found} components")
        if r < 0:
            raise InternalInvariantError("re-embedding changed the cyclic word")
    return path, r


# The one live normalized curve of each code, weakly held: codes whose trace
# passed, and the images of their curves under a relabeling or a slide-free twist.
_CURVES: weakref.WeakValueDictionary[bytes, CurveWord] = weakref.WeakValueDictionary()


def _interned(least: bytes) -> CurveWord:
    """The live curve of a verified least rotation, made and interned if
    none lives.  Verified: traced, or the image of an interned curve under a
    relabeling or under a twist in which the kernel slid no run (`action`)."""
    w = _CURVES.get(least)
    if w is None:
        w = _CURVES[least] = CurveWord(least, normalized=True)
    return w


def _reembed(code: bytes) -> CurveWord:
    """Canonical embedded realization of a minimal word's code: the live
    curve of its least rotation.  A code that no live curve holds is
    verified first (`_trace`)."""
    least = _least_rotation(code)
    if least not in _CURVES:
        _trace(code)
    return _interned(least)


def ensure_normal(w: CurveWord) -> CurveWord:
    return w if w.normalized else normalize(w)


def canonical_form(w: CurveWord) -> CurveWord:
    """The `normalize()` word of w, named for the benchmark's tracer (ROADMAP item 5)."""
    return ensure_normal(w)


def signature(w: CurveWord) -> tuple[int, ...]:
    """The six counts of w (`counts`), named for the benchmark's tracer (ROADMAP item 5)."""
    return counts(w).as_tuple()


# ------------------------------------------------------------------- queries


class Counts(namedtuple("Counts", "a b c x y z")):
    """The six intersection numbers of a curve with A, B, C, X, Y, Z.

    A named tuple: it compares equal to the plain 6-tuple of its fields, and
    `abc()` and `as_tuple()` return plain tuples.
    """

    __slots__ = ()

    def abc(self) -> tuple[int, int, int]:
        return self[:3]

    def total_abc(self) -> int:
        return self[0] + self[1] + self[2]

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)


class SlotRecord:
    """Base of the mutable records (`handlebody.ConstraintReport`,
    `reduction.ReductionCertificate`, `atlas.AtlasStore`): a subclass names its
    fields in `__slots__`, in order; records of one class compare field by
    field (so, being mutable, they do not hash), and the repr names each field."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def counts(w: CurveWord) -> Counts:
    """The six counts of w's normalized word, counted once per object."""
    w = ensure_normal(w)
    c = w._counts
    if c is None:
        curves = w.code.translate(_CURVE_OF_BYTE)
        w._counts = c = Counts(*map(curves.count, range(6)))
    return c


def is_separating(w: CurveWord) -> bool:
    """Mod-2 homology test against the symplectic pairs (B,Z) and (C,Y)."""
    c = counts(w)
    return c.b % 2 == 0 and c.c % 2 == 0 and c.y % 2 == 0 and c.z % 2 == 0


ARC_TYPES = ("AA", "AB", "AC", "BB", "BC", "CC")
_FORBIDDEN_PAIRS = (("AA", "BB"), ("AA", "BC"), ("AA", "CC"),
                    ("AB", "CC"), ("AC", "BB"), ("BB", "CC"))


class Arc(namedtuple("Arc", "pants start_edge end_edge inner_edges inner_hexes")):
    """A component arc of the curve on one pair of pants.

    pants: 1 or 2; start_edge, end_edge: the A/B/C edges crossed at the start
    and at the end; inner_edges: the X/Y/Z crossings, in order; inner_hexes:
    the hexagons entered at those crossings.
    """

    __slots__ = ()

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


# An arc's census key is one byte, 9 (pants - 1) + 3 (start curve) + end
# curve: the sum of its start byte's share and its end byte's.  Keys of one
# type and pants translate to the index of that census entry.
_KEY_FROM = bytes(9 * (HEX_PANTS[x & 3] - 1) + 3 * EDGE_CURVE[x >> 2] if x < 24 else 0
                  for x in range(256))
_KEY_TO = bytes(EDGE_CURVE[x >> 2] if x < 24 else 0 for x in range(256))
_CENSUS_KEYS = tuple((t, i) for t in ARC_TYPES for i in (1, 2))
_ENTRY_OF_KEY = bytes(_CENSUS_KEYS.index(("".join(sorted(CURVE_NAMES[s] + CURVE_NAMES[e])), p))
                      for p in (1, 2) for s in range(3) for e in range(3)).ljust(256, b"\xff")
_FORBIDDEN_ENTRIES = tuple((_CENSUS_KEYS.index((t1, i)), _CENSUS_KEYS.index((t2, i)), t1, t2, i)
                           for t1, t2 in _FORBIDDEN_PAIRS for i in (1, 2))


def arc_census(w: CurveWord) -> dict[tuple[str, int], int]:
    """Counts |DE|_i of arc types per pair of pants; raises NotEmbeddable if a
    forbidden pair coexists.

    Read at bytes speed, with no arc built: deleting the X/Y/Z crossings
    leaves each arc's two ends, consecutive A/B/C bytes.  Two translated
    copies of them, added as big integers, give every arc's census key in one
    byte (the 18 keys of 2 pants and 3 x 3 ordered ends), and `count` reads
    how many arcs each census entry has.
    """
    ends = ensure_normal(w).code.translate(None, _XYZ_BYTES)
    keys = (_big(ends, _KEY_FROM) + _big(ends[1:] + ends[:1], _KEY_TO)).to_bytes(len(ends), "big")
    sizes = list(map(keys.translate(_ENTRY_OF_KEY).count, range(len(_CENSUS_KEYS))))
    for j, k, t1, t2, i in _FORBIDDEN_ENTRIES:
        if sizes[j] and sizes[k]:
            raise NotEmbeddable(f"incompatible arc types {t1},{t2} coexist on pants {i}")
    return dict(zip(_CENSUS_KEYS, sizes))


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
        # one component must pass every slot: refuse the others unwalked.
        # Counts with a common factor d are d parallel copies of the
        # multicurve of the counts divided by d, so only that one is built
        present, sizes = _class_counts(coords)
        copies = gcd(*sizes) or 1
        nxt, code = _embedding(present, [c // copies for c in sizes], copies)
        path, slots = next(_traces(nxt), []), copies * len(nxt) // 2
        if not path or len(path) < slots:
            raise MalformedInput("normal coordinates describe more than one component: the first "
                                 f"crosses {len(path)} of {slots} slots" if path else
                                 "normal coordinates describe no component, expected 1")
        return validate(list(map(_STEP_OF_BYTE.__getitem__, _path_code(code, path))))
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
