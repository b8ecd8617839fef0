"""Re-embedding: normal coordinates, and the check that a word is one embedded curve.

Only words from outside the library need it, so importing `goeritz2` does
not load this module: `curve._validated` and `curve._gate` import it for
every outside word, `curve._reembed` for a code no live curve holds, and
the coordinate functions, the renderer and `selftest --full` when they run.

Re-embedding runs on small integers.  A step (e, h) is the byte 4e+h, so an
encoded word sorts like its step tuples.  The chain rule, that a step
leaves the hexagon the step before entered through one of its sides, into
the hexagon across, is one table over the byte 48h + y of a step y and the
hexagon h entered before it (`_RULE`), read for all steps at once by a
big-integer sum of two translated copies of the code: the chain check
(`_check_chain`) reads it, the one gate of a word from outside, so the arc
classes are read only of closed chains.  Static tables, built once from
`surface`, number the 60 chord classes (h, lo, hi) in sorted key order and
hold each class's interleave bitmask and each edge side's fan order.  The
class of every arc is one byte, read for all arcs at once by a big-integer
OR of two translated copies of the code.  Crossing slot s of edge e is the
global slot off[e] + s, and state 2g+k is "at slot g, entering
EDGE_HEXES[e][k]"; a normal multicurve is a successor table over these
states.  What depends only on the set of present classes is built once per
set (`_layout`).  The successor table is an array of the state numbers,
written at C speed (`_states`) and rearranged: each half of it is one slice
assignment of every-other-state slices of itself (`_embedding`).

The counts of n crossings re-embed as one curve iff the walk of n - 1
successors from the first state closes there without passing it again, and
then the traced bytes are the input's (`_trace`).  The walk runs inside
`array.extend`: a `map` over the path array reads each state's successor as
the path gains it.  That check's verdict depends only on the cyclic word, so
a word that passed it is interned (`curve._CURVES`) and never traced again
while it lives.  The images of an interned curve under a relabeling, and
under a twist in which the kernel slid no run, are interned untraced
(`action` gives the argument; the tests and `selftest --full` trace them).
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Mapping
from functools import lru_cache
from itertools import accumulate, compress, count, islice, repeat, takewhile
from math import gcd
from operator import getitem, mul

from . import kernel
from .curve import _REVERSED, CurveWord
from .errors import (InconsistentCoordinates, InternalInvariantError, MalformedInput,
                     MalformedWord, NotEmbeddable)
from .kernel import _POSITION
from .surface import (
    CORNER_AFTER,
    EDGE_ENDPOINTS,
    EDGE_HEXES,
    EDGE_TOKENS,
    HEX_SIDES,
    HEX_TOKENS,
    OTHER_HEX,
    SIDE_POS,
    VERTEX_TOKENS,
    fan_key_from,
)

# vertex from which crossings along each edge are counted (lower token name)
_ORIGIN = tuple(min(EDGE_ENDPOINTS[e], key=VERTEX_TOKENS.__getitem__) for e in range(12))


# ------------------------------------------------------------- checks


def _check_embeddable(code: bytes) -> bytes:
    """Raise unless the code is one embedded curve; return the traced spur-free core."""
    _check_chain(code)
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


def _check_chain(code: bytes) -> None:
    """Raise MalformedWord unless the code of step bytes is a closed chain.

    The message names the first failure a walk over the steps meets: step
    0 not a step, then for each step the next one's edge not a side of the
    hexagon it entered, or the next one not entering the hexagon across.
    A step that follows by the chain rule is a step, so after step 0 only
    the rule is read (`_RULE`).
    """
    if not code:
        raise MalformedWord("empty step list")
    if code[0] & 3 not in EDGE_HEXES[code[0] >> 2]:
        raise MalformedWord(f"step 0: {HEX_TOKENS[code[0] & 3]} is not adjacent to "
                            f"{EDGE_TOKENS[code[0] >> 2]}")
    rules = _rules(code, code[1:] + code[:1])
    i = len(code) - len(rules.lstrip(bytes((_FOLLOWS,))))
    if i < len(code):
        h, e = code[i] & 3, code[(i + 1) % len(code)] >> 2
        if rules[i] == _NOT_A_SIDE:
            raise MalformedWord(
                f"step {i}: next edge {EDGE_TOKENS[e]} is not a side of {HEX_TOKENS[h]}")
        raise MalformedWord(f"step {i + 1}: expected hexagon {HEX_TOKENS[OTHER_HEX[e][h]]}")


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


# ------------------------------------------------------------- chord classes


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
# step bytes of the two states 2g, 2g+1 of a slot on edge e
_SLOT_BYTES = tuple(bytes(4 * e + h for h in EDGE_HEXES[e]) for e in range(12))


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


# The chain rule.  Byte 48h + y, for a step byte y after a step that
# entered hexagon h, reads _FOLLOWS if y crosses a side of h into the hexagon
# across it, _ELSEWHERE if y's edge is a side of h but y enters another
# hexagon, and _NOT_A_SIDE if y's edge is not a side of h.  Bytes above 47
# are read as byte 3, A1 entering H4, which is no step.
_FOLLOWS, _ELSEWHERE, _NOT_A_SIDE = range(3)
_RULE = bytes(_NOT_A_SIDE if SIDE_POS[h][y >> 2] < 0 else _FOLLOWS if y & 3 == OTHER_HEX[y >> 2][h]
              else _ELSEWHERE
              for h in range(4) for y in range(48)).ljust(256, bytes((_NOT_A_SIDE,)))
_ROW = bytes(48 * (x & 3) for x in range(256))
_COLUMN = bytes(x if x < 48 else 3 for x in range(256))


def _big(w: bytes, table: bytes) -> int:
    return int.from_bytes(w.translate(table), "big")


def _rules(w: bytes, nw: bytes) -> bytes:
    """Byte i is `_RULE`'s reading of step i + 1 after step i, given the
    code w and its rotation by one step, nw."""
    return (_big(w, _ROW) + _big(nw, _COLUMN)).to_bytes(len(w), "big").translate(_RULE)


# An arc enters a hexagon by one step and leaves it by the next.  Its byte is
# (_ARC_FROM[x] | _POSITION[y]), which names its class, as in a closed chain
# y's edge is a side of the hexagon x enters.
_SPUR_ARC = 254
_ARC_OF = _arc_table()
_ARC_FROM = bytes((x & 3) << 6 | _POSITION[x] << 3 if x < 48 else 0 for x in range(256))


def _arc_classes(w: bytes) -> bytes:
    """Class id of every arc of the code of a closed chain, or _SPUR_ARC, in
    one byte each (arc i enters by step i and leaves by step i+1)."""
    nw = w[1:] + w[:1]
    return (_big(w, _ARC_FROM) | _big(nw, _POSITION)).to_bytes(len(w), "big").translate(_ARC_OF)


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
    """Normal coordinates as their classes, ascending, and the class counts.

    As in a curve document, each key must name a chord class and each count
    be an `int` of at least 0."""
    if not isinstance(coords, Mapping):
        raise InconsistentCoordinates("normal coordinates must map chord classes to counts, "
                                      f"not {type(coords).__name__}")
    counts = [0] * len(_CLASS_KEYS)
    for key, c in coords.items():
        i = _CLASS_OF.get(key)
        if i is None:
            raise InconsistentCoordinates(f"bad chord class {key!r}")
        if type(c) is not int or c < 0:
            raise InconsistentCoordinates(f"count of chord class {key!r} must be an integer "
                                          f"of at least 0, not {c!r}")
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


# ------------------------------------------------------------- the successor table


# The 120 class ends 2i+(0 lo, 1 hi) in slot order: those on the first side
# (2e) of each edge, edge by edge, then those on the second sides (2e+1).
_ENDS = tuple(end for k in (0, 1) for e in range(12) for end in _FAN[2 * e + k])

# Only words from outside are traced, never an atlas image or a stored record:
# the curve documents of every depth-7 / 8 / 9 atlas record, read by
# `curve.from_doc`, use 93 / 97 / 105 class sets.
@lru_cache(maxsize=128)
def _layout(present: bytes) -> tuple:
    """Where the ends of a nonempty set of classes (ascending ids) sit.

    Raises NotEmbeddable if two of the classes interleave; a raise is not
    cached.  For the class ends in slot order it returns how many lie on
    first sides and, in bytes: each end's edge side 2e+k; its index in the
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
    return (first, bytes(side[end] for end in ends),
            bytes(map(present.index, (end >> 1 for end in ends))),
            bytes(start[end ^ 1] for end in ends),
            bytes(~side[end ^ 1] & 1 for end in ends),
            bytes(_CLASS_ANTI[end >> 1] for end in ends))


def _states(count: int, typecode: str) -> array:
    """array(typecode, range(count)), written a byte plane at a time at C speed.

    Byte k of state i is (i >> 8k) & 255: runs of 256**k equal bytes,
    counting up modulo 256, which one strided slice assignment writes.
    """
    states = array(typecode)
    size, run = states.itemsize, 1
    lanes = bytearray(count * size)
    for k in range(size):
        if run >= count:
            break
        block = b"".join(bytes((v,)) * run for v in range(min(256, -(-count // run))))
        plane = k if sys.byteorder == "little" else size - 1 - k
        lanes[plane::size] = (block * -(-count // len(block)))[:count]
        run *= 256
    states.frombytes(lanes)
    return states


def _embedding(present: bytes, sizes: list[int], copies: int = 1) -> tuple[array, bytes]:
    """Successor table and state bytes of the normal multicurve whose classes
    (ascending ids, `_layout`) have these sizes.

    Checks that no two of the classes interleave in a hexagon and that both
    sides of every edge carry the same number of crossings, summed from the
    sizes before anything is built; the state bytes are then those read
    along the first sides.  The class ends, in slot order, tile the slots
    once along the first sides of the edges and once along the second
    sides; each end's states lead to the slots of its partner end, every
    other state of a span, so each side's successors are one array of
    slices of the state numbers, assigned as one slice of them, which
    become the table.  The sequences made per call are lists, bytes and
    arrays: CPython 3.11 never reuses a freed tuple of 20 items, so tuples
    made per call would pile up.  A count mismatch is reported in the
    numbers of that many parallel copies of the multicurve (`from_doc`).
    """
    if not present:
        return array("i"), b""
    first, sides, size_of, partner, exits, antis = _layout(present)
    ends = list(map(sizes.__getitem__, size_of))
    crossings = [0] * 24
    for side, c in zip(sides, ends):
        crossings[side] += c
    if crossings[0::2] != crossings[1::2]:
        e = next(e for e in range(12) if crossings[2 * e] != crossings[2 * e + 1])
        raise InconsistentCoordinates(f"edge {EDGE_TOKENS[e]} endpoint counts differ: "
                                      f"{[copies * c for c in crossings[2 * e:2 * e + 2]]}")
    starts = [*accumulate(ends[:first], initial=0), *accumulate(ends[first:], initial=0)]
    n = starts[first]
    code = b"".join(map(mul, [_SLOT_BYTES[side >> 1] for side in sides[:first]], ends))
    nxt = _states(2 * n, "i" if n < 1 << 30 else "q")  # 4 bytes a state up to 2**31 states
    spans = zip(map(starts.__getitem__, partner), ends, exits, antis)
    halves = []
    for size in (first, len(ends) - first):  # the first sides, then the second
        half = nxt[:0]
        for s, c, x, anti in islice(spans, size):
            # a descending span down to state 0 or 1 needs stop None: -1 would wrap
            lo = 2 * s + x
            half += nxt[lo + 2 * c - 2:lo - 2 if lo > 1 else None:-2] if anti \
                else nxt[lo:lo + 2 * c:2]
        halves.append(half)
    nxt[0::2], nxt[1::2] = halves
    return nxt, code


def _traces(nxt: array):
    """State paths of all components, in order of their lowest slot.

    Each path starts at that slot, entering the second hexagon of its edge.
    """
    seen = bytearray(len(nxt) // 2)
    g = seen.find(0)
    while g >= 0:
        start = 2 * g + 1
        path = array(nxt.typecode, (start,))
        path.extend(takewhile(start.__ne__, map(getitem, repeat(nxt), path)))
        yield path
        for d in path:
            seen[d >> 1] = 1
        g = seen.find(0, g + 1)


def _path_code(code: bytes, path: array) -> bytes:
    """The step bytes of a state path."""
    return bytes(map(getitem, repeat(code), path))


def from_normal_coordinates(coords) -> list[CurveWord]:
    """All components of the unique normal multicurve with these chord counts."""
    nxt, code = _embedding(*_class_counts(coords))
    return [CurveWord(_path_code(code, path)) for path in _traces(nxt)]


def _first_component(coords) -> bytes:
    """The code of the one component of a document's normal coordinates.

    One component must pass every slot: the others are refused unwalked.
    Counts with a common factor d are d parallel copies of the multicurve of
    the counts divided by d, so only that one is built.
    """
    present, sizes = _class_counts(coords)
    copies = gcd(*sizes) or 1
    nxt, code = _embedding(present, [c // copies for c in sizes], copies)
    path, slots = next(_traces(nxt), ()), copies * len(nxt) // 2
    if not path or len(path) < slots:
        raise MalformedInput("normal coordinates describe more than one component: the first "
                             f"crosses {len(path)} of {slots} slots" if path else
                             "normal coordinates describe no component, expected 1")
    return _path_code(code, path)


def _trace(w: bytes) -> tuple[array, int]:
    """Traced states and alignment of an encoded minimal word.

    Its class counts must re-embed as one normal curve that traces w forwards
    or backwards (then the path is reversed): position p is path[(p - r) % n].
    """
    if not w:
        raise InternalInvariantError("minimal word re-embedded into 0 components")
    present, sizes = _class_sizes(w)
    nxt, code = _embedding(present, sizes)
    # the slots number n = len(w), so one cycle of n states is the only
    # component; the map reads each state the path gains, as it gains it
    n, path = len(w), array(nxt.typecode, (1,))
    path.extend(islice(map(getitem, repeat(nxt), path), n - 1))
    closes, ww, r = nxt[path[-1]] == 1, w + w, -1
    if closes:
        traced = _path_code(code, path)
        r = ww.find(traced)
        if r < 0:
            r = ww.find(traced[::-1].translate(_REVERSED))
            path.reverse()
    # a walk that passes state 1 before it closes repeats its bytes, which only
    # a word that repeats itself can match: only then are the passes counted
    if r < 0 or ww.find(w, 1) < n:
        if not closes or path.count(1) > 1:
            found = sum(1 for _ in _traces(nxt))
            raise InternalInvariantError(f"minimal word re-embedded into {found} components")
        if r < 0:
            raise InternalInvariantError("re-embedding changed the cyclic word")
    return path, r
