"""Reference re-embedding: the dict-based implementation that the table-driven
one in `goeritz2.embed` replaced, kept as a test oracle.

Coordinates are dicts keyed by (hexagon, lo edge, hi edge); crossing slots
are (edge, slot) tuples matched per hexagon; rotations are compared with
Booth's algorithm over tuples of steps.  Slow (quadratic in the number of
chord classes, several dict operations per crossing) but direct.

`least_rotation_index` is the two-pointer scan over step bytes that
`goeritz2.curve` used before it compared rotations by slices.

`trace` is the table-driven `_trace` that `goeritz2.curve` used before it
laid out only present fan ends and walked exactly n - 1 successors: class
counts from a set of arc classes, a successor list filled by two `range`
slices per chord class, and a walk of every component, one state at a time.

`reversed_steps` gives a step sequence traversed backwards.

`slide_pass` and `crosses_index2_corner` build the corner-slid words of an
earlier canonical form, which the table-driven re-embedding must accept or
reject as this reference does.
"""

from __future__ import annotations

from goeritz2 import curve as cm
from goeritz2 import embed
from goeritz2.curve import CurveWord
from goeritz2.errors import InconsistentCoordinates, InternalInvariantError, NotEmbeddable
from goeritz2.surface import (
    CORNER_AFTER,
    EDGE_CURVE,
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


def reversed_steps(steps):
    """The same curve traversed backwards."""
    return tuple((e, OTHER_HEX[e][h]) for e, h in reversed(steps))


def _slot_origin(e):
    u, v = EDGE_ENDPOINTS[e]
    return u if VERTEX_TOKENS[u] <= VERTEX_TOKENS[v] else v


def least_rotation(seq):
    """Booth's algorithm: lexicographically minimal rotation in linear time."""
    n = len(seq)
    if n <= 1:
        return seq
    doubled = seq + seq
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return doubled[k:k + n]


def least_rotation_index(w):
    """Start of the lexicographically least rotation of w, in linear time.

    Two candidate starts i < j advance past each other: when their rotations
    first differ after k equal bytes, no start in the loser's next k+1 bytes
    can be least.
    """
    n = len(w)
    ww = w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ww[i + k], ww[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return i


def to_coordinates(w):
    out = {}
    n = len(w.steps)
    for i in range(n):
        h, e1, e2 = w.steps[i][1], w.steps[i][0], w.steps[(i + 1) % n][0]
        if e1 == e2:
            raise InternalInvariantError("coordinates of a word with spurs")
        key = (h, min(e1, e2), max(e1, e2))
        out[key] = out.get(key, 0) + 1
    return out


def _interleave(h, pair1, pair2):
    p1, q1 = (SIDE_POS[h][x] for x in pair1)
    p2, q2 = (SIDE_POS[h][x] for x in pair2)
    if len({p1, q1, p2, q2}) < 4:
        return False
    inside = {(p1 + k) % 6 for k in range(1, (q1 - p1) % 6)}
    return (p2 in inside) != (q2 in inside)


def _coords_check(coords):
    for (h, e1, e2), c in coords.items():
        if c < 0 or e1 == e2 or SIDE_POS[h][e1] < 0 or SIDE_POS[h][e2] < 0:
            raise InconsistentCoordinates(f"bad chord class ({h},{e1},{e2})")
    for h in range(4):
        cl = sorted({(e1, e2) for (hh, e1, e2), c in coords.items() if hh == h and c > 0})
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                if _interleave(h, cl[i], cl[j]):
                    raise NotEmbeddable(f"interleaving chord classes in {HEX_TOKENS[h]}")
    for e in range(12):
        totals = [sum(c for (hh, e1, e2), c in coords.items()
                      if hh == h and c > 0 and e in (e1, e2))
                  for h in EDGE_HEXES[e]]
        if totals[0] != totals[1]:
            raise InconsistentCoordinates(
                f"edge {EDGE_TOKENS[e]} endpoint counts differ: {totals}")


def _slot_fill(coords, e, h):
    origin = _slot_origin(e)
    items = []
    for (hh, e1, e2), c in coords.items():
        if hh != h or c <= 0 or e not in (e1, e2):
            continue
        other = e2 if e1 == e else e1
        items.append((fan_key_from(h, e, other, origin), other, c))
    items.sort()
    blocks = []
    pos = 0
    for _, other, c in items:
        blocks.append((pos, other, c))
        pos += c
    return blocks


def _boundary_ordered(h, e, slots):
    start_vertex = CORNER_AFTER[(SIDE_POS[h][e] - 1) % 6]
    return sorted(slots, reverse=_slot_origin(e) != start_vertex)


def _hex_matches(coords):
    slots_of = {}
    for e in range(12):
        for h in EDGE_HEXES[e]:
            for start, other, c in _slot_fill(coords, e, h):
                slots_of[(h, e, other)] = list(range(start, start + c))
    match = {h: {} for h in range(4)}
    for (h, e1, e2), c in coords.items():
        if c <= 0:
            continue
        side1 = _boundary_ordered(h, e1, slots_of[(h, e1, e2)])
        side2 = _boundary_ordered(h, e2, slots_of[(h, e2, e1)])
        for k in range(c):
            a = (e1, side1[k])
            b = (e2, side2[c - 1 - k])
            match[h][a] = b
            match[h][b] = a
    return match


def from_normal_coordinates(coords):
    coords = {k: int(v) for k, v in coords.items() if v}
    _coords_check(coords)
    if not coords:
        return []
    match = _hex_matches(coords)
    seen = set()
    components = []
    for start in sorted({key for h in range(4) for key in match[h]}):
        if start in seen:
            continue
        e, s = start
        start_state = (e, s, EDGE_HEXES[e][1])
        steps = []
        state = start_state
        while True:
            e, s, dest = state
            seen.add((e, s))
            steps.append((e, dest))
            e2, s2 = match[dest][(e, s)]
            state = (e2, s2, OTHER_HEX[e2][dest])
            if state == start_state:
                break
        components.append(CurveWord(tuple(steps)))
    return components


def reembed(word):
    """The traced word at its least rotation, as an unnormalized `CurveWord`
    (only `goeritz2.curve` interns, and so normalizes, a word)."""
    comps = from_normal_coordinates(to_coordinates(word))
    if len(comps) != 1:
        raise InternalInvariantError(
            f"minimal word re-embedded into {len(comps)} components")
    traced = comps[0]
    if len(traced) != len(word):
        raise InternalInvariantError("re-embedding changed the word length")
    fwd = least_rotation(traced.steps)
    rev = least_rotation(reversed_steps(traced.steps))
    want = least_rotation(word.steps)
    if fwd == want:
        return CurveWord(fwd)
    if rev == want:
        return CurveWord(rev)
    raise InternalInvariantError("re-embedding changed the cyclic word")


def interleaving_chords(steps):
    """The first interleaving chord pair, as `validate` reports it, or None."""
    n = len(steps)
    classes = {h: set() for h in range(4)}
    for i in range(n):
        h, e1, e2 = steps[i][1], steps[i][0], steps[(i + 1) % n][0]
        if e1 != e2:
            classes[h].add((min(e1, e2), max(e1, e2)))
    for h, cs in classes.items():
        cl = sorted(cs)
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                if _interleave(h, cl[i], cl[j]):
                    return (f"chords {tuple(EDGE_TOKENS[x] for x in cl[i])} and "
                            f"{tuple(EDGE_TOKENS[x] for x in cl[j])} interleave in {HEX_TOKENS[h]}")
    return None


def _arc_counts(w):
    arcs = embed._arc_classes(w)
    present = set(arcs)
    if embed._SPUR_ARC in present:
        raise InternalInvariantError("coordinates of a word with spurs")
    counts = [0] * len(embed._CLASS_KEYS)
    for i in present:
        counts[i] = arcs.count(i)
    return counts


def _span(a, c, k, anti):
    """States 2g+k of slots g = a..a+c-1, descending if `anti`."""
    lo, hi = 2 * a + k, 2 * (a + c) + k
    return range(hi - 2, lo - 2, -2) if anti else range(lo, hi, 2)


def _embedding(counts):
    present = [i for i, c in enumerate(counts) if c]
    mask = sum(1 << i for i in present)
    for i in present:
        if embed._CLASS_CROSSES[i] & mask:
            raise NotEmbeddable(
                f"interleaving chord classes in {HEX_TOKENS[embed._CLASS_KEYS[i][0]]}")
    crossings = [0] * 24
    for i in present:
        lo, hi = embed._CLASS_ENDS[i]
        crossings[lo] += counts[i]
        crossings[hi] += counts[i]
    off = [0] * 13
    for e in range(12):
        if crossings[2 * e] != crossings[2 * e + 1]:
            raise InconsistentCoordinates(
                f"edge {EDGE_TOKENS[e]} endpoint counts differ: {crossings[2 * e:2 * e + 2]}")
        off[e + 1] = off[e] + crossings[2 * e]
    start = [0] * (2 * len(embed._CLASS_KEYS))
    for j, t in enumerate(crossings):
        if t:
            pos = off[j >> 1]
            for end in embed._FAN[j]:
                start[end] = pos
                pos += counts[end >> 1]
    code = b"".join([embed._SLOT_BYTES[e] * crossings[2 * e] for e in range(12)])
    nxt = [0] * len(code)
    for i in present:
        c, anti = counts[i], embed._CLASS_ANTI[i]
        a, b = start[2 * i], start[2 * i + 1]
        ka, kb = embed._CLASS_ENDS[i][0] & 1, embed._CLASS_ENDS[i][1] & 1
        nxt[2 * a + ka:2 * (a + c):2] = _span(b, c, 1 - kb, anti)
        nxt[2 * b + kb:2 * (b + c):2] = _span(a, c, 1 - ka, anti)
    return nxt, code


def _traces(nxt):
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


def trace(w):
    """Class counts, traced states and alignment of an encoded minimal word."""
    counts = _arc_counts(w)
    nxt, code = _embedding(counts)
    traces = _traces(nxt)
    path = next(traces, None)
    if path is None or len(path) != len(w):
        found = (path is not None) + sum(1 for _ in traces)
        raise InternalInvariantError(f"minimal word re-embedded into {found} components")
    traced, ww = embed._path_code(code, path), w + w
    r = ww.find(traced)
    if r < 0:
        r = ww.find(traced[::-1].translate(cm._REVERSED))
        if r < 0:
            raise InternalInvariantError("re-embedding changed the cyclic word")
        path.reverse()
    return counts, path, r


# (e, f) for every two sides e, f of a hexagon that meet at a corner
_CORNERS = {(sides[p], sides[(p + d) % 6]) for sides in HEX_SIDES for p in range(6)
            for d in (1, -1)}


def crosses_index2_corner(steps, i):
    """Is arc i a corner pass crossing an index-2 A/B/C edge?"""
    e1, e2 = steps[i][0], steps[(i + 1) % len(steps)][0]
    return (e1, e2) in _CORNERS and bool((e1 if EDGE_CURVE[e1] < 3 else e2) & 1)


def slide_pass(steps, i):
    """Slide the corner pass at arc i across its vertex (crossing order swaps)."""
    n = len(steps)
    j = (i + 1) % n
    e1, h1 = steps[i]
    e2, h2 = steps[j]
    h_prev = OTHER_HEX[e1][h1]
    e1p, e2p = e2 ^ 1, e1 ^ 1
    h1p = OTHER_HEX[e1p][h_prev]
    h2p = OTHER_HEX[e2p][h1p]
    if h2p != h2:
        raise InternalInvariantError("corner slide broke the chain")
    out = list(steps)
    out[i] = (e1p, h1p)
    out[j] = (e2p, h2p)
    return tuple(out)
