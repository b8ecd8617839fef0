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
the least rotation cuts the code where the least byte and the least piece
after it occur, ranks the segments between those markers and finds the least
rotation of the ranks (`_least_rotation`).

Arc queries read subsequences of the code.  An arc runs from one A/B/C
crossing to the next and stays in the pants it enters, as every X/Y/Z edge
borders two hexagons of one pants (checked in `surface`).  One `translate`
gives the A/B/C positions (`_arc_starts`); an arc's type, pants and edges
are one table lookup on the bytes at two consecutive ones, and `split_arcs`
slices the code between them.  `arc_census` reads every arc's type and
pants from the same table, with no arc built.  The disk tests read the code
in pi_1 of each handlebody (`handlebody`).

The re-embedding, which checks that a word is a closed chain and one
embedded curve and reads its normal coordinates, lives in `embed`; only
words from outside need it, so this module imports it where they arrive.
The three readers of outside words, `validate` (steps),
`CurveWord.from_tokens` (tokens) and `from_doc` (either document), each
make a code of step bytes and meet at one tail (`_checked`): steps pass
the chain and embedding checks first (`_validated`), while a
normal-coordinates document's component, walked from its embedding, is its
own checked core.  A read word is trusted; any other word the library did
not make passes one gate before its bytes are read (`_gate`, in `normalize`
and `to_coordinates`): its bytes are steps and make a closed chain.
Normalized curves are interned: a code has one live `CurveWord`, held
weakly in `_CURVES`, and a curve's facts (`CurveWord`) are computed once
while it lives.  The trace (`embed._trace`) runs only on words from
outside: `_validated` traces the spur-free core of its input, and
`_checked` keeps the kernel's verdict on it for the `normalize` that
follows (`_normal`); `_reembed` traces a code no live curve holds, a slid
core too.  A word whose trace raises is never interned.  The images of an
interned curve under a relabeling, and under a twist in which the kernel
slid no run, are interned untraced (`action` gives the argument; the tests
and `selftest --full` trace them), and remember the code they were made
from (`CurveWord`).
"""

from __future__ import annotations

import json
import re
import weakref
from collections import Counter, namedtuple
from itertools import accumulate, compress, count

from . import kernel
from .kernel import _EDGE_OF_BYTE
from .errors import EmptyAfterNormalization, MalformedInput, MalformedWord, NotEmbeddable
from .surface import (
    CURVE_NAMES,
    EDGE_CURVE,
    EDGE_OF_TOKEN,
    EDGE_TOKENS,
    HEX_OF_TOKEN,
    HEX_PANTS,
    HEX_TOKENS,
    OTHER_HEX,
)

Step = tuple[int, int]  # (edge id, hexagon entered)

# the reducing verdict of a word not yet checked (`CurveWord`)
_UNCHECKED = object()

CURVE_FORMAT = "goeritz-curve/1"


# ------------------------------------------------------------------ the word


class CurveWord:
    """A closed curve as a cyclic word of (edge, hexagon-entered) steps.

    The word is stored as its code, one byte 4e+h per step; `steps` decodes
    it.  `CurveWord(steps)` takes a step sequence or its code, and checks
    neither: `repr` and `steps` read any byte, `tokens` refuses one that is
    no step.

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
    Normalized means interned: only `_interned` makes a normalized word, so
    each was verified when it was made.  An unnormalized word holds no fact;
    one read from outside keeps the kernel's verdict on its core (`_normal`,
    `_checked`): its `normalize()` word, or the slid code.
    """

    __slots__ = ("code", "normalized", "_counts", "_reason", "_pass", "_normal", "_preimage",
                 "__weakref__")

    def __init__(self, steps):
        self.code = steps if isinstance(steps, bytes) else _encode(steps)
        self.normalized = False
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
        try:
            return f"CurveWord[{' '.join(map('>'.join, self.tokens()))}]"
        except MalformedWord:  # bytes that are not steps
            return f"CurveWord({self.code!r})"

    def tokens(self) -> list[list[str]]:
        return [[EDGE_TOKENS[x >> 2], HEX_TOKENS[x & 3]] for x in _step_bytes(self.code)]

    @staticmethod
    def from_tokens(pairs) -> "CurveWord":
        code = bytearray()
        for pair in pairs:
            try:
                et, ht = pair
                code.append(4 * EDGE_OF_TOKEN[et] + HEX_OF_TOKEN[ht])
            except (KeyError, ValueError, TypeError):
                raise MalformedInput(f"bad step token {pair!r}") from None
        return _validated(bytes(code))


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
    """
    code = bytearray()
    for i, step in enumerate(steps):
        try:
            e, h = step
        except (TypeError, ValueError):
            raise MalformedWord(f"step {i}: {step!r} is not an (edge, hexagon) pair") from None
        code.append(4 * _index(i, "edge", e, 12) + _index(i, "hexagon", h, 4))
    return _validated(bytes(code))


def _validated(code: bytes) -> CurveWord:
    """The word of a code of step bytes from outside, once it passes the
    chain and embeddability checks (`embed._check_embeddable`), which give
    its traced spur-free core: the check of `validate`,
    `CurveWord.from_tokens` and `from_doc`'s steps documents."""
    from . import embed
    return _checked(code, embed._check_embeddable(code))


def _checked(code: bytes, core: bytes) -> CurveWord:
    """The word of a checked code and its traced spur-free core: the tail of
    the three readers.  The word keeps the kernel's verdict on the core
    (`_normal`): a core in which it slides no run is the `normalize()` word,
    else the slid code is kept, for `normalize` to re-embed, so neither the
    chain check nor the kernel runs again."""
    w = CurveWord(code)
    core, slid = kernel.normalize_steps(core)
    w._normal = _interned(_least_rotation(core)) if core and not slid else core
    return w


def _step_bytes(code: bytes) -> bytes:
    """The code, once every byte is a step 4e+h with e < 12."""
    if code.translate(None, _STEP_BYTES):
        i = next(i for i, x in enumerate(code) if x > 47)
        raise MalformedWord(f"step {i}: edge {code[i] >> 2} is not an integer in 0-11")
    return code


def _gate(w: CurveWord) -> None:
    """The one check of a word the library neither made nor read before its
    bytes are read (`normalize`, `to_coordinates`): its bytes are steps, as
    the chain check reads each byte's edge, and they make a closed chain."""
    if w._normal is None and not w.normalized:
        from . import embed
        embed._check_chain(_step_bytes(w.code))


# ------------------------------------------------------------- step bytes
#
# A step (e, h) is the byte 4e+h, so an encoded word sorts like its step tuples.


def _encode(steps) -> bytes:
    return bytes(4 * e + h for e, h in steps)


_STEP_BYTES = bytes(range(48))
_STEP_OF_BYTE = tuple((x >> 2, x & 3) for x in range(256))
# step byte of the same crossing traversed backwards
_REVERSED = bytes(4 * (x >> 2) + OTHER_HEX[x >> 2].get(x & 3, x & 3) if x < 48 else x
                  for x in range(256))
# system curve (0..5) of each step byte's edge
_CURVE_OF_BYTE = bytes(EDGE_CURVE[x >> 2] if x < 48 else 255 for x in range(256))
_ABC_BYTES = bytes(x for x in range(48) if EDGE_CURVE[x >> 2] < 3)
_XYZ_BYTES = bytes(x for x in range(48) if EDGE_CURVE[x >> 2] >= 3)


# ------------------------------------------------------------- coordinates


def to_coordinates(w: CurveWord) -> dict[tuple[int, int, int], int]:
    """Chord-class counts {(hexagon, lo edge, hi edge): n} of a spur-free
    word (`embed.to_coordinates`).  A word the library neither made nor read
    passes the gate first (`_gate`), which checks it and does not normalize
    it."""
    _gate(w)
    from . import embed
    return embed.to_coordinates(w)


def from_normal_coordinates(coords) -> list[CurveWord]:
    """All components of the unique normal multicurve with these chord counts
    (`embed.from_normal_coordinates`)."""
    from . import embed
    return embed.from_normal_coordinates(coords)


# ------------------------------------------------------------- normalization


# Split a second time, at the least byte and the least piece, only where the
# least byte occurs more often than once in this many bytes: the split is one
# more pass over the word, and it pays by leaving fewer segments to rank.
_DENSE = 128
# Compare the rotations at the starts whole where they total at most this
# many bytes; rank the segments where they total more.
_WHOLE_BYTES = 1 << 16


def _least_rotation(w: bytes) -> bytes:
    """The lexicographically least rotation of w.

    It starts with a marker: a longest run of the least byte, then the
    least piece that follows one (a piece runs up to the next least byte).
    Curve words have no runs; their pieces are what `split` leaves, and the
    marker is the least byte and the least piece.  No rotation of w starts
    with a smaller string of the marker's length, and the marker overlaps
    none of its own occurrences: it holds the least byte only in the run it
    starts with, and no run is longer.  Cut w at the marker's occurrences
    into segments, each running from one to the next: the rotations that
    start there compare as their sequences of segments, and segments
    compare as bytes.  Where one segment is a prefix of another, the
    rotation of the shorter goes on with the marker and that of the longer
    with bytes where no marker starts, so with a larger string of the
    marker's length.  So the segments are ranked, and the least rotation of
    the ranks picks the start.  Where the least byte is sparse, the marker
    is the least byte alone and the segments are the pieces.  Where the
    rotations at the starts are short in total, they are compared whole;
    where the segments take more than 256 ranks, they are compared on
    prefixes four times longer each round among those tied.  w itself is
    split, the segment that wraps round its end joined, and the starts are
    offsets into w + w.
    """
    n = len(w)
    if n < 2:
        return w
    least = next(filter(w.__contains__, range(256)))
    mark = bytes((least,))
    parts = w.split(mark)
    if len(parts) > n:  # one byte repeated
        return w
    segments = parts[1:-1]
    segments.append(parts[-1] + parts[0])
    cut, marker = len(parts[0]), mark
    if not all(segments):  # runs: w + w holds each run whole, a wrapped one too
        marker = min(re.findall(rb"\x%02x+[^\x%02x]+" % (least, least), w + w))
    elif n < _DENSE * len(segments):
        marker += min(segments)
    if len(marker) > 1:
        parts = w.split(marker)
        if len(parts) == 1:  # its one occurrence wraps round the end
            i = (w + w).find(marker)
            return w[i:] + w[:i]
        segments = parts[1:-1] + (parts[-1] + parts[0]).split(marker)
        cut = len(parts[0])
    if len(segments) == 1:
        return w[cut:] + w[:cut]
    m = len(marker)
    if len(segments) * n > _WHOLE_BYTES:
        ranks = sorted(set(segments))
        if len(ranks) <= 256:
            rank = dict(zip(ranks, range(256)))
            code = bytes(map(rank.__getitem__, segments))
            j = (code + code).find(_least_rotation(code))
            i = cut + j * m + sum(map(len, segments[:j]))
            return w[i:] + w[:i]
    ww = w + w
    starts = list(accumulate(map(m.__add__, map(len, segments[:-1])), initial=cut))
    if len(starts) * n <= _WHOLE_BYTES:
        return min(map(ww.__getitem__, map(slice, starts, map(n.__add__, starts))))
    k = 2 * m
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
    `_interned`, which makes every normalized word, takes only least rotations."""
    return w.code if w.normalized else _least_rotation(w.code)


def canonical_unoriented(w: CurveWord) -> bytes:
    """Rotation- and reversal-minimal form of the code."""
    return min(_cyclic(w), _least_rotation(_reversed(w.code)))


def normalize(w: CurveWord) -> CurveWord:
    """Minimal position: spur and generalized-bigon removal, then re-embedding.

    A word read from outside keeps the kernel's verdict on its core
    (`_checked`): its `normalize()` word, or the slid code, which is
    re-embedded here.  Any other word the library did not make passes the
    gate (`_gate`) before the kernel reads it."""
    code = w._normal
    if isinstance(code, CurveWord):
        return code
    if code is None:
        _gate(w)
        code, _ = kernel.normalize_steps(w.code)
    if not code:
        raise EmptyAfterNormalization("curve is null-homotopic")
    return _reembed(code)


# The one live normalized curve of each code, weakly held: codes whose trace
# passed, and the images of their curves under a relabeling or a slide-free twist.
_CURVES: weakref.WeakValueDictionary[bytes, CurveWord] = weakref.WeakValueDictionary()


def _interned(least: bytes) -> CurveWord:
    """The live curve of a verified least rotation, made and interned if
    none lives.  Verified: traced, or the image of an interned curve under a
    relabeling or under a twist in which the kernel slid no run (`action`)."""
    w = _CURVES.get(least)
    if w is None:
        w = _CURVES[least] = CurveWord(least)
        w.normalized = True
    return w


def _reembed(code: bytes) -> CurveWord:
    """Canonical embedded realization of a minimal word's code: the live
    curve of its least rotation.  A code that no live curve holds is
    verified first (`embed._trace`)."""
    least = _least_rotation(code)
    if least not in _CURVES:
        from . import embed
        embed._trace(code)
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


def arc_census(w: CurveWord) -> dict[tuple[str, int], int]:
    """Counts |DE|_i of arc types per pair of pants; raises NotEmbeddable if a
    forbidden pair coexists.

    Read with no arc built: deleting the X/Y/Z crossings leaves each arc's
    two ends, consecutive A/B/C bytes x and y, and `_ARC_OF_ENDS[24x + y]`
    is its type and pants, as `Arc.type` reads it.
    """
    ends = ensure_normal(w).code.translate(None, _XYZ_BYTES)
    found = Counter(_ARC_OF_ENDS[24 * x + y] for x, y in zip(ends, ends[1:] + ends[:1]))
    census = {(t, i): found[t, i] for t in ARC_TYPES for i in (1, 2)}
    for t1, t2 in _FORBIDDEN_PAIRS:
        for i in (1, 2):
            if census[t1, i] and census[t2, i]:
                raise NotEmbeddable(f"incompatible arc types {t1},{t2} coexist on pants {i}")
    return census


# ------------------------------------------------------------- serialization


def to_doc(w: CurveWord) -> dict:
    w = ensure_normal(w)
    return {"format": CURVE_FORMAT, "representation": "steps", "steps": w.tokens()}


def coordinates_doc(w: CurveWord) -> dict:
    from . import embed
    coords = embed.to_coordinates(ensure_normal(w))
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
        # walked from the embedding of the coordinates, the component is a
        # closed chain, one embedded curve and spur-free, as no chord class
        # has both ends on one edge: it is its own traced core
        from . import embed
        code = embed._first_component(coords)
        return _checked(code, code)
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

# The standard curve and the pushoffs of the six system curves, pinned as the
# codes of the normalize() words of their step tokens and interned untraced,
# so that importing the package loads no re-embedding; the tests trace each
# one from its tokens.
P_CURVE = _interned(bytes.fromhex("0019071e"))

PUSHOFFS = {name: _interned(bytes.fromhex(code)) for name, code in (
    ("A", "2128"), ("B", "1829"), ("C", "1920"), ("X", "0a10"), ("Y", "0012"), ("Z", "0208"))}
