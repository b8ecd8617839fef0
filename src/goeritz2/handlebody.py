"""Curve words in the handlebody fundamental groups and disk-bounding tests.

The inner handlebody V is a neighborhood of a theta graph whose three edges are
dual to the disks bounded by X, Y, Z; the outer handlebody W plays the same
role with A, B, C.  The graph's two vertices are the two sides of the triple:
the front and back balls for X/Y/Z (`HEX_BALL`), the pants sigma_1 and
sigma_2 for A/B/C (`HEX_PANTS`), read from the hexagon each step enters.  A
curve's crossings with either triple are a closed edge path in that graph,
each crossing entering the side the next one leaves, and the curve bounds a
disk on that side iff the path is null-homotopic.

The graph's pi_1 is free on two of its edges, the third spanning the tree.
With a disk's edge as the tree, one `translate` through that disk's table
(`_DISK_READINGS`, one per system curve) drops the crossings of that disk
and of the other system, and reads each other crossing as a letter byte:
the k-th other disk of the system entering side s reads 2k + s - 1, so a
letter's inverse, the same disk entering the other side, is the letter ^ 1.
One loop freely reduces a word of letter bytes (`_free_reduction`).
`bounds_disk` takes as the tree the disk the curve crosses most, from the
counts the curve keeps, so those crossings read nothing, and the curve
bounds a disk iff its reading reduces to nothing.  Every tree gives the
same verdict; the most-crossed one leaves the fewest letters.  `theta_word`
lists the crossed curves in order: in Z/2 * Z/2 * Z/2, where adjacent equal
letters cancel, they cancel to nothing exactly when the path does.

The curve and arc words read pi_1(V) with X's disk as the tree: it is free
on b, c, where b is the core loop dual to the Z-disk and c the core loop
dual to the Y-disk.  Crossing Z front-to-back reads b (back-to-front b^-1),
crossing Y front-to-back reads c^-1 (back-to-front c), crossing X reads
nothing: X's table reads c, c^-1, b^-1, b as the letter bytes 0-3, which
`_LETTERS` turns into `Letter` pairs.  This calibration makes the B-pushoff
read "b", the C-pushoff read "c", and reproduces the catalogued words of
curve arcs.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .curve import (
    Arc,
    CurveWord,
    SlotRecord,
    _ABC_BYTES,
    _CURVE_OF_BYTE,
    _UNCHECKED,
    _XYZ_BYTES,
    _encode,
    counts,
    ensure_normal,
    is_separating,
    split_arcs,
)
from .errors import (
    ConstraintViolation,
    EmptyAfterNormalization,
    MalformedInput,
    NotReducing,
)
from .surface import CURVE_NAMES, EDGE_CURVE, EDGE_INDEX, EDGE_TOKENS, X, side_of

# ------------------------------------------------------------- pi_1 readings

Letter = tuple[str, int]  # ("b"|"c", +1|-1)


def _disk_reading(base: int) -> tuple[bytes, bytes]:
    """The table and the deleted bytes that read a code in pi_1 of the
    handlebody of base's system, base's disk spanning the tree: a step byte
    of the k-th other disk of the system entering side s reads 2k + s - 1."""
    others = [c for c in (range(3) if base < 3 else range(3, 6)) if c != base]
    read = bytes(x for x in range(48) if EDGE_CURVE[x >> 2] in others)
    letters = bytes(2 * others.index(EDGE_CURVE[x >> 2]) + side_of(base, x & 3) - 1 for x in read)
    return bytes.maketrans(read, letters), bytes(x for x in range(48) if x not in read)


_DISK_READINGS = tuple(map(_disk_reading, range(6)))
_X_READING = _DISK_READINGS[X]
# the Letter of each letter byte of X's reading
_LETTERS: tuple[Letter, ...] = (("c", 1), ("c", -1), ("b", -1), ("b", 1))
_INVERSE = bytes(x ^ 1 for x in range(256))
# the system curve's name of each step byte, as an ASCII byte
_LETTER_OF_BYTE = bytes(CURVE_NAMES[c].encode()[0] if c < 6 else 0 for c in _CURVE_OF_BYTE)


def _free_reduction(letters: bytes) -> bytes:
    """The free reduction of a word of letter bytes, where the inverse of a
    letter is the letter ^ 1.

    The loop keeps the inverse of the top of the stack in a local, which
    the next letter cancels when it equals it; below the stack's inverses
    lies the sentinel -2, which matches no letter."""
    stack: list[int] = []
    inverse = -2
    for c in letters:
        if c == inverse:
            inverse = stack.pop()
        else:
            stack.append(inverse)
            inverse = c ^ 1
    if inverse < 0:
        return b""
    stack.append(inverse)
    return bytes(stack[1:]).translate(_INVERSE)


def _cyclic_word(letters: bytes) -> tuple[Letter, ...]:
    """The cyclic reduction of a word of X's letter bytes, as Letters: the
    free reduction, less each pair of a first and a last letter that cancel."""
    word = _free_reduction(letters)
    k = 0
    while 2 * k + 1 < len(word) and word[k] == word[-1 - k] ^ 1:
        k += 1
    return tuple(map(_LETTERS.__getitem__, word[k:len(word) - k]))


def word_str(word: tuple[Letter, ...]) -> str:
    if not word:
        return "1"
    return ".".join(g if s > 0 else f"{g}^-1" for g, s in word)


# ------------------------------------------------------------- theta words


def _normal_word(w: CurveWord, side: str) -> CurveWord:
    if side not in ("V", "W"):
        raise MalformedInput(f"side must be 'V' or 'W', got {side!r}")
    return ensure_normal(w)


def theta_word(w: CurveWord, side: str) -> tuple[str, ...]:
    """Cyclic projection of the crossing sequence to one disk system (V or W)."""
    code = _normal_word(w, side).code
    return tuple(code.translate(_LETTER_OF_BYTE, _ABC_BYTES if side == "V" else _XYZ_BYTES)
                 .decode())


def bounds_disk(w: CurveWord, side: str) -> bool:
    """True iff the curve bounds a disk on that side: its crossings read in
    pi_1, the system's most-crossed disk spanning the tree, freely reduce to
    nothing (`_free_reduction`)."""
    w = _normal_word(w, side)
    lo = 3 if side == "V" else 0
    x, y, z = counts(w)[lo:lo + 3]
    base = lo if x >= y and x >= z else lo + 1 if y >= z else lo + 2
    return not _free_reduction(w.code.translate(*_DISK_READINGS[base]))


def _normal_reason(w: CurveWord) -> str | None:
    """`reducing_reason` of a normalized word, decided once per object and
    kept on it (`CurveWord`)."""
    if w._reason is not _UNCHECKED:
        return w._reason
    if not is_separating(w):
        reason = "nonseparating"
    elif not bounds_disk(w, "V"):
        reason = "no-disk-V"
    elif not bounds_disk(w, "W"):
        reason = "no-disk-W"
    else:
        reason = None
    w._reason = reason
    return reason


def reducing_reason(w: CurveWord) -> str | None:
    """None if w is a reducing curve, else a reason code."""
    try:
        w = ensure_normal(w)
    except EmptyAfterNormalization:
        return "empty"
    return _normal_reason(w)


def is_reducing(w: CurveWord) -> bool:
    return reducing_reason(w) is None


def require_reducing(w: CurveWord) -> CurveWord:
    """The normalized word of a reducing curve; raises NotReducing otherwise.
    The input is normalized once."""
    try:
        w = ensure_normal(w)
    except EmptyAfterNormalization:
        raise NotReducing("empty") from None
    reason = _normal_reason(w)
    if reason is not None:
        raise NotReducing(reason)
    return w


# --------------------------------------------------------------- arc words


def arc_word(arc: Arc) -> tuple[Letter, ...]:
    letters = _encode(zip(arc.inner_edges, arc.inner_hexes)).translate(*_X_READING)
    return tuple(map(_LETTERS.__getitem__, _free_reduction(letters)))


def curve_v_word(w: CurveWord) -> tuple[Letter, ...]:
    """The whole curve read in pi_1(V), cyclically reduced."""
    return _cyclic_word(ensure_normal(w).code.translate(*_X_READING))


class ArcWordEntry(namedtuple("ArcWordEntry", "index pants type start_edge end_edge word")):
    """One arc's pi_1 word; start_edge and end_edge are refined tokens, e.g. "A1"."""

    __slots__ = ()

    def word_text(self) -> str:
        return word_str(self.word)


def join_cancellations(words: list[tuple[Letter, ...]]) -> list[int]:
    """Indices i where words[i] ends with the inverse of the start of words[i+1 mod n]."""
    return [i for i, (wi, wj) in enumerate(zip(words, words[1:] + words[:1]))
            if wi and wj and wi[-1][0] == wj[0][0] and wi[-1][1] == -wj[0][1]]


class ArcWordReport(namedtuple("ArcWordReport", "entries closed_loop")):
    """The arc words of a curve, in order; closed_loop is True when the curve
    never crosses A, B or C."""

    __slots__ = ()

    def concatenation(self) -> tuple[Letter, ...]:
        letters = chain.from_iterable(entry.word for entry in self.entries)
        return _cyclic_word(bytes(map(_LETTERS.index, letters)))

    def as_doc(self) -> dict:
        return {
            "format": "goeritz-arc-words/1",
            "closed_loop": self.closed_loop,
            "arcs": [{"index": e.index, "pants": e.pants, "type": e.type, "start": e.start_edge,
                      "end": e.end_edge, "word": e.word_text()} for e in self.entries],
            "concatenation": word_str(self.concatenation()),
        }

    def as_table(self) -> str:
        bad = set(join_cancellations([e.word for e in self.entries]))
        lines = ["idx  pants  type  start  end    join      word"]
        for e in self.entries:
            join = "cancels!" if e.index in bad else "reduced"
            lines.append(
                f"{e.index:<4} {e.pants:<6} {e.type:<5} {e.start_edge:<6} "
                f"{e.end_edge:<6} {join:<9} {e.word_text()}")
        lines.append(f"concatenation: {word_str(self.concatenation())}")
        return "\n".join(lines)


def arc_pi1_words(w: CurveWord) -> ArcWordReport:
    w = ensure_normal(w)
    arcs = split_arcs(w)
    if not arcs:
        full = curve_v_word(w)
        entry = ArcWordEntry(0, 0, "--", "--", "--", full)
        return ArcWordReport((entry,), closed_loop=True)
    entries = tuple(
        ArcWordEntry(
            i, arc.pants, arc.type,
            EDGE_TOKENS[arc.start_edge], EDGE_TOKENS[arc.end_edge], arc_word(arc))
        for i, arc in enumerate(arcs)
    )
    return ArcWordReport(entries, closed_loop=False)


# -------------------------------------------------- word-form constraints


def _is_power_of(word: tuple[Letter, ...], gen: str) -> bool:
    return all(g == gen for g, _ in word)


# the one prefix letter an AB (AC) arc word may carry, starting on A1 or on A2
_FORM_PREFIX = {"AB": (("c", -1), ("c", 1)), "AC": (("b", 1), ("b", -1))}


def _matches_form(word: tuple[Letter, ...], arc_type: str, start_index: int) -> bool:
    """Arc from A to B (C): word b^k (c^k), after at most the prefix letter."""
    power = arc_type[1].lower()
    return _is_power_of(word, power) or (
        word[0] == _FORM_PREFIX[arc_type][start_index - 1] and _is_power_of(word[1:], power))


class ConstraintReport(SlotRecord):
    __slots__ = ("aa_lengths", "checks", "violations")

    def __init__(self, aa_lengths: list[int] | None = None, checks: dict[str, bool] | None = None,
                 violations: list[str] | None = None):
        self.aa_lengths = [] if aa_lengths is None else aa_lengths
        self.checks = {} if checks is None else checks
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_table(self) -> str:
        lines = [f"{'check':34} result"]
        for name, passed in self.checks.items():
            lines.append(f"{name:34} {'pass' if passed else 'FAIL'}")
        for v in self.violations:
            lines.append(f"  - {v}")
        return "\n".join(lines)


def check_word_constraints(w: CurveWord, strict: bool = True) -> ConstraintReport:
    """Verify the catalogued word forms for a reducing curve with a > b + c."""
    w = require_reducing(w)
    c = counts(w)
    if not c.a > c.b + c.c:
        raise MalformedInput("word-form checks require an A-dominant curve")
    report = ConstraintReport()
    arcs = split_arcs(w)
    words = [arc_word(a) for a in arcs]

    aa_ok = xing_ok = form_ok = True
    for arc, word in zip(arcs, words):
        if arc.type == "AA":
            report.aa_lengths.append(len(word))
            if len(word) > 2:
                aa_ok = False
                report.violations.append(
                    f"AA arc word {word_str(word)} has length {len(word)}")
            x_crossings = sum(1 for e in arc.inner_edges if EDGE_CURVE[e] == 3)
            if x_crossings != 1:
                xing_ok = False
                report.violations.append(
                    f"AA arc crosses X {x_crossings} times")
        elif arc.type in ("AB", "AC"):
            a_end = arc.start_edge if EDGE_CURVE[arc.start_edge] == 0 else arc.end_edge
            oriented = word if EDGE_CURVE[arc.start_edge] == 0 else tuple(
                (g, -s) for g, s in reversed(word))
            if not _matches_form(oriented, arc.type, EDGE_INDEX[a_end]):
                form_ok = False
                report.violations.append(
                    f"{arc.type} arc word {word_str(word)} not of catalogued form")
        else:
            form_ok = False
            report.violations.append(f"unexpected arc type {arc.type} in A-dominant case")
    report.checks["aa-word-length-at-most-2"] = aa_ok
    report.checks["aa-arc-crosses-x-once"] = xing_ok
    report.checks["ab-ac-word-forms"] = form_ok

    joins = join_cancellations(words)
    report.checks["no-trivial-relator-at-joins"] = not joins
    for i in joins:
        report.violations.append(f"trivial relator at join of arcs {i},{i + 1}")

    has_single = any(a.type == "AA" and len(word) == 1
                     for a, word in zip(arcs, words))
    two_letter_pants = {a.pants for a, word in zip(arcs, words)
                        if a.type == "AA" and len(word) == 2}
    excl = has_single or two_letter_pants != {1, 2}
    report.checks["two-letter-aa-one-side-only"] = excl
    if not excl:
        report.violations.append(
            "no single-letter AA word, yet both pants carry two-letter AA words")

    if strict and not report.ok:
        raise ConstraintViolation("; ".join(report.violations))
    return report
