"""Curve words in the handlebody fundamental groups and disk-bounding tests.

The inner handlebody V is a neighborhood of a theta graph whose three edges are
dual to the disks bounded by X, Y, Z; the outer handlebody W plays the same
role with A, B, C.  A curve's crossing sequence with either disk triple is an
edge path in the corresponding theta graph, and the curve bounds a disk on that
side iff the path backtracks to nothing (adjacent equal letters cancel,
cyclically).

pi_1(V) is free on b, c where b is the core loop dual to the Z-disk and c the
core loop dual to the Y-disk.  Reading rule for a traversal: crossing Z
front-to-back contributes b (back-to-front b^-1), crossing Y front-to-back
contributes c^-1 (back-to-front c), crossing X contributes nothing (the
basepoint disk).  This calibration makes the B-pushoff read "b", the C-pushoff
read "c", and reproduces the catalogued words of curve arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curve import (
    Arc,
    CurveWord,
    _bounds_disk,
    _theta_letters,
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
from .surface import EDGE_CURVE, EDGE_INDEX, EDGE_TOKENS, HEX_BALL

# ------------------------------------------------------------- free words

Letter = tuple[str, int]  # ("b"|"c", +1|-1)


def _reduce_word(letters: list[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _cyclic_reduce(word: tuple[Letter, ...]) -> tuple[Letter, ...]:
    word = _reduce_word(list(word))
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return word


def word_str(word: tuple[Letter, ...]) -> str:
    if not word:
        return "1"
    return ".".join(g if s > 0 else f"{g}^-1" for g, s in word)


def _letter_for_crossing(e: int, h: int) -> Letter | None:
    curve = EDGE_CURVE[e]
    to_back = HEX_BALL[h] == 2
    if curve == 5:  # Z
        return ("b", 1 if to_back else -1)
    if curve == 4:  # Y
        return ("c", -1 if to_back else 1)
    return None  # X or an A/B/C crossing


# ------------------------------------------------------------- theta words


def _normal_code(w: CurveWord, side: str) -> bytes:
    if side not in ("V", "W"):
        raise MalformedInput(f"side must be 'V' or 'W', got {side!r}")
    return ensure_normal(w).code


def theta_word(w: CurveWord, side: str) -> tuple[str, ...]:
    """Cyclic projection of the crossing sequence to one disk system (V or W)."""
    return tuple(_theta_letters(_normal_code(w, side), side))


def bounds_disk(w: CurveWord, side: str) -> bool:
    """True iff the theta word cancels to nothing, i.e. the curve bounds a disk."""
    return _bounds_disk(_normal_code(w, side), side)


def _normal_reason(w: CurveWord) -> str | None:
    """`reducing_reason` of a normalized word."""
    if not is_separating(w):
        return "nonseparating"
    if not bounds_disk(w, "V"):
        return "no-disk-V"
    if not bounds_disk(w, "W"):
        return "no-disk-W"
    return None


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


def _letters(edges, hexes) -> list[Letter]:
    return [x for x in map(_letter_for_crossing, edges, hexes) if x is not None]


def arc_word(arc: Arc) -> tuple[Letter, ...]:
    return _reduce_word(_letters(arc.inner_edges, arc.inner_hexes))


def curve_v_word(w: CurveWord) -> tuple[Letter, ...]:
    """The whole curve read in pi_1(V), cyclically reduced."""
    w = ensure_normal(w)
    return _cyclic_reduce(tuple(_letters(*zip(*w.steps))))


@dataclass(frozen=True)
class ArcWordEntry:
    index: int
    pants: int
    type: str
    start_edge: str   # refined token, e.g. "A1"
    end_edge: str
    word: tuple[Letter, ...]

    def word_text(self) -> str:
        return word_str(self.word)


def join_cancellations(words: list[tuple[Letter, ...]]) -> list[int]:
    """Indices i where words[i] ends with the inverse of the start of words[i+1 mod n]."""
    return [i for i, (wi, wj) in enumerate(zip(words, words[1:] + words[:1]))
            if wi and wj and wi[-1][0] == wj[0][0] and wi[-1][1] == -wj[0][1]]


@dataclass(frozen=True)
class ArcWordReport:
    entries: tuple[ArcWordEntry, ...]
    closed_loop: bool  # True when the curve never crosses A, B or C

    def concatenation(self) -> tuple[Letter, ...]:
        letters: list[Letter] = []
        for entry in self.entries:
            letters.extend(entry.word)
        return _cyclic_reduce(_reduce_word(letters))

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


@dataclass
class ConstraintReport:
    aa_lengths: list[int] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

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
