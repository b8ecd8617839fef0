"""Reference pi_1(V) reader: the tuple reader that `goeritz2.handlebody`
replaced with X's disk reading (`_DISK_READINGS`) and the free reduction of
letter bytes, kept as a test oracle.

Each crossing reads a ("b"|"c", +1|-1) letter by a hand calibration:
crossing Z front-to-back reads b (back-to-front b^-1), crossing Y
front-to-back reads c^-1 (back-to-front c), crossing X or an A/B/C edge
reads nothing.  Words are reduced on tuples, and the curve word is then
trimmed of cancelling first and last letters.  The theta word lists the
names of the crossed curves of one system, step by step.
"""

from __future__ import annotations

from goeritz2 import handlebody as hb
from goeritz2.curve import ensure_normal, split_arcs
from goeritz2.surface import CURVE_NAMES, EDGE_CURVE, EDGE_TOKENS, HEX_BALL

Letter = tuple[str, int]


def letter_for_crossing(e: int, h: int) -> Letter | None:
    curve = EDGE_CURVE[e]
    to_back = HEX_BALL[h] == 2
    if curve == 5:  # Z
        return ("b", 1 if to_back else -1)
    if curve == 4:  # Y
        return ("c", -1 if to_back else 1)
    return None  # X or an A/B/C crossing


def letters(edges, hexes) -> list[Letter]:
    return [x for x in map(letter_for_crossing, edges, hexes) if x is not None]


def reduce_word(word) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, s in word:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def cyclic_reduce(word) -> tuple[Letter, ...]:
    word = reduce_word(word)
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return word


def steps_word(steps) -> tuple[Letter, ...]:
    """The cyclically reduced reading of a closed sequence of steps."""
    return cyclic_reduce(letters(*zip(*steps))) if steps else ()


def arc_word(arc) -> tuple[Letter, ...]:
    return reduce_word(letters(arc.inner_edges, arc.inner_hexes))


def curve_v_word(w) -> tuple[Letter, ...]:
    return steps_word(ensure_normal(w).steps)


def theta_word(w, side: str) -> tuple[str, ...]:
    system = range(3, 6) if side == "V" else range(3)
    return tuple(CURVE_NAMES[EDGE_CURVE[e]] for e, _ in ensure_normal(w).steps
                 if EDGE_CURVE[e] in system)


class ArcWordReport(hb.ArcWordReport):
    """The library's report, its concatenation reduced on tuples."""

    __slots__ = ()

    def concatenation(self) -> tuple[Letter, ...]:
        return cyclic_reduce([x for entry in self.entries for x in entry.word])


def arc_pi1_words(w) -> ArcWordReport:
    w = ensure_normal(w)
    arcs = split_arcs(w)
    if not arcs:
        return ArcWordReport((hb.ArcWordEntry(0, 0, "--", "--", "--", curve_v_word(w)),), True)
    return ArcWordReport(tuple(
        hb.ArcWordEntry(i, arc.pants, arc.type, EDGE_TOKENS[arc.start_edge],
                        EDGE_TOKENS[arc.end_edge], arc_word(arc))
        for i, arc in enumerate(arcs)), False)
