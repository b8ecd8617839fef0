"""Reference arc readings: the step-walking `split_arcs` and `_census` that
`goeritz2.curve` replaced with one reader of the A/B/C positions of the
code, kept as a test oracle.

`split_arcs` decodes the word into step tuples and walks from each A/B/C
crossing to the next, checking that every inner crossing enters a hexagon of
the arc's pants.  Arc types are read by sorting curve names.
"""

from __future__ import annotations

from goeritz2.curve import ARC_TYPES, Arc, ensure_normal
from goeritz2.errors import InternalInvariantError
from goeritz2.surface import CURVE_NAMES, EDGE_CURVE, HEX_PANTS


def arc_type(arc: Arc) -> str:
    return "".join(sorted(CURVE_NAMES[EDGE_CURVE[e]] for e in (arc.start_edge, arc.end_edge)))


def split_arcs(w) -> list[Arc]:
    """Cut the cyclic word at its A/B/C crossings, in traversal order."""
    steps = ensure_normal(w).steps
    n = len(steps)
    marks = [i for i in range(n) if EDGE_CURVE[steps[i][0]] < 3]
    arcs = []
    for k, i in enumerate(marks):
        j = marks[(k + 1) % len(marks)]
        inner_e, inner_h = [], []
        pants = HEX_PANTS[steps[i][1]]
        t = (i + 1) % n
        while t != j:
            e, h = steps[t]
            if HEX_PANTS[h] != pants:
                raise InternalInvariantError("arc crosses a pants boundary silently")
            inner_e.append(e)
            inner_h.append(h)
            t = (t + 1) % n
        arcs.append(Arc(pants, steps[i][0], steps[j][0], tuple(inner_e), tuple(inner_h)))
    return arcs


def census(arcs: list[Arc]) -> dict[tuple[str, int], int]:
    """Arc-type counts per pair of pants (no forbidden-pair check)."""
    out = {(t, i): 0 for t in ARC_TYPES for i in (1, 2)}
    for arc in arcs:
        out[(arc_type(arc), arc.pants)] += 1
    return out

