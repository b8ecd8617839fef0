"""Reference dominance reading: the `_dominance` that `goeritz2.reduction`
replaced with three comparisons and one adjacency test of the B/C
crossings, kept as a test oracle.

It works the trichotomy out with tuples, and for an A-dominant curve it
reads the full arc census: no BB, BC or CC arc on either pants, and as many
AA, AB and AC arcs on one pants as on the other.
"""

from __future__ import annotations

from goeritz2.curve import arc_census
from goeritz2.errors import TrichotomyViolation


def dominance(w, abc: tuple[int, int, int]) -> str:
    a, b, c = abc
    sums = (("A", a, b + c), ("B", b, c + a), ("C", c, a + b))
    dominant = [name for name, x, rest in sums if x > rest]
    if len(dominant) != 1:
        raise TrichotomyViolation(f"counts {abc} satisfy {len(dominant)} inequalities")
    if any(x == rest for _, x, rest in sums):
        raise TrichotomyViolation(f"degenerate counts {abc}")
    if dominant[0] == "A":
        census = arc_census(w)
        for t in ("BB", "BC", "CC"):
            if census[(t, 1)] or census[(t, 2)]:
                raise TrichotomyViolation(f"A-dominant curve carries a {t} arc")
        for t in ("AA", "AB", "AC"):
            if census[(t, 1)] != census[(t, 2)]:
                raise TrichotomyViolation(f"{t} arc counts differ between the two pants")
    return dominant[0]
