"""Reference chain check: the per-step loop over step tuples that
`goeritz2.embed._check_chain` replaced with one table read for all steps at
once, kept as a test oracle.

Each step (e, h) must enter a hexagon h of its edge e, and the next step's
edge must be a side of h and enter the hexagon across it; the first failure
met, in step order, is raised.
"""

from __future__ import annotations

from goeritz2.errors import MalformedWord
from goeritz2.surface import EDGE_HEXES, EDGE_TOKENS, HEX_TOKENS, OTHER_HEX, SIDE_POS


def check_chain(steps: list[tuple[int, int]]) -> None:
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
