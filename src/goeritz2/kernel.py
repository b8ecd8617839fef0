"""Normalization kernel: spur and generalized-bigon removal on step lists.

A curve word is passed as two parallel lists, crossed edges and entered
hexagons.  `remove_spurs` cancels spurs (an arc entering and leaving a hexagon
through the same side) in one linear pass: stack-based free cancellation, then
a trim of equal pairs at the two ends of the cyclic word.  `_find_run`
searches for a generalized bigon (a subpath crossing a curve, running parallel
to it through corner and side-skirting chords, and recrossing it), starting
from index 0, and `_slide_run` replaces it by the mirrored path on the far
side of the curve.  `normalize_steps` alternates the two to a fixed point.

Moves are free-homotopy moves: no strand-nesting checks are made here.
Callers re-embed canonically afterwards.
"""

from __future__ import annotations

from .surface import EDGE_CURVE, HEX_CURVE_SIDE, OTHER_HEX, SIDE_POS, hex_neighbors

BACKEND = "python"

# _NEIGHBORS[h][e]: the sides of hexagon h next to its side e.
_NEIGHBORS = tuple(
    tuple(hex_neighbors(h, e) if SIDE_POS[h][e] >= 0 else (-1, -1) for e in range(12))
    for h in range(4)
)


def remove_spurs(es: list[int], hs: list[int]) -> tuple[list[int], list[int]]:
    """The cyclic word with every spur pair cancelled, as new lists.

    Removes the same steps as cancelling the leftmost adjacent pair until none
    is left and then the wrap-around pair (last, first) while they are equal.
    """
    out_e: list[int] = []
    out_h: list[int] = []
    for e, h in zip(es, hs):
        if out_e and out_e[-1] == e:
            out_e.pop()
            out_h.pop()
        else:
            out_e.append(e)
            out_h.append(h)
    i, j = 0, len(out_e) - 1
    while i < j and out_e[i] == out_e[j]:
        i += 1
        j -= 1
    return out_e[i:j + 1], out_h[i:j + 1]


def _find_run(es: list[int], hs: list[int]) -> tuple[int, list[int], int] | None:
    """Find a bigon run: (start index, fence indices, end index), or None."""
    n = len(es)
    for i in range(n):
        curve = EDGE_CURVE[es[i]]
        cur = hs[i]
        fences: list[int] = []
        k = i
        while True:
            nk = (k + 1) % n
            if nk == i:
                break
            f = es[nk]
            dside = HEX_CURVE_SIDE[cur][curve]
            nb = _NEIGHBORS[cur][dside]
            if not fences:
                # first chord leaves the crossed edge itself
                if f == nb[0] or f == nb[1]:
                    fences.append(nk)
                    cur = hs[nk]
                    k = nk
                    continue
                break
            if f == dside:
                return i, fences, nk
            g = es[k]
            other_fence = nb[0] if nb[1] == g else nb[1] if nb[0] == g else -1
            if f == other_fence:
                fences.append(nk)
                cur = hs[nk]
                k = nk
                continue
            break
    return None


def _slide_run(es: list[int], hs: list[int], i: int, fences: list[int],
               end: int) -> tuple[list[int], list[int]]:
    """The word with the run replaced by the mirrored fence path on the far side.

    The result starts just after the run's end and closes with the new path.
    """
    out_e = es[end + 1:] + es[:i] if end > i else es[end + 1:i]
    out_h = hs[end + 1:] + hs[:i] if end > i else hs[end + 1:i]
    cur = OTHER_HEX[es[i]][hs[i]]
    for idx in fences:
        fp = es[idx] ^ 1
        cur = OTHER_HEX[fp][cur]
        out_e.append(fp)
        out_h.append(cur)
    return out_e, out_h


def normalize_steps(es: list[int], hs: list[int]) -> tuple[list[int], list[int]]:
    """Spur and bigon removal to a fixed point.  May return empty lists."""
    es, hs = remove_spurs(es, hs)
    while es:
        run = _find_run(es, hs)
        if run is None:
            break
        es, hs = _slide_run(es, hs, *run)
        es, hs = remove_spurs(es, hs)
    return es, hs
