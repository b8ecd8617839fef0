"""Reference kernel: the list-based spur removal, bigon-run search and slide
on parallel lists of edges and hexagons, which the step-byte kernel of
`goeritz2.kernel` replaced, kept as a test oracle.

`_remove_spurs` deletes each cancelled pair in place and resumes its scan
just before the pair, so it cancels the pairs in the order a rescan from
index 0 would.  The surface tables are kept as flat copies (an edge that is
not a side of a hexagon maps to -1), as they were in the replaced module.

`first_run` is the bigon-run search on curve positions one start and one
step at a time, through the walk's transition table, which the kernel's
prefilter and per-start walk read before one table of position triples
replaced them; `triple_kind` reads each triple's kind off that table.
"""

from __future__ import annotations

_EDGE_CURVE = (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)
_HEX_SIDES = (
    (0, 10, 2, 6, 4, 8),
    (1, 10, 3, 6, 5, 8),
    (0, 11, 2, 7, 4, 9),
    (1, 11, 3, 7, 5, 9),
)
_SIDE_POS = tuple(
    tuple({e: p for p, e in enumerate(sides)}.get(e, -1) for e in range(12))
    for sides in _HEX_SIDES
)
_EDGE_HEXES = tuple(
    tuple(h for h in range(4) if _SIDE_POS[h][e] >= 0) for e in range(12)
)
_OTHER_HEX = tuple(
    tuple(
        (_EDGE_HEXES[e][0] if h == _EDGE_HEXES[e][1] else _EDGE_HEXES[e][1])
        if h in _EDGE_HEXES[e] else -1
        for h in range(4)
    )
    for e in range(12)
)
_HEX_CURVE_SIDE = tuple(
    tuple(next(e for e in sides if _EDGE_CURVE[e] == c) for c in range(6))
    for sides in _HEX_SIDES
)
_NEIGHBORS = tuple(
    tuple(
        (sides[(_SIDE_POS[h][e] - 1) % 6], sides[(_SIDE_POS[h][e] + 1) % 6])
        if _SIDE_POS[h][e] >= 0 else (-1, -1)
        for e in range(12)
    )
    for h, sides in enumerate(_HEX_SIDES)
)


def _remove_spurs(es: list[int], hs: list[int]) -> bool:
    """Remove one round of spur pairs; True if anything changed.

    Each pass cancels the first spur pair from index 0.  No pair before it
    is a spur, and deleting it changes only the pair it leaves behind at
    index hit - 1 (or, when the pair wraps round the end, the last one), so
    the next search resumes there and deletes the pairs a restart from 0
    would."""
    changed, start = False, 0
    while True:
        n = len(es)
        if n < 2:
            return changed
        hit = -1
        for i in range(start, n):
            if es[i] == es[(i + 1) % n]:
                hit = i
                break
        if hit < 0:
            return changed
        changed = True
        j = (hit + 1) % n
        for k in sorted((hit, j), reverse=True):
            del es[k]
            del hs[k]
        start = min(max(hit - 1, 0), n - 3)


def _find_run(es: list[int], hs: list[int]) -> tuple[int, list[int], int] | None:
    """Find a bigon run: (start index, fence indices, end index), or None."""
    for i in range(len(es)):
        run = run_from(es, hs, i)
        if run is not None:
            return run
    return None


def run_from(es: list[int], hs: list[int], i: int) -> tuple[int, list[int], int] | None:
    """The bigon run that starts at index i, or None if the walk from i fails."""
    n = len(es)
    d = es[i]
    curve = _EDGE_CURVE[d]
    cur = hs[i]
    fences: list[int] = []
    k = i
    while True:
        nk = (k + 1) % n
        if nk == i:
            return None
        f = es[nk]
        dside = _HEX_CURVE_SIDE[cur][curve]
        if not fences:
            # first chord leaves the crossed edge itself
            nb = _NEIGHBORS[cur][dside]
            if f == nb[0] or f == nb[1]:
                fences.append(nk)
                cur = hs[nk]
                k = nk
                continue
            return None
        if f == dside:
            return i, fences, nk
        g = es[k]
        nb = _NEIGHBORS[cur][dside]
        other_fence = nb[0] if nb[1] == g else nb[1] if nb[0] == g else -1
        if f == other_fence:
            fences.append(nk)
            cur = hs[nk]
            k = nk
            continue
        return None


def _slide_run(es: list[int], hs: list[int], i: int, fences: list[int], end: int) -> None:
    """Replace the run with the mirrored fence path on the far side of the curve."""
    n = len(es)
    order = [i] + fences + [end]
    h_before = _OTHER_HEX[es[i]][hs[i]]
    new_steps = []
    cur = h_before
    for idx in fences:
        fp = es[idx] ^ 1
        nxt = _OTHER_HEX[fp][cur]
        new_steps.append((fp, nxt))
        cur = nxt
    # rebuild: walk the old word from end+1 around to i-1, then append new steps
    out_e: list[int] = []
    out_h: list[int] = []
    k = (end + 1) % n
    while k != i:
        out_e.append(es[k])
        out_h.append(hs[k])
        k = (k + 1) % n
    for e, h in new_steps:
        out_e.append(e)
        out_h.append(h)
    es[:] = out_e
    hs[:] = out_h


def normalize_steps(es: list[int], hs: list[int]) -> tuple[list[int], list[int]]:
    """Spur and bigon removal to a fixed point.  May return empty lists."""
    es = list(es)
    hs = list(hs)
    while True:
        _remove_spurs(es, hs)
        if not es:
            return es, hs
        run = _find_run(es, hs)
        if run is None:
            return es, hs
        _slide_run(es, hs, *run)


# Walk states, all below 32 so that a state times 8 plus a position fits a byte:
# 0 failed, 1 returned, 2 + p crossed the curve at p, 8 + 2p + (last fence at p + 1).
_FAILED, _RETURNED = 0, 1
_START = bytes(2 + p if p < 6 else _FAILED for p in range(256))


def _transitions() -> bytes:
    """Next state of every byte 8 * state + position."""
    step = bytearray(256)
    step[8 * _RETURNED:8 * _RETURNED + 8] = bytes((_RETURNED,)) * 8
    for p in range(6):
        for sigma in (1, -1):
            fence = 8 + 2 * p + (sigma == 1)
            step[8 * (2 + p) + (p + sigma) % 6] = fence
            step[8 * fence + p] = _RETURNED
            step[8 * fence + (p - sigma) % 6] = 8 + 2 * p + (sigma == -1)
    return bytes(step)


_STEP = _transitions()


def first_run(pos: bytes, n: int) -> tuple[int, int] | None:
    """The smallest start i whose walk returns, and the index k < i + n where
    it returns, given the positions `pos` of the doubled word's crossed
    curves; None if every walk fails."""
    for i in range(n):
        s = _START[pos[i]]
        for k in range(i + 1, i + n):
            s = _STEP[8 * s + pos[k]]
            if s <= _RETURNED:
                break
        if s == _RETURNED:
            return i, k
    return None


def _two_steps(state: int, p1: int, p2: int) -> int:
    """The state after steps to p1 and p2, failed if the first ends the walk."""
    one = _STEP[8 * state + p1]
    return _STEP[8 * one + p2] if one > _RETURNED else _FAILED


def triple_kind(p0: int, p1: int, p2: int) -> str:
    """The kind of the positions p0 p1 p2 in a walk: "s" if a walk from p0
    returns at p2, "o" if it is still alive there, "a" if a walk whose last
    fence is p0 is still alive at p2, "c" if it returns at p2, else "-"."""
    two = _two_steps(_START[p0], p1, p2)
    if two != _FAILED:
        return "s" if two == _RETURNED else "o"
    # the walks whose last fence is p0: about the curve at p0 - 1 or p0 + 1
    for p, last_above in (((p0 - 1) % 6, True), ((p0 + 1) % 6, False)):
        two = _two_steps(8 + 2 * p + last_above, p1, p2)
        if two != _FAILED:
            return "c" if two == _RETURNED else "a"
    return "-"
