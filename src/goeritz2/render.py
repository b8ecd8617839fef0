"""Static SVG rendering of the four-hexagon net with a curve's chords.

Purely presentational: the four hexagons are drawn in a 2x2 grid with labeled
sides and corners, and each in-hexagon arc of the curve is a straight chord
between its two crossing points.  Crossing points are spread along each side
in their order on the edge in the normal embedding, so no two chords cross.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .curve import _ORIGIN, CurveWord, _trace, counts, ensure_normal
from .surface import CORNER_AFTER, EDGE_TOKENS, HEX_SIDES, HEX_TOKENS, SIDE_POS, VERTEX_TOKENS

_CENTERS = {0: (160.0, 160.0), 1: (480.0, 160.0), 2: (160.0, 480.0), 3: (480.0, 480.0)}
_RADIUS = 120.0


def _corner(h: int, i: int) -> tuple[float, float]:
    cx, cy = _CENTERS[h]
    ang = math.radians(-90 + 60 * i)
    return (cx + _RADIUS * math.cos(ang), cy + _RADIUS * math.sin(ang))


def _side_points(h: int, p: int) -> tuple[tuple[float, float], tuple[float, float]]:
    return _corner(h, p), _corner(h, (p + 1) % 6)


def _crossing_point(h: int, e: int, slot: int, total: int) -> tuple[float, float]:
    p = SIDE_POS[h][e]
    (x1, y1), (x2, y2) = _side_points(h, p)
    # side runs corner p -> corner p+1; corner p carries vertex CORNER_AFTER[p-1]
    start_vertex = CORNER_AFTER[(p - 1) % 6]
    t = (slot + 1) / (total + 1)
    if _ORIGIN[e] != start_vertex:
        t = 1.0 - t
    return (x1 + (x2 - x1) * t, y1 + (y2 - y1) * t)


def _ranks(code: bytes) -> tuple[list[int], list[int]]:
    """Each crossing's rank along its edge (0 nearest the edge's origin) and
    each edge's crossing count.  The normal curve numbers the slots edge by
    edge, so position p's rank is its traced slot minus the slots of the
    edges before its own."""
    _, path, r = _trace(code)
    n, size = len(code), [0] * 12
    for x in code:
        size[x >> 2] += 1
    base = list(accumulate(size, initial=0))
    return [(path[(p - r) % n] >> 1) - base[code[p] >> 2] for p in range(n)], size


def render_svg(w: CurveWord | None = None, title: str = "") -> str:
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="660" '
             'viewBox="0 0 640 660">',
             '<style>text{font-family:monospace;font-size:11px}'
             '.edge{fill:#555}.vert{fill:#a00}.hex{fill:none;stroke:#333}'
             '.curve{stroke:#06c;stroke-width:1.6;fill:none}</style>']
    if title:
        parts.append(f'<text x="12" y="646" class="edge">{title}</text>')
    for h in range(4):
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in (_corner(h, i) for i in range(6)))
        parts.append(f'<polygon class="hex" points="{pts}"/>')
        cx, cy = _CENTERS[h]
        parts.append(f'<text x="{cx - 12:.0f}" y="{cy + 4:.0f}" class="edge">'
                     f'{HEX_TOKENS[h]}</text>')
        for p in range(6):
            (x1, y1), (x2, y2) = _side_points(h, p)
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            ox, oy = (mx - cx) * 0.12, (my - cy) * 0.12
            parts.append(f'<text x="{mx + ox - 8:.0f}" y="{my + oy + 4:.0f}" '
                         f'class="edge">{EDGE_TOKENS[HEX_SIDES[h][p]]}</text>')
            vx, vy = _corner(h, p)
            vox, voy = (vx - cx) * 0.10, (vy - cy) * 0.10
            parts.append(f'<text x="{vx + vox - 8:.0f}" y="{vy + voy + 4:.0f}" '
                         f'class="vert">{VERTEX_TOKENS[CORNER_AFTER[(p - 1) % 6]]}</text>')
    if w is not None:
        w = ensure_normal(w)
        rank, size = _ranks(w.code)
        steps = w.steps
        n = len(steps)
        for i in range(n):
            h = steps[i][1]
            e_in, e_out = steps[i][0], steps[(i + 1) % n][0]
            p1 = _crossing_point(h, e_in, rank[i], size[e_in])
            p2 = _crossing_point(h, e_out, rank[(i + 1) % n], size[e_out])
            parts.append(f'<path class="curve" d="M {p1[0]:.1f} {p1[1]:.1f} '
                         f'L {p2[0]:.1f} {p2[1]:.1f}"/>')
        c = counts(w)
        parts.append(f'<text x="12" y="628" class="edge">counts a..z = '
                     f'{c.as_tuple()}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
