"""The fixed cell structure of the genus-2 surface cut by the six curves A,B,C,X,Y,Z.

Six curves, two transverse triples.  A,B,C are pairwise disjoint and cut the
surface into two pairs of pants (sigma_1, sigma_2); X,Y,Z are pairwise disjoint
meridians of the inner handlebody and cut the surface into two more pants
("front" and "back").  Each curve meets exactly two curves of the other triple
once each, giving 6 vertices, 12 edges and 4 hexagons.

The vertex set is {AY, AZ, BZ, BX, CX, CY}.  Each curve D contributes two edges
D1, D2 joining its two vertices.  Hexagon side tables:

    H1 = (A1, Z1, B1, X1, C1, Y1)     pants 1, front
    H2 = (A2, Z1, B2, X1, C2, Y1)     pants 1, back
    H3 = (A1, Z2, B1, X2, C1, Y2)     pants 2, front
    H4 = (A2, Z2, B2, X2, C2, Y2)     pants 2, back

Orientation: the boundary of each hexagon, read in the stored order, walks the
vertex cycle AY->AZ->BZ->BX->CX->CY.  The sign vector (+, -, -, +) on
(H1,H2,H3,H4) makes every edge appear once with each direction, so the complex
is orientable; this is asserted at import time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, MalformedInput

# ---------------------------------------------------------------- identifiers

CURVE_NAMES = "ABCXYZ"
A, B, C, X, Y, Z = range(6)

EDGE_TOKENS = ("A1", "A2", "B1", "B2", "C1", "C2", "X1", "X2", "Y1", "Y2", "Z1", "Z2")
A1, A2, B1, B2, C1, C2, X1, X2, Y1, Y2, Z1, Z2 = range(12)

HEX_TOKENS = ("H1", "H2", "H3", "H4")
H1, H2, H3, H4 = range(4)

VERTEX_TOKENS = ("AY", "AZ", "BZ", "BX", "CX", "CY")
V_AY, V_AZ, V_BZ, V_BX, V_CX, V_CY = range(6)

EDGE_OF_TOKEN = {t: i for i, t in enumerate(EDGE_TOKENS)}
HEX_OF_TOKEN = {t: i for i, t in enumerate(HEX_TOKENS)}

EDGE_CURVE = (A, A, B, B, C, C, X, X, Y, Y, Z, Z)
EDGE_INDEX = (1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2)


# Directed endpoints (u, v); the two edges of a curve form a directed cycle.
EDGE_ENDPOINTS = (
    (V_AY, V_AZ), (V_AZ, V_AY),      # A1, A2
    (V_BZ, V_BX), (V_BX, V_BZ),      # B1, B2
    (V_CX, V_CY), (V_CY, V_CX),      # C1, C2
    (V_BX, V_CX), (V_CX, V_BX),      # X1, X2
    (V_CY, V_AY), (V_AY, V_CY),      # Y1, Y2
    (V_AZ, V_BZ), (V_BZ, V_AZ),      # Z1, Z2
)

HEX_SIDES = (
    (A1, Z1, B1, X1, C1, Y1),
    (A2, Z1, B2, X1, C2, Y1),
    (A1, Z2, B1, X2, C1, Y2),
    (A2, Z2, B2, X2, C2, Y2),
)

# Vertex between side position p and p+1 (same for all four hexagons).
CORNER_AFTER = (V_AZ, V_BZ, V_BX, V_CX, V_CY, V_AY)

HEX_PANTS = (1, 1, 2, 2)       # sigma_1 vs sigma_2 (A,B,C system)
HEX_BALL = (1, 2, 1, 2)        # front vs back (X,Y,Z system)
HEX_ORIENT = (1, -1, -1, 1)    # +1: stored order is the positive boundary

# -------------------------------------------------------------- derived maps

SIDE_POS = tuple(
    tuple({e: p for p, e in enumerate(sides)}.get(e, -1) for e in range(12))
    for sides in HEX_SIDES
)

EDGE_HEXES = tuple(
    tuple(h for h in range(4) if SIDE_POS[h][e] >= 0) for e in range(12)
)

OTHER_HEX = tuple(
    {h: (EDGE_HEXES[e][0] if h == EDGE_HEXES[e][1] else EDGE_HEXES[e][1])
     for h in EDGE_HEXES[e]}
    for e in range(12)
)

HEX_CURVE_SIDE = tuple(
    tuple(next(e for e in sides if EDGE_CURVE[e] == c) for c in range(6))
    for sides in HEX_SIDES
)


def sign_in_hex(e: int, h: int) -> int:
    """Direction of edge e in the positive boundary of hexagon h (+1 = along u->v)."""
    if SIDE_POS[h][e] < 0:
        raise InternalInvariantError(f"{EDGE_TOKENS[e]} is not a side of {HEX_TOKENS[h]}")
    return HEX_ORIENT[h] * (1 if EDGE_INDEX[e] == 1 else -1)


def side_of(curve: int, h: int) -> int:
    """Which side (1 or 2) of the given curve the hexagon h lies on."""
    return HEX_PANTS[h] if curve < 3 else HEX_BALL[h]


def fence_edge(vertex: int, curve: int, side: int) -> int:
    """The edge transverse to `curve` at `vertex`, on the given side of `curve`."""
    for e in range(12):
        if EDGE_CURVE[e] != curve and vertex in EDGE_ENDPOINTS[e] and EDGE_INDEX[e] == side:
            return e
    raise InternalInvariantError("no fence edge")


def fan_key_from(h: int, e: int, e2: int, vertex: int) -> int:
    """Rank of the chord class {e, e2} along side e of h, counted from `vertex`.

    1 = hugging the corner at `vertex`, 5 = hugging the opposite corner.
    """
    p, q = SIDE_POS[h][e], SIDE_POS[h][e2]
    d = (q - p) % 6
    return d if CORNER_AFTER[p] == vertex else 6 - d


# -------------------------------------------------------------- symmetries

_DELTA_CURVE = {A: B, B: C, C: A, X: Y, Y: Z, Z: X}


def _curve_index_edge(curve: int, index: int) -> int:
    return 2 * curve + (index - 1)


def _edge_map_from_curve_map(cmap: dict[int, int], flip_index: set[int] = frozenset()) -> tuple[int, ...]:
    out = []
    for e in range(12):
        c = cmap[EDGE_CURVE[e]]
        idx = EDGE_INDEX[e]
        if EDGE_CURVE[e] in flip_index:
            idx = 3 - idx
        out.append(_curve_index_edge(c, idx))
    return tuple(out)


@dataclass(frozen=True)
class Relabeling:
    """A cell-complex automorphism given by its edge and hexagon permutations."""

    name: str
    edge_map: tuple[int, ...]
    hex_map: tuple[int, ...]

    def __post_init__(self):
        _check_automorphism(self)

    def apply_edge(self, e: int) -> int:
        return self.edge_map[e]

    def apply_hex(self, h: int) -> int:
        return self.hex_map[h]

    def compose(self, other: "Relabeling") -> "Relabeling":
        """self after other."""
        return Relabeling(
            f"{self.name}*{other.name}",
            tuple(self.edge_map[e] for e in other.edge_map),
            tuple(self.hex_map[h] for h in other.hex_map),
        )

    def is_identity(self) -> bool:
        return self.edge_map == tuple(range(12)) and self.hex_map == tuple(range(4))


def _check_automorphism(r: Relabeling) -> None:
    if sorted(r.edge_map) != list(range(12)) or sorted(r.hex_map) != list(range(4)):
        raise InternalInvariantError(f"{r.name}: not a permutation")
    for h in range(4):
        img = [r.edge_map[e] for e in HEX_SIDES[h]]
        target = list(HEX_SIDES[r.hex_map[h]])
        ok = False
        for rev in (False, True):
            seq = img[::-1] if rev else img
            for rot in range(6):
                if seq[rot:] + seq[:rot] == target:
                    ok = True
        if not ok:
            raise InternalInvariantError(f"{r.name}: hexagon {HEX_TOKENS[h]} not preserved")


def _build_symmetries() -> dict[str, Relabeling]:
    ident = Relabeling("alpha", tuple(range(12)), tuple(range(4)))
    delta = Relabeling("delta", _edge_map_from_curve_map(_DELTA_CURVE), (0, 1, 2, 3))
    inv_edges = [0] * 12
    for e in range(12):
        inv_edges[delta.edge_map[e]] = e
    delta_inv = Relabeling("delta_inv", tuple(inv_edges), (0, 1, 2, 3))
    gamma_edges = list(range(12))
    gamma_pairs = [(A1, A2), (B1, C2), (B2, C1), (Y1, Z1), (Y2, Z2)]
    for e1, e2 in gamma_pairs:
        gamma_edges[e1], gamma_edges[e2] = e2, e1
    gamma = Relabeling("gamma", tuple(gamma_edges), (1, 0, 3, 2))
    return {"alpha": ident, "gamma": gamma, "delta": delta, "delta_inv": delta_inv}


_SYMMETRIES = _build_symmetries()


def complex_symmetry(name: str) -> Relabeling:
    """Relabeling symmetry for one of alpha, gamma, delta, delta_inv."""
    try:
        return _SYMMETRIES[name]
    except KeyError:
        raise MalformedInput(f"unknown relabeling symmetry {name!r}") from None


# -------------------------------------------------------------- the complex


@dataclass(frozen=True)
class SurfaceComplex:
    """Bundled static structure; all data is module-level, this is a view."""

    vertices: tuple[str, ...] = VERTEX_TOKENS
    edges: tuple[str, ...] = EDGE_TOKENS
    hexagons: tuple[str, ...] = HEX_TOKENS

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.hexagons)

    def edge_hexes(self, e: str) -> tuple[str, ...]:
        return tuple(HEX_TOKENS[h] for h in EDGE_HEXES[EDGE_OF_TOKEN[e]])

    def avoided_partner(self, curve: str) -> str:
        i = CURVE_NAMES.index(curve)
        return CURVE_NAMES[(i + 3) % 6]


def _verify_complex() -> None:
    if len(VERTEX_TOKENS) - 12 + 4 != -2:
        raise InternalInvariantError("Euler characteristic wrong")
    for e in range(12):
        if len(EDGE_HEXES[e]) != 2:
            raise InternalInvariantError("edge not in exactly two hexagons")
    # every vertex has exactly four hexagon corners
    corner_count = {v: 0 for v in range(6)}
    for h in range(4):
        for p in range(6):
            corner_count[CORNER_AFTER[p]] += 1
    if set(corner_count.values()) != {4}:
        raise InternalInvariantError("vertex corner count wrong")
    # an A/B/C edge borders one hexagon in each pants, an X/Y/Z edge two of one pants
    if [len({HEX_PANTS[h] for h in hexes}) for hexes in EDGE_HEXES] != [2] * 6 + [1] * 6:
        raise InternalInvariantError("arcs between A/B/C crossings change pants")
    # orientability: each edge is traversed once in each direction
    for e in range(12):
        signs = sorted(sign_in_hex(e, h) for h in EDGE_HEXES[e])
        if signs != [-1, 1]:
            raise InternalInvariantError("orientation signs do not glue")
    # hexagon sides walk the vertex cycle
    for h in range(4):
        for p, e in enumerate(HEX_SIDES[h]):
            want = {CORNER_AFTER[(p - 1) % 6], CORNER_AFTER[p]}
            if set(EDGE_ENDPOINTS[e]) != want:
                raise InternalInvariantError("side table inconsistent with vertex cycle")
    # symmetry orders
    d = _SYMMETRIES["delta"]
    if not d.compose(d).compose(d).is_identity():
        raise InternalInvariantError("delta^3 != id")
    g = _SYMMETRIES["gamma"]
    if not g.compose(g).is_identity():
        raise InternalInvariantError("gamma^2 != id")
    if not _SYMMETRIES["alpha"].is_identity():
        raise InternalInvariantError("alpha relabeling must be the identity")
    if not d.compose(_SYMMETRIES["delta_inv"]).is_identity():
        raise InternalInvariantError("delta*delta_inv != id")


_verify_complex()


def build_complex() -> SurfaceComplex:
    """The fixed complex; construction re-runs the static consistency checks."""
    _verify_complex()
    return SurfaceComplex()
