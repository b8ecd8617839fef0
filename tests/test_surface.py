"""Static structure of the six-curve hexagon complex."""

import pytest

from goeritz2 import surface as S
from goeritz2.errors import MalformedInput


def test_cell_counts_and_euler():
    c = S.build_complex()
    assert len(c.vertices) == 6
    assert len(c.edges) == 12
    assert len(c.hexagons) == 4
    assert c.euler_characteristic == -2


def test_each_curve_contributes_two_edges():
    for curve in range(6):
        assert sum(1 for e in range(12) if S.EDGE_CURVE[e] == curve) == 2


def test_edge_lies_in_exactly_two_hexagons():
    for e in range(12):
        assert len(S.EDGE_HEXES[e]) == 2


def test_only_abc_edges_join_the_two_pants():
    # so an arc between consecutive A/B/C crossings stays in the pants it enters
    for e in range(12):
        pants = {S.HEX_PANTS[h] for h in S.EDGE_HEXES[e]}
        assert len(pants) == (2 if S.EDGE_CURVE[e] < 3 else 1), S.EDGE_TOKENS[e]


def test_b1_adjacent_hexagons():
    assert S.build_complex().edge_hexes("B1") == ("H1", "H3")


def test_hexagon_contains_one_edge_of_each_curve():
    for sides in S.HEX_SIDES:
        assert sorted(S.EDGE_CURVE[e] for e in sides) == [0, 1, 2, 3, 4, 5]


def test_vertex_labels():
    assert set(S.VERTEX_TOKENS) == {"AY", "AZ", "BZ", "BX", "CX", "CY"}


def test_four_corners_per_vertex():
    corners = {v: 0 for v in range(6)}
    for _h in range(4):
        for p in range(6):
            corners[S.CORNER_AFTER[p]] += 1
    assert set(corners.values()) == {4}


def test_orientation_signs_glue():
    for e in range(12):
        assert sorted(S.sign_in_hex(e, h) for h in S.EDGE_HEXES[e]) == [-1, 1]


def test_avoided_partner_involution():
    c = S.build_complex()
    for name in "ABCXYZ":
        assert c.avoided_partner(c.avoided_partner(name)) == name
    assert c.avoided_partner("A") == "X"
    assert c.avoided_partner("B") == "Y"
    assert c.avoided_partner("C") == "Z"


def test_delta_order_three():
    d = S.complex_symmetry("delta")
    assert not d.is_identity()
    assert d.compose(d).compose(d).is_identity()


def test_gamma_involution():
    g = S.complex_symmetry("gamma")
    assert not g.is_identity()
    assert g.compose(g).is_identity()


def test_alpha_identity_relabeling():
    assert S.complex_symmetry("alpha").is_identity()


def test_delta_maps_a_edges_to_b_edges():
    d = S.complex_symmetry("delta")
    for e in (S.A1, S.A2):
        assert S.EDGE_CURVE[d.apply_edge(e)] == S.B


def test_gamma_swaps_b_and_c_fixes_a_x():
    g = S.complex_symmetry("gamma")
    for e in range(12):
        src, dst = S.EDGE_CURVE[e], S.EDGE_CURVE[g.apply_edge(e)]
        want = {S.A: S.A, S.B: S.C, S.C: S.B, S.X: S.X, S.Y: S.Z, S.Z: S.Y}[src]
        assert dst == want


def test_delta_and_gamma_preserve_pants_partition():
    for name in ("delta", "gamma"):
        r = S.complex_symmetry(name)
        for h in range(4):
            assert S.HEX_PANTS[r.apply_hex(h)] == S.HEX_PANTS[h]


def test_unknown_symmetry_rejected():
    with pytest.raises(MalformedInput):
        S.complex_symmetry("beta")


def test_fence_edges():
    # transverse edge at a vertex, by side of the fenced curve
    assert S.fence_edge(S.V_AZ, S.A, 1) == S.Z1
    assert S.fence_edge(S.V_AZ, S.A, 2) == S.Z2
    assert S.fence_edge(S.V_AZ, S.Z, 1) == S.A1
    assert S.fence_edge(S.V_BX, S.B, 1) == S.X1
