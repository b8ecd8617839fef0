"""Acceptance criteria, one test per criterion, zero tolerance throughout.

The shared corpus fixture provides >= 500 curves obtained by applying
uniformly random generator words of length <= 6 to the standard curve
(fixed seed, see conftest).  Each test prints a single pass line; failures
surface through the assertions.
"""

import goeritz2
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import reduction as red
from goeritz2.action import apply_generator, apply_word, curve_key, twist_about_p
from goeritz2.handlebody import (
    arc_pi1_words,
    arc_word,
    bounds_disk,
    check_word_constraints,
    curve_v_word,
    is_reducing,
    theta_word,
    word_str,
)
from goeritz2.surface import EDGE_CURVE, build_complex, complex_symmetry
from goeritz2.curve import split_arcs


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_complex_sanity():
    c = build_complex()
    assert len(c.vertices) == 6
    assert len(c.edges) == 12
    assert len(c.hexagons) == 4
    assert c.euler_characteristic == -2
    from goeritz2.surface import EDGE_HEXES, sign_in_hex

    for e in range(12):
        assert sorted(sign_in_hex(e, h) for h in EDGE_HEXES[e]) == [-1, 1]
    d = complex_symmetry("delta")
    assert d.compose(d).compose(d).is_identity()
    g = complex_symmetry("gamma")
    assert g.compose(g).is_identity()
    a = complex_symmetry("alpha")
    assert a.compose(a).is_identity()
    _report("1 complex sanity")


def test_criterion_2_standard_curve_anchors(standard_curve):
    P = standard_curve
    assert cm.counts(P).abc() == (2, 0, 0)
    assert is_reducing(P)
    census = cm.arc_census(P)
    assert census[("AA", 1)] == 1 and census[("AA", 2)] == 1
    images = sorted(
        cm.counts(apply_generator(P, g)).abc() for g in ("delta", "delta_inv"))
    assert images == [(0, 0, 2), (0, 2, 0)]
    _report("2 standard curve anchors")


def test_criterion_3_calibration():
    row = cm.CurveWord.from_tokens(
        [["A1", "H1"], ["Z1", "H2"], ["X1", "H1"], ["Y1", "H2"],
         ["A2", "H4"], ["X2", "H3"]])
    words = {e.pants: e.word_text() for e in arc_pi1_words(row).entries}
    assert words[1] == "b.c^-1"
    assert word_str(curve_v_word(cm.PUSHOFFS["B"])) == "b"
    assert bounds_disk(cm.PUSHOFFS["B"], "W") and not bounds_disk(cm.PUSHOFFS["B"], "V")
    assert bounds_disk(cm.PUSHOFFS["X"], "V") and not bounds_disk(cm.PUSHOFFS["X"], "W")
    _report("3 word calibration")


def test_criterion_4_generator_count_laws(corpus):
    assert len(corpus) >= 500
    for word, w in corpus:
        c = cm.counts(w)
        cb = cm.counts(apply_generator(w, "beta"))
        assert (cb.b, cb.c) == (c.b, c.c), word
        cg = cm.counts(apply_generator(w, "gamma"))
        assert (cg.a, cg.b, cg.c) == (c.a, c.c, c.b), word
        ca = cm.counts(apply_generator(w, "alpha"))
        assert ca.abc() == c.abc(), word
        cd = cm.counts(apply_generator(w, "delta"))
        assert (cd.a, cd.b, cd.c) == (c.c, c.a, c.b), word
    _report("4 generator count laws on %d curves" % len(corpus))


def test_criterion_5_structure_suite(corpus):
    forbidden = (("AA", "BB"), ("AA", "BC"), ("AA", "CC"),
                 ("AB", "CC"), ("AC", "BB"), ("BB", "CC"))
    for word, w in corpus:
        assert is_reducing(w), word
        c = cm.counts(w)
        holds = [c.a > c.b + c.c, c.b > c.c + c.a, c.c > c.a + c.b]
        assert sum(holds) == 1, word
        for l, m, n in ((c.a, c.b, c.c), (c.b, c.c, c.a), (c.c, c.a, c.b)):
            assert l != m + n, word
        census = cm.arc_census(w)
        for t1, t2 in forbidden:
            for i in (1, 2):
                assert not (census[(t1, i)] and census[(t2, i)]), word
        if holds[0]:
            for t in ("BB", "BC", "CC"):
                assert census[(t, 1)] == census[(t, 2)] == 0, word
            for t in ("AA", "AB", "AC"):
                assert census[(t, 1)] == census[(t, 2)], word
            arcs = split_arcs(w)
            aa_words = {1: [], 2: []}
            for arc in arcs:
                if arc.type == "AA":
                    x_crossings = sum(1 for e in arc.inner_edges if EDGE_CURVE[e] == 3)
                    assert x_crossings == 1, word
                    aa_words[arc.pants].append(arc_word(arc))
            report = check_word_constraints(w, strict=False)
            assert report.ok, (word, report.violations)
            singles = any(len(x) == 1 for side in aa_words.values() for x in side)
            if not singles:
                twos = {i for i in (1, 2) if any(len(x) == 2 for x in aa_words[i])}
                assert twos != {1, 2}, word
    _report("5 structural invariant suite on %d curves" % len(corpus))


def test_criterion_6_reduction_round_trip(corpus, standard_curve):
    p_key = curve_key(standard_curve)
    for word, w in corpus:
        c0 = cm.counts(w).total_abc()
        cert = red.reduce_to_standard(w)
        # one half-twist letter per while pass
        passes = sum(1 for g in cert.word if g in ("beta", "beta_inv"))
        assert passes <= c0 // 2 + 4, word
        total = sum(cert.input_counts)
        for gen, triple in zip(cert.word, cert.trace):
            new = sum(triple)
            if gen in ("beta", "beta_inv"):
                assert new < total and (total - new) % 2 == 0, word
            else:
                assert new == total, word
            total = new
        assert total == 2, word
        assert curve_key(apply_word(w, cert.word)) == p_key, word
        back = apply_word(standard_curve, red.express_from_standard(cert))
        assert curve_key(back) == curve_key(w), word
    _report("6 reduction round trip on %d curves" % len(corpus))


def test_criterion_7_half_twist_realization(corpus, standard_curve):
    P = standard_curve
    assert curve_key(apply_generator(P, "beta")) == curve_key(P)
    for word, w in corpus[:50]:
        bb = apply_word(w, "bb")
        assert curve_key(bb) == curve_key(twist_about_p(w, 1)), word
    eta1 = apply_generator(cm.PUSHOFFS["A"], "beta")
    fixture = cm.CurveWord.from_tokens(
        [["Y1", "H2"], ["A2", "H4"], ["X2", "H3"], ["A1", "H1"],
         ["Z1", "H2"], ["X1", "H1"]])
    assert curve_key(eta1) == curve_key(fixture)
    _report("7 half-twist realization (fixed curve, squared twist, eta1 fixture)")


def test_criterion_8_atlas():
    first = at.enumerate_atlas(3)
    goeritz2.clear_caches()  # the second run recomputes, not replays the first
    runs = [first, at.enumerate_atlas(3)]
    serialized = [[r.as_json() for r in s.records] for s in runs]
    assert serialized[0] == serialized[1]
    for rec in runs[0].records:
        assert at.is_non_triangular(rec.triple), rec.triple
        assert all(t % 2 == 0 for t in rec.triple), rec.triple
    depth1 = {rec.triple for rec in at.enumerate_atlas(1).records}
    assert {(2, 0, 0), (0, 2, 0), (0, 0, 2)} <= depth1
    _report("8 atlas determinism and triple laws")
