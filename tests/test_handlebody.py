"""Handlebody words, disk-bounding, reducing verification, word constraints."""

import pytest

from goeritz2 import curve as cm
from goeritz2 import handlebody as hb
from goeritz2 import kernel
from goeritz2.action import apply_generator, apply_word
from goeritz2.errors import MalformedInput, NotReducing


def W(*pairs):
    return cm.CurveWord.from_tokens([list(p) for p in pairs])


def test_theta_words_standard():
    assert hb.theta_word(cm.P_CURVE, "V") == ("X", "X")
    assert hb.theta_word(cm.P_CURVE, "W") == ("A", "A")


def test_theta_word_pushoff_b():
    assert sorted(hb.theta_word(cm.PUSHOFFS["B"], "V")) == ["X", "Z"]
    assert hb.theta_word(cm.PUSHOFFS["B"], "W") == ()


def test_theta_side_validation():
    with pytest.raises(MalformedInput):
        hb.theta_word(cm.P_CURVE, "Q")


def test_bounds_disk():
    assert hb.bounds_disk(cm.P_CURVE, "V")
    assert hb.bounds_disk(cm.P_CURVE, "W")
    assert not hb.bounds_disk(cm.PUSHOFFS["B"], "V")
    assert hb.bounds_disk(cm.PUSHOFFS["B"], "W")
    assert hb.bounds_disk(cm.PUSHOFFS["X"], "V")
    assert not hb.bounds_disk(cm.PUSHOFFS["X"], "W")


def test_bounds_disk_invariant_under_normalization():
    spurred = W(("A1", "H1"), ("Y1", "H2"), ("Y1", "H1"), ("X1", "H2"),
                ("A2", "H4"), ("X2", "H3"))
    for side in "VW":
        assert hb.bounds_disk(spurred, side) == hb.bounds_disk(cm.P_CURVE, side)


def test_is_reducing():
    assert hb.is_reducing(cm.P_CURVE)
    assert not hb.is_reducing(cm.PUSHOFFS["A"])
    assert hb.is_reducing(apply_generator(cm.P_CURVE, "delta"))


def test_reducing_reason_codes():
    assert hb.reducing_reason(cm.PUSHOFFS["A"]) == "nonseparating"
    assert hb.reducing_reason(cm.P_CURVE) is None
    double_spur = W(("A1", "H1"), ("A1", "H3"))
    assert hb.reducing_reason(double_spur) == "empty"
    with pytest.raises(NotReducing):
        hb.require_reducing(cm.PUSHOFFS["A"])
    with pytest.raises(NotReducing, match="^empty$"):
        hb.require_reducing(double_spur)


def test_require_reducing_normalizes_its_input_once(monkeypatch):
    code = apply_word(cm.P_CURVE, "dbdB").code
    rotated = cm.CurveWord(code[3:] + code[:3])
    calls = []
    real = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps", lambda c: calls.append(c) or real(c))
    assert hb.require_reducing(rotated).code == code
    assert len(calls) == 1


def test_pushoff_calibration_words():
    assert hb.word_str(hb.curve_v_word(cm.PUSHOFFS["B"])) == "b"
    assert hb.word_str(hb.curve_v_word(cm.PUSHOFFS["C"])) == "c"


def test_arc_word_catalog_row_bc_inverse():
    # hexagon-arc sequence AZ, ZX, XY, YA reads b.c^-1
    w = W(("A1", "H1"), ("Z1", "H2"), ("X1", "H1"), ("Y1", "H2"),
          ("A2", "H4"), ("X2", "H3"))
    report = hb.arc_pi1_words(w)
    words = {e.pants: e.word_text() for e in report.entries}
    assert words[1] == "b.c^-1"
    assert words[2] == "1"


def test_arc_word_catalog_row_m1():
    # one winding pair on each side of the X crossing: b(cb)(c^-1 b^-1)c^-1
    w = W(("A1", "H1"), ("Z1", "H2"), ("Y1", "H1"), ("Z1", "H2"), ("X1", "H1"),
          ("Y1", "H2"), ("Z1", "H1"), ("Y1", "H2"), ("A2", "H4"), ("X2", "H3"))
    report = hb.arc_pi1_words(w)
    words = {e.pants: e.word_text() for e in report.entries}
    assert words[1] == "b.c.b.c^-1.b^-1.c^-1"


def test_standard_curve_arc_words_empty():
    report = hb.arc_pi1_words(cm.P_CURVE)
    assert all(e.word == () for e in report.entries)
    assert report.concatenation() == ()


def test_reducing_curve_concatenation_trivial(corpus):
    for _, w in corpus[:80]:
        assert hb.arc_pi1_words(w).concatenation() == ()


def test_closed_loop_report():
    report = hb.arc_pi1_words(cm.PUSHOFFS["B"])
    assert report.closed_loop
    assert hb.word_str(report.entries[0].word) == "b"


def test_check_word_constraints_standard():
    report = hb.check_word_constraints(cm.P_CURVE)
    assert report.ok
    assert report.aa_lengths == [0, 0]


def test_check_word_constraints_beta_fixed_curve():
    assert hb.check_word_constraints(apply_generator(cm.P_CURVE, "beta")).ok


def test_check_word_constraints_requires_a_dominance():
    with pytest.raises(MalformedInput):
        hb.check_word_constraints(apply_generator(cm.P_CURVE, "delta"))


def test_two_letter_aa_words_with_singles():
    # this orbit curve carries two-letter AA words on both pants, which the
    # exclusion rule permits only because single-letter AA words also exist
    w = apply_generator(cm.P_CURVE, "delta")
    for g in ("gamma", "beta", "delta_inv", "gamma", "gamma", "beta_inv",
              "delta_inv", "delta_inv", "beta_inv"):
        w = apply_generator(w, g)
    assert cm.counts(w).abc() == (16, 8, 2)
    lengths = sorted(
        len(hb.arc_word(a)) for a in cm.split_arcs(w) if a.type == "AA")
    assert lengths.count(2) == 2 and lengths.count(1) == 4
    assert hb.check_word_constraints(w).ok


def test_report_serialization():
    report = hb.arc_pi1_words(cm.P_CURVE)
    doc = report.as_doc()
    assert doc["format"] == "goeritz-arc-words/1"
    assert len(doc["arcs"]) == 2
    assert "concatenation" in doc
    assert "AA" in report.as_table()


def test_join_cancellations_wrap_around():
    b, B, c = ("b", 1), ("b", -1), ("c", 1)
    assert hb.join_cancellations([(b,), (B, c), (), (c,)]) == [0]
    assert hb.join_cancellations([(b, c), (c,), (B,)]) == [2]
    assert hb.join_cancellations([(b, B)]) == [0]
    assert hb.join_cancellations([(b,), (b,)]) == []
    assert hb.join_cancellations([]) == []
