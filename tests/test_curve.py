"""Curve words: validation, normalization, counts, census, coordinates."""

import random

import pytest

from goeritz2 import action, kernel
from goeritz2 import curve as cm
from goeritz2.action import curve_key
from goeritz2.errors import (
    EmptyAfterNormalization,
    Goeritz2Error,
    InternalInvariantError,
    MalformedWord,
    NotEmbeddable,
    ParityViolation,
)
from goeritz2.surface import HEX_SIDES, OTHER_HEX


def W(*pairs):
    return cm.CurveWord.from_tokens([list(p) for p in pairs])


def test_standard_curve_is_valid():
    assert len(cm.P_CURVE) == 4


def test_standard_curve_is_its_normalized_word():
    assert cm.P_CURVE.normalized and cm.P_CURVE.code == bytes.fromhex("0019071e")
    assert cm.normalize(cm.CurveWord(cm.P_CURVE.code)).code == cm.P_CURVE.code


def test_chain_violation_rejected():
    with pytest.raises(MalformedWord):
        W(("A1", "H1"), ("X2", "H3"), ("A1", "H3"), ("X2", "H4"))


def test_wrong_destination_rejected():
    with pytest.raises(MalformedWord):
        W(("A1", "H1"), ("X1", "H1"), ("A2", "H4"), ("X2", "H3"))


def test_parity_violation_rejected():
    # crosses A once and X twice: odd A/B/C total
    with pytest.raises((ParityViolation, MalformedWord)):
        W(("A1", "H1"), ("X1", "H2"), ("X1", "H1"))


def test_interleaving_chords_rejected():
    # H1 chords (A1-B1) and (Z1-X1) interleave
    with pytest.raises(NotEmbeddable):
        W(("A1", "H1"), ("B1", "H3"), ("Z2", "H4"), ("B2", "H2"),
          ("Z1", "H1"), ("X1", "H2"), ("A2", "H4"), ("X2", "H3"))


def test_vertex_encircling_word_rejected():
    # wraps fully around vertex AY: per-hexagon fine, globally unrealizable
    with pytest.raises(NotEmbeddable):
        W(("A1", "H1"), ("X1", "H2"), ("A2", "H4"), ("Y2", "H3"),
          ("A1", "H1"), ("Y1", "H2"), ("A2", "H4"), ("X2", "H3"))


def test_validate_rejects_a_word_whose_counts_trace_another(kernel_defect_word, unembedded_word):
    w = kernel_defect_word
    beta_inv_sequence = (("B", -1), ("Z", -1)) * 3  # beta^-1 as single twists
    for name, d in beta_inv_sequence[:4]:
        w = action.twist_system(w, name, d)
    name, d = beta_inv_sequence[4]
    code, _ = kernel.normalize_steps(action._splice(w.code, "ABCXYZ".index(name), d))
    assert cm.CurveWord(code).tokens() == unembedded_word
    with pytest.raises(InternalInvariantError):
        cm._reembed(code)
    with pytest.raises(NotEmbeddable, match="not one embedded curve"):
        cm.CurveWord.from_tokens(unembedded_word)


def test_validated_walks_normalize_without_internal_errors():
    # the trace check makes validate complete: no accepted word fails inside normalize
    rng = random.Random(2)
    accepted = 0
    for _ in range(10_000):
        h0 = h = rng.randrange(4)
        steps, length = [], rng.randint(2, 30)
        while len(steps) < length or h != h0:
            e = steps[-1][0] if steps and rng.random() < 0.4 else rng.choice(HEX_SIDES[h])
            h = OTHER_HEX[e][h]
            steps.append((e, h))
        try:
            w = cm.validate(steps)
        except Goeritz2Error:
            continue
        accepted += 1
        try:
            cm.normalize(w)
        except EmptyAfterNormalization:
            pass
    assert accepted > 2000


def test_double_spur_word_normalizes_to_nothing():
    w = W(("A1", "H1"), ("A1", "H3"))
    with pytest.raises(EmptyAfterNormalization):
        cm.normalize(w)


def test_normalize_fixes_standard_curve():
    n = cm.normalize(cm.P_CURVE)
    assert cm._least_rotation(n.code) == cm._least_rotation(cm.P_CURVE.code)


def test_normalize_removes_spur():
    w = W(("A1", "H1"), ("Y1", "H2"), ("Y1", "H1"), ("X1", "H2"),
          ("A2", "H4"), ("X2", "H3"))
    assert cm.normalize(w) == cm.normalize(cm.P_CURVE)


def test_normalize_slides_bigon_over_vertex():
    # cross A1, corner past AY, recross at A2: both A-crossings removed,
    # the Y-crossing moves across the vertex (Y1 -> Y2)
    w = W(("A1", "H1"), ("Y1", "H2"), ("A2", "H4"), ("X2", "H3"))
    n = cm.normalize(w)
    assert cm.counts(n).as_tuple() == (0, 0, 0, 1, 1, 0)
    assert {cm.EDGE_TOKENS[e] for e, _ in n.steps} == {"X2", "Y2"}


def test_normalize_idempotent_and_monotone(corpus):
    for _, w in corpus[:60]:
        again = cm.normalize(w)
        assert again.steps == w.steps
        assert cm.counts(again) == cm.counts(w)


def test_counts_standard():
    assert cm.counts(cm.P_CURVE).as_tuple() == (2, 0, 0, 2, 0, 0)


def test_counts_pushoffs():
    assert cm.counts(cm.PUSHOFFS["B"]).as_tuple() == (0, 0, 0, 1, 0, 1)
    assert cm.counts(cm.PUSHOFFS["A"]).as_tuple() == (0, 0, 0, 0, 1, 1)


def test_separating():
    assert cm.is_separating(cm.P_CURVE)
    assert not cm.is_separating(cm.PUSHOFFS["B"])
    assert not cm.is_separating(cm.PUSHOFFS["A"])


def test_census_standard():
    census = cm.arc_census(cm.P_CURVE)
    assert census[("AA", 1)] == 1 and census[("AA", 2)] == 1
    assert sum(census.values()) == 2


def test_census_accounting_identity(corpus):
    for _, w in corpus[:120]:
        c = cm.counts(w)
        census = cm.arc_census(w)
        for i in (1, 2):
            assert c.a == 2 * census[("AA", i)] + census[("AB", i)] + census[("AC", i)]
            assert c.b == census[("AB", i)] + 2 * census[("BB", i)] + census[("BC", i)]
            assert c.c == census[("AC", i)] + census[("BC", i)] + 2 * census[("CC", i)]
        assert sum(census[(t, 1)] for t in cm.ARC_TYPES) == \
            sum(census[(t, 2)] for t in cm.ARC_TYPES)


def test_parity_invariant(corpus):
    for _, w in corpus[:120]:
        abc = sum(1 for e, _ in w.steps if cm.EDGE_CURVE[e] < 3)
        xyz = len(w.steps) - abc
        assert abc % 2 == 0 and xyz % 2 == 0


def test_coordinates_roundtrip_standard():
    coords = cm.to_coordinates(cm.normalize(cm.P_CURVE))
    comps = cm.from_normal_coordinates(coords)
    assert len(comps) == 1
    assert cm.canonical_unoriented(comps[0]) == cm.canonical_unoriented(cm.P_CURVE)


def test_coordinates_empty():
    assert cm.from_normal_coordinates({}) == []


def test_coordinates_doubled_gives_two_components():
    coords = cm.to_coordinates(cm.normalize(cm.P_CURVE))
    comps = cm.from_normal_coordinates({k: 2 * v for k, v in coords.items()})
    assert len(comps) == 2


def test_coordinate_roundtrip_preserves_signature(corpus):
    for _, w in corpus[:40]:
        comps = cm.from_normal_coordinates(cm.to_coordinates(w))
        assert len(comps) == 1
        assert curve_key(comps[0]) == curve_key(w)


def test_multicomponent_document_rejected():
    from goeritz2.errors import MalformedInput

    doc = cm.coordinates_doc(cm.normalize(cm.P_CURVE))
    doubled = {h: {pair: 2 * v for pair, v in chords.items()}
               for h, chords in doc["coordinates"].items()}
    with pytest.raises(MalformedInput):
        cm.from_doc({"format": cm.CURVE_FORMAT, "representation": "normal",
                     "coordinates": doubled})


def _with_first_count(count):
    doc = cm.coordinates_doc(cm.normalize(cm.P_CURVE))
    chords = next(iter(doc["coordinates"].values()))
    chords[next(iter(chords))] = count
    return doc


_NORMAL = {"format": cm.CURVE_FORMAT, "representation": "normal"}
_STEPS = {"format": cm.CURVE_FORMAT, "representation": "steps"}


_ILL_TYPED = {
    "count-str": _with_first_count("abc"),
    "count-digit-str": _with_first_count("1"),
    "count-null": _with_first_count(None),
    "count-bool": _with_first_count(True),
    "count-fraction": _with_first_count(1.5),
    "count-float": _with_first_count(1.0),
    "count-list": _with_first_count([1]),
    "coordinates-list": {**_NORMAL, "coordinates": ["x"]},
    "coordinates-str": {**_NORMAL, "coordinates": "H1"},
    "chords-list": {**_NORMAL, "coordinates": {"H1": [1, 2]}},
    "chords-null": {**_NORMAL, "coordinates": {"H1": None}},
    "pair-int": {**_NORMAL, "coordinates": {"H1": {1: 1}}},
    "steps-int": {**_STEPS, "steps": 5},
    "steps-null": {**_STEPS, "steps": None},
    "steps-str": {**_STEPS, "steps": "A1H1"},
    "step-int": {**_STEPS, "steps": [5]},
}


@pytest.mark.parametrize("doc", _ILL_TYPED.values(), ids=_ILL_TYPED)
def test_ill_typed_documents_raise_malformed_input(doc):
    from goeritz2.errors import MalformedInput

    with pytest.raises(MalformedInput):
        cm.from_doc(doc)


def test_signature_rotation_and_reversal_invariant():
    w = cm.normalize(cm.P_CURVE)
    rotated = cm.CurveWord(w.steps[1:] + w.steps[:1])
    reversed_ = cm.CurveWord(cm.reversed_steps(w.steps))
    assert curve_key(rotated) == curve_key(w)
    assert curve_key(reversed_) == curve_key(w)


def test_signature_differs_for_delta_image():
    from goeritz2.action import apply_generator

    assert curve_key(apply_generator(cm.P_CURVE, "delta")) != curve_key(cm.P_CURVE)


def test_inconsistent_coordinates_rejected():
    from goeritz2.errors import InconsistentCoordinates
    from goeritz2.surface import A1, H1, X1

    with pytest.raises(InconsistentCoordinates):
        cm.from_normal_coordinates({(H1, A1, X1): 1})


def test_normalize_never_increases_counts():
    spurred = W(("A1", "H1"), ("Y1", "H2"), ("Y1", "H1"), ("X1", "H2"),
                ("A2", "H4"), ("X2", "H3"))
    raw = [0] * 6
    for e, _ in spurred.steps:
        raw[cm.EDGE_CURVE[e]] += 1
    after = cm.counts(cm.normalize(spurred)).as_tuple()
    assert all(a <= r for a, r in zip(after, raw))


def test_gamma_fixes_standard_curve():
    from goeritz2.action import apply_generator

    assert curve_key(apply_generator(cm.P_CURVE, "gamma")) == curve_key(cm.P_CURVE)


def test_document_roundtrip(corpus):
    for _, w in corpus[:20]:
        assert cm.loads(cm.dumps(w)) == w
    doc = cm.coordinates_doc(cm.normalize(cm.P_CURVE))
    assert curve_key(cm.from_doc(doc)) == curve_key(cm.P_CURVE)
