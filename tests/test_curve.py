"""Curve words: validation, normalization, counts, census, coordinates."""

import json
import random
import re
import tracemalloc
from collections import Counter

import chain_oracle
import pytest
from reembed_oracle import reversed_steps

from goeritz2 import action, kernel
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import embed
from goeritz2 import handlebody as hb
from goeritz2 import reduction as red
from goeritz2.cli import main
from goeritz2.errors import (
    EmptyAfterNormalization,
    Goeritz2Error,
    InconsistentCoordinates,
    InternalInvariantError,
    MalformedInput,
    MalformedWord,
    NotEmbeddable,
    NotReducing,
    ParityViolation,
)
from goeritz2.reduction import reduce_to_standard
from goeritz2.surface import HEX_SIDES, OTHER_HEX


def W(*pairs):
    return cm.CurveWord.from_tokens([list(p) for p in pairs])


def test_standard_curve_is_valid():
    assert len(cm.P_CURVE) == 4


def test_standard_curve_is_its_normalized_word():
    assert cm.P_CURVE.normalized and cm.P_CURVE.code == bytes.fromhex("0019071e")
    assert cm.normalize(cm.CurveWord(cm.P_CURVE.code)).code == cm.P_CURVE.code


# the step tokens of the stock curves, which `curve` pins as codes
STOCK_TOKENS = {
    "P": [["A1", "H1"], ["X1", "H2"], ["A2", "H4"], ["X2", "H3"]],
    "A": [["Y1", "H2"], ["Z1", "H1"]],
    "B": [["Z1", "H2"], ["X1", "H1"]],
    "C": [["Y1", "H1"], ["X1", "H2"]],
    "X": [["B1", "H3"], ["C1", "H1"]],
    "Y": [["C1", "H3"], ["A1", "H1"]],
    "Z": [["A1", "H3"], ["B1", "H1"]],
}


def test_the_pinned_stock_curves_are_the_traced_words_of_their_tokens(monkeypatch):
    # interned at import untraced: with an empty intern table, `validate`
    # traces each token word, and its normalize() word has the pinned code
    pinned = {"P": cm.P_CURVE, **cm.PUSHOFFS}
    assert pinned.keys() == STOCK_TOKENS.keys()
    monkeypatch.setattr(cm, "_CURVES", type(cm._CURVES)())
    traced, trace = [], embed._trace
    monkeypatch.setattr(embed, "_trace", lambda code: traced.append(code) or trace(code))
    for name, tokens in STOCK_TOKENS.items():
        w = cm.normalize(cm.CurveWord.from_tokens(tokens))
        assert pinned[name].normalized and w.code == pinned[name].code, name
        assert cm._least_rotation(traced[-1]) == w.code, name
        path, r = trace(pinned[name].code)
        assert len(path) == len(w) and r >= 0
    assert len(traced) == len(STOCK_TOKENS)


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


@pytest.mark.parametrize("steps, message", [
    ([(12, 0), (0, 1)], "step 0: edge 12 "),
    ([(0, 7), (0, 1)], "step 0: hexagon 7 "),
    ([(0, 1), (-1, 0)], "step 1: edge -1 "),  # not read as Z2
    ([(0.5, 0), (0, 1)], "step 0: edge 0.5 "),  # not truncated to A1
    ([(0, 1), (0, 2.5)], "step 1: hexagon 2.5 "),
    ([(0, 1), (0, "1")], "step 1: hexagon '1' "),
    ([(0, 1), (0, float("nan"))], "step 1: hexagon nan "),
    ([(0, 1), (0, 1, 2)], r"step 1: \(0, 1, 2\) is not an \(edge, hexagon\) pair"),
    ([None], "step 0: None is not an"),
])
def test_validate_rejects_steps_out_of_range(steps, message):
    with pytest.raises(MalformedWord, match=message):
        cm.validate(steps)


def test_validate_accepts_integral_values_of_any_type():
    steps = [(float(e), h) for e, h in cm.P_CURVE.steps]
    assert cm.validate(steps).code == cm.P_CURVE.code


def test_validate_rejects_a_word_whose_counts_trace_another(kernel_defect_word, unembedded_word):
    w = kernel_defect_word
    beta_inv_sequence = (("B", -1), ("Z", -1)) * 3  # beta^-1 as single twists
    for name, d in beta_inv_sequence[:4]:
        w = action.twist_system(w, name, d)
    name, d = beta_inv_sequence[4]
    code, _ = kernel.normalize_steps(action._substitute(w.code, action._twist_table(name, d)))
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


def _outcome(f, code):
    try:
        return "normalized", f(cm.CurveWord(code)).code
    except Goeritz2Error as exc:
        return type(exc).__name__, str(exc)


def _kernel_then_reembed(w):
    """`normalize` of an unchecked word without its chain check."""
    code, _ = kernel.normalize_steps(w.code)
    if not code:
        raise EmptyAfterNormalization("curve is null-homotopic")
    return cm._reembed(code)


def test_normalize_refuses_unchecked_words_that_are_not_closed_chains():
    # seeded codes of 1-10 bytes below 64, then closed walks, as unchecked
    # words: every failure is typed, a word that is not a closed chain (by
    # the reference check) is a MalformedWord, and a closed chain meets what
    # the kernel and the re-embedding make of it
    with pytest.raises(MalformedWord, match="^step 1: edge 12 is not an integer in 0-11$"):
        cm.normalize(cm.CurveWord(bytes.fromhex("0e30091c0a22")))
    rng = random.Random(1)
    codes = [rng.randbytes(rng.randint(1, 10)).translate(bytes(x % 64 for x in range(256)))
             for _ in range(20_000)]
    for _ in range(1_000):
        h0 = h = rng.randrange(4)
        steps, length = [], rng.randint(1, 12)
        while len(steps) < length or h != h0:
            e = rng.choice(HEX_SIDES[h])
            h = OTHER_HEX[e][h]
            steps.append((e, h))
        codes.append(cm._encode(steps))
    kinds = Counter()
    for code in codes:
        outcome = _outcome(cm.normalize, code)
        try:
            closed = max(code) < 48 and chain_oracle.check_chain(cm.CurveWord(code).steps) is None
        except MalformedWord:
            closed = False
        assert outcome == _outcome(_kernel_then_reembed, code) if closed else \
            outcome[0] == "MalformedWord", code.hex()
        kinds[closed, outcome[0]] += 1
    assert kinds[False, "MalformedWord"] > 18_000 and kinds[True, "normalized"] > 400
    assert kinds[True, "EmptyAfterNormalization"] and kinds[True, "NotEmbeddable"]


def test_a_word_of_bytes_that_are_not_steps_shows_them_and_refuses_tokens():
    # repr (which pytest's failure reports call) and steps read any byte;
    # tokens, normalize and to_coordinates raise the gate's MalformedWord
    w = cm.CurveWord(bytes([200, 3]))
    assert repr(w) == "CurveWord(b'\\xc8\\x03')"
    assert w.steps == ((50, 0), (0, 3))
    for read in (cm.CurveWord.tokens, cm.normalize, cm.to_coordinates):
        with pytest.raises(MalformedWord, match="^step 0: edge 50 is not an integer in 0-11$"):
            read(w)
    assert repr(W(("A1", "H1"), ("A1", "H3"))) == "CurveWord[A1>H1 A1>H3]"
    assert repr(cm.CurveWord(b"")) == "CurveWord[]"


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
    # every A/B/C edge joins the two pants and every X/Y/Z edge the two balls,
    # so a chain that closes crosses each system evenly: validate needs no
    # parity check, and ParityViolation is never raised
    rng = random.Random(7)
    walks = []
    for _ in range(5_000):
        h0 = h = rng.randrange(4)
        steps, length = [], rng.randint(1, 40)
        while len(steps) < length or h != h0:
            e = steps[-1][0] if steps and rng.random() < 0.2 else rng.choice(HEX_SIDES[h])
            h = OTHER_HEX[e][h]
            steps.append((e, h))
        walks.append(steps)
    mixed = 0
    for steps in walks + [list(w.steps) for _, w in corpus]:
        embed._check_chain(cm._encode(steps))
        abc = sum(cm.EDGE_CURVE[e] < 3 for e, _ in steps)
        assert abc % 2 == 0 and (len(steps) - abc) % 2 == 0, steps
        mixed += abc > 2 and len(steps) - abc > 2
    assert mixed > 3_000


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
        assert reduce_to_standard(comps[0]).word == reduce_to_standard(w).word


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
    reversed_ = cm.CurveWord(reversed_steps(w.steps))
    assert reduce_to_standard(rotated).word == reduce_to_standard(reversed_).word == []


def test_signature_differs_for_delta_image():
    from goeritz2.action import apply_generator

    assert reduce_to_standard(apply_generator(cm.P_CURVE, "delta")).word != []


def test_inconsistent_coordinates_rejected():
    from goeritz2.surface import A1, H1, X1

    with pytest.raises(InconsistentCoordinates):
        cm.from_normal_coordinates({(H1, A1, X1): 1})


def test_coordinates_take_only_chord_classes_with_integer_counts():
    coords = cm.to_coordinates(cm.P_CURVE)
    key = min(coords)
    bad = [({**coords, key: count}, rf"count of chord class {re.escape(repr(key))} .* not ")
           for count in (1.5, "1", "x", None, -1, True, [1])]
    bad += [({**coords, k: 1}, rf"^bad chord class {re.escape(repr(k))}$")
            for k in ((0, 0), (0, 1, 1), (0, 0, 1, 2), "A1-X1", None)]
    bad.append((list(coords.items()), "not list$"))
    for coords_in, message in bad:
        with pytest.raises(InconsistentCoordinates, match=message):
            cm.from_normal_coordinates(coords_in)
    # a zero count names no chord, in either edge order
    h, e1, e2 = next(k for k in embed._CLASS_KEYS if k not in coords)
    for zero in ({**coords, (h, e1, e2): 0}, {**coords, (h, e2, e1): 0}):
        assert cm.from_normal_coordinates(zero) == cm.from_normal_coordinates(coords)


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

    assert reduce_to_standard(apply_generator(cm.P_CURVE, "gamma")).word == []


def _times(doc: dict, k: int) -> dict:
    """A normal document with every chord count multiplied by k."""
    return {**doc, "coordinates": {h: {pair: k * c for pair, c in chords.items()}
                                   for h, chords in doc["coordinates"].items()}}


def test_a_normal_document_of_many_components_builds_none_of_them(monkeypatch):
    # P times 10^4 describes 10^4 parallel copies of P: the first one walked
    # crosses 4 of the 40,000 slots, so the document is refused unbuilt
    doc = _times(cm.coordinates_doc(cm.P_CURVE), 10_000)
    made = []

    class Spy(cm.CurveWord):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cm, "CurveWord", Spy)
    with pytest.raises(MalformedInput, match="^normal coordinates describe more than one "
                                             "component: the first crosses 4 of 40000 slots$"):
        cm.from_doc(doc)
    assert not made
    assert len(cm.from_doc(cm.coordinates_doc(cm.P_CURVE))) == 4 and made  # the spy sees P's


def _plus(doc: dict, other: dict) -> dict:
    """A normal document with the chord counts of two documents added."""
    coords = {h: dict(chords) for h, chords in doc["coordinates"].items()}
    for h, chords in other["coordinates"].items():
        for pair, c in chords.items():
            coords.setdefault(h, {})[pair] = coords.get(h, {}).get(pair, 0) + c
    return {**doc, "coordinates": coords}


def _traced_memory(fn):
    """Bytes that fn() leaves allocated, and the most it had allocated at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_a_refused_document_keeps_no_successor_table():
    # P times 10^5 plus a B pushoff has counts with gcd 1, so its successor
    # table of 800,004 states is built (4 bytes a state) before the first
    # component is walked; the process keeps none of it after the refusal,
    # nor anything of the 10^5 parallel copies of P
    p = _times(cm.coordinates_doc(cm.P_CURVE), 100_000)
    for doc, slots, built in ((p, 400_000, False),
                              (_plus(p, cm.coordinates_doc(cm.PUSHOFFS["B"])), 400_002, True)):
        def refuse():
            with pytest.raises(MalformedInput, match="^normal coordinates describe more than one "
                                                     f"component: the first crosses 4 of {slots} slots$"):
                cm.from_doc(doc)
        kept, peak = _traced_memory(refuse)
        assert kept < 50_000
        assert (peak > 4 * 800_004) == built


def test_a_document_of_parallel_copies_builds_one_copy(monkeypatch):
    # P times 10^6: counts with the common factor 10^6 are that many parallel
    # copies of P, so only P's table of 8 states is built before the refusal
    # (the whole table took 0.64 s and 483 MB), and the message still counts
    # the document's slots
    built, embedding = [], embed._embedding

    def spy(*args):
        nxt, code = embedding(*args)
        built.append(len(nxt))
        return nxt, code

    def refuse():
        with pytest.raises(MalformedInput, match="^normal coordinates describe more than one "
                                                 "component: the first crosses 4 of 4000000 slots$"):
            cm.from_doc(doc)

    doc = _times(cm.coordinates_doc(cm.P_CURVE), 1_000_000)
    monkeypatch.setattr(embed, "_embedding", spy)
    kept, peak = _traced_memory(refuse)
    assert built == [8]
    assert peak < 100_000


def test_a_count_mismatch_names_the_documents_numbers():
    # P times 3 with one count raised to 6: the counts share the factor 3,
    # and the message gives the document's counts, not those divided by 3
    doc = _times(cm.coordinates_doc(cm.P_CURVE), 3)
    doc["coordinates"]["H1"]["A1-X1"] = 6
    with pytest.raises(InconsistentCoordinates, match=r"^edge A1 endpoint counts differ: \[6, 3\]$"):
        cm.from_doc(doc)


@pytest.mark.parametrize("count", [2 ** 40, 2 ** 62, 10 ** 30])
def test_a_huge_count_that_disagrees_on_an_edge_is_refused_unbuilt(tmp_path, capsys, count):
    # both sides' crossings of each edge are summed from the counts before
    # anything is built: joining the state bytes of such a count raised
    # MemoryError or OverflowError
    doc = cm.coordinates_doc(action.apply_word(cm.P_CURVE, "dbD"))
    chords = next(iter(doc["coordinates"].values()))
    chords[next(iter(chords))] = count
    reason = f"edge A1 endpoint counts differ: [{count}, 1]"
    with pytest.raises(InconsistentCoordinates, match=f"^{re.escape(reason)}$"):
        cm.from_doc(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_document_roundtrip(corpus):
    for _, w in corpus[:20]:
        assert cm.loads(cm.dumps(w)) == w
    doc = cm.coordinates_doc(cm.normalize(cm.P_CURVE))
    assert reduce_to_standard(cm.from_doc(doc)).word == []


def test_both_documents_lead_to_the_live_curve():
    # the three readers share one tail; a steps document gives the curve's
    # own code, and a normal-coordinates document, which holds no
    # orientation, its code read one way or the other from the lowest slot
    records = [rec.curve for rec in at.enumerate_atlas(6).records]
    rng, w, ladders = random.Random(7), cm.P_CURVE, []
    while len(w) < 10_000:
        w = action.apply_word(w, rng.choice("dD") + rng.choice("bB"))
        ladders.append(w)
    ways = set()
    for w in records + ladders:
        steps, normal = cm.from_doc(cm.to_doc(w)), cm.from_doc(cm.coordinates_doc(w))
        assert steps.code == w.code and cm.normalize(steps) is w
        live = cm.normalize(normal)
        assert live is w or live is cm.normalize(cm.CurveWord(cm._reversed(w.code))), w
        ways.add(live is w)
    assert ways == {True, False}


def test_a_normal_document_is_read_with_no_trace(monkeypatch):
    # the component walked from a normal-coordinates document is its own
    # traced core: reading it traces nothing, and gives the word that the
    # chain and embedding checks give for its code
    curves = [rec.curve for rec in at.enumerate_atlas(6).records]
    rng, w = random.Random(7), cm.P_CURVE
    while len(w) < 10_000:
        w = action.apply_word(w, rng.choice("dD") + rng.choice("bB"))
        curves.append(w)
    docs = [cm.coordinates_doc(w) for w in curves]
    traces = []
    trace = embed._trace
    monkeypatch.setattr(embed, "_trace", lambda code: traces.append(code) or trace(code))
    words = list(map(cm.from_doc, docs))
    assert traces == []
    monkeypatch.undo()
    for w in words:
        checked = cm._validated(w.code)
        assert w.code == checked.code and w._normal is checked._normal is not None, w.code.hex()


# A normalized word's code is its least rotation, so such a word hashes and
# compares by its code, with no rotation; the tests below check what that
# rests on.


def test_every_curve_the_library_hands_out_is_its_least_rotation(corpus, ladders, monkeypatch):
    landings = []
    real_pass = red._pass

    def spy(w, abc):
        out = real_pass(w, abc)
        landings.append(out[2])
        return out

    monkeypatch.setattr(red, "_pass", spy)
    records = [at.record_curve(rec) for rec in at.enumerate_atlas(6).records]
    images = [action.apply_generator(at.record_curve(rec), g)
              for rec in at.enumerate_atlas(5).records for g in action.GENERATORS]
    curves = [w for _, w in corpus] + ladders + records + images
    for w in [w for _, w in corpus] + ladders + records:
        reduce_to_standard(w)
    assert len(landings) > 300
    for w in curves + landings:
        assert w.normalized and w.code == cm._least_rotation(w.code), w


def test_a_rotation_of_a_normalized_word_is_equal_and_hashes_equal(corpus, ladders):
    for w in [w for _, w in corpus] + ladders:
        for k in {1, len(w) // 2, len(w) - 1}:
            rotated = cm.CurveWord(w.code[k:] + w.code[:k])
            assert rotated == w and w == rotated and hash(rotated) == hash(w), (w, k)


def test_the_generator_memo_hands_back_the_curve_it_holds(corpus, ladders):
    for w in [w for _, w in corpus] + ladders:
        rotated = cm.CurveWord(w.code[1:] + w.code[:1])
        for g in action.GENERATORS:
            image = action.apply_generator(w, g)
            assert action.apply_generator(w, g) is image
            assert action.apply_generator(rotated, g) is image, (w, g)


def test_a_normalized_curve_hashes_and_compares_without_a_rotation(ladders, monkeypatch):
    calls = []
    real = cm._least_rotation
    monkeypatch.setattr(cm, "_least_rotation", lambda code: calls.append(code) or real(code))
    for w in ladders:
        image = action.apply_generator(w, "beta")
        calls.clear()
        hash(w)
        assert w == cm._CURVES[w.code] and (w == image) is (w is image)
        assert action.apply_generator(w, "beta") is image  # a memo hit
        assert calls == [], w
        hash(cm.CurveWord(w.code))  # the spy sees an unnormalized word's rotation
        assert calls[:1] == [w.code]


# A normalized word keeps its counts and its reducing verdict once they are
# asked for; the tests below check that what it keeps is what a fresh word
# of the same code computes, and that an unnormalized word keeps nothing.


def test_the_facts_a_curve_keeps_are_those_of_a_fresh_word(corpus, ladders, fresh_curves):
    records = [rec.curve for rec in at.enumerate_atlas(6).records]
    images = [action.apply_generator(w, g) for w in records for g in action.GENERATORS]
    curves = [w for _, w in corpus] + ladders + records + images
    assert len({w.code for w in curves}) > 400
    for w in curves:  # what each curve keeps, asked for before its fresh twin lives
        cm.counts(w), hb.reducing_reason(w)
    fresh = fresh_curves(*(w.code for w in curves))  # traced again, no fact computed
    for w, x in zip(curves, fresh):
        assert x is not w and x.code == w.code
        for _ in range(2):  # the second call reads what the first kept
            assert cm.counts(w) == cm.counts(x), w
            assert hb.reducing_reason(w) == hb.reducing_reason(x), w
        assert cm.counts(w) is cm.counts(w)


def _facts(w):
    return [w._counts is not None, w._reason is not cm._UNCHECKED]


def test_an_unnormalized_word_keeps_no_fact(corpus, ladders):
    rotated = [cm.CurveWord(w.code[1:] + w.code[:1]) for _, w in corpus[:40]] + \
        [cm.CurveWord(w.code[::-1].translate(cm._REVERSED)) for w in ladders]
    curves = rotated + [cm.validate(list(w.steps)) for w in [cm.P_CURVE, *cm.PUSHOFFS.values()]]
    for w in curves:
        assert not w.normalized
        cm.counts(w)
        cm.is_separating(w)
        hb.is_reducing(w)
        try:
            red.classify(w)
            reduce_to_standard(w)
        except NotReducing:
            pass
        assert _facts(w) == [False, False], w
        normal = cm.normalize(w)
        cm.counts(normal)
        hb.is_reducing(normal)
        assert _facts(normal) == [True, True], w
