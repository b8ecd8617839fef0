"""Dominance classification and the reduction algorithm."""

import hashlib
import json
from collections import Counter

import pytest

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import reduction as red
from goeritz2.action import apply_generator, apply_word, twist_system
from goeritz2.curve import arc_census, counts
from goeritz2.errors import MalformedInput, NotReducing, TrichotomyViolation
from goeritz2.handlebody import is_reducing, reducing_reason, require_reducing

from conftest import cold_atlas_counts

# SHA-256 of [word text, trace, terminal] of the certificate of every ladder,
# then every corpus curve, as compact JSON, one line per curve: pinned while
# certificates carried the input's 24 intersection numbers
CERTIFICATES_SHA256 = "b22b1e571466b668f2a8251970951d1bc7fa514ca5c9759aa592ad65ff116952"


def test_classify_standard_curves():
    assert red.classify(cm.P_CURVE) == "A"
    assert red.classify(apply_generator(cm.P_CURVE, "delta")) == "B"
    assert red.classify(apply_generator(cm.P_CURVE, "delta_inv")) == "C"


def test_classify_rejects_nonreducing():
    with pytest.raises(NotReducing):
        red.classify(cm.PUSHOFFS["A"])


def test_trichotomy_and_degeneracy(corpus):
    for word, w in corpus:
        c = counts(w)
        holds = [c.a > c.b + c.c, c.b > c.c + c.a, c.c > c.a + c.b]
        assert sum(holds) == 1, (word, c.abc())
        assert c.a != c.b + c.c and c.b != c.c + c.a and c.c != c.a + c.b, word


def test_a_dominance_iff_aa_arcs(corpus):
    for word, w in corpus[:150]:
        c = counts(w)
        census = arc_census(w)
        a_dom = c.a > c.b + c.c
        has_aa = census[("AA", 1)] >= 1 and census[("AA", 2)] >= 1
        assert a_dom == has_aa, word


def test_equal_bc_forces_standard(corpus):
    # among A-dominant curves, b == c only for the standard one
    for word, w in corpus[:200]:
        c = counts(w)
        if c.a > c.b + c.c and c.b == c.c:
            assert (c.a, c.b, c.c) == (2, 0, 0), word


def test_is_standard():
    assert red.is_standard(cm.P_CURVE) == "P"
    assert red.is_standard(apply_generator(cm.P_CURVE, "delta")) == "P_prime"
    assert red.is_standard(apply_generator(cm.P_CURVE, "delta_inv")) == "P_double_prime"
    big = apply_word(cm.P_CURVE, "db")
    assert red.is_standard(big) == "none"


def test_reduce_standard_is_empty():
    cert = red.reduce_to_standard(cm.P_CURVE)
    assert cert.word == [] and cert.terminal == "P"


def test_reduce_prime_applies_delta_inv():
    cert = red.reduce_to_standard(apply_generator(cm.P_CURVE, "delta"))
    assert cert.word == ["delta_inv"]
    assert cert.word_text() == "D"
    assert red.express_from_standard(cert) == ["delta"]


def test_reduce_double_prime_applies_delta():
    cert = red.reduce_to_standard(apply_generator(cm.P_CURVE, "delta_inv"))
    assert cert.word == ["delta"]


def test_certificate_roundtrip_small():
    w = apply_word(cm.P_CURVE, "dbD")
    cert = red.reduce_to_standard(w)
    assert red.verify_certificate(cert, w)
    back = apply_word(cm.P_CURVE, red.express_from_standard(cert))
    assert red.reduce_to_standard(back).word == cert.word


def test_reduction_roundtrip_corpus(corpus):
    for word, w in corpus[:120]:
        cert = red.reduce_to_standard(w)
        limit = counts(w).total_abc() // 2 + 4
        # while-loop passes append two generators each (at most), final fix one
        assert len(cert.word) <= 2 * limit + 1, word
        assert red.verify_certificate(cert, w), word


def test_trace_strictly_decreasing(corpus):
    for word, w in corpus[:80]:
        cert = red.reduce_to_standard(w)
        total = sum(cert.input_counts)
        for gen, triple in zip(cert.word, cert.trace):
            new = sum(triple)
            if gen in ("beta", "beta_inv"):
                assert new < total and (total - new) % 2 == 0, word
            else:
                assert new == total, word
            total = new
        assert total == 2, word


def test_certificate_serialization():
    w = apply_word(cm.P_CURVE, "dB")
    cert = red.reduce_to_standard(w)
    doc = cert.as_doc(input_curve=w)
    restored = red.ReductionCertificate.from_doc(doc)
    assert restored.word == cert.word
    assert restored.trace == cert.trace
    assert restored.terminal == cert.terminal


MISSING = object()  # a field the document leaves out


@pytest.mark.parametrize("fields", [
    {"trace": [1, 2]},
    {"trace": [[2, 0, "0"]]},
    {"trace": "bB"},
    {"input_counts": 5},
    {"input_counts": [2, 0]},
    {"input_counts": [True, 0, 0]},
    {"word": 5},
    {"word": ["b"]},
    {"word": "bx"},
    {"terminal": "none"},
    {"word": MISSING},
    {"input_counts": MISSING},
    {"trace": MISSING},
    {"terminal": MISSING},
])
def test_certificate_from_doc_rejects_malformed_documents(fields):
    doc = red.reduce_to_standard(apply_word(cm.P_CURVE, "dB")).as_doc()
    red.ReductionCertificate.from_doc(doc)
    missing = [k for k, v in fields.items() if v is MISSING]
    bad = {k: v for k, v in {**doc, **fields}.items() if v is not MISSING}
    with pytest.raises(MalformedInput, match=f"no {missing[0]!r}" if missing else None):
        red.ReductionCertificate.from_doc(bad)


@pytest.mark.parametrize("version, field", [(1, "input_signature"), (2, "input_key")])
def test_certificate_from_doc_refuses_an_earlier_version(version, field):
    doc = red.reduce_to_standard(apply_word(cm.P_CURVE, "dB")).as_doc()
    assert doc["format"] == "goeritz-certificate/3" and "input_key" not in doc
    old = {**doc, "format": f"goeritz-certificate/{version}", field: ""}
    with pytest.raises(MalformedInput, match="not a goeritz-certificate/3 document"):
        red.ReductionCertificate.from_doc(old)


def test_reduction_reads_each_curve_counts_once(monkeypatch, corpus, ladders, fresh_curves):
    # calls from inside classify and is_standard are their own checks
    counted, inside = [], []
    real_counts = red.counts

    def spy(w):
        if not inside:
            counted.append(w)  # kept alive, so ids stay distinct
        return real_counts(w)

    def nested(fn):
        def wrapped(w):
            inside.append(fn)
            try:
                return fn(w)
            finally:
                inside.pop()
        return wrapped

    monkeypatch.setattr(red, "counts", spy)
    monkeypatch.setattr(red, "classify", nested(red.classify))
    monkeypatch.setattr(red, "is_standard", nested(red.is_standard))
    for w in [w for _, w in corpus[:60]] + ladders:
        cold, = fresh_curves(w.code)  # a pass its curve keeps reads no counts
        counted.clear()
        cert = red.reduce_to_standard(cold)
        assert len({id(x) for x in counted}) == len(counted)
        # the input, every curve the certificate keeps, and the other half twist of each pass
        passes = sum(g in ("beta", "beta_inv") for g in cert.word)
        assert len(counted) == 1 + len(cert.word) + passes


def test_verify_certificate_does_not_normalize_the_standard_curve(monkeypatch):
    w = apply_word(cm.P_CURVE, "dbD")
    cert = red.reduce_to_standard(w)
    normalized = []
    real = cm.normalize
    monkeypatch.setattr(cm, "normalize", lambda x: normalized.append(x.code) or real(x))
    assert red.verify_certificate(cert, w)
    assert cm.P_CURVE.code not in normalized


def test_exactly_one_half_twist_lowers_a(ladders):
    # Observed, not proved: if it holds in general, a pass could compute the
    # second half twist only when the first one fails (ROADMAP).
    curves = ladders + [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]
    passes = 0
    for w in curves:
        for gen in red.reduce_to_standard(w).word:
            if gen in ("beta", "beta_inv"):
                a = counts(w).a
                lowered = [counts(apply_generator(w, b)).a < a for b in ("beta", "beta_inv")]
                assert lowered == [gen == "beta", gen == "beta_inv"], (w, gen)
                passes += 1
            w = apply_generator(w, gen)
    assert passes > 300


def test_certificates_are_pinned(corpus, ladders):
    lines = []
    for w in ladders + [w for _, w in corpus]:
        cert = red.reduce_to_standard(w)
        lines.append(json.dumps([cert.word_text(), [list(t) for t in cert.trace], cert.terminal],
                                separators=(",", ":")))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CERTIFICATES_SHA256


def _certificate(w):
    cert = red.reduce_to_standard(w)
    return cert.word, cert.trace, cert.terminal


def _computed_passes(monkeypatch):
    """The curves `reduction._pass` computes a pass from, in order."""
    computed = []
    real = red._pass
    monkeypatch.setattr(red, "_pass", lambda w, abc: computed.append(w) or real(w, abc))
    return computed


def test_certificates_are_equal_uncached_cold_and_warm(monkeypatch, corpus, ladders,
                                                       fresh_curves):
    codes = [w.code for _, w in corpus] + [w.code for w in ladders] + \
        [at.record_curve(rec).code for rec in at.enumerate_atlas(6).records]
    slot = cm.CurveWord._pass
    with monkeypatch.context() as m:
        # no curve keeps its pass, so every pass is recomputed
        m.setattr(cm.CurveWord, "_pass", property(lambda w: None,
                                                  lambda w, v: slot.__set__(w, None)))
        uncached = list(map(_certificate, fresh_curves(*codes)))
    curves = fresh_curves(*codes)
    computed = _computed_passes(monkeypatch)
    cold = list(map(_certificate, curves))
    passes = len(computed)
    warm = list(map(_certificate, curves))
    assert cold == warm == uncached
    assert len(computed) == passes > 300  # a warm reduce computes no pass


def test_a_pass_that_raises_is_not_stored(monkeypatch, fresh_curves):
    w = apply_word(cm.P_CURVE, "dbdbdB")
    expected = _certificate(w)
    passes = sum(g in ("beta", "beta_inv") for g in expected[0])
    assert passes >= 3
    w, = fresh_curves(w.code)
    real = red._dominance
    calls = []

    def fail_second(x, abc):  # each pass classifies its input once: the second raises
        calls.append(x)
        if len(calls) == 2:
            raise TrichotomyViolation("injected")
        return real(x, abc)

    with monkeypatch.context() as m:
        m.setattr(red, "_dominance", fail_second)
        with pytest.raises(TrichotomyViolation, match="injected"):
            red.reduce_to_standard(w)
    # the first pass is kept on its curve, the one that raised on none
    assert w._pass is not None and w._pass[2] is calls[1] and calls[1]._pass is None
    computed = _computed_passes(monkeypatch)
    assert _certificate(w) == expected
    assert computed[0] is calls[1] and len(computed) == passes - 1
    x = w
    for _ in range(passes):
        x = x._pass[2]  # every curve the certificate passes through keeps its pass
    assert x._pass is None and counts(x).total_abc() == 2


@pytest.fixture(scope="module")
def reducing_curves(ladders):
    """The ladders and the depth-5 atlas records."""
    return ladders + [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]


def test_each_code_is_checked_once(monkeypatch, reducing_curves, fresh_curves):
    # reduce_to_standard checks its input, and each computed pass the code it
    # lands on (the code after each half twist of the certificate), each once
    landings = []
    for w in reducing_curves:
        cert = red.reduce_to_standard(w)
        x, codes = w, []
        for gen in cert.word:
            x = apply_generator(x, gen)
            if gen in ("beta", "beta_inv"):
                codes.append(x.code)
        landings.append(codes)
    checked = []
    monkeypatch.setattr(red, "require_reducing",
                        lambda w: checked.append(w.code) or require_reducing(w))
    computed = _computed_passes(monkeypatch)
    for w, codes in zip(reducing_curves, landings):
        w, = fresh_curves(w.code)
        checked.clear()
        computed.clear()
        red.reduce_to_standard(w)
        assert checked == [w.code] + codes
        assert len(set(checked)) == len(checked)
        assert len(computed) == len(codes)
        checked.clear()
        red.reduce_to_standard(w)  # warm: each curve keeps its pass with its check
        assert checked == [w.code] and len(computed) == len(codes)
    assert sum(map(len, landings)) > 300


def test_a_non_reducing_landing_raises_and_is_not_stored(monkeypatch, reducing_curves,
                                                         fresh_curves):
    curves = [w for w in reducing_curves if counts(w).total_abc() > 2]
    assert len(curves) > 100
    for w in curves:
        expected = _certificate(w)
        w, = fresh_curves(w.code)
        refused = []

        def refuse_first_landing(x):
            if refused or x.code == w.code:
                return require_reducing(x)
            refused.append(x.code)
            raise NotReducing("no-disk-V")

        with monkeypatch.context() as m:
            m.setattr(red, "require_reducing", refuse_first_landing)
            with pytest.raises(NotReducing):
                red.reduce_to_standard(w)
        assert refused and w._pass is None
        assert _certificate(w) == expected  # the refused pass is computed again


def test_a_cold_atlas_and_its_round_trips_count_and_check_each_curve_once(monkeypatch,
                                                                         fresh_curves):
    # a curve keeps its counts, its reducing verdict and its pass: a spy on
    # the three slots sees each stored at most once per object, and only on
    # normalized words, although the same objects are counted and checked
    # many times
    fresh_curves()
    stored = {"_counts": Counter(), "_reason": Counter(), "_pass": Counter()}
    alive = []  # kept alive, so ids stay distinct
    for (name, times), unset in zip(stored.items(), (None, cm._UNCHECKED, None)):
        slot = getattr(cm.CurveWord, name)

        def store(w, value, slot=slot, times=times, unset=unset):
            if value is not unset:  # not the value a new word starts with
                assert w.normalized, w
                alive.append(w)
                times[id(w)] += 1
            slot.__set__(w, value)

        monkeypatch.setattr(cm.CurveWord, name, property(slot.__get__, store))
    checked = []
    monkeypatch.setattr(red, "require_reducing",
                        lambda w: checked.append(w) or require_reducing(w))
    store = at.enumerate_atlas(6)
    for rec in store.records:
        assert red.verify_certificate(red.reduce_to_standard(rec.curve), rec.curve)
    assert max(stored["_counts"].values()) == max(stored["_reason"].values()) == \
        max(stored["_pass"].values()) == 1
    # one object per code: no code is checked on two objects
    assert len({w.code for w in alive if id(w) in stored["_reason"]}) == len(stored["_reason"])
    # every checked object keeps its verdict, and fewer objects than checks are checked
    assert {id(w) for w in checked} <= set(stored["_reason"])
    assert len(stored["_reason"]) < len(checked)
    # each record's curve was checked while the atlas keyed it, so its round
    # trip reads the verdict it kept
    assert {id(rec.curve) for rec in store.records} <= set(stored["_reason"])


def test_a_cold_atlas_checks_each_code_once():
    # in a fresh interpreter: the library makes one curve object per code,
    # so no code is checked twice (678 objects were checked for 434 codes
    # when each image was a new object), and no kernel call is added.  Every
    # word is a relabel or slide-free twist image of an interned curve, so
    # none is traced (360 were while twist images were traced).  A half twist
    # of an image made by the inverse half twist hands back its live
    # preimage without a kernel call (605 calls before)
    assert cold_atlas_counts(6) == {"records": 311, "checks": 434, "checked_codes": 434,
                                    "traces": 0, "kernel_calls": 397}


@pytest.mark.parametrize("w, reason", [
    *((cm.normalize(p), "nonseparating") for p in cm.PUSHOFFS.values()),
    (apply_word(cm.normalize(cm.PUSHOFFS["B"]), "dbd"), "nonseparating"),
    (twist_system(cm.P_CURVE, "A"), "no-disk-V"),
    (twist_system(cm.P_CURVE, "X"), "no-disk-W"),
], ids=[*(f"pushoff-{k}" for k in cm.PUSHOFFS), "nonseparating", "no-disk-V", "no-disk-W"])
def test_a_failed_check_raises_its_reason_on_every_call(w, reason):
    assert w.normalized
    for _ in range(3):
        with pytest.raises(NotReducing, match=f"^{reason}$"):
            require_reducing(w)
        with pytest.raises(NotReducing, match=f"^{reason}$"):
            red.reduce_to_standard(w)
        assert reducing_reason(w) == reason and not is_reducing(w)
