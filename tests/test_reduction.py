"""Dominance classification and the reduction algorithm."""

import pytest

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import reduction as red
from goeritz2.action import apply_generator, apply_word, curve_key
from goeritz2.curve import arc_census, counts
from goeritz2.errors import MalformedInput, NotReducing


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
    assert curve_key(apply_word(cm.P_CURVE, red.express_from_standard(cert))) == \
        curve_key(w)


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


@pytest.mark.parametrize("fields", [
    {"trace": [1, 2]},
    {"trace": [[2, 0, "0"]]},
    {"trace": "bB"},
    {"input_counts": 5},
    {"input_counts": [2, 0]},
    {"input_counts": [True, 0, 0]},
    {"word": 5},
    {"word": ["b"]},
    {"input_key": 3},
    {"terminal": "none"},
])
def test_certificate_from_doc_rejects_malformed_documents(fields):
    doc = red.reduce_to_standard(apply_word(cm.P_CURVE, "dB")).as_doc()
    red.ReductionCertificate.from_doc(doc)
    with pytest.raises(MalformedInput):
        red.ReductionCertificate.from_doc({**doc, **fields})


def test_certificate_from_doc_refuses_version_1():
    doc = red.reduce_to_standard(apply_word(cm.P_CURVE, "dB")).as_doc()
    assert doc["format"] == "goeritz-certificate/2" and "input_key" in doc
    old = {**doc, "format": "goeritz-certificate/1", "input_signature": doc["input_key"]}
    with pytest.raises(MalformedInput, match="not a goeritz-certificate/2 document"):
        red.ReductionCertificate.from_doc(old)


def test_reduction_reads_each_curve_counts_once(monkeypatch, corpus, ladders):
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
        counted.clear()
        cert = red.reduce_to_standard(w)
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
