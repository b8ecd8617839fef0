"""The 24-number curve key: invariance, exactness against the reduction
certificate, and its use as the equality test of reduce, verify and the atlas."""

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import reduction as red
from goeritz2.action import GENERATORS, apply_generator, apply_word, curve_key


def test_key_starts_with_the_counts(corpus):
    for word, w in corpus[:40]:
        key = curve_key(w)
        assert len(key) == 24 and key[:6] == cm.counts(w).as_tuple(), word


def test_key_invariance(corpus):
    for word, w in corpus:
        key = curve_key(w)
        code = w.code
        rotated = cm.CurveWord(code[len(code) // 2:] + code[:len(code) // 2])
        assert curve_key(rotated) == key, word
        assert curve_key(cm.CurveWord(cm._reversed(code))) == key, word
        for loop in ("bB", "dD", "gg"):
            assert curve_key(apply_word(w, loop)) == key, (word, loop)


def test_equal_keys_iff_equal_certificates():
    # the certificate word is a complete invariant of reducing curves: each
    # step is chosen from counts of minimal words, and u(Q) = P fixes Q = u^-1(P).
    # The images are those the depth-6 atlas computes: the base curve and each
    # generator applied to each record of depth at most 5.
    records = at.enumerate_atlas(5).records
    images = [at.record_curve(records[0])]
    for rec in records:
        w = at.record_curve(rec)
        images += [apply_generator(w, g) for g in GENERATORS]
    cert_of_key: dict[tuple[int, ...], tuple] = {}
    key_of_cert: dict[tuple, tuple[int, ...]] = {}
    for w in images:
        key = curve_key(w)
        cert = red.reduce_to_standard(w)
        certificate = (tuple(cert.word), cert.terminal)
        assert cert_of_key.setdefault(key, certificate) == certificate, w
        assert key_of_cert.setdefault(certificate, key) == key, w
    assert len(cert_of_key) == len(at.enumerate_atlas(6).records) == 311


def test_depth7_atlas_keeps_every_class():
    # the depth-7 expansion reaches 803 classes by certificate
    assert len(at.enumerate_atlas(7).records) == 803


def test_verify_rejects_a_dropped_letter_and_a_wrong_curve(corpus, ladders):
    checked = 0
    for word, w in corpus + [("ladder", w) for w in ladders]:
        cert = red.reduce_to_standard(w)
        assert red.verify_certificate(cert, w), word
        for i in range(len(cert.word)):
            short = red.ReductionCertificate(cert.input_counts, cert.input_key,
                                             cert.word[:i] + cert.word[i + 1:])
            assert not red.verify_certificate(short, w), (word, i)
            checked += 1
        if cert.word:
            assert not red.verify_certificate(cert, cm.P_CURVE), word
    assert checked > 500


def test_verify_rejects_a_dropped_letter_by_the_forward_replay(monkeypatch, corpus):
    # codes that always match leave the verdict to the forward counts
    monkeypatch.setattr(red, "canonical_unoriented", lambda w: b"")
    for word, w in corpus[:80]:
        cert = red.reduce_to_standard(w)
        for i in range(len(cert.word)):
            short = red.ReductionCertificate(cert.input_counts, cert.input_key,
                                             cert.word[:i] + cert.word[i + 1:])
            assert not red.verify_certificate(short, w), (word, i)


def test_verify_falls_back_to_the_key(monkeypatch, corpus):
    # codes that never match leave the backward replay to curve_key
    monkeypatch.setattr(red, "canonical_unoriented", lambda w: object())
    for word, w in corpus[:80]:
        assert red.verify_certificate(red.reduce_to_standard(w), w), word


def test_reduce_verify_and_atlas_compute_no_canonical_form(monkeypatch, corpus, ladders):
    calls = []
    for name in ("canonical_form", "signature"):
        real = getattr(cm, name)
        monkeypatch.setattr(cm, name, lambda w, name=name, real=real: calls.append(name) or real(w))
    for w in [w for _, w in corpus[:60]] + ladders:
        assert red.verify_certificate(red.reduce_to_standard(w), w)
    assert len(at.enumerate_atlas(4).records) == 47
    assert calls == []
    cm.canonical_form(ladders[-1])  # the spy sees the calls that do happen
    cm.signature(ladders[-1])
    assert calls == ["canonical_form", "signature"]
