"""The reduction certificate as the key of reducing curves: its invariance,
its agreement with the reference 24-number key and its use as the equality
test of the atlas; and verify, which replays the certificate word forward
and accepts when it lands on the standard curve."""

from key_oracle import curve_key

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import reduction as red
from goeritz2.action import GENERATORS, apply_generator, apply_word


def test_key_starts_with_the_counts(corpus):
    for word, w in corpus[:40]:
        key = curve_key(w)
        assert len(key) == 24 and key[:6] == cm.counts(w).as_tuple(), word


def test_key_invariance(corpus, ladders):
    # rotation, reversal and relators leave the certificate word unchanged
    for word, w in corpus + [("ladder", w) for w in ladders]:
        cert = red.reduce_to_standard(w).word
        code = w.code
        rotated = cm.CurveWord(code[len(code) // 2:] + code[:len(code) // 2])
        assert red.reduce_to_standard(rotated).word == cert, word
        assert red.reduce_to_standard(cm.CurveWord(cm._reversed(code))).word == cert, word
        for loop in ("bB", "dD", "gg"):
            assert red.reduce_to_standard(apply_word(w, loop)).word == cert, (word, loop)


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
            short = red.ReductionCertificate(cert.input_counts, cert.word[:i] + cert.word[i + 1:])
            assert not red.verify_certificate(short, w), (word, i)
            checked += 1
        if cert.word:
            assert not red.verify_certificate(cert, cm.P_CURVE), word
    assert checked > 500


def test_a_certificate_takes_its_curve_to_p_and_no_pushoff_to_p():
    # the lemma verify rests on: the certificate word of a reducing curve takes
    # it to the standard curve, and it takes no nonseparating curve there
    rejected = 0
    for rec in at.enumerate_atlas(6).records:
        cert = red.reduce_to_standard(rec.curve)
        assert apply_word(rec.curve, cert.word).code == cm.P_CURVE.code, rec.witness
        for name, pushoff in cm.PUSHOFFS.items():
            assert not red.verify_certificate(cert, pushoff), (rec.witness, name)
            rejected += 1
    assert rejected == 311 * 6


def test_verify_accepts_a_padded_certificate_without_reducing(monkeypatch, corpus, ladders):
    # the word is the whole proof: a certificate padded with gg ... bB verifies,
    # though its trace does not match its word, and verify reduces nothing
    reduced = []
    real = red.reduce_to_standard
    monkeypatch.setattr(red, "reduce_to_standard", lambda w: reduced.append(w) or real(w))
    for word, w in corpus[:80] + [("ladder", w) for w in ladders]:
        cert = real(w)
        padded = red.ReductionCertificate(cert.input_counts, ["gamma", "gamma"] + cert.word
                                          + ["beta", "beta_inv"], cert.trace)
        for c in (cert, padded):
            assert red.verify_certificate(c, w), word
    assert reduced == []


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
