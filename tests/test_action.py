"""Twists and the Goeritz generator action."""

import random

import kernel_oracle
import pytest
import reembed_oracle

import goeritz2
from goeritz2 import action, kernel
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2.action import (
    GENERATORS,
    _cross_detour,
    _splice,
    apply_generator,
    apply_twist,
    apply_word,
    curve_key,
    format_goeritz_word,
    invert_goeritz_word,
    parse_goeritz_word,
    twist_about_p,
    twist_system,
)
from goeritz2.errors import InternalInvariantError, MalformedInput
from goeritz2.reduction import reduce_to_standard, verify_certificate
from goeritz2.surface import CURVE_NAMES, EDGE_CURVE, EDGE_HEXES, complex_symmetry

# beta = (t_B t_Z)^3 and its inverse as single twists, in the order applied
BETA_SEQUENCE = (("Z", 1), ("B", 1)) * 3
BETA_INV_SEQUENCE = (("B", -1), ("Z", -1)) * 3

# hand-traced on the hexagon net: the half twist applied to the A-pushoff
ETA1_FIXTURE = cm.CurveWord.from_tokens(
    [["Y1", "H2"], ["A2", "H4"], ["X2", "H3"], ["A1", "H1"], ["Z1", "H2"], ["X1", "H1"]])

# hand-traced: single twist about Z applied to the A-pushoff
TZ_A_COUNTS = (1, 1, 0, 0, 1, 1)


def test_word_parsing():
    assert parse_goeritz_word("bDDg") == ["beta", "delta_inv", "delta_inv", "gamma"]
    assert format_goeritz_word(["beta", "delta_inv"]) == "bD"
    assert invert_goeritz_word(["beta", "delta"]) == ["delta_inv", "beta_inv"]
    with pytest.raises(MalformedInput):
        parse_goeritz_word("q")


def test_twist_fixes_own_pushoff():
    pb = cm.normalize(cm.PUSHOFFS["B"])
    assert curve_key(twist_system(pb, "B", 1)) == curve_key(pb)


def test_twist_fixes_disjoint_curve():
    P = cm.normalize(cm.P_CURVE)
    assert curve_key(twist_system(P, "B", 1)) == curve_key(P)
    assert curve_key(twist_system(P, "Y", -1)) == curve_key(P)


def test_twist_about_z_on_a_pushoff_matches_hand_trace():
    w = twist_system(cm.PUSHOFFS["A"], "Z", 1)
    assert cm.counts(w).as_tuple() == TZ_A_COUNTS


def test_twist_preserves_rail_count(corpus):
    for _, w in corpus[:30]:
        for name in "BZ":
            t = twist_system(w, name, 1)
            assert getattr(cm.counts(t), name.lower()) == getattr(cm.counts(w), name.lower())


def test_twist_inverse_pair(corpus):
    for _, w in corpus[:20]:
        back = twist_system(twist_system(w, "Z", 1), "Z", -1)
        assert curve_key(back) == curve_key(w)


def test_apply_twist_accepts_pushoff_word():
    pa = cm.PUSHOFFS["A"]
    via_name = twist_system(pa, "Z", 1)
    via_word = apply_twist(pa, cm.PUSHOFFS["Z"], "right")
    assert curve_key(via_name) == curve_key(via_word)


def test_apply_twist_accepts_standard_curve():
    pa = cm.PUSHOFFS["A"]
    assert curve_key(apply_twist(pa, cm.P_CURVE, "right")) == \
        curve_key(twist_about_p(pa, 1))


def test_apply_twist_rejects_unknown_rail():
    weird = cm.CurveWord.from_tokens(
        [["A1", "H1"], ["Z1", "H2"], ["X1", "H1"], ["Y1", "H2"],
         ["A2", "H4"], ["X2", "H3"]])
    with pytest.raises(MalformedInput):
        apply_twist(cm.P_CURVE, weird)


def test_delta_sends_standard_to_prime():
    dP = apply_generator(cm.P_CURVE, "delta")
    assert cm.counts(dP).abc() == (0, 2, 0)
    ddP = apply_generator(cm.P_CURVE, "delta_inv")
    assert cm.counts(ddP).abc() == (0, 0, 2)


def test_beta_fixes_standard_curve():
    assert curve_key(apply_generator(cm.P_CURVE, "beta")) == curve_key(cm.P_CURVE)
    assert curve_key(apply_generator(cm.P_CURVE, "beta_inv")) == curve_key(cm.P_CURVE)


def test_beta_on_a_pushoff_matches_fixture():
    eta1 = apply_generator(cm.PUSHOFFS["A"], "beta")
    assert cm.counts(eta1).as_tuple() == (2, 0, 0, 2, 1, 1)
    assert curve_key(eta1) == curve_key(ETA1_FIXTURE)


def test_beta_and_inverse_differ_on_a_pushoff():
    eta1 = apply_generator(cm.PUSHOFFS["A"], "beta")
    eta2 = apply_generator(cm.PUSHOFFS["A"], "beta_inv")
    assert curve_key(eta1) != curve_key(eta2)


def test_generator_word_identities(standard_curve):
    P = standard_curve
    key = curve_key(P)
    assert curve_key(apply_word(P, "ddd")) == key
    assert curve_key(apply_word(P, "bB")) == key
    assert curve_key(apply_word(P, "dD")) == key
    assert curve_key(apply_word(P, "gg")) == key
    assert curve_key(apply_word(P, "aa")) == key


def test_count_laws_on_corpus_sample(corpus):
    for word, w in corpus[:60]:
        c = cm.counts(w)
        cb = cm.counts(apply_generator(w, "beta"))
        assert (cb.b, cb.c) == (c.b, c.c), word
        cbi = cm.counts(apply_generator(w, "beta_inv"))
        assert (cbi.b, cbi.c) == (c.b, c.c), word
        cg = cm.counts(apply_generator(w, "gamma"))
        assert (cg.a, cg.b, cg.c, cg.x, cg.y, cg.z) == (c.a, c.c, c.b, c.x, c.z, c.y), word
        cd = cm.counts(apply_generator(w, "delta"))
        assert (cd.a, cd.b, cd.c, cd.x, cd.y, cd.z) == (c.c, c.a, c.b, c.z, c.x, c.y), word
        assert cm.counts(apply_generator(w, "alpha")) == c, word


def test_beta_inverse_identity_on_corpus(corpus):
    for word, w in corpus[:25]:
        assert curve_key(apply_word(w, "bB")) == curve_key(w), word
        assert curve_key(apply_word(w, "Bb")) == curve_key(w), word


def test_beta_squared_is_twist_about_standard_curve(corpus):
    for word, w in corpus[:12]:
        bb = apply_word(w, "bb")
        assert curve_key(bb) == curve_key(twist_about_p(w, 1)), word


def test_alpha_commutes_with_everything(corpus):
    for word, w in corpus[:10]:
        for g in ("beta", "gamma", "delta"):
            lhs = apply_generator(apply_generator(w, "alpha"), g)
            rhs = apply_generator(apply_generator(w, g), "alpha")
            assert curve_key(lhs) == curve_key(rhs), (word, g)


def test_unknown_generator_rejected():
    with pytest.raises(MalformedInput):
        apply_generator(cm.P_CURVE, "epsilon")


def _step_splice(steps, cid, direction):
    """The per-step splice the byte tables replaced: one detour per rail crossing."""
    out = []
    for e, h in steps:
        out.extend(_cross_detour(e, h, direction) if EDGE_CURVE[e] == cid else [(e, h)])
    return out


def _oracle_generator(w, g):
    """apply_generator composed from the oracles: per-step splice, list kernel,
    dict-based re-embedding and Booth's least rotation."""
    if g not in ("beta", "beta_inv"):
        r = complex_symmetry(g)
        return reembed_oracle.least_rotation(
            tuple((r.apply_edge(e), r.apply_hex(h)) for e, h in w.steps))
    for name, d in BETA_SEQUENCE if g == "beta" else BETA_INV_SEQUENCE:
        cid = CURVE_NAMES.index(name)
        if any(EDGE_CURVE[e] == cid for e, _ in w.steps):
            spliced = _step_splice(w.steps, cid, d)
            es, hs = kernel_oracle.normalize_steps([e for e, _ in spliced], [h for _, h in spliced])
            w = reembed_oracle.reembed(cm.CurveWord(tuple(zip(es, hs))))
    return w.steps


def test_table_splice_matches_step_splice(corpus, standard_curve):
    rng = random.Random(23)
    ladder = [standard_curve]
    while len(ladder[-1]) < 2000:
        ladder.append(apply_word(ladder[-1], rng.choice("dD") + rng.choice("bB")))
    # random codes, mostly crossings of one rail: its two edges come back to
    # back, so a detour's partner-edge byte, if substituted again, would show
    steps = [(e, h) for e in range(12) for h in EDGE_HEXES[e]]
    codes = []
    for cid in range(6):
        rails = [s for s in steps if EDGE_CURVE[s[0]] == cid]
        codes += [cm.CurveWord([rng.choice(rails if rng.random() < 0.7 else steps)
                                for _ in range(rng.randint(1, 12))]) for _ in range(100)]
    assert sum(any(e ^ 1 == f for (e, _), (f, _) in zip(w.steps, w.steps[1:]))
               for w in codes) > 200
    for w in [w for _, w in corpus] + ladder + codes:
        for cid in range(6):
            for d in (1, -1):
                assert _splice(w.code, cid, d) == \
                    cm.CurveWord(_step_splice(w.steps, cid, d)).code, (w, cid, d)


def test_generators_match_the_oracle_composition(corpus, ladders):
    records = [(rec.witness, at.record_curve(rec)) for rec in at.enumerate_atlas(5).records]
    for word, w in corpus + [("ladder", w) for w in ladders] + records:
        for g in GENERATORS:
            assert apply_generator(w, g).steps == _oracle_generator(w, g), (word, g)


def test_half_twist_is_two_normalized_quarter_turns(corpus, ladders, monkeypatch):
    calls = []
    real = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps", lambda c: calls.append(c) or real(c))
    monkeypatch.setattr(action, "twist_system", None)  # calling it would raise
    rails = {x for name in "BZ" for x in action._RAIL_BYTES[CURVE_NAMES.index(name)]}
    curves = [w for _, w in corpus if rails & set(w.code)] + ladders
    assert len(curves) > 250
    for w in curves:
        for g in ("beta", "beta_inv"):
            calls.clear()
            action._act.__wrapped__(w.code, g)
            assert len(calls) == 2, (w, g)


def test_memo_hit_equals_a_cold_recomputation(corpus):
    for word, w in corpus:
        for g in GENERATORS:
            first = apply_generator(w, g)
            hits = action._act.cache_info().hits
            again = apply_generator(w, g)
            assert action._act.cache_info().hits == hits + 1
            assert again.code == action._act.__wrapped__(w.code, g) == first.code, (word, g)
            assert again is not first and again.normalized


def test_a_failing_action_is_not_memoized(kernel_defect_word):
    # the word of the strict xfail in test_canonical.py
    w = kernel_defect_word
    size = action._act.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InternalInvariantError):
            apply_generator(w, "beta_inv")
    assert action._act.cache_info().currsize == size


def test_reduction_is_the_same_cold_and_warm(standard_curve):
    rng = random.Random(29)
    curves = [at.record_curve(rec) for rec in at.enumerate_atlas(4).records]
    for letters in (4, 6, 8, 10, 12, 14):
        word = "".join(rng.choice("dD") if i % 2 == 0 else rng.choice("bB")
                       for i in range(letters))
        curves.append(apply_word(standard_curve, word))
    goeritz2.clear_caches()
    runs, misses = [], []
    for _ in range(2):
        misses.append(action._act.cache_info().misses)
        certs = [reduce_to_standard(w) for w in curves]
        runs.append((certs, [verify_certificate(c, w) for c, w in zip(certs, curves)]))
    assert action._act.cache_info().misses == misses[1] > misses[0]  # all warm
    assert runs[0] == runs[1]
    assert all(runs[1][1])
