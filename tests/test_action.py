"""Twists and the Goeritz generator action."""

import random

import kernel_oracle
import pytest
import reembed_oracle
from key_oracle import curve_key

import goeritz2
from goeritz2 import action, kernel
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2.action import (
    GENERATORS,
    _cross_detour,
    apply_generator,
    apply_word,
    format_goeritz_word,
    invert_goeritz_word,
    parse_goeritz_word,
    twist_about_p,
    twist_system,
)
from goeritz2.errors import InternalInvariantError, MalformedInput
from goeritz2.reduction import reduce_to_standard, verify_certificate
from goeritz2.selftest import _preimage_shortcuts
from goeritz2.surface import CURVE_NAMES, EDGE_CURVE, EDGE_HEXES, OTHER_HEX, complex_symmetry

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
    assert reduce_to_standard(twist_system(P, "B", 1)).word == []
    assert reduce_to_standard(twist_system(P, "Y", -1)).word == []


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
        assert reduce_to_standard(back).word == reduce_to_standard(w).word


@pytest.mark.parametrize("direction", [0, 2, -2, -3])
def test_twists_reject_a_direction_other_than_one_or_minus_one(direction):
    with pytest.raises(MalformedInput, match=f"bad twist direction {direction}$"):
        twist_about_p(cm.PUSHOFFS["A"], direction)
    with pytest.raises(MalformedInput, match="bad twist spec"):
        twist_system(cm.PUSHOFFS["A"], "Z", direction)


def test_delta_sends_standard_to_prime():
    dP = apply_generator(cm.P_CURVE, "delta")
    assert cm.counts(dP).abc() == (0, 2, 0)
    ddP = apply_generator(cm.P_CURVE, "delta_inv")
    assert cm.counts(ddP).abc() == (0, 0, 2)


def test_beta_fixes_standard_curve():
    assert reduce_to_standard(apply_generator(cm.P_CURVE, "beta")).word == []
    assert reduce_to_standard(apply_generator(cm.P_CURVE, "beta_inv")).word == []


def test_beta_on_a_pushoff_matches_fixture():
    eta1 = apply_generator(cm.PUSHOFFS["A"], "beta")
    assert cm.counts(eta1).as_tuple() == (2, 0, 0, 2, 1, 1)
    assert curve_key(eta1) == curve_key(ETA1_FIXTURE)


def test_beta_and_inverse_differ_on_a_pushoff():
    eta1 = apply_generator(cm.PUSHOFFS["A"], "beta")
    eta2 = apply_generator(cm.PUSHOFFS["A"], "beta_inv")
    assert curve_key(eta1) != curve_key(eta2)


def test_generator_word_identities(standard_curve):
    for word in ("ddd", "bB", "dD", "gg", "aa"):
        assert reduce_to_standard(apply_word(standard_curve, word)).word == [], word


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
        cert = reduce_to_standard(w).word
        assert reduce_to_standard(apply_word(w, "bB")).word == cert, word
        assert reduce_to_standard(apply_word(w, "Bb")).word == cert, word


def test_beta_squared_is_twist_about_standard_curve(corpus):
    for word, w in corpus[:12]:
        bb = apply_word(w, "bb")
        assert reduce_to_standard(bb).word == reduce_to_standard(twist_about_p(w, 1)).word, word


def test_alpha_commutes_with_everything(corpus):
    for word, w in corpus[:10]:
        for g in ("beta", "gamma", "delta"):
            lhs = apply_generator(apply_generator(w, "alpha"), g)
            rhs = apply_generator(apply_generator(w, g), "alpha")
            assert reduce_to_standard(lhs).word == reduce_to_standard(rhs).word, (word, g)


def test_unknown_generator_rejected():
    with pytest.raises(MalformedInput):
        apply_generator(cm.P_CURVE, "epsilon")


def _step_splice(steps, cid, direction):
    """The per-step splice the byte tables replaced: one detour per rail crossing."""
    out = []
    for e, h in steps:
        out.extend(_cross_detour(e, h, direction) if EDGE_CURVE[e] == cid else [(e, h)])
    return out


def _splice(code, cid, direction):
    """One twist about curve cid as a byte substitution, not yet normalized."""
    return action._substitute(code, action._twist_table(CURVE_NAMES[cid], direction))


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
    inputs = {}  # each distinct code once: the 520 corpus words hold 44
    for word, w in corpus + [("ladder", w) for w in ladders] + records:
        inputs.setdefault(w.code, (word, w))
    for word, w in inputs.values():
        for g in GENERATORS:
            assert apply_generator(w, g).steps == _oracle_generator(w, g), (word, g)


def test_half_twist_and_full_twist_normalize_once(corpus, ladders, monkeypatch):
    calls = []
    real = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps", lambda c: calls.append(c) or real(c))
    monkeypatch.setattr(action, "twist_system", None)  # calling it would raise
    rails = {name: {x for c in name for x in action._RAIL_BYTES[CURVE_NAMES.index(c)]}
             for name in ("BZ", "CY")}
    curves = [w for _, w in corpus] + ladders
    for name in rails:
        assert sum(bool(rails[name] & set(w.code)) for w in curves) > 250, name
    remembered = []
    for w in curves:
        # a word that misses both rails is fixed without a kernel call, and an
        # image made by the inverse twist hands back its preimage without one
        beta_calls = 1 if rails["BZ"] & set(w.code) else 0
        p_calls = 1 if rails["CY"] & set(w.code) else 0
        for g, d in (("beta", 1), ("beta_inv", -1)):
            made_from = action._made_from(w, (action._BETA, d))
            calls.clear()
            image = action._act.__wrapped__(w, g)
            if made_from is None:
                assert len(calls) == beta_calls, (w, g)
            else:
                assert not calls and image is made_from, (w, g)
                remembered.append(g)
        for d in (1, -1):
            made_from = action._made_from(w, (action._FULL_TWIST, d))
            calls.clear()
            image = twist_about_p(w, d)
            assert len(calls) == (p_calls if made_from is None else 0), (w, d)
            assert made_from is None or image is made_from
    assert len(remembered) > 20


# the two product tables: beta = (t_Z t_B t_Z)^2 and the full twist about
# P = (t_C t_Y t_C)^4
_TABLES = (action._BETA, action._FULL_TWIST)


def _table(curves, direction):
    rails, _, images = action._twist_table(curves, direction)
    return dict(zip(rails, (image for _, image in images)))


def test_turn_table_images_are_nonempty_and_freely_reduced():
    for curves in _TABLES:
        for d in (1, -1):
            for x, image in _table(curves, d).items():
                steps = cm.CurveWord(image).steps
                assert steps, (curves, d, x)
                assert all(e != f for (e, _), (f, _) in zip(steps, steps[1:])), (curves, d, x)
                # a path from the hexagon before x to the hexagon x enters
                assert steps[-1][1] == x & 3, (curves, d, x)


# every step byte: each edge crossed into either of its hexagons
_STEP_BYTES = bytes(4 * e + h for e in range(12) for h in EDGE_HEXES[e])


def test_every_twist_table_is_undone_by_its_inverse_under_free_reduction():
    # the lemma `action._made_from` rests on, for all 16 tables the library
    # uses: T'(T(x)) reduces freely to x, where T' twists the same curves the
    # other way (the product words read the same backwards), and T sends
    # each spur pair x x' to a word that cancels
    assert len(_STEP_BYTES) == 24
    for curves in (*CURVE_NAMES, *_TABLES):
        assert curves == curves[::-1]
        for d in (1, -1):
            table, inverse = action._twist_table(curves, d), action._twist_table(curves, -d)
            for x in _STEP_BYTES:
                back = 4 * (x >> 2) + OTHER_HEX[x >> 2][x & 3]
                there = action._substitute(bytes((x,)), table)
                assert kernel.freely_reduce(action._substitute(there, inverse)) == bytes((x,)), \
                    (curves, d, x)
                assert kernel.freely_reduce(action._substitute(bytes((x, back)), table)) == b"", \
                    (curves, d, x)


def test_every_preimage_shortcut_of_a_cold_atlas_is_the_computed_image():
    # `selftest --full` runs the same check to depth 8 (3,563 shortcuts)
    assert _preimage_shortcuts(6) > 300


def test_a_remembered_preimage_is_not_followed_into_another_intern_table(fresh_curves):
    (q,) = fresh_curves(apply_word(cm.P_CURVE, "db").code)
    images = [apply_generator(q, g) for g in ("beta", "delta")]
    assert [w._preimage for w in images] == [((action._BETA, -1), q.code), ("delta_inv", q.code)]
    assert all(apply_generator(w, g) is q for w, g in zip(images, ("beta_inv", "delta_inv")))
    # q and its images live on, but no longer in the intern table: the slots
    # name q's code, which the new table does not hold, so the action
    # computes the preimages again, as new curves
    fresh_curves()
    for w, g in zip(images, ("beta_inv", "delta_inv")):
        again = apply_generator(w, g)
        assert again.code == q.code and again is not q


def _free_reduction(code):
    out = []
    for x in code:
        if out and out[-1] >> 2 == x >> 2:
            out.pop()
        else:
            out.append(x)
    return bytes(out)


def test_turn_table_images_are_the_reduced_composed_splices():
    for curves in _TABLES:
        for d in (1, -1):
            for x, image in _table(curves, d).items():
                steps = [(x >> 2, x & 3)]
                for name in curves:
                    steps = _step_splice(steps, CURVE_NAMES.index(name), d)
                composed = cm.CurveWord(steps).code
                assert len(composed) > len(image)
                assert image == _free_reduction(composed), (curves, d, x)


def _quarter_turn_route(w, outer, inner, d, turns):
    """The replaced route: each quarter turn one unreduced substitution, then
    `normalize`."""
    cids = [CURVE_NAMES.index(c) for c in (outer, inner)]
    rails = {x for cid in cids for x in action._RAIL_BYTES[cid]}
    for _ in range(turns):
        if not rails & set(w.code):
            return w
        code = w.code
        for cid in (cids[0], cids[1], cids[0]):
            code = _splice(code, cid, d)
        w = cm.normalize(cm.CurveWord(code))
    return w


def test_one_substitution_matches_normalized_quarter_turns(corpus, ladders):
    records = [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]
    for w in [w for _, w in corpus] + ladders + records:
        for d, g in ((1, "beta"), (-1, "beta_inv")):
            assert apply_generator(w, g).code == \
                _quarter_turn_route(w, "Z", "B", d, 2).code, (w, g)
            assert twist_about_p(w, d).code == \
                _quarter_turn_route(w, "C", "Y", d, 4).code, (w, d)


def test_memo_hit_equals_a_cold_recomputation(corpus):
    for word, w in corpus:
        for g in GENERATORS:
            first = apply_generator(w, g)
            hits = action._act.cache_info().hits
            again = apply_generator(w, g)
            assert action._act.cache_info().hits == hits + 1
            assert again.code == action._act.__wrapped__(w, g).code == first.code, (word, g)
            assert again is first and again.normalized


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
