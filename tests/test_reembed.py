"""The table-driven re-embedding agrees with the dict-based reference.

`reembed_oracle` keeps the earlier implementation of `to_coordinates`,
`from_normal_coordinates`, `_reembed`, `_trace` and Booth's least rotation.
Every check compares results, or the exception type raised, on the same input.
"""

import random

import pytest
import reembed_oracle as oracle

from goeritz2 import action
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2.action import GENERATORS, apply_generator
from goeritz2.errors import (
    Goeritz2Error,
    InconsistentCoordinates,
    InternalInvariantError,
    MalformedWord,
    NotEmbeddable,
)
from goeritz2.surface import (
    EDGE_HEXES,
    EDGE_OF_TOKEN,
    HEX_OF_TOKEN,
    HEX_SIDES,
    OTHER_HEX,
    SIDE_POS,
)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Goeritz2Error as exc:
        return "raised", type(exc)


def _steps(result):
    kind, value = result
    if kind == "ok" and isinstance(value, cm.CurveWord):
        return kind, value.steps, value.normalized
    if kind == "ok" and isinstance(value, list):
        return kind, [c.steps for c in value], [c.normalized for c in value]
    return result


def _same_reembed(w):
    new, old = _steps(_outcome(cm._reembed, w.code)), _steps(_outcome(oracle.reembed, w))
    assert new == old, w


def _same_least_rotation(seq):
    # the slice search, Booth's algorithm and the two-pointer scan agree
    code = cm.CurveWord(seq).code
    k = oracle.least_rotation_index(code)
    rotated = cm.CurveWord(cm._least_rotation(code)).steps
    assert rotated == oracle.least_rotation(seq) == seq[k:] + seq[:k], seq


def _same_components(coords):
    new = _steps(_outcome(cm.from_normal_coordinates, coords))
    old = _steps(_outcome(oracle.from_normal_coordinates, coords))
    assert new == old, coords
    return new


def test_corpus_and_ladders_match(corpus, ladders):
    for w in [w for _, w in corpus] + ladders:
        assert cm.to_coordinates(w) == oracle.to_coordinates(w)
        _same_reembed(w)
        kind, comps, _ = _same_components(cm.to_coordinates(w))
        assert kind == "ok" and len(comps) == 1


def _traced(trace, code):
    try:
        return trace(code)
    except Goeritz2Error as exc:
        return type(exc), str(exc)


def test_trace_matches_the_reference(corpus, ladders, standard_curve, unembedded_word,
                                     monkeypatch):
    # counts, path and alignment are what the renderer's ranks read; a short
    # state table makes nearly every input longer than the prefilled one
    monkeypatch.setattr(cm, "_STATES", cm._STATES[:16])
    codes = [w.code for _, w in corpus] + [w.code for w in ladders]
    codes += [cm._reversed(code) for code in codes]
    codes += [w.code[r:] + w.code[:r] for w in ladders[:3] for r in range(len(w))]
    bad = [standard_curve.code * 2, b"",
           cm._encode((EDGE_OF_TOKEN[e], HEX_OF_TOKEN[h]) for e, h in unembedded_word)]
    outcomes = set()
    for code in codes + bad:
        got = _traced(cm._trace, code)
        assert got == _traced(oracle.trace, code), code
        outcomes.add(got[1] if isinstance(got[0], type) else "ok")
    assert outcomes == {"ok", "minimal word re-embedded into 2 components",
                        "minimal word re-embedded into 0 components",
                        "re-embedding changed the cyclic word"}
    assert len(cm._STATES) >= 2 * max(map(len, codes))


def test_arc_classes_of_arbitrary_step_sequences():
    # not only closed chains: every arc is classified, or the word rejected, as
    # the per-pair reference does (a spur first, then a side of another hexagon)
    rng = random.Random(13)
    steps = [(e, h) for e in range(12) for h in EDGE_HEXES[e]]
    kinds = set()
    for _ in range(3000):
        seq = [rng.choice(steps) for _ in range(rng.randint(1, 12))]
        arcs = list(zip(seq, seq[1:] + seq[:1]))
        if any(e == f for (e, _), (f, _) in arcs):
            expected = "spur"
        elif any(SIDE_POS[h][f] < 0 for (_, h), (f, _) in arcs):
            expected = "bad"
        else:
            expected = oracle.to_coordinates(cm.CurveWord(tuple(seq)))
        try:
            got = cm.to_coordinates(cm.CurveWord(seq))
        except InternalInvariantError:
            got = "spur"
        except InconsistentCoordinates:
            got = "bad"
        assert got == expected, seq
        kinds.add(expected if isinstance(expected, str) else "ok")
    assert kinds == {"spur", "bad", "ok"}


def test_scaled_coordinates_give_identical_multicurves(corpus, ladders):
    for w in [w for _, w in corpus[:80]] + ladders[:6]:
        coords = cm.to_coordinates(w)
        for factor in (2, 3):
            kind, comps, _ = _same_components({k: factor * c for k, c in coords.items()})
            assert kind == "ok" and len(comps) == factor


def test_summed_coordinates(corpus):
    rng = random.Random(11)
    words = [w for _, w in corpus]
    kinds = set()
    for _ in range(300):
        c1, c2 = (cm.to_coordinates(rng.choice(words)) for _ in range(2))
        total = {k: c1.get(k, 0) + c2.get(k, 0) for k in set(c1) | set(c2)}
        result = _same_components(total)
        kinds.add(result[0] if result[0] == "raised" else len(result[1]))
    # the sums cover rejected, one-component and multi-component cases
    assert "raised" in kinds and any(k != "raised" and k > 1 for k in kinds)


def test_bad_coordinates_raise_the_same_type(standard_curve):
    coords = cm.to_coordinates(standard_curve)
    key = next(iter(coords))
    h, e1, e2 = key
    cases = [
        {},
        {key: 0},
        {key: -1},
        {(h, e1, e1): 1},
        {(h, e2, e1): coords[key], **{k: c for k, c in coords.items() if k != key}},
        {(h, e1, e2): 1},
        {k: c + 1 for k, c in coords.items()},
    ]
    for coords in cases:
        _same_components(coords)


def test_every_rotation_and_the_reversal(ladders):
    for w in ladders[:5]:
        for r in range(len(w)):
            _same_reembed(cm.CurveWord(w.steps[r:] + w.steps[:r]))
        _same_reembed(cm.CurveWord(cm.reversed_steps(w.steps)))


def test_corner_slide_candidates_accept_and_reject_alike(ladders):
    decided = set()
    for w in ladders[:6]:
        steps = w.steps  # a normalized word starts at its least rotation
        for i in range(len(steps)):
            if oracle.crosses_index2_corner(steps, i):
                candidate = cm.CurveWord(oracle.slide_pass(steps, i))
                _same_reembed(candidate)
                decided.add(_outcome(cm._reembed, candidate.code)[0])
    assert decided == {"ok", "raised"}


def test_multicomponent_and_empty_words_rejected(standard_curve):
    doubled = cm.CurveWord(standard_curve.steps * 2)
    _same_reembed(doubled)
    _same_reembed(cm.CurveWord(()))


def test_validate_reports_the_same_interleaving_chords():
    rng = random.Random(1)
    found = 0
    for _ in range(6000):
        h = rng.randrange(4)
        steps = []
        for _ in range(rng.randint(2, 24)):
            e = rng.choice(HEX_SIDES[h])
            h = OTHER_HEX[e][h]
            steps.append((e, h))
        try:
            cm._check_chain(steps)
        except MalformedWord:
            continue
        expected = oracle.interleaving_chords(steps)
        try:
            cm._check_embeddable(steps)
        except NotEmbeddable as exc:
            if "interleave" in str(exc):
                found += 1
                assert str(exc) == expected, steps
                continue
        assert expected is None, steps
    assert found > 100


@pytest.mark.parametrize("seq", [
    ((0, 0),),
    ((3, 2), (1, 0)),
    ((1, 0), (3, 2)),
    ((2, 1), (0, 3), (0, 3), (5, 1), (0, 3)),
    ((0, 3), (2, 1)) * 4,
    ((4, 0), (0, 2), (4, 0), (0, 2), (0, 1)),
    ((6, 1),) * 7,
    ((1, 2), (1, 2), (0, 0), (1, 2), (0, 0), (1, 2), (1, 2), (0, 0)),
    # X/Y/Z steps only: the least byte is 24 or more
    ((7, 2), (6, 1), (7, 2), (6, 1), (9, 0)),
    ((10, 3), (8, 1)) * 3,
    ((11, 2), (9, 3), (11, 2), (11, 2), (9, 3), (11, 2), (6, 0)),
    # one byte repeated
    ((11, 2),) * 2,
    ((8, 3),) * 9,
])
def test_least_rotation_edge_cases(seq):
    _same_least_rotation(seq)


def test_least_rotation_of_curve_words(corpus, ladders):
    for w in [w for _, w in corpus] + ladders:
        _same_least_rotation(w.steps)
    for w in ladders[:3]:
        for r in range(len(w)):
            _same_least_rotation(w.steps[r:] + w.steps[:r])


def test_library_words_are_their_own_least_rotations(corpus, ladders):
    # canonical_unoriented reads a normalized word's code as its least rotation
    records = [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]
    curves = {w.code: w for w in [w for _, w in corpus] + ladders + records}.values()
    made = []
    for w in curves:
        half = len(w) // 2
        turned = [cm.CurveWord(w.code[half:] + w.code[:half]), cm.CurveWord(cm._reversed(w.code))]
        for x in turned:  # unnormalized words of the curve: their codes are read in full
            assert cm.canonical_unoriented(x) == cm.canonical_unoriented(w)
        made += map(cm.normalize, turned)
        made += [apply_generator(w, g) for g in GENERATORS]
        made += [action._relabel(w, g) for g in ("alpha", "gamma", "delta", "delta_inv")]
    assert len(made) > 1500
    for w in made:
        assert w.normalized and w.code == cm._least_rotation(w.code), w
        assert cm.canonical_unoriented(w) == min(cm._least_rotation(w.code),
                                                 cm._least_rotation(cm._reversed(w.code)))


def test_least_rotation_random():
    rng = random.Random(3)
    steps = [(e, h) for e in range(12) for h in EDGE_HEXES[e]]
    for _ in range(2000):
        alphabet = rng.sample(steps, rng.randint(1, 4))
        unit = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
        seq = unit * rng.randint(1, 4)
        _same_least_rotation(seq)
