"""The table-driven re-embedding agrees with the dict-based reference.

`reembed_oracle` keeps the earlier implementation of `to_coordinates`,
`from_normal_coordinates`, `_reembed`, `_trace`, Booth's least rotation and
a two-pointer least rotation.  Every check compares results, or the
exception type raised, on the same input.
"""

import functools
import random

import pytest
import reembed_oracle as oracle

import goeritz2
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


def _oracle_trace(code):
    """The reference trace's path and alignment: what `_trace` returns."""
    _, path, r = oracle.trace(code)
    return path, r


def test_trace_matches_the_reference(corpus, ladders, standard_curve, unembedded_word,
                                     monkeypatch):
    # path and alignment are what the renderer's ranks read; a short state
    # table makes nearly every input longer than the prefilled one
    monkeypatch.setattr(cm, "_STATES", cm._STATES[:16])
    codes = [w.code for _, w in corpus] + [w.code for w in ladders]
    codes += [cm._reversed(code) for code in codes]
    codes += [w.code[r:] + w.code[:r] for w in ladders[:3] for r in range(len(w))]
    bad = [standard_curve.code * 2, b"",
           cm._encode((EDGE_OF_TOKEN[e], HEX_OF_TOKEN[h]) for e, h in unembedded_word)]
    outcomes = set()
    for code in codes + bad:
        got = _traced(cm._trace, code)
        assert got == _traced(_oracle_trace, code), code
        outcomes.add(got[1] if isinstance(got[0], type) else "ok")
    assert outcomes == {"ok", "minimal word re-embedded into 2 components",
                        "minimal word re-embedded into 0 components",
                        "re-embedding changed the cyclic word"}
    assert len(cm._STATES) == 16  # longer words got lists of their own


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


# ------------------------------------------------ layouts of chord-class sets


@pytest.fixture(scope="module")
def class_set_families(standard_curve):
    """Words grouped by their set of chord classes: the rung powers (db)^k and
    the like, which share one set for k = 3..6, and the depth-5 records."""
    words = [action.apply_word(standard_curve, rung * k)
             for rung in ("db", "dB", "Db", "DB") for k in range(1, 7)]
    words += [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]
    families = {}
    for w in words:
        families.setdefault(cm._class_sizes(w.code)[0], []).append(w)
    return families


def test_one_layout_serves_a_class_set_with_any_counts(class_set_families):
    shared = [ws for ws in class_set_families.values()
              if len({tuple(cm._class_sizes(w.code)[1]) for w in ws}) >= 4]
    assert len(shared) >= 8
    cm._layout.cache_clear()
    for w in (w for ws in shared for w in ws):
        assert _traced(cm._trace, w.code) == _traced(_oracle_trace, w.code), w
        coords = cm.to_coordinates(w)
        for factor in (1, 2, 3):
            kind, comps, _ = _same_components({k: factor * c for k, c in coords.items()})
            assert kind == "ok" and len(comps) == factor
    assert cm._layout.cache_info().currsize == len(shared)  # one layout per class set


def test_a_small_or_cleared_layout_table_gives_the_same_results(class_set_families,
                                                                 monkeypatch):
    words = [w for ws in class_set_families.values() for w in ws]
    expected = [_traced(cm._trace, w.code) for w in words]
    cm._layout.cache_clear()
    assert [_traced(cm._trace, w.code) for w in words] == expected
    monkeypatch.setattr(cm, "_layout", functools.lru_cache(maxsize=1)(cm._layout.__wrapped__))
    assert [_traced(cm._trace, w.code) for w in words] == expected
    assert cm._layout.cache_info().currsize == 1


def test_an_interleaving_class_set_raises_every_time():
    i, j = next((i, j) for i, mask in enumerate(cm._CLASS_CROSSES) for j in range(i)
                if mask >> j & 1)
    coords = {cm._CLASS_KEYS[i]: 1, cm._CLASS_KEYS[j]: 1}
    size = cm._layout.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(NotEmbeddable, match="interleaving chord classes in H") as exc:
            cm.from_normal_coordinates(coords)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert cm._layout.cache_info().currsize == size
    assert _outcome(oracle.from_normal_coordinates, coords) == ("raised", NotEmbeddable)


def test_side_count_mismatches_name_the_first_edge(ladders):
    found = set()
    for w in ladders[:6]:
        coords = cm.to_coordinates(w)
        for key in coords:
            bad = {**coords, key: coords[key] + 1}
            got = _traced(cm.from_normal_coordinates, bad)
            assert got == _traced(oracle.from_normal_coordinates, bad), bad
            found.add(got[1].split(":")[0])
    assert all(msg.startswith("edge ") and msg.endswith(" endpoint counts differ")
               for msg in found)
    assert len(found) >= 6


def test_the_empty_word_and_no_coordinates():
    assert _traced(cm._trace, b"") == _traced(_oracle_trace, b"") == (
        InternalInvariantError, "minimal word re-embedded into 0 components")
    assert cm.from_normal_coordinates({}) == oracle.from_normal_coordinates({}) == []


def test_clear_caches_empties_the_layout_table(ladders):
    cm._trace(ladders[-1].code)
    assert cm._layout.cache_info().currsize > 0
    goeritz2.clear_caches()
    assert cm._layout.cache_info().currsize == 0


# ------------------------------------------------------ least rotation at scale


def _least_matches(w):
    k = oracle.least_rotation_index(w)
    assert cm._least_rotation(w) == w[k:] + w[:k], (len(w), w[:40])


def test_least_rotation_of_runs_of_the_least_byte():
    # splitting at single least bytes would recurse once per byte here
    for k in (1, 2, 3, 9, 10, 11, 100, 1000, 10_000):
        _least_matches(b"a" * k + b"b")
        _least_matches(b"b" + b"a" * k)
        for j in (2, 3, 10):
            _least_matches((b"a" * k + b"b") * j + b"c")
            _least_matches(b"c" + (b"a" * k + b"b") * j)


def test_least_rotation_with_many_distinct_pieces():
    rng = random.Random(17)
    # more than 256 distinct pieces between the least bytes, at the top level
    # and one level down
    pieces = [bytes((1 + i % 250, 1 + i // 250)) for i in range(600)]
    rng.shuffle(pieces)
    top = b"".join(b"\x00" + piece for piece in pieces)
    _least_matches(top)
    _least_matches(b"".join(b"\x00\x00" + piece for piece in pieces))
    # each byte of `top` as its own piece, in the same order: 252 ranks here
    # give `top` again one level down
    _least_matches(b"".join(bytes((0, 1 + x)) for x in top))
    for _ in range(3):
        _least_matches(bytes(rng.randrange(200) for _ in range(100_000)))


def test_least_rotation_of_single_bytes_and_repeats():
    for w in (b"", b"\x00", b"\x2f", b"\xff", b"\x05" * 2, b"\x05" * 30, b"\x07\x05" * 20):
        _least_matches(w)
        assert cm._least_rotation(w) == oracle.least_rotation(w)
    rng = random.Random(23)
    for _ in range(3000):
        alphabet = rng.sample(range(256), rng.randint(1, 3))
        _least_matches(bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 60))))


def test_least_rotation_of_every_ladder_rotation(ladders):
    for w in ladders:
        for r in range(len(w)):
            _least_matches(w.code[r:] + w.code[:r])
