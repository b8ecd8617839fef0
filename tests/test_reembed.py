"""The table-driven re-embedding agrees with the dict-based reference.

`reembed_oracle` keeps the earlier implementation of `to_coordinates`,
`from_normal_coordinates`, `_reembed`, `_trace`, Booth's least rotation and
a two-pointer least rotation.  Every check compares results, or the
exception type raised, on the same input.
"""

import array
import functools
import random
from collections import Counter

import chain_oracle
import pytest
import reembed_oracle as oracle

import goeritz2
from goeritz2 import action, handlebody
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import embed
from goeritz2.action import GENERATORS, apply_generator
from goeritz2.errors import (
    INPUT_ERRORS,
    EmptyAfterNormalization,
    Goeritz2Error,
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
)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Goeritz2Error as exc:
        return "raised", type(exc)


def _steps(result):
    kind, value = result
    if kind == "ok" and isinstance(value, cm.CurveWord):
        return kind, value.steps
    if kind == "ok" and isinstance(value, list):
        return kind, [c.steps for c in value], [c.normalized for c in value]
    return result


def _same_reembed(w):
    new, old = _outcome(cm._reembed, w.code), _outcome(oracle.reembed, w)
    assert _steps(new) == _steps(old), w
    if new[0] == "ok":  # the live curve of its code; the oracle's word is unnormalized
        assert cm._CURVES[new[1].code] is new[1], w


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
    """What the call returns, a traced path as a list, or the type and
    message of what it raises."""
    try:
        result = trace(code)
    except Goeritz2Error as exc:
        return type(exc), str(exc)
    return (list(result[0]), result[1]) if isinstance(result, tuple) else result


def _oracle_trace(code):
    """The reference trace's path and alignment: what `_trace` returns."""
    _, path, r = oracle.trace(code)
    return path, r


def test_trace_matches_the_reference(corpus, ladders, standard_curve, unembedded_word):
    # path and alignment are what the renderer's ranks read
    codes = [w.code for _, w in corpus] + [w.code for w in ladders]
    codes += [cm._reversed(code) for code in codes]
    codes += [w.code[r:] + w.code[:r] for w in ladders[:3] for r in range(len(w))]
    bad = [standard_curve.code * 2, b"",
           cm._encode((EDGE_OF_TOKEN[e], HEX_OF_TOKEN[h]) for e, h in unembedded_word)]
    outcomes = set()
    for code in codes + bad:
        got = _traced(embed._trace, code)
        assert got == _traced(_oracle_trace, code), code
        outcomes.add(got[1] if isinstance(got[0], type) else "ok")
    assert outcomes == {"ok", "minimal word re-embedded into 2 components",
                        "minimal word re-embedded into 0 components",
                        "re-embedding changed the cyclic word"}


@pytest.mark.parametrize("typecode", ["i", "q"])
def test_state_numbers_are_a_range(typecode):
    # written a byte plane at a time: counts on each side of a plane's first
    # carry, and a successor table of 2 * 70,000 states
    for count in (0, 1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 140_000):
        states = embed._states(count, typecode)
        assert states.typecode == typecode and states == array.array(typecode, range(count))


def _raised(fn, w):
    """The type and message of what the call raises, or None."""
    try:
        fn(w)
    except Goeritz2Error as exc:
        return type(exc), str(exc)
    return None


def test_arc_classes_of_arbitrary_step_sequences():
    # `to_coordinates` of a word the library did not make passes the chain
    # check first: a closed chain gets its own coordinates (the gate checks
    # it, it does not normalize it), or the spur error if it has a spur, as
    # the per-pair reference gives; anything else, bytes that are not steps
    # too, raises exactly what `normalize` raises on it
    rng = random.Random(13)
    steps = [(e, h) for e in range(12) for h in EDGE_HEXES[e]]
    wild = [(e, h) for e in (12, 13, 20, 47, 63) for h in range(4)]
    seqs = [[rng.choice(steps) for _ in range(rng.randint(1, 12))] for _ in range(3000)]
    seqs += [_closed_walk(rng, rng.randint(1, 12)) for _ in range(3000)]
    for _ in range(1000):
        seq = rng.choice(seqs)[:]
        seq.insert(rng.randint(0, len(seq)), rng.choice(wild))
        seqs.append(seq)
    kinds = Counter()
    for seq in seqs:
        w = cm.CurveWord(seq)
        if max(e for e, _ in seq) < 12 and _chain_outcome(chain_oracle.check_chain, seq) is None:
            expected = _outcome(oracle.to_coordinates, w)
            assert _outcome(cm.to_coordinates, w) == expected, seq
            kinds["spur" if expected[0] == "raised" else "ok"] += 1
        else:
            got = _raised(cm.to_coordinates, w)
            assert got is not None and got[0] is MalformedWord, seq
            assert got == _raised(cm.normalize, w), seq
            kinds["step" if "integer" in got[1] else "chain"] += 1
    assert min(kinds[k] for k in ("ok", "spur", "step", "chain")) > 100, kinds


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
        _same_reembed(cm.CurveWord(oracle.reversed_steps(w.steps)))


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
            embed._check_chain(cm._encode(steps))
        except MalformedWord:
            continue
        expected = oracle.interleaving_chords(steps)
        try:
            embed._check_embeddable(cm.CurveWord(steps).code)
        except NotEmbeddable as exc:
            if "interleave" in str(exc):
                found += 1
                assert str(exc) == expected, steps
                continue
        assert expected is None, steps
    assert found > 100


def _chain_outcome(check, arg):
    try:
        check(arg)
    except MalformedWord as exc:
        return str(exc)
    return None


def _closed_walk(rng, length):
    h0 = h = rng.randrange(4)
    steps = []
    while len(steps) < length or h != h0:
        e = rng.choice(HEX_SIDES[h])
        h = OTHER_HEX[e][h]
        steps.append((e, h))
    return steps


def test_chain_check_matches_the_oracle():
    # the table read gives the per-step loop's message on 100,000 seeded
    # codes: random step lists, closed walks with 0-2 corrupted steps, and
    # their prefixes, which fail where the last step meets the first
    rng = random.Random(36)
    mod48 = bytes(x % 48 for x in range(256))
    codes = [b""] + [rng.randbytes(rng.randint(1, 12)).translate(mod48) for _ in range(40_000)]
    walks = [cm._encode(_closed_walk(rng, rng.randint(1, 12))) for _ in range(2_000)]
    for _ in range(40_000):
        code = bytearray(rng.choice(walks))
        for _ in range(rng.randint(0, 2)):
            code[rng.randrange(len(code))] = rng.randrange(48)
        codes.append(bytes(code))
    for _ in range(20_000):
        walk = rng.choice(walks)
        codes.append(walk[:rng.randint(1, len(walk))])
    seen = set()
    for code in codes:
        got = _chain_outcome(embed._check_chain, code)
        assert got == _chain_outcome(chain_oracle.check_chain,
                                     list(map(cm._STEP_OF_BYTE.__getitem__, code))), code
        seen.add((got, len(code)))
    kinds = {"closed" if got is None else
             next(k for k in ("empty", "adjacent", "side", "hexagon") if k in got)
             + " at the wrap-around" * got.startswith(f"step {n}:") for got, n in seen}
    assert kinds == {"closed", "empty", "adjacent", "side", "hexagon", "hexagon at the wrap-around"}


def test_validate_checks_the_chain_as_the_oracle():
    # end to end: validate raises the oracle's chain message, and a closed
    # chain gets the word of its code or fails the embeddability check
    rng = random.Random(37)
    outcomes = set()
    for _ in range(3_000):
        steps = _closed_walk(rng, rng.randint(1, 16))
        for _ in range(rng.choice((0, 0, 1, 2))):
            steps[rng.randrange(len(steps))] = (rng.randrange(12), rng.randrange(4))
        expected = _chain_outcome(chain_oracle.check_chain, steps)
        try:
            w = cm.validate(steps)
        except MalformedWord as exc:
            assert str(exc) == expected, steps
            outcomes.add("chain")
            continue
        except (NotEmbeddable, EmptyAfterNormalization):
            assert expected is None, steps
            outcomes.add("embedding")
            continue
        assert expected is None and w.code == cm._encode(steps), steps
        outcomes.add("word")
    assert outcomes == {"chain", "embedding", "word"}


def test_out_of_range_steps_raise_input_errors():
    # an unchecked word with a step on an edge of 12 or more is refused with
    # a typed error by every entry point that reads its arcs
    entry_points = (cm.normalize, cm.counts, handlebody.is_reducing,
                    functools.partial(apply_generator, g="beta"), cm.to_coordinates)
    for steps in ([(20, 0), (1, 1)], [(12, 0), (0, 1)]):
        for entry_point in entry_points:
            with pytest.raises(INPUT_ERRORS):
                entry_point(cm.CurveWord(steps))


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
        families.setdefault(embed._class_sizes(w.code)[0], []).append(w)
    return families


def test_one_layout_serves_a_class_set_with_any_counts(class_set_families):
    shared = [ws for ws in class_set_families.values()
              if len({tuple(embed._class_sizes(w.code)[1]) for w in ws}) >= 4]
    assert len(shared) >= 8
    embed._layout.cache_clear()
    for w in (w for ws in shared for w in ws):
        assert _traced(embed._trace, w.code) == _traced(_oracle_trace, w.code), w
        coords = cm.to_coordinates(w)
        for factor in (1, 2, 3):
            kind, comps, _ = _same_components({k: factor * c for k, c in coords.items()})
            assert kind == "ok" and len(comps) == factor
    assert embed._layout.cache_info().currsize == len(shared)  # one layout per class set


def test_a_small_or_cleared_layout_table_gives_the_same_results(class_set_families,
                                                                 monkeypatch):
    words = [w for ws in class_set_families.values() for w in ws]
    expected = [_traced(embed._trace, w.code) for w in words]
    embed._layout.cache_clear()
    assert [_traced(embed._trace, w.code) for w in words] == expected
    monkeypatch.setattr(embed, "_layout", functools.lru_cache(maxsize=1)(embed._layout.__wrapped__))
    assert [_traced(embed._trace, w.code) for w in words] == expected
    assert embed._layout.cache_info().currsize == 1


def test_an_interleaving_class_set_raises_every_time():
    i, j = next((i, j) for i, mask in enumerate(embed._CLASS_CROSSES) for j in range(i)
                if mask >> j & 1)
    coords = {embed._CLASS_KEYS[i]: 1, embed._CLASS_KEYS[j]: 1}
    size = embed._layout.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(NotEmbeddable, match="interleaving chord classes in H") as exc:
            cm.from_normal_coordinates(coords)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert embed._layout.cache_info().currsize == size
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
    assert _traced(embed._trace, b"") == _traced(_oracle_trace, b"") == (
        InternalInvariantError, "minimal word re-embedded into 0 components")
    assert cm.from_normal_coordinates({}) == oracle.from_normal_coordinates({}) == []


def test_clear_caches_empties_the_layout_table(ladders):
    embed._trace(ladders[-1].code)
    assert embed._layout.cache_info().currsize > 0
    goeritz2.clear_caches()
    assert embed._layout.cache_info().currsize == 0


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


def test_least_rotation_of_periodic_words():
    # equal segments in a row: the ranks have runs of their least byte
    rng = random.Random(31)
    for _ in range(150):
        alphabet = rng.sample(range(48), rng.randint(2, 5))
        unit = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        for k in (2, 3, 40, 400):
            _least_matches(unit * k)


def test_least_rotation_where_the_least_byte_is_sparse_or_dense():
    # `pieces` least bytes, each followed by `length` larger bytes: the marker
    # is the least byte alone where pieces are long (sparse), else the least
    # byte and the least piece; its occurrences are compared whole where they
    # are few and short, else ranked, or it occurs once, wrapped round the end
    # or not
    assert 4 < cm._DENSE < 200
    assert 40 * 200 <= cm._WHOLE_BYTES < 40 * 12_040
    rng = random.Random(37)
    for pieces, length in ((1, 3), (3, 4), (3, 300), (40, 4), (40, 300), (600, 2), (600, 200)):
        for _ in range(3):
            w = b"".join(bytes([0] + [rng.choice(b"\x01\x02\x03\x05") for _ in range(length)])
                         for _ in range(pieces))
            for r in (0, 1, len(w) // 2, len(w) - 1):
                _least_matches(w[r:] + w[:r])


def test_least_rotation_of_segments_of_more_than_256_ranks():
    rng = random.Random(41)
    # the marker is 0 1; it begins 700 distinct segments
    segments = [bytes((0, 1, 0, 2 + i % 200, 2 + i // 200)) for i in range(700)]
    rng.shuffle(segments)
    w = b"".join(segments)
    _least_matches(w)
    _least_matches(w[5:] + w[:5])
    _least_matches(w * 2)  # the prefixes tie up to the whole word


def test_least_rotation_of_random_runs_of_the_least_byte():
    # runs that wrap round the end, and a longest run cut by the end of w + w
    rng = random.Random(43)
    for _ in range(2000):
        w = bytes(rng.choice(b"\x00\x00\x00\x01\x02") for _ in range(rng.randint(2, 80)))
        _least_matches(w)
