"""The step-byte kernel agrees with the quadratic list reference.

`kernel_oracle` keeps the earlier `_remove_spurs`, `_find_run`, `_slide_run`
and `normalize_steps` on parallel lists of edges and hexagons.  Every check
encodes the same input for `goeritz2.kernel` and compares the returned
words, steps and their order.
"""

import random

import kernel_oracle as oracle
import pytest

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import kernel
from goeritz2 import reduction as red
from goeritz2.action import _act, _cross_detour, apply_generator, apply_word, twist_about_p
from goeritz2.errors import Goeritz2Error
from goeritz2.surface import EDGE_CURVE, HEX_SIDES, OTHER_HEX


def _split(steps):
    return [e for e, _ in steps], [h for _, h in steps]


def _code(steps):
    return cm.CurveWord(steps).code


def _lists(code):
    return _split(cm.CurveWord(code).steps)


def _same_normal_form(steps):
    code, _ = kernel.normalize_steps(_code(steps))
    assert _lists(code) == oracle.normalize_steps(*_split(steps)), steps


def _same_spur_pass(steps):
    old_e, old_h = _split(steps)
    oracle._remove_spurs(old_e, old_h)
    code = _code(steps)
    assert _lists(kernel.remove_spurs(code)) == (old_e, old_h), steps


def _walk(rng, length, backtrack):
    """A closed walk of at least `length` steps that often turns straight back."""
    h0 = h = rng.randrange(4)
    steps = []
    while len(steps) < length or h != h0:
        if steps and rng.random() < backtrack:
            e = steps[-1][0]
        else:
            e = rng.choice(HEX_SIDES[h])
        h = OTHER_HEX[e][h]
        steps.append((e, h))
    return steps


def _retrace(steps):
    """The walk followed by its own way back: every step cancels."""
    hexes = [OTHER_HEX[steps[0][0]][steps[0][1]]] + [h for _, h in steps]
    return steps + [(steps[i][0], hexes[i]) for i in reversed(range(len(steps)))]


def _rotate(steps, k):
    return steps[k:] + steps[:k]


def test_corpus_matches(corpus):
    for _, w in corpus:
        _same_normal_form(w.steps)
        _same_spur_pass(w.steps)


def test_raw_splices_match(standard_curve):
    rng = random.Random(5150)
    for _ in range(60):
        word = "".join(rng.choice("bBdDg") for _ in range(rng.randint(1, 7)))
        w = apply_word(standard_curve, word)
        for name, d in (("Z", 1), ("B", -1), ("Y", 1), ("C", -1)):
            cid = "ABCXYZ".index(name)
            out = []
            for e, h in w.steps:
                if EDGE_CURVE[e] == cid:
                    out.extend(_cross_detour(e, h, d))
                else:
                    out.append((e, h))
            _same_normal_form(out)


def test_ladder_inputs_match_up_to_ten_thousand_crossings(standard_curve, monkeypatch):
    # every kernel input met while a beta/delta ladder grows past 10^4 crossings
    seen = []
    normalize = kernel.normalize_steps

    def capture(code):
        seen.append(code)
        return normalize(code)

    monkeypatch.setattr(kernel, "normalize_steps", capture)
    rng = random.Random(7)
    w = standard_curve
    while len(w) < 10_000:
        w = apply_word(w, rng.choice("dD") + rng.choice("bB"))
    monkeypatch.undo()
    assert max(len(code) for code in seen) > 15_000
    for code in seen:
        # the oracle's normal form starts with its spur pass, so it goes on from there
        es, hs = _lists(code)
        oracle._remove_spurs(es, hs)
        assert _lists(kernel.remove_spurs(code)) == (es, hs)
        assert _lists(kernel.normalize_steps(code)[0]) == oracle.normalize_steps(es, hs)


def test_random_spur_heavy_walks_match():
    rng = random.Random(11)
    cancelled = straddling = 0
    for _ in range(1500):
        steps = _walk(rng, rng.randint(1, 40), rng.choice((0.3, 0.6, 0.9)))
        if rng.random() < 0.3:
            steps = _retrace(steps)
        steps = _rotate(steps, rng.randrange(len(steps)))
        _same_spur_pass(steps)
        _same_normal_form(steps)
        cancelled += not kernel.remove_spurs(_code(steps))
        straddling += steps[0][0] == steps[-1][0]
    assert cancelled > 300 and straddling > 100


def test_long_retrace_cancels_to_nothing():
    # one cascade thousands of pairs deep, which may straddle the word's ends
    rng = random.Random(23)
    for _ in range(4):
        steps = _retrace(_walk(rng, 2000, 0.0))
        steps = _rotate(steps, rng.randrange(len(steps)))
        _same_spur_pass(steps)
        assert kernel.remove_spurs(_code(steps)) == b""


def test_runs_of_same_edge_steps_match():
    # a step that crosses back and forth over one edge three or more times
    rng = random.Random(29)
    for _ in range(200):
        steps = _rotate(_walk(rng, rng.randint(60, 200), 0.85), rng.randrange(60))
        edges = [e for e, _ in steps]
        assert any(edges[i] == edges[i + 1] == edges[i + 2] for i in range(len(edges) - 2))
        _same_spur_pass(steps)


def _disk_reference(code, system):
    stack = []
    for c in code.translate(cm._CURVE_OF_BYTE, cm._ABC_BYTES if system == "V" else cm._XYZ_BYTES):
        if stack and stack[-1] == c:
            stack.pop()
        else:
            stack.append(c)
    return not stack


def _nested(rng, depth):
    """Curve letters that cancel to nothing: blocks c + (nested word) + c."""
    if depth <= 0:
        return []
    out = []
    for _ in range(rng.randint(1, 3)):
        c = rng.randrange(6)
        out += [c] + _nested(rng, depth - rng.randint(1, 2)) + [c]
    return out


def test_bounds_disk_matches_a_stack_reference():
    # the disk test reads only the crossed curves: any byte of a curve's edges stands for it
    rng = random.Random(31)
    verdicts = set()
    for _ in range(3000):
        kind = rng.randrange(3)
        if kind == 0:
            letters = [rng.randrange(6) for _ in range(rng.randint(0, 40))]
        else:
            letters = _nested(rng, rng.randint(1, 5))
            if kind == 2 and letters:  # one letter dropped or doubled
                i = rng.randrange(len(letters))
                letters[i:i + 1] = rng.choice(([], [letters[i]] * 2, [letters[i]] * 3))
        code = bytes(4 * (2 * c + rng.randrange(2)) + rng.randrange(4) for c in letters)
        for system in "VW":
            verdict = cm._bounds_disk(code, system)
            assert verdict == _disk_reference(code, system), (letters, system)
            verdicts.add((kind, verdict))
    # nested words cancel in either system; the others go both ways
    assert verdicts == {(0, False), (0, True), (1, True), (2, False), (2, True)}


@pytest.mark.parametrize("passes", [1, 2, kernel._PREFILTER_PASSES])
def test_prefilter_reports_every_run_start(monkeypatch, passes):
    # the prefilter may report extra starts, never miss one; the walk decides
    monkeypatch.setattr(kernel, "_PREFILTER_PASSES", passes)
    rng = random.Random(17)
    with_run = reported = returned = 0
    for _ in range(10_000):
        steps = _walk(rng, rng.randint(2, 30), rng.choice((0.0, 0.2)))
        es, hs = _split(steps)
        code, n = _code(steps), len(steps)
        flags = kernel._prefilter((code + code).translate(kernel._POSITION), n)
        starts = {i for i in range(n) if flags[i]}
        runs = [i for i in range(n) if oracle.run_from(es, hs, i) is not None]
        assert set(runs) <= starts, steps
        first = kernel._find_run(code)
        if runs:
            i, fences, end = oracle.run_from(es, hs, runs[0])
            assert first == (i, end + n * (end < i)), steps
            assert [k % n for k in range(first[0] + 1, first[1])] == fences, steps
        else:
            assert first is None, steps
        with_run += bool(runs)
        reported += len(starts)
        returned += len(runs)
    assert with_run > 1000
    if passes <= 2:
        assert reported > returned  # the walk past the prefilter decides


@pytest.mark.parametrize("steps", [
    [],
    [(10, 1)],
    [(10, 1), (10, 0)],
    [(10, 1), (6, 0)],
    [(10, 1), (10, 0), (10, 1)],
    [(10, 1), (6, 0), (6, 1), (10, 0)],
    [(6, 0), (10, 1), (6, 0), (10, 1), (10, 0)],
    [(0, 2), (2, 0), (2, 2), (10, 1), (10, 0), (0, 0)],
    [(0, 2), (4, 0), (8, 1), (8, 0), (2, 2), (0, 0)],
    # a pair on edge 0 at index 0: no step before it may pair with it
    [(0, 2), (0, 0), (10, 1), (6, 0)],
    # a pair that ends at the last index
    [(10, 1), (6, 0), (10, 1), (10, 0)],
    # five steps over one edge: the pairs overlap, so each round cancels one
    [(6, 1), (10, 0), (10, 1), (10, 0), (10, 1), (10, 0)],
])
def test_spur_pass_edge_cases(steps):
    _same_spur_pass(steps)
    _same_normal_form(steps)


def test_validate_messages_unchanged(monkeypatch):
    # validate's order check runs on the spur-free core the kernel returns
    def oracle_pass(code):
        es, hs = _lists(code)
        oracle._remove_spurs(es, hs)
        return _code(list(zip(es, hs)))

    def outcome(steps):
        try:
            cm.validate(steps)
            return None
        except Goeritz2Error as exc:
            return type(exc), str(exc)

    rng = random.Random(3)
    walks = [_walk(rng, rng.randint(2, 30), 0.4) for _ in range(3000)]
    new = [outcome(s) for s in walks]
    monkeypatch.setattr(kernel, "remove_spurs", oracle_pass)
    assert [outcome(s) for s in walks] == new
    assert sum("not realizable" in r[1] for r in new if r) > 50


def _rounds(code):
    """Whole-word rounds of `kernel.freely_reduce`'s rule until no adjacent
    same-edge pair is left: each deletes the marked pairs, the left one of
    two that overlap.  So it is at least the depth to which the word's
    cancellations nest."""
    rounds = 0
    while True:
        marked = [(a ^ b) < 4 for a, b in zip(code, code[1:])]
        kept = {i for i, m in enumerate(marked) if m and not (i and marked[i - 1])}
        if not kept:
            return rounds
        code = bytes(x for i, x in enumerate(code) if i not in kept and i - 1 not in kept)
        rounds += 1


def test_library_made_kernel_inputs_hold_no_bigon_run(monkeypatch, ladders, fresh_curves):
    # Observed, not proved (ROADMAP item 9): after spur cancellation, every
    # word the generator action hands the kernel is in minimal position.
    # Depth 6 with its round trips and the ladders makes about 400 calls: each
    # half twist is one substitution and one kernel call, unless it hands
    # back the remembered preimage of an image, and a record holds its
    # normalized curve.  Both half twists of every record, computed again in
    # a fresh intern table where no curve remembers its maker, add about 460.
    # The full twists about P of the records and of their delta and delta^-1
    # images add about 1,860 more, on the other handle.
    found, inputs = [], []
    real, normalize_steps = kernel._find_run, kernel.normalize_steps
    monkeypatch.setattr(kernel, "_find_run", lambda code: found.append(real(code)) or found[-1])
    monkeypatch.setattr(kernel, "normalize_steps",
                        lambda code: inputs.append(code) or normalize_steps(code))
    curves = [at.record_curve(rec) for rec in at.enumerate_atlas(6).records]
    for w in curves + ladders:
        assert red.verify_certificate(red.reduce_to_standard(w), w)
    half = [_rounds(code) for code in inputs]
    inputs.clear()
    for w in curves:
        for v in (w, apply_generator(w, "delta"), apply_generator(w, "delta_inv")):
            for d in (1, -1):
                twist_about_p(v, d)
    full = [_rounds(code) for code in inputs]
    inputs.clear()
    for w in fresh_curves(*(w.code for w in curves)):
        for g in ("beta", "beta_inv"):
            _act.__wrapped__(w, g)
    half += [_rounds(code) for code in inputs]
    assert len(found) > 1500 and found.count(None) == len(found)
    # Also observed: the spurs of a half twist's image cancel in the two
    # whole-word rounds `freely_reduce` makes before its loop, and most
    # images need both.  The full twists cascade 4 deep; deeper cascades are
    # still cancelled correctly, but by the loop, one Python step per site.
    assert len(half) > 600 and max(half) == kernel._ROUNDS == 2 and half.count(2) > 400
    assert len(full) > 1800 and max(full) == 4
