"""The step-byte kernel agrees with the quadratic list reference.

`kernel_oracle` keeps the earlier `_remove_spurs`, `_find_run`, `_slide_run`
and `normalize_steps` on parallel lists of edges and hexagons.  Every check
encodes the same input for `goeritz2.kernel` and compares the returned
words, steps and their order.
"""

import itertools
import random

import kernel_oracle as oracle
import pi1_oracle
import pytest

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import handlebody as hb
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


def _walk(rng, length, backtrack, start=None):
    """A closed walk of at least `length` steps that often turns straight back,
    from hexagon `start` or a random one."""
    h0 = h = rng.randrange(4) if start is None else start
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


def _same_disk_verdicts(code):
    """The disk test's reading (`handlebody._DISK_READINGS`, freely reduced)
    at each of the three basepoints of each system against the stack
    reference; returns the verdicts in V and in W."""
    verdicts = []
    for system, bases in (("V", range(3, 6)), ("W", range(3))):
        verdict = _disk_reference(code, system)
        assert [not hb._free_reduction(code.translate(*hb._DISK_READINGS[base]))
                for base in bases] == [verdict] * 3, (code.hex(), system)
        verdicts.append(verdict)
    return verdicts


def test_bounds_disk_matches_a_stack_reference():
    # closed chains, whose crossings of each system alternate sides: walks,
    # walks followed by their way back, which cancel, and such retraces with
    # a closed walk spliced in at the turn, which read as that walk
    rng = random.Random(31)
    verdicts = set()
    for _ in range(3000):
        kind = rng.randrange(3)
        steps = _walk(rng, rng.randint(1, 40), rng.choice((0.0, 0.5, 0.85)))
        if kind:
            turn = len(steps)
            steps = _retrace(steps)
            if kind == 2:
                steps[turn:turn] = _walk(rng, rng.randint(1, 20), rng.choice((0.0, 0.5, 0.85)),
                                         start=steps[turn - 1][1])
        steps = _rotate(steps, rng.randrange(len(steps)))
        verdicts.update((kind, verdict) for verdict in _same_disk_verdicts(_code(steps)))
    # retraces cancel in either system; the others go both ways
    assert verdicts == {(0, False), (0, True), (1, True), (2, False), (2, True)}


def test_bounds_disk_matches_a_stack_reference_at_every_length():
    # closed walks of every length up to 40: the stack's top is kept apart
    # from the list below it, which empties at every length
    rng = random.Random(41)
    verdicts = set()
    for n in range(41):
        for backtrack in (0.0, 0.5, 0.85):
            for _ in range(20):
                code = _code(_walk(rng, n, backtrack))
                verdicts.update((len(code) > 0, verdict) for verdict in _same_disk_verdicts(code))
    assert verdicts == {(False, True), (True, False), (True, True)}


def test_disk_verdict_is_the_same_at_every_basepoint():
    # closed walks, whose V verdict is also the pi_1 word of their raw steps
    # (`pi1_oracle`'s reading, with X's disk spanning the tree), then the
    # depth-6 atlas and seeded generator images of P and the six pushoffs
    rng = random.Random(43)
    verdicts = set()
    for _ in range(1500):
        steps = _walk(rng, rng.randint(1, 60), rng.choice((0.0, 0.5, 0.85)))
        v, w = _same_disk_verdicts(_code(steps))
        assert v == (pi1_oracle.steps_word(steps) == ()), steps
        verdicts.add(("walk", v, w))
    curves = [rec.curve for rec in at.enumerate_atlas(6).records]
    curves += [apply_word(q, "".join(rng.choice("abBgdD") for _ in range(rng.randint(0, 6))))
               for q in (cm.P_CURVE, *cm.PUSHOFFS.values()) for _ in range(12)]
    for q in curves:
        v, w = _same_disk_verdicts(q.code)
        assert hb.bounds_disk(q, "V") == v == (hb.curve_v_word(q) == ()), q.code.hex()
        assert hb.bounds_disk(q, "W") == w, q.code.hex()
        verdicts.add(("curve", v, w))
    # the generators preserve both handlebodies, so a pushoff's images bound
    # a disk on its own curve's side only
    assert verdicts == {(kind, v, w) for kind in ("walk", "curve")
                        for v in (False, True) for w in (False, True)} - {("curve", False, False)}


def _reported_starts(code, triples):
    """The starts whose first `triples` kind bytes do not rule out a run: a
    short triple, or an open one followed by alternates that close or are
    still alternating after `triples` triples."""
    n, pos = len(code), (code * 3).translate(kernel._POSITION)
    kinds = bytes(kernel._KIND[36 * pos[j] + 6 * pos[j + 1] + pos[j + 2]] for j in range(2 * n))
    starts = set()
    for i in range(n):
        first, rest = kinds[i], kinds[i + 1:i + triples].lstrip(b"a")
        if first == ord("s") or first == ord("o") and rest[:1] in (b"", b"c"):
            starts.add(i)
    return starts


@pytest.mark.parametrize("triples", [1, 2, 8])
def test_prefilter_reports_every_run_start(triples):
    # the kind bytes read from a start may report it without a run, never
    # miss one; the first run of `_find_run` is the list reference's
    rng = random.Random(17)
    with_run = reported = returned = 0
    for _ in range(10_000):
        steps = _walk(rng, rng.randint(2, 30), rng.choice((0.0, 0.2)))
        es, hs = _split(steps)
        code, n = _code(steps), len(steps)
        starts = _reported_starts(code, triples)
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
    if triples <= 2:
        assert reported > returned  # the triples past the first ones decide


def test_the_kind_table_reads_the_walk_transitions():
    for p0, p1, p2 in itertools.product(range(6), repeat=3):
        kind = chr(kernel._KIND[36 * p0 + 6 * p1 + p2])
        assert kind == oracle.triple_kind(p0, p1, p2), (p0, p1, p2)
    assert kernel._KIND[216:] == b"-" * 40


# a step byte whose crossed curve has each position
_BYTE_AT = bytes(kernel._POSITION.index(p) for p in range(6))


def _fence_run(p, side, fences):
    """The positions of a walk that crosses the curve at p and then `fences`
    alternating fences, the first at p + side."""
    return [p] + [(p + side * (-1) ** j) % 6 for j in range(fences)]


def _edge_case_positions():
    """Position strings the search must read as the walk does: every word of
    1-3 steps, runs past 8 fences, runs that wrap round the end, runs n - 1
    steps long, whole words of one alternation, and words with a short and
    a long run in either order."""
    words = [list(t) for n in (1, 2, 3) for t in itertools.product(range(6), repeat=n)]
    for p, side in itertools.product(range(6), (1, -1)):
        q = (p + 3) % 6
        for fences in (1, 2, 8, 9, 10, 17, 30):
            run = _fence_run(p, side, fences) + [p]
            words += [run[j:] + run[:j] for j in range(len(run))]  # every rotation
            words += [run[:-1], run[1:], _fence_run(p, side, fences)[1:]]
            words += [run + [q], [q] + run, run + _fence_run(q, side, 1) + [q],
                      _fence_run(q, side, 1) + [q] + run, run + _fence_run(q, side, fences)]
    return words


def test_find_run_matches_the_per_start_walk(fresh_curves, ladders, monkeypatch):
    # the kernel's own inputs: a cold atlas to depth 6 and the ladders' beta images
    seen = []
    real = kernel._find_run
    monkeypatch.setattr(kernel, "_find_run", lambda code: seen.append(code) or real(code))
    fresh_curves()
    at.enumerate_atlas(6)
    atlas_inputs = len(seen)
    for w in ladders:
        apply_generator(w, "beta")
        apply_generator(w, "beta_inv")
    monkeypatch.undo()
    assert atlas_inputs > 300 and len(seen) > atlas_inputs + len(ladders)
    seen += [w.code for w in ladders]
    rng = random.Random(19)
    seen += [_code(_walk(rng, rng.randint(2, 120), rng.choice((0.0, 0.2)))) for _ in range(3000)]
    # positions of fence runs of up to 12 steps, one step byte per position
    words = []
    for _ in range(1000):
        fences = []
        while len(fences) < 60:
            fences += _fence_run(rng.randrange(6), rng.choice((1, -1)), rng.randint(1, 12))
        words.append(fences[:rng.randint(3, 60)])
    seen += [bytes(_BYTE_AT[p] for p in pos) for pos in words + _edge_case_positions()]
    found = set()
    for code in seen:
        n, run = len(code), kernel._find_run(code)
        assert run == oracle.first_run((code + code).translate(kernel._POSITION), n), code.hex()
        if run is None:
            found.add("no run")
            continue
        i, k = run
        found.add("short" if k == i + 2 else "long")
        found.update(tag for tag, holds in (("past 8 fences", k - i > 9), ("wraps", k >= n),
                                            ("n - 1 steps", k == i + n - 1)) if holds)
    assert found == {"no run", "short", "long", "past 8 fences", "wraps", "n - 1 steps"}


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
