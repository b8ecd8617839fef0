"""Executable invariant battery behind `goeritz2 selftest`.

Prints one pass/fail line per check and returns a process exit code.  The full
battery mirrors the acceptance suite at reduced corpus size; `--full` raises
the corpus to the acceptance size.  The checks are asserts: under `python -O`
it refuses to run and exits 2, the CLI's usage code.
"""

from __future__ import annotations

import operator
import random
import sys
import traceback
from collections import Counter

from . import action as action_mod
from . import atlas as atlas_mod
from . import clear_caches
from . import curve as cm
from . import kernel
from . import reduction as red
from .action import (
    _BETA,
    _FULL_TWIST,
    _substitute,
    _twist_table,
    apply_generator,
    apply_word,
    twist_about_p,
    twist_system,
)
from .handlebody import (
    _DISK_READINGS,
    _free_reduction,
    bounds_disk,
    check_word_constraints,
    curve_v_word,
    is_reducing,
    theta_word,
    word_str,
)
from .surface import CURVE_NAMES, EDGE_CURVE, HEX_PANTS, HEX_SIDES, OTHER_HEX
from .surface import build_complex, complex_symmetry


def _corpus(n: int, max_len: int = 6, seed: int = 20260808):
    rng = random.Random(seed)
    base = cm.normalize(cm.P_CURVE)
    out = []
    for _ in range(n):
        word = "".join(rng.choice("abBgdD") for _ in range(rng.randint(0, max_len)))
        out.append((word, apply_word(base, word)))
    return out


def _preimage_shortcuts(depth: int) -> int:
    """Check every image that the action hands back from a remembered
    preimage (`action._made_from`) on a cold atlas to `depth` with a
    verified round trip per record: the action computes the same object with
    the slot bypassed.  Returns the number of such shortcuts."""
    made_from, hits = action_mod._made_from, []

    def spy(w, undo):
        source = made_from(w, undo)
        if source is not None:
            hits.append((w, undo, source))
        return source

    clear_caches()
    action_mod._made_from = spy
    try:
        for rec in atlas_mod.enumerate_atlas(depth).records:
            assert red.verify_certificate(red.reduce_to_standard(rec.curve), rec.curve)
        action_mod._made_from = lambda w, undo: None
        for w, undo, source in hits:
            again = (action_mod._relabel(w, undo) if isinstance(undo, str)
                     else action_mod._twist(w, *undo))
            assert again is source, (w.code.hex(), undo)
    finally:
        action_mod._made_from = made_from
    return len(hits)


def _checks(quick: bool):
    P = cm.normalize(cm.P_CURVE)
    n_corpus = 40 if quick else 120

    def complex_sanity():
        c = build_complex()
        assert c.euler_characteristic == -2
        assert len(c.vertices) == 6 and len(c.edges) == 12 and len(c.hexagons) == 4
        d = complex_symmetry("delta")
        assert d.compose(d).compose(d).is_identity()
        g = complex_symmetry("gamma")
        assert g.compose(g).is_identity()
        assert complex_symmetry("alpha").is_identity()

    def standard_anchors():
        assert cm.counts(P).as_tuple() == (2, 0, 0, 2, 0, 0)
        assert is_reducing(P)
        census = cm.arc_census(P)
        assert census[("AA", 1)] == census[("AA", 2)] == 1
        triples = sorted(
            cm.counts(apply_generator(P, g)).abc() for g in ("delta", "delta_inv"))
        assert triples == [(0, 0, 2), (0, 2, 0)]

    def word_calibration():
        assert word_str(curve_v_word(cm.PUSHOFFS["B"])) == "b"
        assert word_str(curve_v_word(cm.PUSHOFFS["C"])) == "c"
        assert bounds_disk(cm.PUSHOFFS["B"], "W") and not bounds_disk(cm.PUSHOFFS["B"], "V")
        assert bounds_disk(cm.PUSHOFFS["X"], "V") and not bounds_disk(cm.PUSHOFFS["X"], "W")
        assert theta_word(P, "V") == ("X", "X")

    corpus = _corpus(n_corpus)

    def count_laws():
        for word, w in corpus:
            c = cm.counts(w)
            cb = cm.counts(apply_generator(w, "beta"))
            assert (cb.b, cb.c) == (c.b, c.c), word
            cg = cm.counts(apply_generator(w, "gamma"))
            assert (cg.a, cg.b, cg.c) == (c.a, c.c, c.b), word
            cd = cm.counts(apply_generator(w, "delta"))
            assert (cd.a, cd.b, cd.c) == (c.c, c.a, c.b), word
            assert cm.counts(apply_generator(w, "alpha")) == c, word

    def dominance_trichotomy():
        for word, w in corpus:
            assert is_reducing(w), word
            red.classify(w)

    def aa_arc_constraints():
        for word, w in corpus:
            if red.classify(w) == "A" and cm.counts(w).total_abc() > 2:
                check_word_constraints(w)

    def reduction_roundtrip():
        for word, w in corpus[: max(10, n_corpus // 2)]:
            cert = red.reduce_to_standard(w)
            assert red.verify_certificate(cert, w), word

    def certificate(w):
        return red.reduce_to_standard(w).word

    def beta_realization():
        assert certificate(apply_generator(P, "beta")) == []
        for word, w in corpus[:6]:
            bb = apply_generator(apply_generator(w, "beta"), "beta")
            assert certificate(bb) == certificate(twist_about_p(w)), word

    def half_twist_route():
        # beta^+-1 and the full twist about P, each one substitution of freely
        # reduced images, against six and twelve single twists, compared as codes
        for word, w in corpus:
            for d, g in ((1, "beta"), (-1, "beta_inv")):
                six = twelve = w
                for name in ("ZB" if d == 1 else "BZ") * 3:
                    six = twist_system(six, name, d)
                assert apply_generator(w, g).code == six.code, (word, g)
                for name in "YC" * 6:
                    twelve = twist_system(twelve, name, d)
                assert twist_about_p(w, d).code == twelve.code, (word, d)

    def arc_reader():
        # arcs, arc types and census read from the code, against a walk of the steps
        for word, w in corpus:
            steps, n = w.steps, len(w)
            starts = [i for i in range(n) if EDGE_CURVE[steps[i][0]] < 3]
            walks = [[steps[t % n] for t in range(i, j + n * (j <= i) + 1)]
                     for i, j in zip(starts, starts[1:] + starts[:1])]
            assert cm.split_arcs(w) == [cm.Arc(
                HEX_PANTS[s[0][1]], s[0][0], s[-1][0], tuple(e for e, _ in s[1:-1]),
                tuple(h for _, h in s[1:-1])) for s in walks], word
            assert [a.type for a in cm.split_arcs(w)] == [
                "".join(sorted(CURVE_NAMES[EDGE_CURVE[s[0][0]]] + CURVE_NAMES[EDGE_CURVE[s[-1][0]]]))
                for s in walks], word
            census = Counter((a.type, a.pants) for a in cm.split_arcs(w))
            assert cm.arc_census(w) == {k: census[k] for k in cm.arc_census(w)}, word

    def arc_lemma():
        # a closed chain's arcs alternate pants, so its census holds a BB, BC
        # or CC arc or differs between the pants exactly when two cyclically
        # consecutive A/B/C crossings are both B or C (`reduction._bc_adjacent`,
        # which `_dominance` reads in place of the census).  arc_census would
        # normalize a random chain, so its arcs are read through the (type,
        # pants) table of `Arc.type`, which `arc-reader` checks
        def agree(code, census):
            assert red._bc_adjacent(code) == (
                any(census[t, i] for t in ("BB", "BC", "CC") for i in (1, 2))
                or any(census[t, 1] != census[t, 2] for t in ("AA", "AB", "AC"))), code.hex()

        moves = [bytes(4 * e + OTHER_HEX[e][h] for e in HEX_SIDES[h]) for h in range(4)]
        rng = random.Random(20261021)
        for n in [rng.randint(2, 24) for _ in range(2000)]:
            code = bytearray(rng.choices(moves[rng.randrange(4)]))
            while len(code) < n or code[0] not in moves[code[-1] & 3]:  # until it closes
                code.append(rng.choice(moves[code[-1] & 3]))
            ends = code.translate(None, cm._XYZ_BYTES)
            census = Counter(cm._ARC_OF_ENDS[24 * x + y] for x, y in zip(ends, ends[1:] + ends[:1]))
            agree(bytes(code), census)
        for rec in atlas_mod.enumerate_atlas(6).records:
            agree(rec.curve.code, cm.arc_census(rec.curve))

    def spur_levels():
        # the kernel's spur pass against a byte-at-a-time stack, on the
        # substituted words of the half twists, which cancel in the kernel's
        # whole-word rounds, of the full twist about P on the curves and their
        # delta^+-1 images, which cascade up to 4 deep and so reach its loop,
        # and of a long retrace, which cancels to nothing
        def splice(code, d, twist=_BETA):  # one substitution, not yet normalized
            return _substitute(code, _twist_table(twist, d))

        def one_at_a_time(code):
            out = bytearray()
            for x in code:
                if out and (out[-1] ^ x) < 4:
                    out.pop()
                else:
                    out.append(x)
            while len(out) > 1 and (out[0] ^ out[-1]) < 4:
                del out[0], out[-1]
            return bytes(out)

        spliced = [splice(w.code, d) for _, w in corpus for d in (1, -1)]
        spliced += [splice(v.code, d, _FULL_TWIST) for _, w in corpus
                    for v in (w, apply_generator(w, "delta"), apply_generator(w, "delta_inv"))
                    for d in (1, -1)]
        long = splice(apply_word(P, "db" * 6).code, 1)
        long += cm._reversed(long)
        third = len(long) // 3
        retrace = long[third:] + long[:third]
        for code in spliced + [retrace]:
            out = kernel.remove_spurs(code)
            assert out == one_at_a_time(code), code.hex()
            # no adjacent same-edge pair is left, the wrap-around pair included
            ring = out + out[:1]
            assert 0x80 not in kernel._same_edge_pairs(int.from_bytes(ring, "big"), len(ring))
            assert kernel.remove_spurs(out) == out, code.hex()
        assert not kernel.remove_spurs(retrace)

    def generator_memo():
        words = [word for word, _ in corpus[:40]]
        clear_caches()
        cold = [apply_word(P, word).code for word in words]
        warm = [apply_word(P, word).code for word in words]
        assert cold == warm == [w.code for _, w in corpus[:40]]

    def interned_curves():
        # one live curve per code: a fresh word of a live curve's code
        # normalizes to that curve, so it is not traced and keeps its facts
        curves = [w for _, w in corpus[:40]]
        assert all(cm._CURVES[w.code] is w for w in curves)
        assert all(map(operator.is_, (cm.normalize(cm.CurveWord(w.code)) for w in curves), curves))

    def reduction_passes():
        curves = [atlas_mod.record_curve(rec) for rec in atlas_mod.enumerate_atlas(4).records]

        def certificates():
            return [(c.word, c.trace, c.terminal) for c in map(red.reduce_to_standard, curves)]

        cold = certificates()
        kept = [w._pass for w in curves]
        # each curve off the terminals keeps its first pass, which starts its certificate
        for w, done, (word, _, _) in zip(curves, kept, cold):
            assert (done is None) == (cm.counts(w).total_abc() == 2)
            assert done is None or list(done[0]) == word[:len(done[0])]
        assert certificates() == cold  # read from the curves: no pass is computed again
        assert all(map(operator.is_, (w._pass for w in curves), kept))

    def certificate_invariance():
        for word, w in corpus:
            cert = certificate(w)
            half = len(w) // 2
            assert certificate(cm.CurveWord(w.code[half:] + w.code[:half])) == cert, word
            assert certificate(cm.CurveWord(cm._reversed(w.code))) == cert, word
            for loop in ("bB", "dD", "gg"):
                assert certificate(apply_word(w, loop)) == cert, (word, loop)
        # record counts at depths 2 and 4; docs/atlas-depth4.txt sums to 47
        assert len(atlas_mod.enumerate_atlas(2).records) == 7
        assert len(atlas_mod.enumerate_atlas(4).records) == 47

    def twist_images_trace():
        # `action._twist` hands out slide-free twist images of interned curves
        # untraced: trace those of a cold atlas to depth 8 and its round trips,
        # run before any reduction, so that no curve keeps a pass
        twist, images = action_mod._twist, []
        action_mod._twist = lambda *args: images.append(twist(*args)) or images[-1]
        clear_caches()
        try:
            for rec in atlas_mod.enumerate_atlas(8).records:
                assert red.verify_certificate(red.reduce_to_standard(rec.curve), rec.curve)
        finally:
            action_mod._twist = twist
        from . import embed
        for w in images:
            assert cm._CURVES[w.code] is w
            embed._trace(w.code)

    def preimage_shortcuts():
        assert _preimage_shortcuts(8) > 3000

    def disk_readings():
        # the pi_1 reading of `bounds_disk`, at each basepoint, against the
        # theta word cancelled on a stack in Z/2 * Z/2 * Z/2
        def cancels(letters):
            stack = []
            for x in letters:
                if stack and stack[-1] == x:
                    stack.pop()
                else:
                    stack.append(x)
            return not stack

        rng = random.Random(20261020)
        curves = [rec.curve for rec in atlas_mod.enumerate_atlas(6).records]
        curves += [apply_word(q, "".join(rng.choice("abBgdD") for _ in range(rng.randint(0, 6))))
                   for q in cm.PUSHOFFS.values() for _ in range(20)]
        for w in curves:
            for side, bases in (("V", range(3, 6)), ("W", range(3))):
                verdict = cancels(theta_word(w, side))
                assert bounds_disk(w, side) == verdict, (w.code.hex(), side)
                assert {not _free_reduction(w.code.translate(*_DISK_READINGS[b]))
                        for b in bases} == {verdict}, (w.code.hex(), side)

    def atlas_determinism():
        first = [r.as_json() for r in atlas_mod.enumerate_atlas(2).records]
        clear_caches()  # the second run recomputes every curve nothing else holds
        s2 = atlas_mod.enumerate_atlas(2)
        assert first == [r.as_json() for r in s2.records]
        for rec in s2.records:
            assert atlas_mod.is_non_triangular(rec.triple)
            assert all(t % 2 == 0 for t in rec.triple)

    return [
        ("complex-sanity", complex_sanity),
        ("standard-curve-anchors", standard_anchors),
        ("handlebody-word-calibration", word_calibration),
        *([] if quick else [("twist-images-trace", twist_images_trace),
                            ("preimage-shortcuts", preimage_shortcuts)]),
        ("generator-count-laws", count_laws),
        ("dominance-trichotomy", dominance_trichotomy),
        ("aa-arc-word-constraints", aa_arc_constraints),
        ("reduction-round-trip", reduction_roundtrip),
        ("half-twist-realization", beta_realization),
        ("half-twist-route", half_twist_route),
        ("arc-reader", arc_reader),
        ("spur-levels", spur_levels),
        ("generator-memo", generator_memo),
        ("interned-curves", interned_curves),
        ("reduction-passes", reduction_passes),
        ("certificate-invariance", certificate_invariance),
        ("disk-readings", disk_readings),
        ("arc-lemma", arc_lemma),
        ("atlas-determinism", atlas_determinism),
    ]


def run(quick: bool = True) -> int:
    if not __debug__:
        print("selftest: python -O strips the asserts it checks with; run it without -O",
              file=sys.stderr)
        return 2
    failures = 0
    for name, fn in _checks(quick):
        try:
            fn()
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"pass {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 5
    print("all checks passed")
    return 0
