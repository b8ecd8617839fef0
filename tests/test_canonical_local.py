"""Corner slides decided at their vertex agree with the full re-embedding.

`canonical_oracle` keeps the earlier canonical form, which re-embeds the whole
slid word on every attempt.  `goeritz2.slides.Slides` decides each attempt
from the ranks of the two crossings along their edges and updates the ranks
in place.  While the library's `canonical_form` runs, a checking subclass
compares every local verdict with the re-embedding verdict and, after every
accepted slide, compares the updated rank table with one built afresh from
the slid word.  The canonical words themselves must be list-identical.
"""

import itertools
import random

import canonical_oracle

from goeritz2 import curve as cm
from goeritz2 import kernel, slides
from goeritz2.action import GENERATORS, apply_generator, apply_word
from goeritz2.errors import Goeritz2Error
from goeritz2.surface import HEX_SIDES, OTHER_HEX, SIDE_POS


def _ranks(s):
    return [s.rank(p) for p in range(len(s.steps))]


class _Checked(slides.Slides):
    attempts = accepted = 0

    def slide(self, i):
        before = tuple(self.steps)
        expected = canonical_oracle.slide_realizable(before, i)
        got = super().slide(i)
        assert got == expected, (before, i)
        _Checked.attempts += 1
        if not got:
            assert tuple(self.steps) == before
            return got
        _Checked.accepted += 1
        fresh = slides.Slides(list(self.steps))
        assert _ranks(self) == _ranks(fresh)
        assert (self.size, self.counts, self.mask) == (fresh.size, fresh.counts, fresh.mask)
        return got


def _check_canonical_forms(words, monkeypatch):
    """Canonical words equal the oracle's; returns (attempts, accepted) slides."""
    expected = [canonical_oracle.canonical_form(w).steps for w in words]
    _Checked.attempts = _Checked.accepted = 0
    with monkeypatch.context() as m:
        m.setattr(slides, "Slides", _Checked)
        got = [cm.canonical_form(w).steps for w in words]
    assert got == expected
    return _Checked.attempts, _Checked.accepted


def _ladder(rng, letters):
    return "".join(rng.choice("dD") if i % 2 == 0 else rng.choice("bB")
                   for i in range(letters))


def test_corpus(corpus, monkeypatch):
    attempts, accepted = _check_canonical_forms([w for _, w in corpus], monkeypatch)
    assert 0 < accepted < attempts


def test_depth_four_generator_expansion(monkeypatch):
    level = [cm.P_CURVE]
    images = list(level)
    for _ in range(4):
        level = [apply_generator(w, g) for w in level for g in sorted(GENERATORS)]
        images += level
    assert len(images) == 1 + 6 + 36 + 216 + 1296
    attempts, accepted = _check_canonical_forms(images, monkeypatch)
    assert 0 < accepted < attempts


def test_deep_words(standard_curve, monkeypatch):
    # the first three have a slidable pass right after a slide, so the sweep's
    # step past a slide decides their canonical words
    rng = random.Random(23)
    words = ["dDDBgdBDgbdd", "gDbgdbggDBd", "ddgBdBaDbD"]
    words += ["".join(rng.choice("abBgdD") for _ in range(rng.randint(7, 12)))
              for _ in range(40)]
    attempts, accepted = _check_canonical_forms(
        [apply_word(standard_curve, word) for word in words], monkeypatch)
    assert 0 < accepted < attempts


def test_ladders_to_860_crossings(standard_curve, monkeypatch):
    rng = random.Random(17)
    words = [apply_word(standard_curve, _ladder(rng, letters))
             for letters in (4, 6, 8, 10, 10, 12, 12, 13)]
    words.append(apply_word(standard_curve, "dbdBdbDbdbdBdbDb"))
    sizes = sorted(len(w) for w in words)
    assert sizes[-1] == 860 and sizes[-2] >= 480
    attempts, accepted = _check_canonical_forms(words, monkeypatch)
    assert 0 < accepted < attempts


def test_realizable_words_with_bigons():
    # spur-free walks that re-embed but are not minimal: here a strand nearest
    # the vertex can still be refused a slide by the class-count check
    rng = random.Random(29)
    innermost_refused = 0
    for _ in range(30000):
        h, steps = rng.randrange(4), []
        for _ in range(rng.randint(4, 16)):
            e = rng.choice(HEX_SIDES[h])
            h = OTHER_HEX[e][h]
            steps.append((e, h))
        core = kernel.remove_spurs(cm.CurveWord(steps).code)
        w = list(cm.CurveWord(core).steps)
        try:
            cm._check_chain(w)
            cm._reembed(core)
        except Goeritz2Error:
            continue
        for i in range(len(w)):
            if slides.is_index2_pass(w, i):
                s = _Checked(list(w))
                j = (i + 1) % len(w)
                v = slides._CORNER[w[i][0], w[j][0]]
                innermost = all(s.rank(p) == (0 if cm._ORIGIN[e] == v else s.size[e] - 1)
                                for p, e in ((i, w[i][0]), (j, w[j][0])))
                innermost_refused += innermost and not s.slide(i)
    assert innermost_refused > 100


def test_ranks_order_crossings_as_embedded(corpus, standard_curve):
    # each edge's crossings get the ranks 0, 1, ..., and placing every arc's
    # ends by rank draws no two crossing chords in any hexagon
    words = [w for _, w in corpus] + [apply_word(standard_curve, "dbdBdbDbdb")]
    for w in words:
        s, n = slides.Slides(list(w.steps)), len(w)
        for e in range(12):
            assert sorted(s.rank(p) for p, (f, _) in enumerate(w.steps) if f == e) \
                == list(range(s.size[e]))
        chords = {h: [] for h in range(4)}
        for i, (e, h) in enumerate(w.steps):
            ends = []
            for p, f in ((i, e), ((i + 1) % n, w.steps[(i + 1) % n][0])):
                r = s.rank(p) if cm._ascending(h, f) else s.size[f] - 1 - s.rank(p)
                ends.append((SIDE_POS[h][f], r))
            chords[h].append(sorted(ends))
        for cs in chords.values():
            for (a, b), (c, d) in itertools.combinations(cs, 2):
                assert not (a < c < b < d or c < a < d < b), w
