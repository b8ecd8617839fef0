"""The SVG drawing: crossing ranks along edges, and pinned output."""

import hashlib
import itertools
import pathlib

from goeritz2 import curve as cm
from goeritz2.action import apply_word
from goeritz2.render import _ranks, render_svg
from goeritz2.surface import SIDE_POS

_DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

# SHA-256 over the concatenated drawings of the `ladders` fixture
LADDERS_SVG_SHA256 = "85d307be909c91d9f56a3c22d788c557d5151942492ca68f3a063a98fee52829"


def test_ranks_order_crossings_as_embedded(corpus, standard_curve):
    # each edge's crossings get the ranks 0, 1, ..., and placing every arc's
    # ends by rank draws no two crossing chords in any hexagon
    words = [w for _, w in corpus] + [apply_word(standard_curve, "dbdBdbDbdb")]
    for w in words:
        (rank, size), n = _ranks(w.code), len(w)
        for e in range(12):
            assert sorted(rank[p] for p, (f, _) in enumerate(w.steps) if f == e) \
                == list(range(size[e]))
        chords = {h: [] for h in range(4)}
        for i, (e, h) in enumerate(w.steps):
            ends = []
            for p, f in ((i, e), ((i + 1) % n, w.steps[(i + 1) % n][0])):
                r = rank[p] if cm._ascending(h, f) else size[f] - 1 - rank[p]
                ends.append((SIDE_POS[h][f], r))
            chords[h].append(sorted(ends))
        for cs in chords.values():
            for (a, b), (c, d) in itertools.combinations(cs, 2):
                assert not (a < c < b < d or c < a < d < b), w


def test_standard_curve_drawing_is_the_committed_one():
    expected = (_DOCS / "standard-curve.svg").read_text()
    assert render_svg(cm.P_CURVE, title="standard reducing curve") == expected


def test_ladder_drawings_are_pinned(ladders):
    text = "".join(render_svg(w) for w in ladders)
    assert hashlib.sha256(text.encode()).hexdigest() == LADDERS_SVG_SHA256
