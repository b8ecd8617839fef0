"""The arc reader: arcs, arc types and census read from the A/B/C positions
of the code, against the step-walking reference (`arc_oracle`)."""

import pytest

import arc_oracle as oracle
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import surface as S
from goeritz2.errors import NotEmbeddable


@pytest.fixture(scope="module")
def curves(corpus, ladders):
    """Tier-1 corpus curves, the ladder fixtures and the depth-5 atlas records."""
    records = [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]
    return [w for _, w in corpus] + ladders + records


def test_split_arcs_matches_the_step_walk(curves):
    for w in curves:
        assert cm.split_arcs(w) == oracle.split_arcs(w), w


def test_census_and_refined_pairs_match_the_step_walk(curves):
    for w in curves:
        arcs = oracle.split_arcs(w)
        assert cm.arc_census(w) == oracle.census(arcs), w
        assert [a.type for a in cm.split_arcs(w)] == list(map(oracle.arc_type, arcs)), w
        assert cm._arc_ends(w.code) == [(oracle.arc_type(a), a.pants) for a in arcs], w


def test_arc_ends_of_a_word_without_abc_crossings():
    w = cm.normalize(cm.PUSHOFFS["A"])
    assert cm.split_arcs(w) == oracle.split_arcs(w) == []
    assert cm.arc_census(w) == oracle.census([])


def test_one_arc_type_per_pair_of_ends():
    for x in range(24):
        for y in range(24):
            arc = cm.Arc(1, x >> 2, y >> 2, (), ())
            t, pants = cm._ARC_OF_ENDS[24 * x + y]
            assert t == arc.type == oracle.arc_type(arc)
            assert pants == S.HEX_PANTS[x & 3]


def test_census_still_rejects_forbidden_pairs():
    arcs = [("AA", 1), ("BB", 1)]
    with pytest.raises(NotEmbeddable, match="AA,BB coexist on pants 1"):
        cm._census(arcs)
