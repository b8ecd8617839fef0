"""Curve keys and normal words across computation routes.

These checks pin the observable contract: isotopic curves reached along
different twist routes get equal keys, and normalization is idempotent and
independent of the word's start and orientation.
"""

import random

import pytest

from goeritz2 import curve as cm
from goeritz2.action import apply_word, curve_key, twist_about_p
from goeritz2.errors import InternalInvariantError


def _deep_corpus(standard_curve, n, lo, hi, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        word = "".join(rng.choice("bBdDg") for _ in range(rng.randint(lo, hi)))
        out.append((word, apply_word(standard_curve, word)))
    return out


def test_identity_routes_deep(standard_curve):
    for word, w in _deep_corpus(standard_curve, 10, 8, 11, seed=607):
        key = curve_key(w)
        assert curve_key(apply_word(w, "bB")) == key, word
        assert curve_key(apply_word(w, "Bb")) == key, word
        assert curve_key(apply_word(w, "dD")) == key, word
        assert curve_key(apply_word(w, "gg")) == key, word


def test_boundary_twist_through_both_handles_deep(standard_curve):
    for word, w in _deep_corpus(standard_curve, 8, 8, 11, seed=608):
        assert curve_key(apply_word(w, "bb")) == curve_key(twist_about_p(w, 1)), word


def test_canonical_form_idempotent_and_reversal_stable(standard_curve):
    for word, w in _deep_corpus(standard_curve, 10, 6, 10, seed=609):
        nw = cm.normalize(w)
        assert cm.normalize(nw).code == nw.code, word
        rev = cm.CurveWord(cm.reversed_steps(w.steps))
        assert curve_key(rev) == curve_key(w), word


def test_rotation_start_does_not_matter(standard_curve):
    for word, w in _deep_corpus(standard_curve, 6, 4, 8, seed=610):
        for r in (1, len(w.steps) // 2):
            rotated = cm.CurveWord(w.steps[r:] + w.steps[:r])
            assert cm.normalize(rotated).code == cm.normalize(w).code, word


@pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                   reason="the generator action fails on some normalized words")
def test_generator_acts_on_a_canonical_word(kernel_defect_word):
    # ROADMAP item 3: the kernel slides a bigon run that is not innermost
    apply_word(kernel_defect_word, "B")
