"""Canonical-form stability across computation routes.

The guarded corner canonicalization has no confluence proof; these checks pin
the observable contract: isotopic curves reached along different twist routes
get equal signatures, and canonicalization is idempotent.
"""

import random

import pytest

from goeritz2 import curve as cm
from goeritz2.action import apply_word, twist_about_p
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
        sig = cm.signature(w)
        assert cm.signature(apply_word(w, "bB")) == sig, word
        assert cm.signature(apply_word(w, "Bb")) == sig, word
        assert cm.signature(apply_word(w, "dD")) == sig, word
        assert cm.signature(apply_word(w, "gg")) == sig, word


def test_boundary_twist_through_both_handles_deep(standard_curve):
    for word, w in _deep_corpus(standard_curve, 8, 8, 11, seed=608):
        assert cm.signature(apply_word(w, "bb")) == \
            cm.signature(twist_about_p(w, 1)), word


def test_canonical_form_idempotent_and_reversal_stable(standard_curve):
    for word, w in _deep_corpus(standard_curve, 10, 6, 10, seed=609):
        cf = cm.canonical_form(w)
        assert cm.canonical_form(cf).steps == cf.steps, word
        rev = cm.CurveWord(cm.reversed_steps(w.steps))
        assert cm.signature(rev) == cm.signature(w), word


def test_rotation_start_does_not_matter(standard_curve):
    for word, w in _deep_corpus(standard_curve, 6, 4, 8, seed=610):
        for r in (1, len(w.steps) // 2):
            rotated = cm.CurveWord(w.steps[r:] + w.steps[:r])
            assert cm.canonical_form(rotated).steps == cm.canonical_form(w).steps, word


@pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                   reason="the generator action fails on some canonical words")
def test_generator_acts_on_a_canonical_word(standard_curve):
    # ROADMAP item 1: "B" acts on the uncanonicalized word of this curve
    apply_word(cm.canonical_form(apply_word(standard_curve, "dbdbdb")), "B")
