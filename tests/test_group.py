"""The generator action checked against the group it comes from: each relator
of the genus-2 Goeritz group G_2 must fix every curve.

`RELATORS` is what a search found, not a presentation transcribed from the
literature (ROADMAP, Baseline fact 5).  The search ran over cyclically
reduced words of length <= 6 in beta^+-1, gamma and delta^+-1, skipping words
that contain gamma^2, delta^+-3 or a relator found earlier, and kept the
words that fix every probe curve; a first search over all four generators
had found alpha, gamma^2 and delta^3.  alpha fixes every curve, so the action
on unoriented curves does not see it.  For the stabilizer of the standard
curve and its generators see Scharlemann (Bol. Soc. Mat. Mexicana 10, 2004);
for presentations of G_2, Akbas (Pacific J. Math., 2008) and Cho (Proc. AMS,
2008).

The probe is every record of the depth-6 atlas, compared by certificate word
(the equality test of reducing curves), and 66 nonseparating curves, compared
by the 24-number reference key: the six pushoffs and ten seeded random
5-letter images of each.
"""

import random

import pytest
from key_oracle import curve_key

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import reduction as red
from goeritz2.action import apply_word

# alpha, gamma^2, delta^3, (gamma delta)^2, (gamma delta^-1)^2, beta^2 gamma beta^-2 gamma
RELATORS = ("a", "gg", "ddd", "gdgd", "gDgD", "bbgBBg")


@pytest.fixture(scope="module")
def records():
    records = at.enumerate_atlas(6).records
    assert len(records) == 311
    return records


@pytest.fixture(scope="module")
def nonseparating():
    rng = random.Random(12)
    out = []
    for w in cm.PUSHOFFS.values():
        out.append(w)
        out += [apply_word(w, "".join(rng.choice("abBgdD") for _ in range(5)))
                for _ in range(10)]
    assert len(out) == 66
    return out


@pytest.mark.parametrize("relator", RELATORS)
def test_relator_fixes_every_probe_curve(relator, records, nonseparating):
    for rec in records:
        image = red.reduce_to_standard(apply_word(rec.curve, relator))
        assert image.word_text() == rec.key, (relator, rec.witness)
    for w in nonseparating:
        assert curve_key(apply_word(w, relator)) == curve_key(w), (relator, w.code.hex())
