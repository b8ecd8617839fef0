import pathlib
import random
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import goeritz2  # noqa: E402
from goeritz2 import action, curve  # noqa: E402

CORPUS_SEED = 20260808
CORPUS_SIZE = 520
CORPUS_MAX_LEN = 6


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with an empty action memo and set of verified words,
    so a test that captures or patches internals sees every call it expects."""
    goeritz2.clear_caches()


@pytest.fixture(scope="session")
def standard_curve():
    return curve.normalize(curve.P_CURVE)


# A minimal word of apply_word(P, "dbdbdb") whose corner passes were slid to
# one side, so it differs from that curve's normalize() word.
KERNEL_DEFECT_CODE = bytes.fromhex(
    "000a00291802271e08021019071e0802271e00291802271e08021f261019280208021f26"
    "000a1f051812000a1f26001928021f26000a1f051812271e")


@pytest.fixture(scope="session")
def kernel_defect_word():
    """A normalized word on which beta^-1 raises InternalInvariantError: the
    kernel slides a bigon run that is not innermost (ROADMAP item 3)."""
    w = curve.normalize(curve.CurveWord(KERNEL_DEFECT_CODE))
    assert w.code == KERNEL_DEFECT_CODE
    return w


@pytest.fixture(scope="session")
def unembedded_word():
    """A closed chain that passes the chord-class and edge-order checks but is
    not embedded: its class counts re-embed as a curve with another word.  It
    is the kernel output of the fifth twist of beta^-1, applied as single
    twists, on `kernel_defect_word`."""
    return [["B2", "H4"], ["X2", "H3"], ["Y2", "H4"], ["B2", "H2"], ["Z1", "H1"],
            ["Y1", "H2"], ["B2", "H4"], ["Y2", "H3"], ["C1", "H1"], ["Z1", "H2"],
            ["B2", "H4"], ["A2", "H2"], ["B2", "H4"], ["Y2", "H3"], ["B1", "H1"],
            ["C1", "H3"], ["X2", "H4"], ["B2", "H2"], ["Y1", "H1"], ["Z1", "H2"],
            ["B2", "H4"], ["Y2", "H3"], ["B1", "H1"], ["C1", "H3"], ["Y2", "H4"],
            ["B2", "H2"], ["A2", "H4"], ["B2", "H2"], ["Z1", "H1"], ["Y1", "H2"],
            ["B2", "H4"], ["C2", "H2"]]


@pytest.fixture(scope="session")
def corpus(standard_curve):
    """(word, curve) pairs: uniformly random generator words of length <= 6."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        word = "".join(rng.choice("abBgdD")
                       for _ in range(rng.randint(0, CORPUS_MAX_LEN)))
        out.append((word, action.apply_word(standard_curve, word)))
    return out


def _ladder(rng, letters):
    return "".join(rng.choice("dD") if i % 2 == 0 else rng.choice("bB")
                   for i in range(letters))


@pytest.fixture(scope="session")
def ladders(standard_curve):
    """Beta/delta alternation ladders, from a few crossings to about 500."""
    rng = random.Random(5)
    out = []
    for letters in (2, 4, 6, 8, 8, 10, 10, 12, 12, 13, 14):
        w = action.apply_word(standard_curve, _ladder(rng, letters))
        if len(w) <= 520:
            out.append(w)
    assert max(len(w) for w in out) > 300
    return out
