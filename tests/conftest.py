import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import goeritz2  # noqa: E402
from goeritz2 import action, atlas, curve  # noqa: E402

CORPUS_SEED = 20260808
CORPUS_SIZE = 520
CORPUS_MAX_LEN = 6


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with an empty action memo and layout table, so a test
    that captures or patches internals sees every call it expects.  Curves
    that session fixtures hold stay interned with their facts."""
    goeritz2.clear_caches()


@pytest.fixture
def fresh_curves(monkeypatch):
    """A function that empties the intern table and the memos, as if no curve
    had been made yet, and returns a new interned curve of each given code,
    traced: the library no longer hands out the curves made before, so a
    test that needs cold curves sees every fact computed again."""
    def fresh(*codes):
        monkeypatch.setattr(curve, "_CURVES", type(curve._CURVES)())
        goeritz2.clear_caches()
        return [curve._reembed(code) for code in codes]
    return fresh


# Counts of a cold enumerate_atlas(depth) plus a round trip per record, run
# in a fresh interpreter so that no curve lives before it: reducing checks
# computed and their distinct codes, traces and kernel calls.  The spies keep
# codes, never curves, so they keep no curve alive.
_COLD_ATLAS = """
import sys
from goeritz2 import atlas, curve, handlebody, kernel, reduction
checks, traces, calls = [], [], []
is_separating, trace, steps = handlebody.is_separating, curve._trace, kernel.normalize_steps
handlebody.is_separating = lambda w: checks.append(w.code) or is_separating(w)
curve._trace = lambda code: traces.append(code) or trace(code)
kernel.normalize_steps = lambda code: calls.append(code) or steps(code)
store = atlas.enumerate_atlas(int(sys.argv[1]))
for rec in store.records:
    assert reduction.verify_certificate(reduction.reduce_to_standard(rec.curve), rec.curve)
print(len(store.records), len(checks), len(set(checks)), len(traces), len(calls))
"""


def cold_atlas_counts(depth: int) -> dict[str, int]:
    out = subprocess.run([sys.executable, "-c", _COLD_ATLAS, str(depth)], capture_output=True,
                         text=True, check=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(_SRC)}).stdout
    return dict(zip(("records", "checks", "checked_codes", "traces", "kernel_calls"),
                    map(int, out.split())))


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


# Store curves `AtlasStore.load` refuses, each with the start of its reason.
# Every A/B/C edge joins the two pants and every X/Y/Z edge the two balls, so
# a closed chain crosses each system evenly: an odd crossing count fails the
# chain check.
BAD_STORE_CURVES = {
    "unembedded": (None, "spur-free word is not one embedded curve"),
    "odd-parity": ([["A1", "H1"], ["X1", "H2"], ["X1", "H1"]],
                   "step 3: expected hexagon H3"),
    "null-homotopic": ([["A1", "H1"], ["A1", "H3"]], "curve is null-homotopic"),
}


@pytest.fixture
def edited_store(tmp_path):
    """A function that saves a depth-1 store with fields of its records
    replaced, given as {record key: {field: value}}, and returns its path.
    Line 2 holds the record keyed "" (P), line 3 the one keyed "D" (witness
    d, triple 0 2 0) and line 4 the one keyed "d" (witness D, triple 0 0 2)."""
    def save(edits):
        path = tmp_path / "atlas.jsonl"
        atlas.enumerate_atlas(1).save(str(path))
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            doc = json.loads(line)
            lines[i] = json.dumps({**doc, **edits.get(doc["key"], {})})
        path.write_text("\n".join(lines) + "\n")
        return path
    return save


# Edits of a depth-1 store that, if its fields were trusted, would make its
# extension to depth 2 list a triple 99 0 0 and lose 0 2 0: the record keyed
# "D" gets another triple, and the record keyed "d" the key "D", so it would
# be dropped as a duplicate.  `load` refuses line 3 with this reason.
TAMPERED_STORE = ({"D": {"triple": [99, 0, 0]}, "d": {"key": "D"}},
                  3, "record triple [99, 0, 0] is not its curve's triple [0, 2, 0]")

# Edits of the witness and depth of the record keyed "D" (witness d, depth 1),
# each with the line and reason `load` refuses it with.  If they were trusted,
# the first would make the store's extension to depth 2 list aaad as the
# shortest witness of 0 2 0, and the last but one would take the record off
# the level-1 frontier, so the extension would lose 4 2 0: aaad reaches the
# record's curve, as alpha fixes it, and its depth is its length, but aaa is
# no earlier record's witness.  The last keeps the witness's length but names
# another curve's word.
FALSE_WITNESS_STORES = {
    "witness-and-depth": ({"D": {"witness": "aaad", "depth": 0}}, 3,
                          "record depth 0 is not the length of its witness 'aaad'"),
    "witness-length": ({"D": {"witness": "aaad"}}, 3,
                       "record depth 1 is not the length of its witness 'aaad'"),
    "depth": ({"D": {"depth": 0}}, 3, "record depth 0 is not the length of its witness 'd'"),
    "longer-witness": ({"D": {"witness": "aaad", "depth": 4}}, 3,
                       "record witness 'aaad' extends no witness of an earlier record"),
    "witness-of-another": ({"D": {"witness": "D"}}, 3,
                           "record witness 'D' does not take P to its curve"),
}


@pytest.fixture(params=sorted(BAD_STORE_CURVES))
def bad_curve_store(request, tmp_path, unembedded_word):
    """A saved depth-1 store whose third record, on line 4, holds a curve that
    is not a valid one, and the start of the reason `load` gives for it."""
    steps, reason = BAD_STORE_CURVES[request.param]
    path = tmp_path / "atlas.jsonl"
    atlas.enumerate_atlas(1).save(str(path))
    lines = path.read_text().splitlines()
    doc = json.loads(lines[3])
    doc["curve"]["steps"] = steps or unembedded_word
    lines[3] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    return path, reason


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
