"""The set of verified words in front of `curve._trace`.

`_reembed` skips the trace of a cyclic word whose least rotation already
passed one; `validate` traces its input every time and records it, and
`action._relabel` records the image of a verified word.  These checks pin
that the skip changes no result, that only words whose trace passed (or
images of them) are recorded, and how the set is bounded and emptied.
"""

import pathlib

import pytest

import goeritz2
from goeritz2 import action
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import kernel
from goeritz2.action import GENERATORS, apply_generator, apply_word
from goeritz2.errors import InternalInvariantError, NotEmbeddable


@pytest.fixture
def traced(monkeypatch):
    """The codes `curve._trace` is called on, in order, and whether each passed."""
    calls = []
    trace = cm._trace

    def spy(code):
        try:
            result = trace(code)
        except Exception:
            calls.append((code, False))
            raise
        calls.append((code, True))
        return result

    monkeypatch.setattr(cm, "_trace", spy)
    return calls


def _images(curves):
    action._act.cache_clear()  # the set stays as it is
    return [apply_generator(w, g).code for w in curves for g in GENERATORS]


def test_warm_codes_equal_cold_codes(corpus, ladders, traced):
    curves = [w for _, w in corpus] + ladders
    cold = _images(curves)
    cold_traces = len(traced)
    warm = _images(curves)
    assert warm == cold
    assert len(traced) - cold_traces < cold_traces // 2


def test_a_failing_trace_is_never_recorded(kernel_defect_word, traced):
    # the word of the strict xfail in test_canonical.py
    w = kernel_defect_word
    errors, contents = [], []
    for _ in range(2):
        with pytest.raises(InternalInvariantError) as exc:
            apply_generator(w, "beta_inv")
        errors.append(str(exc.value))
        contents.append(list(cm._VERIFIED))
    failed = [code for code, ok in traced if not ok]
    assert errors[0] == errors[1]
    assert len(failed) == 2 and failed[0] == failed[1]  # traced again on the second call
    assert cm._least_rotation(failed[0]) not in cm._VERIFIED
    assert contents[0] == contents[1]


def test_validate_never_records_an_unembedded_word(unembedded_word, traced):
    size = len(cm._VERIFIED)
    for _ in range(2):
        with pytest.raises(NotEmbeddable, match="spur-free word is not one embedded curve"):
            cm.CurveWord.from_tokens(unembedded_word)
    assert len(cm._VERIFIED) == size
    assert [ok for _, ok in traced] == [False, False]


def test_eviction_is_oldest_first_within_the_byte_bound(corpus, monkeypatch):
    bound = 120
    monkeypatch.setattr(cm, "_VERIFIED_BYTES", bound)
    codes = list(dict.fromkeys(w.code for _, w in corpus if len(w) <= bound))[:60]
    goeritz2.clear_caches()
    for code in codes:
        assert cm.normalize(cm.CurveWord(code)).code == code
        assert cm._VERIFIED.size == sum(map(len, cm._VERIFIED)) <= bound
    newest, size = [], 0
    for code in reversed(codes):  # the longest run of newest codes that fits
        if size + len(code) > bound:
            break
        newest.insert(0, code)
        size += len(code)
    assert len(newest) > 1
    assert list(cm._VERIFIED) == newest


def test_clear_caches_empties_the_set(standard_curve):
    apply_word(standard_curve, "bdbD")
    assert cm._VERIFIED and cm._VERIFIED.size > 0
    goeritz2.clear_caches()
    assert not cm._VERIFIED and cm._VERIFIED.size == 0


def test_normalizing_a_word_twice_traces_it_once(corpus, traced):
    w = max((w for _, w in corpus), key=len)
    rotated = cm.CurveWord(w.code[5:] + w.code[:5])
    results = [cm.normalize(cm.CurveWord(w.code)), cm.normalize(cm.CurveWord(w.code)),
               cm.normalize(rotated)]
    assert len({r.code for r in results}) == 1
    assert traced == [(w.code, True)]


def test_a_loaded_record_is_traced_once(tmp_path, monkeypatch, traced):
    path = str(tmp_path / "atlas.jsonl")
    at.enumerate_atlas(3).save(path)
    goeritz2.clear_caches()
    traced.clear()
    # `load` reads each line with `from_json`, whose `validate` traces the
    # stored curve once; its other traces are of the images the record's
    # reduction passes through (an earlier line's reduction may have traced
    # the stored curve already, as one of its images)
    records = []
    for line in pathlib.Path(path).read_text().splitlines()[1:]:
        start = len(traced)
        records.append(at.AtlasRecord.from_json(line))
        assert [code for code, _ in traced[start:]].count(records[-1].curve.code) == 1
    assert len(records) > 1
    calls, before = [], len(traced)
    normalize_steps = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps",
                        lambda code: calls.append(code) or normalize_steps(code))
    curves = [at.record_curve(rec) for rec in records]
    assert not calls and len(traced) == before
    assert [w.code for w in curves] == \
        [cm.normalize(cm.from_doc(rec.curve_doc)).code for rec in records]


_RELABELS = ("alpha", "gamma", "delta", "delta_inv")


def _distinct_curves(corpus, ladders):
    curves = [w for _, w in corpus] + ladders + \
        [at.record_curve(rec) for rec in at.enumerate_atlas(5).records]
    return list({w.code: w for w in curves}.values())


def test_relabel_images_pass_the_trace(corpus, ladders):
    # the equivariance that lets a relabel image inherit its input's verdict
    for w in _distinct_curves(corpus, ladders):
        cm._trace(w.code)
        for g in _RELABELS:
            cm._trace(action._relabel(w, g).code)


def test_a_relabel_image_is_verified_exactly_when_its_input_is(corpus, ladders):
    for i, w in enumerate(_distinct_curves(corpus, ladders)):
        verified = i % 2 == 0
        for g in _RELABELS:
            goeritz2.clear_caches()
            if verified:
                cm._VERIFIED.add(w.code)
            image = action._relabel(w, g)
            assert (image.code in cm._VERIFIED) == verified, (w, g)
            assert len(cm._VERIFIED) == verified * len({w.code, image.code})
