"""The set of verified words in front of `curve._trace`.

`_reembed` and `validate` skip the trace of a cyclic word whose least
rotation already passed one.  These checks pin that the skip changes no
result, that only words whose trace passed are recorded, and how the set is
bounded and emptied.
"""

import pytest

import goeritz2
from goeritz2 import action
from goeritz2 import atlas as at
from goeritz2 import curve as cm
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


def test_a_loaded_record_is_traced_once(traced):
    records = at.enumerate_atlas(3).records
    goeritz2.clear_caches()
    traced.clear()
    curves = [at.record_curve(rec) for rec in records]
    assert len(traced) == len(records)
    assert list(map(cm.to_doc, curves)) == [rec.curve_doc for rec in records]
