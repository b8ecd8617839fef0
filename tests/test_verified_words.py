"""One live curve per code, in front of `curve._trace`.

`_reembed` hands out the live curve of a code and traces only a code that
no live curve holds; `validate` traces its input every time, and
`action._relabel` and `action._twist` intern the images of an interned
curve untraced (a twist image only when the kernel slid no run).  These
checks pin that interning changes no result, that only words whose trace
passed (or images of them) are interned, that the images handed out
untraced pass the trace, that one code has one object, and that a curve
leaves the table with its last holder.
"""

import operator
import pathlib

import pytest

import goeritz2
from goeritz2 import action
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import kernel
from goeritz2 import reduction as red
from goeritz2.action import GENERATORS, apply_generator
from goeritz2.errors import EmptyAfterNormalization, InternalInvariantError, NotEmbeddable
from goeritz2.surface import CURVE_NAMES

from conftest import cold_atlas_counts


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
    action._act.cache_clear()  # the curves stay interned
    return [apply_generator(w, g) for w in curves for g in GENERATORS]


def test_warm_codes_equal_cold_codes_and_only_outside_words_are_traced(corpus, ladders,
                                                                       traced, fresh_curves):
    curves = fresh_curves(*[w.code for _, w in corpus], *[w.code for w in ladders])
    traced.clear()
    cold = _images(curves)
    warm = _images(curves)  # every image made again, and handed out live
    assert [w.code for w in warm] == [w.code for w in cold]
    assert all(map(operator.is_, warm, cold))
    assert not traced  # images of interned curves, and no kernel pass slid a run
    # the same codes from outside are traced, once per code
    fresh_curves()
    outside = [cm.normalize(cm.CurveWord(w.code)) for w in cold]
    assert [w.code for w in outside] == [w.code for w in cold]
    assert sorted(code for code, _ in traced) == sorted({w.code for w in cold})


def test_a_failing_trace_is_never_recorded(kernel_defect_word, traced, fresh_curves):
    # the word of the strict xfail in test_canonical.py
    w, = fresh_curves(kernel_defect_word.code)
    errors = []
    for _ in range(2):
        with pytest.raises(InternalInvariantError) as exc:
            apply_generator(w, "beta_inv")
        errors.append(str(exc.value))
        assert set(cm._CURVES) == {w.code}
    failed = [code for code, ok in traced if not ok]
    assert errors[0] == errors[1]
    assert len(failed) == 2 and failed[0] == failed[1]  # traced again on the second call


def test_validate_never_records_an_unembedded_word(unembedded_word, traced, fresh_curves):
    fresh_curves()
    for _ in range(2):
        with pytest.raises(NotEmbeddable, match="spur-free word is not one embedded curve"):
            cm.CurveWord.from_tokens(unembedded_word)
        assert not cm._CURVES
    assert [ok for _, ok in traced] == [False, False]


def test_validate_hands_its_traced_core_to_normalize(corpus, traced, fresh_curves):
    # the traced spur-free core of a minimal word is its normalize() word:
    # normalize neither runs the kernel nor traces the word again
    w = max((w for _, w in corpus), key=len)
    fresh_curves()
    rotated = w.code[3:] + w.code[:3]
    spur = bytes((cm._REVERSED[rotated[-1]], rotated[-1]))  # back across the last edge and over
    raw = cm.validate(list(cm.CurveWord(rotated + spur).steps))
    assert traced == [(rotated, True)]
    assert raw._normal is cm._CURVES[w.code]
    assert cm.normalize(raw) is raw._normal and cm.normalize(raw).code == w.code
    assert len(traced) == 1


def test_normalizing_a_word_twice_traces_it_once(corpus, traced, fresh_curves):
    w = max((w for _, w in corpus), key=len)
    fresh_curves()
    rotated = cm.CurveWord(w.code[5:] + w.code[:5])
    results = [cm.normalize(cm.CurveWord(w.code)), cm.normalize(cm.CurveWord(w.code)),
               cm.normalize(rotated)]
    assert results[0] is results[1] is results[2] is not w
    assert results[0].code == w.code
    assert traced == [(w.code, True)]


def test_an_interned_curve_leaves_the_table_when_its_last_holder_drops_it(ladders, traced,
                                                                         fresh_curves):
    curve, = fresh_curves(ladders[-1].code)
    code = curve.code
    red.reduce_to_standard(curve)  # the curve keeps its pass and the curve it lands on
    landing = curve._pass[2].code
    assert cm._CURVES[code] is curve and landing in cm._CURVES
    del curve
    assert code in cm._CURVES  # the generator memo holds it
    goeritz2.clear_caches()
    assert code not in cm._CURVES and landing not in cm._CURVES
    traced.clear()
    again = cm._reembed(code)
    assert traced == [(code, True)] and again._pass is None


def test_reembed_and_relabel_hand_out_one_object_per_code(corpus, ladders):
    for w in _distinct_curves(corpus, ladders):
        assert cm._reembed(w.code) is w
        assert cm._reembed(w.code[1:] + w.code[:1]) is w
        for g in GENERATORS:
            image = apply_generator(w, g)
            assert cm._reembed(image.code) is image, (w, g)
            if g in _RELABELS:
                assert action._relabel(w, g) is image, (w, g)


def test_a_cold_atlas_to_depth_8_traces_no_word():
    # every word the atlas and its round trips make is a relabel image or a
    # slide-free twist image of an interned curve: the trace runs on none
    # (the byte-bounded set of verified words traced 3,669, interning 2,457);
    # half twists that hand back a remembered preimage call no kernel (4,959
    # calls before)
    counted = cold_atlas_counts(8)
    assert counted["records"] == 2047
    assert counted["traces"] == 0 and counted["kernel_calls"] == 2873


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


@pytest.fixture
def twist_images(monkeypatch):
    """The images `action._twist` hands out, each checked to be the live
    curve of its code when it is handed out."""
    images = []
    twist = action._twist

    def spy(w, curves, direction):
        image = twist(w, curves, direction)
        assert cm._CURVES.get(image.code) is image, (w, curves, direction)
        images.append(image)
        return image

    monkeypatch.setattr(action, "_twist", spy)
    return images


def test_slide_free_twist_images_pass_the_trace_and_come_back_interned(
        corpus, ladders, traced, twist_images, fresh_curves):
    # `action._twist` hands these images out untraced; the check it skips runs here
    curves = fresh_curves(*{w.code for w in [w for _, w in corpus] + ladders})
    traced.clear()
    for w in curves:
        for name in CURVE_NAMES:
            for d in (1, -1):
                action.twist_system(w, name, d)
        for d in (1, -1):
            action.twist_about_p(w, d)
        for g in ("beta", "beta_inv"):
            apply_generator(w, g)
    assert len(twist_images) == 16 * len(curves)
    root = fresh_curves(cm.P_CURVE.code)  # the atlas's root, traced as outside input
    traced.clear()
    for rec in at.enumerate_atlas(6).records:
        assert red.verify_certificate(red.reduce_to_standard(rec.curve), rec.curve)
    assert not traced  # no kernel pass slid a run, so the library traced no image
    assert len(twist_images) > 16 * len(curves) and root[0] is cm._CURVES[root[0].code]
    for image in twist_images:
        cm._trace(image.code)
    assert all(ok for _, ok in traced)


def test_the_twist_image_of_an_uninterned_word_is_traced(corpus, traced, twist_images,
                                                         fresh_curves):
    # a word built with normalized=True was checked by nothing, so its
    # images are normalized as outside words are
    w = max((w for _, w in corpus), key=len)
    fresh_curves()
    x = cm.CurveWord(w.code, normalized=True)
    images = [action.twist_system(x, "B"), action.twist_about_p(x, -1),
              apply_generator(x, "beta"), apply_generator(x, "beta_inv")]
    assert x.code not in cm._CURVES and twist_images == images
    assert [(cm._least_rotation(code), ok) for code, ok in traced] == \
        [(image.code, True) for image in images]


def test_the_twist_image_of_an_uninterned_word_takes_one_kernel_pass(
        standard_curve, monkeypatch, fresh_curves):
    # the kernel's output is re-embedded as it is, not normalized a second time
    code = action.apply_word(standard_curve, "dbdb").code
    expected = action.apply_word(standard_curve, "dbdbb").code
    fresh_curves()
    calls = []
    normalize_steps = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps",
                        lambda c: calls.append(c) or normalize_steps(c))
    image = apply_generator(cm.CurveWord(code, normalized=True), "beta")
    assert len(calls) == 1
    assert image.code == expected and cm._CURVES[expected] is image
    # a spur pair on A's rail, which nothing checked, twists to nothing
    with pytest.raises(EmptyAfterNormalization, match="curve is null-homotopic"):
        action.twist_system(cm.CurveWord(bytes((2, 0)), normalized=True), "A")


def test_a_relabel_image_is_verified_exactly_when_its_input_is(corpus, ladders, fresh_curves):
    # verified means interned: the image of an interned curve is interned,
    # that of a word built with normalized=True only if its code lives
    for i, w in enumerate(_distinct_curves(corpus, ladders)):
        verified = i % 2 == 0
        for g in _RELABELS:
            fresh_curves()
            x = cm._interned(w.code) if verified else cm.CurveWord(w.code, normalized=True)
            image = action._relabel(x, g)
            assert (image.code in cm._CURVES) == verified, (w, g)
            assert len(cm._CURVES) == verified * len({w.code, image.code})
            if not verified:
                live = cm._interned(image.code)
                assert action._relabel(x, g) is live and len(cm._CURVES) == 1
