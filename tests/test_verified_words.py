"""One live curve per code, in front of `embed._trace`.

`_reembed` hands out the live curve of a code and traces only a code that
no live curve holds; `validate` traces its input every time, and
`action._relabel` and `action._twist` intern the images of a normalized,
and so interned, curve untraced (a twist image only when the kernel slid
no run).  These checks pin that interning changes no result, that only
words whose trace passed (or images of them) are interned, that the images
handed out untraced pass the trace, that every normalized curve the
library hands out is the one live curve of its code, and that a curve
leaves the table with its last holder.
"""

import operator

import pytest

import goeritz2
from goeritz2 import action
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2 import embed
from goeritz2 import kernel
from goeritz2 import reduction as red
from goeritz2.action import GENERATORS, apply_generator
from goeritz2.errors import EmptyAfterNormalization, InternalInvariantError, NotEmbeddable
from goeritz2.surface import CURVE_NAMES

from conftest import cold_atlas_counts


@pytest.fixture
def traced(monkeypatch):
    """The codes `embed._trace` is called on, in order, and whether each passed."""
    calls = []
    trace = embed._trace

    def spy(code):
        try:
            result = trace(code)
        except Exception:
            calls.append((code, False))
            raise
        calls.append((code, True))
        return result

    monkeypatch.setattr(embed, "_trace", spy)
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


def test_a_read_word_is_chain_checked_and_reduced_once(fresh_curves, monkeypatch):
    # reading a document reads the chain rule once (the chain check is the one
    # gate) and runs the kernel once; `normalize` and `to_coordinates` of the
    # read word run neither again, and `normalize` traces only the slid code
    # of a core with a bigon run
    minimal = cm.to_doc(action.apply_word(cm.P_CURVE, "dbDbdBgbdb"))
    slid = {"format": cm.CURVE_FORMAT, "representation": "steps",
            "steps": [t.split(">") for t in "A1>H1 Y1>H2 A2>H4 X2>H3".split()]}
    calls = {}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((embed, "_rules"), (embed, "_check_chain"), (embed, "_trace"),
                         (kernel, "normalize_steps")):
        spy(module, name)
    once = {"_rules": 1, "_check_chain": 1, "normalize_steps": 1, "_trace": 1}
    cases = ((minimal, 1, minimal["steps"]), (slid, 2, [["X2", "H3"], ["Y2", "H4"]]))
    for doc, traces, normal in cases:
        fresh_curves()
        calls.clear()
        w = cm.from_doc(doc)
        assert calls == once
        assert cm.to_doc(cm.normalize(w))["steps"] == normal
        cm.to_coordinates(w)
        assert calls == {**once, "_trace": traces}


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


def _live(w, *context):
    """w, checked to be the live curve of its code: normalized means interned."""
    assert w.normalized and cm._CURVES.get(w.code) is w, context
    return w


def test_reembed_and_relabel_hand_out_one_object_per_code(corpus, ladders, tmp_path):
    # every public path that hands out a normalized curve hands out the live
    # curve of its code, and no caller can flag a word normalized
    for flag in (True, False):
        with pytest.raises(TypeError):
            cm.CurveWord(cm.P_CURVE.code, normalized=flag)
    for w in _distinct_curves(corpus, ladders):
        assert cm._reembed(w.code) is w
        assert cm._reembed(w.code[1:] + w.code[:1]) is w
        assert cm.normalize(cm.CurveWord(w.code[1:] + w.code[:1])) is w
        for g in GENERATORS:
            image = _live(apply_generator(w, g), w, g)
            assert cm._reembed(image.code) is image, (w, g)
            if g in _RELABELS:
                assert action._relabel(w, g) is image, (w, g)
        for name in CURVE_NAMES:
            for d in (1, -1):
                _live(action.twist_system(w, name, d), w, name, d)
        for d in (1, -1):
            _live(action.twist_about_p(w, d), w, d)
    for _, w in corpus:  # words from outside, traced
        assert cm.validate(list(w.steps))._normal is w
        assert cm.normalize(cm.loads(cm.dumps(w))) is w
    path = str(tmp_path / "atlas.jsonl")
    at.enumerate_atlas(3).save(path)
    goeritz2.clear_caches()
    for rec in at.AtlasStore.load(path).records:
        _live(rec.curve, rec.key)


def test_a_cold_atlas_to_depth_8_traces_no_word():
    # every word the atlas and its round trips make is a relabel image or a
    # slide-free twist image of an interned curve: the trace runs on none
    # (the byte-bounded set of verified words traced 3,669, interning 2,457);
    # half twists that hand back a remembered preimage call no kernel (4,959
    # calls before); the atlas starts from the interned P, which it no longer
    # normalizes (2,873 calls then)
    counted = cold_atlas_counts(8)
    assert counted["records"] == 2047
    assert counted["traces"] == 0 and counted["kernel_calls"] == 2872


def test_loading_a_store_traces_no_word(tmp_path, monkeypatch, traced):
    path = str(tmp_path / "atlas.jsonl")
    at.enumerate_atlas(3).save(path)
    goeritz2.clear_caches()
    traced.clear()
    # `load` rebuilds each record from its witness and compares the stored
    # curve document with the image's: it reads no stored curve as a word
    read = []
    from_tokens = cm.CurveWord.from_tokens
    monkeypatch.setattr(cm.CurveWord, "from_tokens",
                        staticmethod(lambda pairs: read.append(pairs) or from_tokens(pairs)))
    records = at.AtlasStore.load(path).records
    assert len(records) > 1 and not traced and not read
    calls = []
    normalize_steps = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps",
                        lambda code: calls.append(code) or normalize_steps(code))
    curves = [at.record_curve(rec) for rec in records]
    assert not calls and not traced
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
        embed._trace(w.code)
        for g in _RELABELS:
            embed._trace(action._relabel(w, g).code)


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
    fresh_curves(stock=True)  # the atlas's root, the stock P
    traced.clear()
    for rec in at.enumerate_atlas(6).records:
        assert red.verify_certificate(red.reduce_to_standard(rec.curve), rec.curve)
    assert not traced  # no kernel pass slid a run, so the library traced no image
    assert len(twist_images) > 16 * len(curves) and cm.P_CURVE is cm._CURVES[cm.P_CURVE.code]
    for image in twist_images:
        embed._trace(image.code)
    assert all(ok for _, ok in traced)


def test_the_twist_image_of_an_uninterned_word_takes_one_kernel_pass(
        kernel_defect_word, monkeypatch, fresh_curves):
    # a twist in which the kernel slid a run re-embeds the kernel's output as
    # it is: on this word the trace of beta^-1's image raises (the strict
    # xfail in test_canonical.py) after one kernel pass, not a second
    w, = fresh_curves(kernel_defect_word.code)
    calls = []
    normalize_steps = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps",
                        lambda c: calls.append(c) or normalize_steps(c))
    with pytest.raises(InternalInvariantError):
        apply_generator(w, "beta_inv")
    assert len(calls) == 1 and normalize_steps(calls[0])[1]  # the kernel slid a run
    # a spur pair on A's rail twists to nothing; it is a test-only fake, as no
    # embedded curve has this code and the library never flags it normalized
    fake = cm.CurveWord(bytes((2, 0)))
    fake.normalized = True
    with pytest.raises(EmptyAfterNormalization, match="curve is null-homotopic"):
        action.twist_system(fake, "A")
