"""Breadth-first atlas enumeration and persistence."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import goeritz2
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2.action import apply_word
from goeritz2.errors import MalformedInput
from goeritz2.handlebody import is_reducing
from goeritz2.reduction import reduce_to_standard, verify_certificate

from conftest import FALSE_WITNESS_STORES, TAMPERED_STORE

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# SHA-256 of the depth-6 records' `as_json` lines joined by newlines, keyed by
# certificate word; CURVES_SHA256 shows that the rest of each record is the
# same as when records were keyed by 24 intersection numbers
DEPTH6_SHA256 = "537a99b6388f5be15bdbbb791cd7c8a71c5f7d644b57bc72782740d85ecfc5fe"

# SHA-256 of each record's [witness, depth, triple, curve document] as compact
# sorted JSON, one line per record, at depths 6 and 7: pinned while records
# were keyed by 24 intersection numbers, so it shows that keying them by
# certificate word keeps every record and its order
CURVES_SHA256 = {
    6: "4033a492bdac6c77d357c603ad9e578cd713117ec99d71834b32d0cc37ceb4fb",
    7: "5a9ec79caa683f55cccf63c24a492997fd9f6cc95090f602f61409977ff40752",
}


@pytest.fixture(scope="module")
def depth6():
    return at.enumerate_atlas(6)


def test_depth_zero():
    store = at.enumerate_atlas(0)
    assert len(store.records) == 1
    assert store.records[0].triple == (2, 0, 0)
    assert store.records[0].witness == ""


def test_depth_one_contains_all_standard_triples():
    store = at.enumerate_atlas(1)
    triples = {rec.triple for rec in store.records}
    assert {(2, 0, 0), (0, 2, 0), (0, 0, 2)} <= triples


def test_all_records_reducing_and_non_triangular():
    store = at.enumerate_atlas(2)
    for rec in store.records:
        assert at.is_non_triangular(rec.triple)
        assert all(t % 2 == 0 for t in rec.triple)
        a, b, c = rec.triple
        assert a != b + c and b != c + a and c != a + b
        assert is_reducing(at.record_curve(rec))


def test_witness_rebuilds_record(standard_curve):
    store = at.enumerate_atlas(2)
    for rec in store.records[:8]:
        img = apply_word(standard_curve, rec.witness)
        assert reduce_to_standard(img).word_text() == rec.key


def test_determinism_across_hash_seeds():
    # fresh interpreters: cold caches, and set and dict orders of str keys differ
    code = "from goeritz2 import atlas\n" \
        "for r in atlas.enumerate_atlas(3).records: print(r.as_json())"
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
                           ).stdout
            for seed in ("1", "2")]
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == [r.as_json() for r in at.enumerate_atlas(3).records]


def test_monotone_extension():
    shallow = at.enumerate_atlas(2)
    deep = at.enumerate_atlas(3)
    assert [r.as_json() for r in deep.records[:len(shallow.records)]] == \
        [r.as_json() for r in shallow.records]


def test_lambda_triples_sorted_with_multiplicity():
    store = at.enumerate_atlas(2)
    triples = at.lambda_triples(store)
    assert triples == sorted(triples)
    assert dict(triples)[(2, 0, 0)] == 1


def test_store_roundtrip(tmp_path):
    store = at.enumerate_atlas(2)
    path = str(tmp_path / "atlas.jsonl")
    store.save(path)
    loaded = at.AtlasStore.load(path)
    assert [r.as_json() for r in loaded.records] == [r.as_json() for r in store.records]
    assert loaded.meta["depth"] == 2


def test_load_names_the_file_and_line_of_a_malformed_record(tmp_path):
    path = tmp_path / "atlas.jsonl"
    at.enumerate_atlas(1).save(str(path))
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-1]  # cut the closing brace of the third record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}, line 4: not JSON"):
        at.AtlasStore.load(str(path))


def test_load_names_the_file_and_line_of_a_bad_curve(bad_curve_store):
    # a stored curve is compared with its witness's image, never read as a word
    path, reason = bad_curve_store
    with pytest.raises(MalformedInput, match=f"^{re.escape(f'{path}, line 4: {reason}')}$"):
        at.AtlasStore.load(str(path))


def _rotated(doc):
    """A steps document whose steps start one step later."""
    return {**doc, "steps": doc["steps"][1:] + doc["steps"][:1]}


@pytest.mark.parametrize("edits, line, reason", [
    TAMPERED_STORE,
    ({"d": {"key": "D"}}, 4, "record key 'D' is not its curve's certificate word 'd'"),
    ({"d": {"key": ""}}, 4, "record key '' is not its curve's certificate word 'd'"),
    ({"D": {"triple": [0, 0, 2]}}, 3, "record triple [0, 0, 2] is not its curve's triple [0, 2, 0]"),
    ({"": {"triple": [2, 0, 2]}}, 2, "record triple [2, 0, 2] is not its curve's triple [2, 0, 0]"),
    ({"D": {"curve": cm.to_doc(cm.PUSHOFFS["A"])}}, 3,
     "record curve is not the image of P under its witness 'd'"),
    ({"": {"curve": cm.to_doc(apply_word(cm.P_CURVE, "d"))}}, 2,
     "record curve is not the image of P under its witness ''"),
    # the same curve from another step, and its document with one more key
    ({"D": {"curve": _rotated(cm.to_doc(apply_word(cm.P_CURVE, "d")))}}, 3,
     "record curve is not the image of P under its witness 'd'"),
    ({"d": {"curve": {**cm.to_doc(apply_word(cm.P_CURVE, "D")), "note": ""}}}, 4,
     "record curve is not the image of P under its witness 'D'"),
    *FALSE_WITNESS_STORES.values(),
], ids=["tampered", "key-of-another", "key-empty", "triple", "base-triple",
        "curve-not-reducing", "curve-of-another", "curve-rotated", "curve-extra-key",
        *FALSE_WITNESS_STORES])
def test_load_refuses_a_key_triple_or_curve_that_is_not_the_records(edited_store, edits, line,
                                                                     reason):
    path = edited_store(edits)
    with pytest.raises(MalformedInput, match=f"^{re.escape(f'{path}, line {line}: {reason}')}$"):
        at.AtlasStore.load(str(path))


def test_loading_a_store_loads_no_reembedding(tmp_path):
    # a fresh interpreter: the records are rebuilt from their witnesses, whose
    # images no word from outside reaches
    code = "import sys\nfrom goeritz2 import atlas\n" \
        "atlas.enumerate_atlas(3).save(sys.argv[1])\n" \
        "print(len(atlas.AtlasStore.load(sys.argv[1]).records), 'goeritz2.embed' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "atlas.jsonl")],
                         capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.split() == [str(len(at.enumerate_atlas(3).records)), "False"]


def test_extending_a_loaded_store_reduces_no_stored_curve_again(tmp_path, monkeypatch):
    path = str(tmp_path / "atlas.jsonl")
    at.enumerate_atlas(2).save(path)
    loaded = at.AtlasStore.load(path)
    stored = {rec.curve.code for rec in loaded.records}
    reduced = []
    real = at.reduce_to_standard
    monkeypatch.setattr(at, "reduce_to_standard", lambda w: reduced.append(w.code) or real(w))
    at.enumerate_atlas(3, loaded)
    # only the base record is made again, and the store refuses it
    assert stored & set(reduced) == {cm.normalize(cm.P_CURVE).code}
    assert len(reduced) > len(loaded.records) - len(stored)


@pytest.mark.parametrize("version", [1, 2])
def test_load_refuses_a_store_of_an_earlier_format(tmp_path, version):
    # its keys (signatures, then 24 intersection numbers) would never match a
    # certificate word, so extending it would duplicate every record
    path = tmp_path / "atlas.jsonl"
    at.enumerate_atlas(1).save(str(path))
    lines = path.read_text().splitlines()
    old = f"goeritz-atlas/{version}"
    path.write_text("\n".join([lines[0].replace("goeritz-atlas/3", old)] + lines[1:]) + "\n")
    with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}, line 1: a {old} store"
                                             ".*; rebuild it$"):
        at.AtlasStore.load(str(path))


def test_store_extension_matches_fresh_run(tmp_path):
    # extending a saved depth-1 store to depth 2 equals a fresh depth-2 run
    store = at.enumerate_atlas(1)
    path = str(tmp_path / "atlas.jsonl")
    store.save(path)
    extended = at.enumerate_atlas(2, at.AtlasStore.load(path))
    goeritz2.clear_caches()
    fresh = at.enumerate_atlas(2)
    assert [r.as_json() for r in extended.records] == \
        [r.as_json() for r in fresh.records]


@pytest.mark.parametrize("depth", [-1, 1.0, 2.5, "2", None])
def test_enumerate_atlas_refuses_a_depth_that_is_not_a_nonnegative_integer(depth):
    with pytest.raises(MalformedInput, match=f"^depth must be a nonnegative integer, not "
                                             f"{re.escape(repr(depth))}$"):
        at.enumerate_atlas(depth)


def test_export_table_mentions_base_triple():
    table = at.enumerate_atlas(1).export_table()
    assert "2 0 0" in table and "(empty)" in table


def test_depth4_table_matches_docs():
    text = (ROOT / "docs" / "atlas-depth4.txt").read_text()
    assert at.enumerate_atlas(4).export_table().strip() == text[text.index("a b c"):].strip()


def test_records_store_the_normalized_image(standard_curve):
    for rec in at.enumerate_atlas(4).records:
        assert rec.curve_doc == cm.to_doc(apply_word(standard_curve, rec.witness)), rec.witness


def test_every_depth6_record_reduces_and_verifies(depth6):
    assert len(depth6.records) == 311
    for rec in depth6.records:
        w = at.record_curve(rec)
        assert verify_certificate(reduce_to_standard(w), w), rec.witness


def test_depth6_records_are_pinned(depth6):
    text = "\n".join(rec.as_json() for rec in depth6.records)
    assert hashlib.sha256(text.encode()).hexdigest() == DEPTH6_SHA256


def test_depth6_and_depth7_curves_are_pinned(depth6):
    for store in (depth6, at.enumerate_atlas(7)):
        text = "\n".join(json.dumps([r.witness, r.depth, list(r.triple), r.curve_doc],
                                    sort_keys=True, separators=(",", ":"))
                         for r in store.records)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == CURVES_SHA256[store.meta["depth"]]


def test_enumeration_keys_each_code_once(monkeypatch):
    keyed = []
    real = at.reduce_to_standard
    monkeypatch.setattr(at, "reduce_to_standard", lambda w: keyed.append(w.code) or real(w))
    store = at.enumerate_atlas(5)
    assert len(keyed) == len(set(keyed)) > len(store.records)


def test_depth7_completes_and_extends_depth6(depth6):
    deep = at.enumerate_atlas(7)
    assert len(deep.records) > len(depth6.records)
    assert [r.as_json() for r in deep.records[:len(depth6.records)]] == \
        [r.as_json() for r in depth6.records]
