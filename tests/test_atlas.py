"""Breadth-first atlas enumeration and persistence."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import goeritz2
from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2.action import apply_word, curve_key, key_text
from goeritz2.errors import MalformedInput
from goeritz2.handlebody import is_reducing
from goeritz2.reduction import reduce_to_standard, verify_certificate

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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
        assert key_text(curve_key(img)) == rec.key


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


def test_load_refuses_a_signature_keyed_store(tmp_path):
    # its keys would never match curve_key text, so extending it would
    # duplicate every record
    path = tmp_path / "atlas.jsonl"
    at.enumerate_atlas(1).save(str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0].replace("goeritz-atlas/2", "goeritz-atlas/1")]
                              + lines[1:]) + "\n")
    with pytest.raises(MalformedInput,
                       match=f"^{re.escape(str(path))}, line 1: a goeritz-atlas/1 store"):
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


def test_depth7_completes_and_extends_depth6(depth6):
    deep = at.enumerate_atlas(7)
    assert len(deep.records) > len(depth6.records)
    assert [r.as_json() for r in deep.records[:len(depth6.records)]] == \
        [r.as_json() for r in depth6.records]
