"""Command-line interface: formats, exit codes, file round trips."""

import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from goeritz2 import curve as cm
from goeritz2 import kernel
from goeritz2.action import apply_word, curve_key
from goeritz2.cli import main


@pytest.fixture
def p_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(cm.dumps(cm.P_CURVE))
    return str(path)


@pytest.fixture
def pushoff_b_file(tmp_path):
    path = tmp_path / "pb.json"
    path.write_text(cm.dumps(cm.PUSHOFFS["B"]))
    return str(path)


def test_counts_command(p_file, capsys):
    assert main(["counts", "--in", p_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["a"], doc["b"], doc["c"]) == (2, 0, 0)


def test_apply_delta_gives_prime(p_file, tmp_path, capsys):
    out = str(tmp_path / "pp.json")
    assert main(["apply", "--in", p_file, "--word", "d", "--out", out]) == 0
    w = cm.loads(pathlib.Path(out).read_text())
    assert cm.counts(w).abc() == (0, 2, 0)


def test_apply_roundtrip_canonical_file(p_file, tmp_path):
    mid = str(tmp_path / "mid.json")
    back = str(tmp_path / "back.json")
    assert main(["apply", "--in", p_file, "--word", "dbg", "--out", mid]) == 0
    assert main(["apply", "--in", mid, "--word", "gBD", "--out", back]) == 0
    orig = cm.loads(pathlib.Path(p_file).read_text())
    returned = cm.loads(pathlib.Path(back).read_text())
    assert curve_key(orig) == curve_key(returned)


def test_reduce_prime_emits_delta_inverse(p_file, tmp_path, capsys):
    pp = str(tmp_path / "pp.json")
    main(["apply", "--in", p_file, "--word", "d", "--out", pp])
    cert_path = str(tmp_path / "cert.json")
    assert main(["reduce", "--in", pp, "--out", cert_path]) == 0
    cert = json.loads(pathlib.Path(cert_path).read_text())
    assert cert["word"] == "D"
    assert cert["output"]["steps"]


def test_reduce_rejects_nonseparating(pushoff_b_file, tmp_path, capsys):
    assert main(["reduce", "--in", pushoff_b_file, "--out", str(tmp_path / "c.json")]) == 4
    assert capsys.readouterr().out == "not a reducing curve: nonseparating\n"


def test_verify_rejects_nonseparating(pushoff_b_file, capsys):
    assert main(["verify", "--in", pushoff_b_file]) == 4
    assert "nonseparating" in capsys.readouterr().out


def test_verify_accepts_standard(p_file, capsys):
    assert main(["verify", "--in", p_file]) == 0
    assert "dominance class A" in capsys.readouterr().out


def test_verify_normalizes_its_input_once(tmp_path, monkeypatch, capsys):
    code = apply_word(cm.P_CURVE, "dbdB").code
    rotated = cm.CurveWord(code[3:] + code[:3])
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"format": cm.CURVE_FORMAT, "representation": "steps",
                                "steps": rotated.tokens()}))
    calls = []
    real = kernel.normalize_steps
    monkeypatch.setattr(kernel, "normalize_steps", lambda c: calls.append(c) or real(c))
    assert main(["verify", "--in", str(path)]) == 0
    assert "reducing curve" in capsys.readouterr().out
    assert calls == [rotated.code]


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "goeritz-curve/1", "representation": "steps", '
                   '"steps": [["A1", "H2"]]}')
    assert main(["validate", "--in", str(bad)]) == 3


@pytest.mark.parametrize("doc", [
    {"representation": "normal", "coordinates": {"H1": {"A1-X1": "abc"}}},
    {"representation": "normal", "coordinates": {"H1": {"A1-X1": None}}},
    {"representation": "normal", "coordinates": {"H1": {"A1-X1": True}}},
    {"representation": "normal", "coordinates": {"H1": {"A1-X1": 0.5}}},
    {"representation": "normal", "coordinates": ["x"]},
    {"representation": "normal", "coordinates": {"H1": [1, 2]}},
    {"representation": "steps", "steps": 5},
], ids=["count-str", "count-null", "count-bool", "count-fraction", "coordinates-list",
        "chords-list", "steps-int"])
def test_ill_typed_document_exit_code(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "goeritz-curve/1", **doc}))
    assert main(["validate", "--in", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_unembeddable_input_exit_code(tmp_path):
    steps = [["A1", "H1"], ["B1", "H3"], ["Z2", "H4"], ["B2", "H2"],
             ["Z1", "H1"], ["X1", "H2"], ["A2", "H4"], ["X2", "H3"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"format": "goeritz-curve/1", "representation": "steps", "steps": steps}))
    assert main(["validate", "--in", str(bad)]) == 3


def test_unembedded_kernel_word_exit_code(tmp_path, unembedded_word):
    # passes the chord-class and edge-order checks; its counts trace another word
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"format": "goeritz-curve/1", "representation": "steps", "steps": unembedded_word}))
    assert main(["validate", "--in", str(bad)]) == 3
    assert main(["normalize", "--in", str(bad)]) == 3


def test_usage_error_exit_code():
    assert main(["apply"]) == 2


def test_null_homotopic_input_exit_code(tmp_path):
    bad = tmp_path / "null.json"
    bad.write_text(json.dumps(
        {"format": "goeritz-curve/1", "representation": "steps",
         "steps": [["A1", "H1"], ["A1", "H3"]]}))
    assert main(["normalize", "--in", str(bad)]) == 3


def test_words_machine_readable_output(p_file, tmp_path):
    out = tmp_path / "words.json"
    assert main(["words", "--in", p_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "goeritz-arc-words/1"
    assert len(doc["arcs"]) == 2


def test_normal_coordinates_output(p_file, tmp_path):
    out = str(tmp_path / "p-normal.json")
    assert main(["normalize", "--in", p_file, "--format", "normal",
                 "--out", out]) == 0
    doc = json.loads(pathlib.Path(out).read_text())
    assert doc["representation"] == "normal"
    returned = cm.from_doc(doc)
    assert curve_key(returned) == curve_key(cm.P_CURVE)


def test_words_command(p_file, capsys):
    assert main(["words", "--in", p_file]) == 0
    out = capsys.readouterr().out
    assert "theta-V: X X" in out and "bounds disk in V: True" in out


def test_census_command(p_file, capsys):
    assert main(["census", "--in", p_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["AA1"] == 1 and doc["AA2"] == 1


def test_render_command(p_file, tmp_path):
    svg = tmp_path / "p.svg"
    assert main(["render", "--in", p_file, "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polygon" in text and "curve" in text


def _crosses(s, t):
    def side(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return side(*s, t[0]) * side(*s, t[1]) < 0 and side(*t, s[0]) * side(*t, s[1]) < 0


def test_render_draws_no_crossing_chords(tmp_path):
    w = apply_word(cm.normalize(cm.P_CURVE), "dbdBdb")
    svg = tmp_path / "w.svg"
    (tmp_path / "w.json").write_text(cm.dumps(w))
    assert main(["render", "--in", str(tmp_path / "w.json"), "--svg", str(svg)]) == 0
    chords = [((float(a), float(b)), (float(c), float(d))) for a, b, c, d in re.findall(
        r'class="curve" d="M (\S+) (\S+) L (\S+) (\S+)"', svg.read_text())]
    assert len(chords) == len(w)
    assert not any(_crosses(s, t) for s, t in itertools.combinations(chords, 2))


def test_input_file_is_closed(p_file):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "goeritz2.cli", "counts", "--in", p_file],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0 and proc.stderr == ""


def test_atlas_command(tmp_path, capsys):
    out = str(tmp_path / "atlas.jsonl")
    assert main(["atlas", "--depth", "1", "--out", out]) == 0
    table = capsys.readouterr().out
    assert "2 0 0" in table
    assert (tmp_path / "atlas.jsonl").exists()


@pytest.mark.parametrize("text, line, reason", [
    ("", 1, "not a goeritz-atlas/2 file"),
    ('{"format":"goeritz-atlas/2"}\nnot json\n', 2, "not JSON"),
    ('{"format":"goeritz-atlas/2"}\n\n{"key":"k","witness":"","depth":0,"curve":{}}\n',
     3, "record has no 'triple'"),
], ids=["empty", "not-json", "no-triple"])
def test_malformed_atlas_store_exit_code(tmp_path, capsys, text, line, reason):
    store = tmp_path / "atlas.jsonl"
    store.write_text(text)
    assert main(["atlas", "--in", str(store), "--depth", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store}, line {line}: {reason}"), err
