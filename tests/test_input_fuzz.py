"""Seeded fuzz of the document readers: a document with one field changed is
read, or refused with an input error (`errors.INPUT_ERRORS`), never with
another exception.

Each case changes one field of a valid document: a curve document in either
representation, a certificate document, or a store (its header and record
lines, read through `AtlasStore.load`).  A field is replaced by a value of
another type, an edge value or another field's value, or an integer moves
by one; an object loses a key or gains an unknown one, and a list loses,
repeats or swaps an item.  Huge counts replace a single count only: scaling
every count keeps a document consistent, and its table is built whole.
"""

import copy
import json
import random

import pytest

from goeritz2 import atlas as at
from goeritz2 import curve as cm
from goeritz2.action import apply_word
from goeritz2.errors import INPUT_ERRORS
from goeritz2.reduction import ReductionCertificate, reduce_to_standard

SEED = 20261022
CASES = 500  # mutants of each kind of document
HUGE = (2 ** 40, 2 ** 62, 10 ** 30)
VALUES = (None, True, 0, -1, 1, 3, 1.5, "", "x", "d", "A1", "H1", "A1-X1", [], {}, [0],
          ["A1", "H1"], *HUGE)
WORDS = ("", "dbD", "dbdBdb")


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutant(doc, paths, rng):
    """A copy of doc with the value at one of the paths changed."""
    new, path = copy.deepcopy(doc), rng.choice(paths)
    value = _at(new, path)
    if isinstance(value, (dict, list)) and value and (not path or rng.random() < 0.5):
        if isinstance(value, dict):
            key = rng.choice(list(value))
            if rng.random() < 0.5:
                del value[key]
            else:
                value["unknown"] = value[key]
        else:
            i, j = rng.randrange(len(value)), rng.randrange(len(value))
            edit = rng.randrange(3)
            if edit == 0:
                del value[i]
            elif edit == 1:
                value.insert(i, copy.deepcopy(value[i]))
            else:
                value[i], value[j] = value[j], value[i]
    elif path:
        if type(value) is int and rng.random() < 0.3:
            value += rng.choice((-1, 1))
        elif rng.random() < 0.3:
            value = copy.deepcopy(_at(doc, rng.choice(paths)))
        else:
            value = rng.choice(VALUES)
        _at(new, path[:-1])[path[-1]] = value
    return new


def _huge_first_counts():
    """The normal document of dbD(P) with its first count made huge."""
    for count in HUGE:
        doc = cm.coordinates_doc(apply_word(cm.P_CURVE, "dbD"))
        chords = next(iter(doc["coordinates"].values()))
        chords[next(iter(chords))] = count
        yield doc


def _store_reader(tmp_path):
    path = tmp_path / "atlas.jsonl"

    def read(lines):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return at.AtlasStore.load(str(path))
    return read


def _kind(kind, tmp_path):
    """The valid documents of a kind, the ones with one field changed that
    are always tried, and the reader."""
    curves = [apply_word(cm.P_CURVE, word) for word in WORDS]
    if kind == "steps":
        return list(map(cm.to_doc, curves)), [], cm.from_doc
    if kind == "normal":
        return list(map(cm.coordinates_doc, curves)), list(_huge_first_counts()), cm.from_doc
    if kind == "certificate":
        return [reduce_to_standard(w).as_doc() for w in curves], [], ReductionCertificate.from_doc
    path = tmp_path / "valid.jsonl"
    at.enumerate_atlas(1).save(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [lines], [], _store_reader(tmp_path)


@pytest.mark.parametrize("kind", ["steps", "normal", "certificate", "store"])
def test_a_document_with_one_field_changed_is_read_or_refused_with_an_input_error(kind,
                                                                                 tmp_path):
    docs, mutants, read = _kind(kind, tmp_path)
    rng = random.Random(f"{SEED} {kind}")
    while len(mutants) < CASES:
        doc = rng.choice(docs)
        mutant = _mutant(doc, list(_paths(doc)), rng)
        if mutant != doc:
            mutants.append(mutant)
    refused, other = 0, []
    for mutant in mutants:
        try:
            read(mutant)
        except INPUT_ERRORS:
            refused += 1
        except Exception as exc:  # any other exception is a finding: report it
            other.append(f"{type(exc).__name__}: {exc} on {json.dumps(mutant)[:200]}")
    assert not other, "\n".join(other[:5])
    assert refused > len(mutants) // 2
