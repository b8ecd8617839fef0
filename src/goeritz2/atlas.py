"""Breadth-first atlas of reducing curves reachable from the standard one.

Images of the standard curve under generator words are deduplicated by their
reduction certificate word, the exact equality test of reducing curves (see
`reduction`); each record keeps the first (hence shortest) witness word, the
realized (a,b,c) triple, the search depth and the normalized image, which the
next level expands.  The store is one line-delimited JSON file, so reruns can
extend it and diffs stay readable; `load` rebuilds the index from the records.
A record holds its curve as a `CurveWord`: the curve document exists only at
the file boundary, written by `as_json` and read, validated and normalized
once by `from_json` when `load` reads a store.  Every record is made by
`_record`, which reduces its curve for the key and triple, so `load` refuses
a stored key or triple that is not its curve's; it also refuses a witness
that does not take the standard curve to the record's curve, a depth
that is not the witness's length, or a witness that extends no earlier
record's by one letter.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .action import (GENERATORS, apply_generator, apply_word, format_goeritz_word,
                     parse_goeritz_word)
from .curve import CurveWord, P_CURVE, from_doc, normalize, to_doc
from .errors import INPUT_ERRORS, MalformedInput, NotReducing
from .reduction import reduce_to_standard

ATLAS_FORMAT = "goeritz-atlas/3"


@dataclass(frozen=True)
class AtlasRecord:
    key: str                       # certificate word text (dedup handle)
    triple: tuple[int, int, int]
    witness: str                   # compact generator word
    depth: int
    curve: CurveWord               # the normalized image

    @property
    def curve_doc(self) -> dict:
        """The curve document a store line holds."""
        return to_doc(self.curve)

    def as_json(self) -> str:
        return json.dumps(
            {"key": self.key, "triple": list(self.triple), "witness": self.witness,
             "depth": self.depth, "curve": self.curve_doc},
            sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "AtlasRecord":
        """One store line as a record, its curve validated, normalized and
        reduced, its key and triple checked against the reduction's, and its
        witness replayed from P; an input error says what is wrong with it."""
        doc = _json_object(line)
        missing = [k for k in ("key", "triple", "witness", "depth", "curve") if k not in doc]
        if missing:
            raise MalformedInput(f"record has no {missing[0]!r}")
        triple, depth = doc["triple"], doc["depth"]
        if not (isinstance(triple, list) and len(triple) == 3 and all(type(v) is int for v in triple)):
            raise MalformedInput(f"record triple {triple!r} is not three integers")
        if type(depth) is not int or depth < 0:
            raise MalformedInput(f"record depth {depth!r} is not a nonnegative integer")
        key, witness = _generator_word(doc, "key"), _generator_word(doc, "witness")
        try:
            rec = _record(normalize(from_doc(doc["curve"])), witness, depth)
        except NotReducing as exc:
            raise MalformedInput(f"record curve is not reducing: {exc}") from None
        if key != rec.key:
            raise MalformedInput(f"record key {key!r} is not its curve's certificate word {rec.key!r}")
        if tuple(triple) != rec.triple:
            raise MalformedInput(f"record triple {triple!r} is not its curve's triple {list(rec.triple)!r}")
        if depth != len(witness):
            raise MalformedInput(f"record depth {depth} is not the length of its witness {witness!r}")
        if apply_word(P_CURVE, witness) != rec.curve:
            raise MalformedInput(f"record witness {witness!r} does not take P to its curve")
        return rec


def _record(curve: CurveWord, witness: str, depth: int) -> AtlasRecord:
    """The record of a normalized curve, keyed by its certificate word; a curve
    that is not reducing, or whose triple is odd, raises NotReducing."""
    cert = reduce_to_standard(curve)
    if any(t % 2 for t in cert.input_counts):
        raise NotReducing("odd intersection triple in atlas")
    return AtlasRecord(cert.word_text(), cert.input_counts, witness, depth, curve)


def _generator_word(doc: dict, name: str) -> str:
    """The record's field `name`, checked to be a string of generator letters."""
    word = doc[name]
    if not isinstance(word, str):
        raise MalformedInput(f"record {name} {word!r} is not a string")
    try:
        parse_goeritz_word(word)
    except MalformedInput as exc:
        raise MalformedInput(f"record {name} {word!r}: {exc}") from None
    return word


def _json_object(line: str) -> dict:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInput("not a JSON object")
    return doc


@dataclass
class AtlasStore:
    records: list[AtlasRecord] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add(self, rec: AtlasRecord) -> bool:
        if rec.key in self.index:
            return False
        self.index[rec.key] = len(self.records)
        self.records.append(rec)
        return True

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps({"format": ATLAS_FORMAT, **self.meta},
                                sort_keys=True, separators=(",", ":")) + "\n")
            for rec in self.records:
                fh.write(rec.as_json() + "\n")
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "AtlasStore":
        """Read a store that `save` wrote; a malformed line, a curve that is
        not reducing, or a key, triple, witness or depth that is not its
        curve's raises MalformedInput naming the file and the line, and so
        does a witness that extends no earlier record's by one letter, as
        every witness `enumerate_atlas` stores does.  A store
        of an earlier format is refused: its keys (signatures in /1, 24
        intersection numbers in /2) never match a certificate word, so
        extending it would duplicate its records."""
        store = AtlasStore()
        with open(path) as fh:
            lineno = 1
            try:
                header = _json_object(fh.readline() or "{}")  # an empty file has no format
                if header.get("format") in ("goeritz-atlas/1", "goeritz-atlas/2"):
                    raise MalformedInput(f"a {header['format']} store has keys of an "
                                         "earlier format; rebuild it")
                if header.get("format") != ATLAS_FORMAT:
                    raise MalformedInput(f"not a {ATLAS_FORMAT} file")
                if type(header.get("depth", 0)) is not int:
                    raise MalformedInput(f"header depth {header['depth']!r} is not an integer")
                store.meta = {k: v for k, v in header.items() if k != "format"}
                witnesses = set()
                for lineno, line in enumerate(fh, 2):
                    if line.strip():
                        rec = AtlasRecord.from_json(line)
                        if rec.depth and rec.witness[:-1] not in witnesses:
                            raise MalformedInput(f"record witness {rec.witness!r} extends no "
                                                 "witness of an earlier record")
                        witnesses.add(rec.witness)
                        store.add(rec)
            except INPUT_ERRORS as exc:
                raise MalformedInput(f"{path}, line {lineno}: {exc}") from None
        return store

    def export_table(self) -> str:
        """Plain table: triple, number of records (isotopy classes), shortest
        witness.  The count column keeps the header "signatures" of the table
        in docs/atlas-depth4.txt, which the benchmark compares as text."""
        by_triple: dict[tuple[int, int, int], list[AtlasRecord]] = {}
        for rec in self.records:
            by_triple.setdefault(rec.triple, []).append(rec)
        lines = ["a b c   signatures   shortest witness"]
        for triple in sorted(by_triple):
            recs = by_triple[triple]
            witness = min(recs, key=lambda r: (r.depth, r.witness)).witness
            lines.append(f"{triple[0]} {triple[1]} {triple[2]}   {len(recs):<12} "
                         f"{witness or '(empty)'}")
        return "\n".join(lines)


def _expand(item: tuple[CurveWord, str]) -> list[tuple[str, CurveWord]]:
    """The six images of a record, each with its witness; `reduce_to_standard`
    checks that a new one is reducing."""
    w, witness = item
    return [(witness + format_goeritz_word([gen]), apply_generator(w, gen))
            for gen in GENERATORS]


def enumerate_atlas(depth: int, store: AtlasStore | None = None) -> AtlasStore:
    """All generator words of length <= depth applied to the standard curve.

    Deterministic for a fixed depth: the frontier is expanded in order.
    """
    if depth < 0:
        raise MalformedInput("depth must be nonnegative")
    store = store if store is not None else AtlasStore()
    store.meta.setdefault("generators", "abBgdD")
    store.meta["depth"] = max(depth, store.meta.get("depth", 0))

    store.add(_record(normalize(P_CURVE), "", 0))
    # Curves whose keys are in the store: an image equal to one of them
    # (alpha's, or g^-1 after g) needs no reduction.
    keyed = {rec.curve for rec in store.records}

    for level in range(1, depth + 1):
        # rebuild the frontier from the store so saved runs can be extended
        frontier = [(record_curve(rec), rec.witness)
                    for rec in store.records if rec.depth == level - 1]
        for item in frontier:
            for witness, img in _expand(item):
                if img in keyed:
                    continue
                keyed.add(img)
                store.add(_record(img, witness, level))
    return store


def lambda_triples(store: AtlasStore) -> list[tuple[tuple[int, int, int], int]]:
    """Sorted realized (a,b,c) triples, each with its number of records: the
    isotopy classes that realize it."""
    by_triple: dict[tuple[int, int, int], int] = {}
    for rec in store.records:
        by_triple[rec.triple] = by_triple.get(rec.triple, 0) + 1
    return sorted(by_triple.items())


def is_non_triangular(triple: tuple[int, int, int]) -> bool:
    a, b, c = triple
    return a > b + c or b > c + a or c > a + b


def record_curve(rec: AtlasRecord) -> CurveWord:
    """The stored curve, already normalized."""
    return rec.curve
