"""Breadth-first atlas of reducing curves reachable from the standard one.

Images of the standard curve under generator words are deduplicated by
`curve_key`, 24 intersection numbers that tell apart every isotopy class the
tests reach; each record keeps the first (hence shortest) witness word, the
realized (a,b,c) triple, the search depth and the normalized image, which the
next level expands.  The store is one line-delimited JSON file, so reruns can extend it
and diffs stay readable; `load` rebuilds the index from the records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .action import GENERATORS, apply_generator, curve_key, format_goeritz_word, key_text
from .curve import CurveWord, P_CURVE, from_doc, normalize, to_doc
from .errors import MalformedInput, NotReducing
from .handlebody import require_reducing

ATLAS_FORMAT = "goeritz-atlas/2"


@dataclass(frozen=True)
class AtlasRecord:
    key: str                       # curve_key as comma-joined text (dedup handle)
    triple: tuple[int, int, int]
    witness: str                   # compact generator word
    depth: int
    curve_doc: dict

    def as_json(self) -> str:
        return json.dumps(
            {"key": self.key, "triple": list(self.triple), "witness": self.witness,
             "depth": self.depth, "curve": self.curve_doc},
            sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "AtlasRecord":
        """One store line as a record; MalformedInput says what is wrong with it."""
        doc = _json_object(line)
        missing = [k for k in ("key", "triple", "witness", "depth", "curve") if k not in doc]
        if missing:
            raise MalformedInput(f"record has no {missing[0]!r}")
        if not isinstance(doc["triple"], list):
            raise MalformedInput("record triple is not a list")
        return AtlasRecord(doc["key"], tuple(doc["triple"]), doc["witness"],
                           doc["depth"], doc["curve"])


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
        """Read a store that `save` wrote; a malformed one raises MalformedInput
        naming the file and the line.  A goeritz-atlas/1 store is refused: its
        records are keyed by signature, which merges curves, so extending it
        would add duplicates of its records."""
        store = AtlasStore()
        with open(path) as fh:
            lineno = 1
            try:
                header = _json_object(fh.readline() or "{}")  # an empty file has no format
                if header.get("format") == "goeritz-atlas/1":
                    raise MalformedInput("a goeritz-atlas/1 store is keyed by signature; "
                                         "rebuild it")
                if header.get("format") != ATLAS_FORMAT:
                    raise MalformedInput(f"not a {ATLAS_FORMAT} file")
                store.meta = {k: v for k, v in header.items() if k != "format"}
                for lineno, line in enumerate(fh, 2):
                    if line.strip():
                        store.add(AtlasRecord.from_json(line))
            except MalformedInput as exc:
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
    w, witness = item
    out = []
    for gen in GENERATORS:
        img = apply_generator(w, gen)
        require_reducing(img)
        out.append((witness + format_goeritz_word([gen]), img))
    return out


def enumerate_atlas(depth: int, store: AtlasStore | None = None) -> AtlasStore:
    """All generator words of length <= depth applied to the standard curve.

    Deterministic for a fixed depth: the frontier is expanded in order.
    """
    if depth < 0:
        raise MalformedInput("depth must be nonnegative")
    store = store if store is not None else AtlasStore()
    store.meta.setdefault("generators", "abBgdD")
    store.meta["depth"] = max(depth, store.meta.get("depth", 0))

    base = normalize(P_CURVE)
    key = curve_key(base)
    store.add(AtlasRecord(key_text(key), key[:3], "", 0, to_doc(base)))

    for level in range(1, depth + 1):
        # rebuild the frontier from the store so saved runs can be extended
        frontier = [(record_curve(rec), rec.witness)
                    for rec in store.records if rec.depth == level - 1]
        for item in frontier:
            for witness, img in _expand(item):
                key = curve_key(img)
                triple = key[:3]
                if any(t % 2 for t in triple):
                    raise NotReducing("odd intersection triple in atlas")
                text = key_text(key)
                if text not in store.index:  # only a new record needs its document
                    store.add(AtlasRecord(text, triple, witness, level, to_doc(img)))
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
    """The stored curve, normalized once here so that its uses do not repeat it."""
    return normalize(from_doc(rec.curve_doc))
