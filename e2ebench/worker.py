"""One pass of one benchmark workload, in the interpreter that runs this file.

`run.py` starts a fresh interpreter per pass, so the process-global signature
cache of goeritz2 starts cold in every pass and no pass inherits another's.
The pass builds its inputs from the seed before timing, then runs the timed
phase as one client in a closed loop: each operation starts when the previous
one has returned.  It prints one JSON object on stdout.

    python3 e2ebench/worker.py --workload reduce_ladder --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import goeritz2  # noqa: E402
from goeritz2 import atlas, curve, handlebody, kernel, reduction  # noqa: E402
from goeritz2.action import apply_generator  # noqa: E402

from speed import Speedometer  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"

RUNG_DELTA = {"d": "delta", "D": "delta_inv"}
RUNG_BETA = {"b": "beta", "B": "beta_inv"}
LAST_RUNGS = ("db", "dB", "Db", "DB")

# replay_large: ladder prefixes drawn per band of their crossing count, each
# replayed from the standard curve and then extended by all four last rungs,
# which take it to ~2-3*10^3 crossings.  Averaging the four last rungs of one
# prefix, over 20 prefixes, takes out most of the cost spread between single
# ladders (the quadratic kernel's cost depends on where the spurs sit).
REPLAY_BANDS = ((900, 1050, 7), (1050, 1200, 7), (1200, 1350, 6))
# reduce_ladder: distinct ladder curves per crossing-count band.
REDUCE_BANDS = ((16, 32, 4), (32, 64, 4), (64, 128, 6), (128, 192, 8), (192, 256, 12),
                (256, 320, 16), (320, 400, 10), (400, 480, 1))
ATLAS_DEPTH = 6


def counts3(w) -> tuple[int, int, int]:
    return curve.counts(w).abc()


def apply_rung(w, rung: str):
    """One rung delta^+-1 beta^+-1; checks the generator count laws of both steps.

    Returns the image and whether both laws held: delta rotates (a,b,c) to
    (c,a,b), delta^-1 to (b,c,a), and beta^+-1 keeps b and c.
    """
    a, b, c = counts3(w)
    w = apply_generator(w, RUNG_DELTA[rung[0]])
    ok = counts3(w) == ((c, a, b) if rung[0] == "d" else (b, c, a))
    a, b, c = counts3(w)
    w = apply_generator(w, RUNG_BETA[rung[1]])
    ok = ok and counts3(w)[1:] == (b, c)
    return w, ok


def ladder_inputs(rng: random.Random, bands):
    """Distinct ladder curves, `count` per (lo, hi, count) crossing-count band.

    Each ladder is grown rung by rung from the standard curve until its curve
    falls in a band that still needs one; that curve is taken and the next
    ladder starts.  Ladders are drawn until every band is filled, so each seed
    gives the same band histogram.  Returns [(word, curve)] in band order.
    """
    need = [n for _, _, n in bands]
    found: list[list] = [[] for _ in bands]
    seen = set()
    start = curve.normalize(goeritz2.P_CURVE)
    while any(need):
        top = max(hi for (_, hi, _), n in zip(bands, need) if n)
        w, word = start, ""
        while len(w) < top and len(word) < 80:  # at most 40 rungs per ladder
            rung = rng.choice("dD") + rng.choice("bB")
            w, _ = apply_rung(w, rung)
            word += rung
            k = next((k for k, (lo, hi, _) in enumerate(bands)
                      if need[k] and lo <= len(w) < hi), None)
            if k is not None:
                key = curve.canonical_unoriented(w)
                if key not in seen:
                    seen.add(key)
                    found[k].append((word, w))
                    need[k] -= 1
                    break
    return [item for items in found for item in items]


# ------------------------------------------------------------------ workloads


class Pass:
    """Operation log of one timed phase."""

    def __init__(self, tracer: Tracer | None, speed: Speedometer):
        self.tracer = tracer
        self.speed = speed
        self.ops: list[tuple[float, bool]] = []
        self.errors: dict[str, int] = {}
        self.sizes: list[int] = []
        self.skipped = 0

    def skip(self, n: int) -> None:
        """Operations that cannot run because an earlier one failed."""
        self.skipped += n

    def op(self, size: int | None, fn):
        """Time fn() as one operation; fn returns (result, check passed).

        `size` is the crossing count of the operation's input curve, if any.
        """
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        busy = self.speed.busy_s
        t0 = time.perf_counter()
        try:
            result, ok = fn()
        except Exception as exc:  # an operation that raises counts as failed
            result, ok = None, False
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
        latency = time.perf_counter() - t0 - (self.speed.busy_s - busy)
        if not ok and result is not None:
            self.errors["check"] = self.errors.get("check", 0) + 1
        self.ops.append((latency, ok))
        if size is not None:
            self.sizes.append(size)
        return result


def build_replay(rng: random.Random):
    return [word for word, _ in ladder_inputs(rng, REPLAY_BANDS)]


def replay_large(prefixes: list[str], run: Pass) -> dict:
    start = curve.normalize(goeritz2.P_CURVE)
    for word in prefixes:
        w = start
        for i in range(0, len(word), 2):
            w = run.op(len(w), lambda w=w, r=word[i:i + 2]: apply_rung(w, r))
            if w is None:
                run.skip(len(word) // 2 - i // 2 - 1 + len(LAST_RUNGS))
                break
        else:
            for rung in LAST_RUNGS:
                def last(w=w, rung=rung):
                    image, ok = apply_rung(w, rung)
                    return image, ok and handlebody.is_reducing(image)
                run.op(len(w), last)
    return {}


def build_reduce(rng: random.Random):
    inputs = [w for _, w in ladder_inputs(rng, REDUCE_BANDS)]
    rng.shuffle(inputs)
    return inputs


def round_trip(w) -> tuple:
    """reduce_to_standard + verify_certificate; the trace must end at (2,0,0)."""
    cert = reduction.reduce_to_standard(w)
    last = cert.trace[-1] if cert.trace else counts3(w)
    return cert, reduction.verify_certificate(cert, w) and last == (2, 0, 0)


def reduce_ladder(inputs: list, run: Pass) -> dict:
    for w in inputs:
        run.op(len(w), lambda w=w: round_trip(w))
    return {}


def build_atlas(rng: random.Random):
    return rng


def atlas_workload(rng: random.Random, run: Pass) -> dict:
    """enumerate_atlas, then record_curve + round trip on every stored record.

    The seed only orders the round trips; the atlas itself is deterministic.
    """
    store = run.op(None, lambda: (atlas.enumerate_atlas(ATLAS_DEPTH), True))
    build = run.ops[-1][0]
    records = list(store.records) if store is not None else []
    rng.shuffle(records)
    for rec in records:
        run.op(len(rec.curve_doc["steps"]),
               lambda rec=rec: round_trip(atlas.record_curve(rec)))
    return {"atlas_build_s": build, "store": store}


# name: (build inputs from the seed, timed phase)
WORKLOADS = {"replay_large": (build_replay, replay_large),
             "reduce_ladder": (build_reduce, reduce_ladder),
             "atlas": (build_atlas, atlas_workload)}


def depth4_table_matches(store) -> bool:
    """The depth <= 4 records export the table committed in docs/."""
    text = (ROOT / "docs" / "atlas-depth4.txt").read_text()
    expected = text[text.index("a b c"):].strip()
    small = atlas.AtlasStore()
    for rec in store.records:
        if rec.depth <= 4:
            small.add(rec)
    return small.export_table().strip() == expected


def histogram(sizes: list[int]) -> dict[str, int]:
    """Crossing counts of the operations' inputs in power-of-two bins."""
    hist: dict[str, int] = {}
    for n in sorted(sizes):
        lo = 1 << (max(n, 1).bit_length() - 1)
        key = f"{lo}-{2 * lo - 1}"
        hist[key] = hist.get(key, 0) + 1
    return hist


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    rng = random.Random(f"{args.workload}/{args.seed}")
    build, timed = WORKLOADS[args.workload]
    inputs = build(rng)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        with Speedometer() as speed:
            run = Pass(tracer, speed)
            busy = speed.busy_s
            t0 = time.perf_counter_ns()
            extra = timed(inputs, run)
            span_ns = time.perf_counter_ns() - t0
            # the reference samples are not part of the workload
            wall_ns = span_ns - round((speed.busy_s - busy) * 1e9)
    finally:
        if tracer is not None:
            tracer.uninstall()
    store = extra.pop("store", None)
    valid = True
    if args.workload == "atlas":
        valid = store is not None and depth4_table_matches(store)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "valid": valid,
        "wall_s": wall_ns / 1e9,
        "wall_ref": speed.wall_ref(),
        "ops": [[round(t * 1e3, 6), ok] for t, ok in run.ops],
        "skipped": run.skipped,
        "errors": run.errors,
        "hist": histogram(run.sizes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "backend": kernel.BACKEND,
        **extra,
    }
    if tracer is not None:
        new_records: dict[int, int] = {}
        for rec in store.records if store is not None else ():
            new_records[rec.depth] = new_records.get(rec.depth, 0) + 1
        try:
            # spans include the reference samples that land inside them
            out["layers"] = layer_metrics(tracer.spans, span_ns, new_records)
        except ValueError as exc:
            out["valid"] = False
            out["trace_error"] = str(exc)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
