"""End-to-end and per-layer benchmark of goeritz2.

    python3 e2ebench/run.py --workload reduce_ladder --seed 1 --seconds 30 --trace 0

Runs one workload from the root of a checkout, using the package under
`src/` as it is (no build step; `kernel.BACKEND` is recorded because the
compiled and pure kernels are not comparable).  One client drives the public
API in a closed loop on one core.  Each pass is a fresh interpreter
(`worker.py`), so the process-global signature cache starts cold; passes are
repeated until `--seconds` is used up and timings are reported as medians.
`wall_ref` and `setup_s` read times in units of a fixed reference loop
(`speed.py`) timed alongside, which cancels most of a shared machine's speed
drift.

Workloads (inputs drawn from `--seed`):
  replay_large   beta/delta ladder rungs replayed from the standard curve up
                 to ~2-3*10^3 crossings; kernel and re-embedding do the work.
  reduce_ladder  reduce_to_standard + verify_certificate on distinct ladder
                 curves of 16-480 crossings; the cold canonical_form slide
                 loop does the work.
  atlas          enumerate_atlas(6), then record_curve + reduce + verify on
                 every stored record: thousands of small overlapping curves.

With `--trace 0` the last stdout line carries the end-to-end metrics listed
in BENCHMARK.json; with `--trace 1` it carries the per-layer split of a
traced pass, paired with an untraced pass for the tracing overhead.  Lines
before it print every metric with its unit, including `wall_s` in seconds,
`op_p50_ms`, `op_p90_ms`, `fail_frac` and `atlas_build_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("replay_large", "reduce_ladder", "atlas")
SETUP_PROBES = 11
# A fresh interpreter times importing goeritz2 and normalizing the standard
# curve, and times the reference loop before and after it.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import reference_time
before = reference_time()
t0 = time.perf_counter()
import goeritz2
goeritz2.normalize(goeritz2.P_CURVE)
took = time.perf_counter() - t0
print(took, (before + reference_time()) / 2)
"""
DEADLINE_S = 170  # every run must end within 180 s



class BenchError(Exception):
    pass


def child_env() -> dict:
    # fixed string hashing, so every pass of a seed does the same work
    return {**os.environ, "PYTHONHASHSEED": "0"}


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd[1:3])}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(seconds, reference-loop seconds) of each fresh-interpreter probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = run_child([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], deadline)
        took, ref = map(float, proc.stdout.split())
        probes.append((took, ref))
    return probes


def run_pass(workload: str, seed: int, trace: int, deadline: float) -> dict:
    proc = run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                      "--seed", str(seed), "--trace", str(trace)], deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> list[dict]:
    """Repeat passes (untraced, plus a traced one per cycle if tracing) while
    another cycle still fits in `seconds`."""
    kinds = (0, 1) if trace else (0,)
    results: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for kind in kinds:
            results.append(run_pass(workload, seed, kind, deadline))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return results


def summarize(workload: str, seed: int, setup: list[tuple[float, float]],
              results: list[dict]) -> dict:
    plain = [r for r in results if r["trace"] == 0]
    traced = [r for r in results if r["trace"] == 1]
    outcome = {json.dumps([[ok for _, ok in r["ops"]], r["errors"], r["skipped"]])
               for r in results}
    lat = [t for r in plain for t, _ in r["ops"]]
    attempted = sum(len(r["ops"]) + r["skipped"] for r in plain)
    failed = sum(sum(1 for _, ok in r["ops"] if not ok) + r["skipped"] for r in plain)
    first = plain[0]
    s = {
        "workload": workload,
        "seed": seed,
        "python": first["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "backend": first["backend"],
        "passes": len(plain),
        "traced_passes": len(traced),
        # every pass of one seed must do the same work with the same outcomes
        "correct": all(r["valid"] for r in results) and len(outcome) == 1,
        "attempted": attempted,
        "failed": failed,
        "errors": first["errors"],
        "crossings_hist": first["hist"],
        "ops_per_pass": len(first["ops"]),
        "e2e": {
            # in reference-loop units, reported as seconds at REFERENCE_S
            "setup_s": (statistics.median(t / r for t, r in setup) * REFERENCE_S, "s"),
            "setup_raw_s": (statistics.median(t for t, _ in setup), "s"),
            "wall_ref": (statistics.median(r["wall_ref"] for r in plain), "ref"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "fail_frac": (failed / attempted, "ratio"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        },
    }
    if len(lat) >= 100:
        s["e2e"]["op_p90_ms"] = (statistics.quantiles(lat, n=10)[8], "ms")
    if "atlas_build_s" in first:
        s["e2e"]["atlas_build_s"] = (
            statistics.median(r["atlas_build_s"] for r in plain), "s")
    if traced:
        names = traced[0]["layers"]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
        traced_ref = statistics.median(r["wall_ref"] for r in traced)
        layers["trace.overhead_frac"] = traced_ref / s["e2e"]["wall_ref"][0] - 1
        s["layers"] = layers
    return s


def report(s: dict, spec: dict, trace: int) -> dict:
    """Print every metric with its unit; return the contract's result line."""
    print(f"workload {s['workload']}  seed {s['seed']}  python {s['python']}  "
          f"nproc {s['nproc']}  backend {s['backend']}  passes {s['passes']}"
          f" (+{s['traced_passes']} traced)  ops/pass {s['ops_per_pass']}")
    n = s["ops_per_pass"] * s["passes"]
    for name, (value, unit) in s["e2e"].items():
        note = f"  (n={n} ops)" if name.startswith("op_") else ""
        print(f"  {name:<16} {value:12.6g} {unit}{note}")
    print(f"  failed {s['failed']} of {s['attempted']}  errors {s['errors']}")
    print(f"  op input crossings {s['crossings_hist']}")
    if trace:
        layers = s["layers"]
        wall = layers["trace.wall_s"]
        print("  layer self time (traced pass)")
        for layer in LAYERS:
            t = layers[f"{layer}.self_s"]
            print(f"    {layer:<22} {t:10.4f} s  {100 * t / wall:5.1f} %")
        rest = layers["trace.unspanned_s"]
        print(f"    {'(outside any span)':<22} {rest:10.4f} s  {100 * rest / wall:5.1f} %")
        for name, value in layers.items():
            print(f"  {name:<40} {value:.6g}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": s["e2e"][m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": s["correct"], "attempted": s["attempted"],
            "failed": s["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="goeritz2 end-to-end benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "goeritz2" / "__init__.py").is_file():
        print(f"error: no goeritz2 package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = measure_setup(deadline)
        results = run_passes(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    s = summarize(args.workload, args.seed, setup, results)
    line = report(s, spec, args.trace)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({**s, "result": line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
