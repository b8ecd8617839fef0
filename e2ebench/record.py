"""Record one point of the benchmark trajectory.

Runs `run.py` on every workload, untraced once per seed and traced once (on
the first seed), and writes `e2ebench/trajectory/BENCH_<label>.json` with
each run's result line, its environment, failure breakdown and crossing-count
histogram, and the traced per-layer split.  It prints, per workload and
end-to-end metric, the median over the seeds and the quartile spread
(third minus first quartile, over the median).

    python3 e2ebench/record.py --label 1 --commit 3c1ebaf --seeds 1 2 3 4 5 6 7 8 9 10
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.monotonic() - t0
    out = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return {**json.loads(out.read_text()), "elapsed_s": elapsed}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--commit", default="")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    point = {"label": args.label, "commit": args.commit, "run_seconds": seconds,
             "machine": {"platform": platform.platform(), "python": platform.python_version()},
             "workloads": {}}
    for w in workloads:
        untraced = [run(w, seed, seconds, 0) for seed in args.seeds]
        traced = run(w, args.seeds[0], seconds, 1)
        point["workloads"][w] = {"untraced": untraced, "traced": traced}
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in untraced]
            sp = spread(vals) if len(vals) > 1 else float("nan")
            print(f"{w:<14} {m['name']:<12} median {statistics.median(vals):10.5g} "
                  f"{m['unit']:<3} spread {sp:6.3f}  bound {m['bound']}")
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
