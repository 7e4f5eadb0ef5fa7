"""Repeat the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 bench/baseline.py            # print the summary
    python3 bench/baseline.py --write    # also record bench/baseline.json

Each workload of BENCHMARK.json runs once per seed 1..RUNS with tracing off,
then once per seed 1..TRACED with tracing on.  For every metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the spread,
the distance between the quartiles as a share of the median.  It marks every
end-to-end spread above a third of the metric's bound in BENCHMARK.json, and
every one above the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
TRACED = 3


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} reported failures:\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        e2e = [run_once(workload, seed, 0) for seed in range(1, RUNS + 1)]
        traced = [run_once(workload, seed, 1) for seed in range(1, TRACED + 1)]
        out[workload] = {"end_to_end": {}, "per_layer": {}}
        for kind, results in (("end_to_end", e2e), ("per_layer", traced)):
            for name, entry in (results[0]["metrics"] if results else {}).items():
                s = summarise([r["metrics"][name]["value"] for r in results])
                s["unit"] = entry["unit"]
                out[workload][kind][name] = s
        print(f"{workload}:")
        for name, s in out[workload]["end_to_end"].items():
            bound = bounds[name]
            flag = ("" if s["spread"] <= bound / 3
                    else "  ABOVE BOUND/3" if s["spread"] <= bound else "  ABOVE BOUND")
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.2%} (bound {bound:.0%}){flag}", flush=True)

    if args.write:
        doc = {
            "how": "python3 bench/baseline.py --write",
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform(), "machine": platform.machine()},
            "run_seconds": SPEC["run_seconds"],
            "seeds": f"1..{RUNS} untraced, 1..{TRACED} traced",
            "workloads": out,
        }
        path = ROOT / "bench" / "baseline.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
