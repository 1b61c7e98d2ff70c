#!/usr/bin/env python3
"""Record a benchmark baseline: run every workload on seeds 1-10 and write the
medians and quartiles of each metric, with `n`, operand bit sizes, host speed,
the wall figures, the Python version and the git commit, to a BENCH_*.json
file.

    python3 bench/record.py --label BENCH_1 --out bench/BENCH_1.json

Each seed is one untraced run; seed 1 also gets a traced run for the per-layer
metrics.  Run it from the root of a git checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = tuple(range(1, 11))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("run-info: "))[len("run-info: "):])
    return info, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent, capture_output=True, text=True,
                            check=True).stdout.strip()
    record = {
        "label": args.label,
        "commit": commit,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "note": args.note,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        _, traced = bench_run(workload, SEEDS[0], spec["run_seconds"], 1)
        metrics = {name: spread([out["metrics"][name]["value"] for _, out in runs])
                   for name in runs[0][1]["metrics"]}
        record["workloads"][workload] = {
            "attempted": [out["attempted"] for _, out in runs],
            "failed": [out["failed"] for _, out in runs],
            "refused": [i["refused"] for i, _ in runs],
            "correct": all(out["correct"] for _, out in runs),
            "n": [i["n"] for i, _ in runs],
            "operand_bits_max": [i["operand_bits_max"] for i, _ in runs],
            "host.calib_ms": [i["host.calib_ms"]["median"] for i, _ in runs],
            "wall": [i["wall"] for i, _ in runs],
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(workload, json.dumps({k: round(v["median"], 4) for k, v in metrics.items()}), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
