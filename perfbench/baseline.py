"""Measure every workload on ten seeds and write a baseline file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload of BENCHMARK.json is run RUNS times through run.py, on
seeds FIRST_SEED, FIRST_SEED + 1, ..., then once traced on FIRST_SEED.
For every end-to-end metric the file holds the values, their median,
the quartiles that statistics.quantiles(values, n=4) gives and the
spread (q3 - q1) / median; for the traced run it holds every per-layer
metric.  It prints the spreads, so it doubles as the steadiness check
of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 1000


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"wrong answers:\n{proc.stdout}")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="where to write the baseline (default: print only)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=ROOT).stdout.strip()
    out = {
        "label": f"baseline of commit {commit or 'unknown'} with this benchmark, "
                 f"one run at a time",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": list(range(FIRST_SEED, FIRST_SEED + RUNS)),
        "end_to_end": {},
        "per_layer": {},
        "attempted_failed": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        counts = []
        for seed in out["seeds"]:
            start = time.perf_counter()
            result = run(workload, seed, seconds, 0)
            counts.append([result["attempted"], result["failed"]])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {v['value']:.4g}" for n, v in result["metrics"].items())
                + f" ({time.perf_counter() - start:.0f} s)", flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
            print(f"  {workload} {name}: median {median:.4g}  spread {(q3 - q1) / median:.3f}"
                  f"  (bound {bounds[name]})", flush=True)
        out["end_to_end"][workload] = summary
        out["attempted_failed"][workload] = counts
        traced = run(workload, FIRST_SEED, seconds, 1)
        out["per_layer"][workload] = {n: m["value"] for n, m in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
