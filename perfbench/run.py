"""Benchmark of binarycubics: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload {verify,chars,decompose,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is not installed, every
pass runs `PYTHONPATH=src` in a fresh single-threaded interpreter
(perfbench/worker.py), one after another.  Workloads:

- verify: `binarycubics --format json --seed 0 verify --suite all`
  in-process, what a user runs; it exercises every layer.  The program
  seed stays at the CLI default 0 on every run: the tame suite's cost
  varies 1.8x between program seeds, so runs at different program
  seeds would not be comparable.  The output must be byte-identical to
  the recorded seed-commit output.
- chars: tables of all 19 characters on the box -30 <= l2 <= l1 <= 30,
  then seeded multiplicity queries with gaps l1 - l2 up to 600; only the
  character layers run.  Queries raising NoStabilization (a known
  defect of the sampled localization) are failed operations.
- decompose: decompose_certified on R_n(lam) + R_n(mu) (d4hat, n = 2..4)
  and embed_alpha(R_n(lam)) + embed_beta(R_n(mu)) (big_component,
  n = 1, 2), and hom_basis of End(embed_alpha(R_8(lam))); a few large
  exact systems, characters idle.

With --trace 0 a run makes --seconds // PASS_S[workload] passes (at
least one), a number fixed by the arguments, so that the same --seed
and --seconds always do the same operations whatever the machine's
speed; the end-to-end metrics are medians over passes: setup_s (import and
named-quiver build, also sampled in set-up-only processes), wall_s and
peak_rss_mb.  setup_s and wall_s are timed against a probe computation
run alongside (worker.SpeedProbe) and given in seconds at a fixed
reference speed, because the speed of a shared machine drifts too much
for plain clock times to be compared between runs; the plain times
are printed too.  With --trace 1 one traced pass runs between two
untraced ones, all on the same inputs; the per-layer metrics come from
the traced pass (layertrace.py) and trace.overhead_s is its wall time
minus the untraced median.  Human-readable lines come first; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "chars", "decompose")
#: plain seconds of one pass with its set-up-only processes, about what
#: a 2-vCPU x86-64 VM takes when slow; a run makes seconds // PASS_S passes
PASS_S = {"verify": 14.0, "chars": 8.5, "decompose": 18.0}
#: set-up-only processes run before each pass; their set-up times and
#: those of the passes give the median setup_s
SETUP_SAMPLES_PER_PASS = 3
#: a run still going this many seconds after --seconds is stopped as hung
OVERRUN_LIMIT_S = 130


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # load bytecode as an installed package does, rather than compiling
    # the sources in every fresh process
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index),
           "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {pass_index} still running at the run's "
                         f"deadline (--seconds + {OVERRUN_LIMIT_S} s); stopped") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {pass_index} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def phase_metrics(workload: str, passes: list[dict]) -> dict[str, float]:
    """Workload-specific figures, medians over passes (chars queries pooled)."""
    out = {}
    for key in passes[0]["phases"]:
        out[f"{workload}.{key}"] = statistics.median(p["phases"][key] for p in passes)
    if workload == "verify":
        out["verify.inconclusive"] = statistics.median(p["inconclusive"] for p in passes)
    if workload == "chars":
        latencies = [t for p in passes for t in p["latencies_s"]]
        out["chars.mult_qps"] = len(latencies) / sum(latencies)
        out["chars.mult_tail_pct"], tail = tail_latency(latencies)
        out["chars.mult_tail_ms"] = tail * 1000
        out["chars.mult_queries"] = len(latencies)
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    limit = start + seconds + OVERRUN_LIMIT_S
    passes, setups, traced = [], [], None
    if trace:
        # untraced passes on both sides of the traced one, on the same inputs
        passes.append(run_pass(workload, seed, 0, False, limit))
        traced = run_pass(workload, seed, 0, True, limit)
        passes.append(run_pass(workload, seed, 0, False, limit))
    else:
        for index in range(max(1, int(seconds // PASS_S[workload]))):
            setups += [run_pass("setup", seed, 0, False, limit)
                       for _ in range(SETUP_SAMPLES_PER_PASS)]
            passes.append(run_pass(workload, seed, index, False, limit))
    done = passes + ([traced] if traced else [])
    wrong = [w for p in done for w in p["wrong"]]
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    figures = {
        "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "fail_ratio": failed / attempted,
        **phase_metrics(workload, passes),
    }
    result = {"pass_wall_s": [p["wall_s"] for p in passes],
              "pass_clock_s": [p["clock_s"] for p in passes], "wrong": wrong,
              "attempted": attempted, "failed": failed, "figures": figures,
              "elapsed_s": time.perf_counter() - start}
    if traced:
        overhead = traced["wall_s"] + traced["install_s"] - figures["wall_s"]
        if passes[0]["imports_sympy"]:
            overhead += traced["sympy_import_s"]
        result["layers"] = {**traced["trace"], "trace.wall_s": traced["wall_s"],
                            "trace.overhead_s": overhead}
    return result


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(workload: str, seed: int, result: dict, trace: bool) -> dict:
    figures = result["figures"]
    print(f"workload {workload}  seed {seed}  passes {len(result['pass_wall_s'])}  "
          f"elapsed {result['elapsed_s']:.1f} s")
    print("  pass wall_s " + " ".join(f"{t:.3f}" for t in result["pass_wall_s"]))
    print("  plain clock " + " ".join(f"{t:.3f}" for t in result["pass_clock_s"]))
    units = {"_s": "s", "_ms": "ms", "_mb": "MB", "_qps": "1/s", "ratio": "ratio"}
    for name, value in figures.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "")
        print(f"  {name:28s} {value:12.6g} {unit}")
    if workload == "chars":
        print(f"  (mult_tail_ms is p{figures['chars.mult_tail_pct']:g} of "
              f"{figures['chars.mult_queries']:.0f} queries)")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"wrong answers {len(result['wrong'])}")
    for line in result["wrong"][:20]:
        print(f"  WRONG: {line}")
    for name, value in result.get("layers", {}).items():
        print(f"  {name:52s} {value:12.6g}")
    values = {**figures, **result.get("layers", {})}
    metrics = {}
    for spec in metric_specs(trace):
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.split(".")[0] in WORKLOADS:
            value = 0  # a figure of another workload
        else:
            raise BenchError(f"metric {name} named in BENCHMARK.json is not measured")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return {"correct": not result["wrong"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "binarycubics" / "__init__.py").is_file():
        print(f"error: no binarycubics sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        lines = [report(w, args.seed, measure(w, args.seed, args.seconds, trace), trace)
                 for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
