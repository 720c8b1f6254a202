"""Run the benchmark over ten seeds and summarise each metric.

    python3 perfbench/sweep.py --out perfbench/results/NAME.json

Run from the root of a checkout.  For every workload it runs run.py with
tracing off at seeds 1 to 10 and --seconds from BENCHMARK.json, then one
traced run at seed 1.  For each end-to-end metric it reports the median,
the first and third quartiles of statistics.quantiles(values, n=4) and the
spread (q3 - q1) / median, next to a third of the bound that
BENCHMARK.json fixes; a wider spread is flagged WIDE.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
SEEDS = list(range(1, 11))
TRACED_SEED = 1


def run(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarise(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"python": platform.python_version(), "seconds": SECONDS,
              "seeds": SEEDS, "per_layer_seed": TRACED_SEED, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, 0))
            all_correct &= runs[-1]["correct"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name in bounds:
            entry["end_to_end"][name] = summarise(
                [r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name]["unit"] = runs[0]["metrics"][name]["unit"]
        traced = run(workload, TRACED_SEED, 1)
        all_correct &= traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry

    print(f"\n{'workload':<16}{'metric':<13}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound/3':>9}")
    for workload, entry in report["workloads"].items():
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{workload:<16}{name:<13}{s['median']:>11.5g}{s['q1']:>11.5g}"
                  f"{s['q3']:>11.5g}{s['spread']:>9.4f}{bounds[name] / 3:>9.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
