#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 --seconds 20 [--workload NAME ...] [--out FILE]

Runs `perfbench/run.py` once per seed and workload, one run at a time, and
reports for every metric the median and the interquartile range as a share
of the median (statistics.quantiles, n=4), next to the metric's bound in
BENCHMARK.json.  A spread above a third of its bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [
            run_once(workload, seed, args.seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"failed share={shares} attempted={[r['attempted'] for r in runs]}")
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median, iqr = spread(values)
            bound = bounds.get(metric)
            flag = " <-- above bound/3" if bound and iqr > bound / 3 else ""
            print(f"  {metric:<36} median {median:<12.6g} IQR/median {iqr:.4f}"
                  f"{'' if bound is None else f'  (bound {bound})'}{flag}")
            summary[metric] = {"median": median, "iqr_share": iqr, "values": values}
        report[workload] = {"failed_shares": shares, "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
