"""Run the benchmark on every workload and report each end-to-end metric.

Run from the root of a source checkout:

    python3 perfbench/steady.py [--runs N] [--first-seed S]

The workloads and the seconds per run come from BENCHMARK.json.  Round r
runs every workload once, in turn, with seed S + r, so that a drift in
machine speed hits all workloads alike.  For each workload and metric it
prints the median, the quartiles, the number of runs, and the spread
(quartile distance over the median) beside the metric's bound.
``wall_s`` before rescaling to the reference speed (see ``run.py``) gets
rows of its own, marked ``unscaled``.  ``ops_failed_share`` is failed over
attempted operations, summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
UNSCALED = "unscaled "  # prefix of run.py's line of unscaled times


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="steadiness of the end-to-end metrics")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {name: [] for name in names}
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    for r in range(args.runs):
        for name in names:
            seed = args.first_seed + r
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            results[name].append(result)
            row = {metric: v["value"] for metric, v in result["metrics"].items()}
            for line in lines:
                if line.startswith(UNSCALED):
                    for metric, value in json.loads(line[len(UNSCALED):]).items():
                        row[f"{metric} unscaled"] = value
            for metric, value in row.items():
                values[name].setdefault(metric, []).append(value)
            shown = " ".join(f"{k}={v:.4f}" for k, v in row.items())
            print(f"round {r} {name:9s} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}",
                  flush=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"\n{'workload':9s} {'metric':20s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'runs':>4s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        for metric, series in values[name].items():
            base = metric.split()[0]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            print(f"{name:9s} {metric:20s} {units[base]:5s} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{len(series):4d} {(q3 - q1) / median:7.3f} {bounds[base]:6.2f}")
        attempted = sum(r["attempted"] for r in results[name])
        failed = sum(r["failed"] for r in results[name])
        print(f"{name:9s} {'ops_failed_share':26s} {failed / attempted:10.4f}   ({failed} of {attempted})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
