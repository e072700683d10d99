"""Run the benchmark over several seeds and summarise it as one JSON file.

    python3 bench/baseline.py --out bench/baseline.json

For every workload in BENCHMARK.json it runs bench/run.py for seeds 0-9 with
--trace 0, and for seed 0 with --trace 1, one run at a time, each for
BENCHMARK.json's run_seconds.  It records for each
end-to-end metric the ten values with their median and quartiles, the spread
(interquartile range over the median) next to the metric's bound, and the
per-layer table of the traced run, with the environment stamp of the first
run.  Use it on the parent and on the change, on the same machine, to get the
before and after files a performance change commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = range(10)
TRACED_SEED = 0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.splitlines()[-1])
    detail = json.loads((Path(".bench_out") / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())
    return result, detail["environment"]


def summarise(values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    row = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        row["bound"] = bound
    return row


def main(argv=None):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Summarise the benchmark over several seeds.")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": list(SEEDS), "traced_seed": TRACED_SEED, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env = run_once(workload, seed, seconds, 0)
            report.setdefault("environment", env)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
        }
        traced, _ = run_once(workload, TRACED_SEED, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
