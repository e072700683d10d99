"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The package is used from its sources
under src/; nothing is built or installed.  Workloads, metric names and units
come from BENCHMARK.json.

The set-up time is measured in fresh interpreters (bench/worker.py setup),
after one untimed probe that fills the bytecode and file caches.  The work
itself runs in one more fresh worker process (bench/worker.py run) with BLAS
and OpenMP pinned to one thread.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Scratch files,
the span dump and the full result with its environment stamp are left under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(cmd, env, timeout):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=None, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} {cmd[2]} did not finish within {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} {cmd[2]} exited with code {proc.returncode}")
    return out.decode()


def setup_probes(args, env, scratch):
    """Median import and set-up seconds over fresh interpreters."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        out = run_child(
            [sys.executable, str(WORKER), "setup", "--workload", args.workload, "--seed", str(args.seed),
             "--scratch", str(scratch), "--t0", repr(t0)],
            env, PROBE_TIMEOUT_S,
        )
        if i:  # probe 0 is the untimed warm-up
            samples.append(json.loads(out.splitlines()[-1]))
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "probes": samples,
    }


def environment(root, args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: "1" for v in PINNED_THREADS},
    }


def bench(args):
    root = Path.cwd()
    if not (root / "src" / "tvdeblur" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {root / 'src' / 'tvdeblur'}; run from the root of a checkout")
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")

    scratch = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    env.update({v: "1" for v in PINNED_THREADS})

    stamp = environment(root, args)
    setup = setup_probes(args, env, scratch)
    out_file = scratch / "worker.json"
    run_child(
        [sys.executable, str(WORKER), "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", str(scratch),
         "--out", str(out_file)],
        # The worker may overrun --seconds by part of a unit, plus its set-up.
        env, 2 * args.seconds + 60,
    )
    worker = json.loads(out_file.read_text())
    if not worker["samples"]:
        raise BenchError(f"no unit of work succeeded: {worker['failures']}")
    if not Path(worker["tvdeblur_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"worker imported tvdeblur from {worker['tvdeblur_file']}, not from this checkout")

    if args.trace:
        produced = dict(worker["per_layer"], **{"cli.startup_s": setup["import_s"]})
        wanted = spec["per_layer"]
        # A layer function this workload never calls reads 0.
        metrics = {m["name"]: {"value": produced.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    else:
        produced = dict(worker["metrics"], setup_s=setup["setup_s"])
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in produced]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
        metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    (scratch / "result.json").write_text(json.dumps(
        {"environment": stamp, "setup": setup, "worker": worker, "result": result}, indent=1))

    print("environment " + json.dumps(stamp))
    for failure in worker["failures"]:
        print(f"failure: {failure}")
    print(f"samples = {worker['samples']}")
    print(f"fail_frac = {worker['failed'] / worker['attempted']:.6g} ({worker['failed']}/{worker['attempted']})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one tvdeblur benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
