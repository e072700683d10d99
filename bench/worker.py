"""Benchmark worker: one workload in one fresh process.

    python3 bench/worker.py setup --workload W --seed S --t0 T --scratch DIR
    python3 bench/worker.py run --workload W --seed S --seconds R --trace 0|1 --scratch DIR --out FILE

``setup`` is the set-up probe: it times, from the parent's clock reading T
(``time.monotonic`` of the parent, taken just before the spawn), how long a
fresh interpreter takes to import tvdeblur and to have the workload's inputs
ready, and prints both as JSON.

``run`` runs units of work in a closed loop, one at a time, until R seconds
have passed, checks every unit, and writes its figures as JSON to FILE.  With
``--trace 1`` it alternates untraced and traced units and reports per-layer
figures from the traced ones instead of end-to-end ones.

Both expect ``src`` on PYTHONPATH and run from the checkout root; bench/run.py
sets that up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

# numpy and tvdeblur are imported inside functions, so that the set-up probe's
# clock covers their first import.

SIGMA = 0.01
MU = 0.05 / SIGMA**2
SOLVE_KERNEL = "average:9"
WORKLOADS = {
    "ftvd3-512": ("ftvd3", 512),
    "ftvd4-512": ("ftvd4", 512),
    "cli-128": ("cli", 128),
}
# One cli-128 cycle: both solvers x both TV variants x both kernel families.
CLI_JOBS = [
    (solver, tv, kernel)
    for solver in ("ftvd3", "ftvd4")
    for tv in ("iso", "aniso")
    for kernel in ("average:9", "gaussian:7:1.5")
]
# The solver defaults every workload runs with (SolverConfig and the CLI agree).
MAX_INNER_ITERS = 100
MAX_MULTIPLIER_UPDATES = 100
CLI_JOB_TIMEOUT_S = 60.0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
SNR_REFERENCE_TOL_DB = 1e-6


class CheckFailed(Exception):
    """A unit's outputs are wrong, non-finite, or not reproducible."""


def _check(condition, message):
    if not condition:
        raise CheckFailed(message)


def run_summary(solver, rows):
    """Iteration counts and scores of one solve from its stage rows.

    ``rows`` holds (stage_index, inner_iter, snr_db, rel_change) per stage
    record, as in trace.csv.  A stage (ftvd3) or a solve (ftvd4) counts as
    capped when it used every iteration its cap allowed.
    """
    _check(rows, "solve produced no stage records")
    _check(
        all(math.isfinite(v) for row in rows for v in row[1:]),
        "non-finite score in the trace",
    )
    snrs = [row[2] for row in rows]
    best = snrs.index(max(snrs))
    if solver == "ftvd3":
        iterations = sum(row[1] for row in rows)
        capped, items = sum(row[1] >= MAX_INNER_ITERS for row in rows), len(rows)
    else:
        iterations = len(rows)
        capped, items = int(len(rows) >= MAX_MULTIPLIER_UPDATES), 1
    return {
        "iterations": iterations,
        "records": len(rows),
        "capped": capped,
        "capped_items": items,
        "best_stage": rows[best][0],
        "snr_best_db": snrs[best],
        "snr_final_db": snrs[-1],
    }


def retained_mb(trace):
    """Megabytes the trace's record arrays keep alive, each buffer counted once."""
    import numpy as np

    roots = {}
    for rec in trace.records:
        for arr in (rec.u, rec.w, rec.lam):
            if arr is None:
                continue
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            roots[id(arr)] = arr.nbytes
    return sum(roots.values()) / 1e6


def check_reference(workload, seed, key, summary):
    """At the reference seed, counts must match exactly and SNRs to 1e-6 dB."""
    reference = json.loads(REFERENCE_FILE.read_text())
    if seed != reference["seed"]:
        return
    expected = reference["workloads"][workload]
    if key is not None:
        expected = expected[key]
    for name, value in expected.items():
        got = summary[name]
        if isinstance(value, float):
            ok = abs(got - value) <= SNR_REFERENCE_TOL_DB
        else:
            ok = got == value
        _check(ok, f"{name} = {got!r}, reference {value!r} at seed {seed}")


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------- set-up probe


def setup_probe(args):
    import tvdeblur

    import_done = time.monotonic()
    solver, n = WORKLOADS[args.workload]
    if solver == "cli":
        tvdeblur.write_pgm(Path(args.scratch) / "probe_input.pgm", tvdeblur.make_phantom(n))
    else:
        u0 = tvdeblur.make_phantom(n)
        kernel = tvdeblur.make_kernel(SOLVE_KERNEL)
        tvdeblur.degrade(u0, kernel, SIGMA, args.seed)
    ready = time.monotonic()
    print(json.dumps({"import_s": import_done - args.t0, "setup_s": ready - args.t0}))


# ------------------------------------------------------------- solve workloads


class SolveWorkload:
    """Units of ftvd3_solve / ftvd4_solve at n x n on the phantom."""

    def __init__(self, workload, seed, scratch):
        import tvdeblur
        from tvdeblur import harness, metrics

        self.workload, self.seed, self.scratch = workload, seed, Path(scratch)
        self.solver, self.n = WORKLOADS[workload]
        self.u0 = tvdeblur.make_phantom(self.n)
        self.kernel = tvdeblur.make_kernel(SOLVE_KERNEL)
        self.f = harness.degrade(self.u0, self.kernel, SIGMA, seed)
        self.observed_snr = metrics.snr_db(self.f, self.u0)
        self.first = None

    def unit(self):
        """One solve, timed alone, with the harness steps around it checked.

        Every name is looked up at call time through its module, so a traced
        unit goes through the tracer's wrappers.
        """
        import numpy as np
        from tvdeblur import decomposition, harness, pgm, solvers, spectral

        f = harness.degrade(self.u0, self.kernel, SIGMA, self.seed)
        _check(np.array_equal(f, self.f), "degrade is not reproducible")
        solve = getattr(solvers, f"{self.solver}_solve")
        cfg = solvers.SolverConfig(mu=MU)
        t0 = time.perf_counter()
        trace = solve(f, self.kernel, cfg, ground_truth=self.u0)
        wall = time.perf_counter() - t0

        records = trace.stage_records
        rows = [(r.stage_index, r.inner_iter, r.snr_db, r.rel_change) for r in records]
        summary = run_summary(self.solver, rows)
        _check(summary["snr_best_db"] > self.observed_snr, "best iterate is no better than the observation")
        scalars = [
            (r.stage_index, r.inner_iter, r.beta, r.snr_db, r.objective_tv,
             r.penalty_objective, r.constraint_residual, r.rel_change)
            for r in trace.records
        ]
        csv_path = self.scratch / "trace.csv"
        harness.write_trace_csv(csv_path, trace)
        csv_bytes = csv_path.read_bytes()
        if self.first is None:
            check_reference(self.workload, self.seed, None, summary)
            self.first = (scalars, csv_bytes)
        _check(scalars == self.first[0], "record scalars differ between repeated solves")
        _check(csv_bytes == self.first[1], "trace.csv bytes differ between repeated solves")

        best = records[summary["best_stage"]]
        pgm_path = self.scratch / "best.pgm"
        pgm.write_pgm(pgm_path, best.u)
        expected = np.rint(np.clip(best.u, 0.0, 1.0) * 65535) / 65535
        _check(np.array_equal(pgm.load_image(pgm_path), expected), "best.pgm does not round-trip")
        cache = spectral.build_cache(self.kernel, self.n)
        u1, u2 = decomposition.decompose(best.u, best.w, cache)
        _check(np.abs(u1 + u2 - best.u).max() <= 1e-12, "u1 + u2 does not reproduce u")
        _check(math.isfinite(decomposition.gradient_residual(best.w, u1)), "non-finite gradient residual")
        return {"wall_s": wall, **summary}

    def end_to_end(self, units):
        n2 = self.n * self.n
        walls = [u["wall_s"] for u in units]
        first = units[0]
        return {
            "wall_s": statistics.median(walls),
            "mpix_iters_per_s": sum(u["iterations"] for u in units) * n2 / sum(walls) / 1e6,
            "peak_rss_mb": peak_rss_mb(),
            "snr_best_db": first["snr_best_db"],
            "snr_final_db": first["snr_final_db"],
        }


# --------------------------------------------------------------- CLI workload


class CliWorkload:
    """Cycles of `tvdeblur deblur --save-intermediates` jobs on a phantom PGM."""

    def __init__(self, workload, seed, scratch):
        import tvdeblur

        self.workload, self.seed, self.scratch = workload, seed, Path(scratch)
        _, self.n = WORKLOADS[workload]
        self.input = self.scratch / "input.pgm"
        self.u0 = tvdeblur.make_phantom(self.n)
        tvdeblur.write_pgm(self.input, self.u0)
        self.observed_snr = {}
        for _, _, kernel in CLI_JOBS:
            f = tvdeblur.degrade(self.u0, tvdeblur.make_kernel(kernel), SIGMA, seed)
            self.observed_snr[kernel] = tvdeblur.snr_db(f, self.u0)
        self.first_csv = {}
        self.jobs_done = 0

    def argv(self, job, out_dir):
        solver, tv, kernel = job
        return [
            "deblur", "--input-path", str(self.input), "--output-dir", str(out_dir),
            "--solver", solver, "--tv-variant", tv, "--kernel", kernel,
            "--sigma", repr(SIGMA), "--seed", str(self.seed), "--save-intermediates",
        ]

    def _out_dir(self):
        self.jobs_done += 1
        return self.scratch / f"job{self.jobs_done:05d}"

    def fresh_job(self, job):
        """Run one job in a fresh interpreter; wall time includes process start."""
        import subprocess
        import threading

        out_dir = self._out_dir()
        out_dir.mkdir()
        cmd = [sys.executable, "-m", "tvdeblur.cli"] + self.argv(job, out_dir)
        with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            killer = threading.Timer(CLI_JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _check(proc.returncode == 0, f"{' '.join(job)} exited {proc.returncode}: "
               + (out_dir / "stderr.txt").read_text(errors="replace")[-500:])
        summary = self.check_outputs(job, out_dir)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6, **summary}

    def inprocess_job(self, job):
        """Run one job through tvdeblur.cli.main in this process."""
        import contextlib
        import io

        from tvdeblur import cli

        out_dir = self._out_dir()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(job, out_dir))
        _check(code == 0, f"{' '.join(job)} returned {code}")
        return self.check_outputs(job, out_dir)

    def check_outputs(self, job, out_dir):
        import shutil

        import tvdeblur

        solver, _, kernel = job
        csv_bytes = (out_dir / "trace.csv").read_bytes()
        lines = csv_bytes.decode().splitlines()
        header = lines[0].split(",")
        cols = [header.index(c) for c in ("stage_index", "inner_iter", "snr_db", "rel_change")]
        rows = []
        for line in lines[1:]:
            fields = line.split(",")
            stage, inner, snr, rc = (fields[c] for c in cols)
            rows.append((int(stage), int(inner), float(snr), float(rc)))
        summary = run_summary(solver, rows)
        _check(summary["snr_best_db"] > self.observed_snr[kernel], "best iterate is no better than the observation")
        key = "/".join(job)
        if key not in self.first_csv:
            check_reference(self.workload, self.seed, key, summary)
            self.first_csv[key] = csv_bytes
        _check(csv_bytes == self.first_csv[key], f"{key}: trace.csv bytes differ between repeated jobs")
        text = (out_dir / "summary.txt").read_text()
        _check(f"best snr (dB): {summary['snr_best_db']!r}\n" in text, f"{key}: summary.txt disagrees with trace.csv")
        images = ["best", "final", "best_u1", "best_u2", "final_u1", "final_u2"]
        images += [f"iter_{row[0]:04}" for row in rows]
        for name in images:
            img = tvdeblur.read_pgm(out_dir / f"{name}.pgm")
            _check(img.shape == (self.n, self.n), f"{key}: {name}.pgm has shape {img.shape}")
        shutil.rmtree(out_dir)
        return {"job": key, **summary}

    def end_to_end(self, jobs):
        walls = [j["wall_s"] for j in jobs]
        configs = {j["job"]: j for j in jobs}.values()  # repeats are bit-identical
        return {
            "wall_s": statistics.median(walls),
            "mpix_iters_per_s": sum(j["iterations"] for j in jobs) * self.n**2 / sum(walls) / 1e6,
            "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
            "snr_best_db": statistics.fmean(j["snr_best_db"] for j in configs),
            "snr_final_db": statistics.fmean(j["snr_final_db"] for j in configs),
        }


# ------------------------------------------------------------------- the loop


def _attempt(fn, *args, failures):
    try:
        return fn(*args)
    except Exception as exc:  # a unit that crashes counts as failed, the run goes on
        failures.append(f"{type(exc).__name__}: {exc}")
        print(f"bench worker: unit failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def _time_left(start, seconds, steps):
    """Whether to start another step: yes while the run ends nearer to
    ``seconds`` with it than without it, judged by the median step so far."""
    return not steps or time.perf_counter() - start + statistics.median(steps) / 2 < seconds


def run_untraced(args):
    solver, _ = WORKLOADS[args.workload]
    load = (CliWorkload if solver == "cli" else SolveWorkload)(args.workload, args.seed, args.scratch)
    failures, units, steps = [], [], []
    start = time.perf_counter()
    while _time_left(start, args.seconds, steps):
        t0 = time.perf_counter()
        if solver == "cli":  # whole cycles, so every run weighs the jobs alike
            units += [_attempt(load.fresh_job, job, failures=failures) for job in CLI_JOBS]
        else:
            units.append(_attempt(load.unit, failures=failures))
        steps.append(time.perf_counter() - t0)
    done = [u for u in units if u is not None]
    return {
        "attempted": len(units),
        "failed": len(failures),
        "failures": failures[:10],
        "samples": len(done),
        "units": done,
        "metrics": load.end_to_end(done) if done else {},
    }


def run_traced(args):
    from tracer import Tracer, span_table

    solver, _ = WORKLOADS[args.workload]
    retained = []
    tracer = Tracer(on_solve=lambda trace: retained.append(retained_mb(trace)))
    failures = []
    if solver == "cli":
        load = CliWorkload(args.workload, args.seed, args.scratch)

        def step():
            t0 = time.perf_counter()
            out = [_attempt(load.inprocess_job, job, failures=failures) for job in CLI_JOBS]
            return time.perf_counter() - t0, out
    else:
        load = SolveWorkload(args.workload, args.seed, args.scratch)

        def step():
            out = _attempt(load.unit, failures=failures)
            return (out or {}).get("wall_s"), [out]

    # Alternate untraced and traced steps, so both see the same machine state.
    walls = {False: [], True: []}
    summaries, steps = [], []
    attempted = 0
    start = time.perf_counter()
    traced = False
    while _time_left(start, args.seconds, steps) or not (walls[False] and walls[True]):
        t0 = time.perf_counter()
        kept_spans, kept_retained = len(tracer.spans), len(retained)
        if traced:
            tracer.install()
        try:
            wall, outs = step()
        finally:
            tracer.uninstall()
        steps.append(time.perf_counter() - t0)
        attempted += len(outs)
        if None in outs:
            # Per-unit figures count kept steps only, so drop this step's spans.
            del tracer.spans[kept_spans:], retained[kept_retained:]
            if not walls[traced]:
                break  # this kind of step has never succeeded; it will not now
        else:
            walls[traced].append(wall)
            if traced:
                summaries += outs
        traced = not traced

    spans = tracer.spans
    (Path(args.scratch) / "spans.json").write_text(json.dumps(
        {"fields": ["id", "name", "parent", "start", "end", "bytes"], "spans": spans}))
    per_layer = {}
    if summaries and walls[False]:
        per_layer = layer_metrics(span_table(spans), summaries, retained)
        per_layer["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "samples": len(summaries),
        "per_layer": per_layer,
    }


def layer_metrics(table, summaries, retained):
    """Per unit of work: calls, self seconds, computed bytes; per call: ms."""
    units = len(summaries)
    fft = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}
    for name, row in table.items():
        if name.startswith("fft."):
            for k in fft:
                fft[k] += row[k]
    rows = {**table, "fft": fft}
    out = {}
    for name, row in rows.items():
        if name.startswith("fft.") or not row["calls"]:
            continue
        out[f"{name}.calls"] = row["calls"] / units
        out[f"{name}.self_s"] = row["self_s"] / units
        out[f"{name}.ms_per_call"] = row["total_s"] / row["calls"] * 1e3
        out[f"{name}.bytes_computed"] = row["bytes"] / units
    solve_names = ("solvers.ftvd3_solve", "solvers.ftvd4_solve")
    loop_names = solve_names + ("solvers.penalty_inner_loop",)
    solve_s = sum(table[n]["total_s"] for n in solve_names if n in table)
    out["solvers.loop.self_s"] = sum(table[n]["self_s"] for n in loop_names if n in table) / units
    scoring_s = table.get("solvers._make_record", {"total_s": 0.0})["total_s"]
    out["solvers.scoring_share"] = scoring_s / solve_s if solve_s else 0.0
    out["solvers.iterations"] = statistics.fmean(s["iterations"] for s in summaries)
    out["solvers.records"] = statistics.fmean(s["records"] for s in summaries)
    out["solvers.capped_frac"] = sum(s["capped"] for s in summaries) / sum(s["capped_items"] for s in summaries)
    out["solvers.trace_retained_mb"] = statistics.fmean(retained) if retained else 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_probe(args)
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    import tvdeblur

    result["tvdeblur_file"] = tvdeblur.__file__
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
