"""The package names that bench/ looks up, listed in one place.

The benchmark reaches these by name when it runs, so dropping or renaming
one would otherwise show only as a failed bench run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

# ROADMAP item 2 moves the bench to the current names (solve, records, snr_scorer) and removes the
# entries it no longer reads from this list in the same change.
BENCH_NAMES = {
    "tvdeblur": ("make_phantom", "make_kernel", "degrade", "snr_db", "write_pgm", "read_pgm"),
    "tvdeblur.solvers": (
        "ftvd3_solve",
        "ftvd4_solve",
        "SolverConfig",
        "IterateTrace.records",
        "IterateTrace.stage_records",
        *(f"IterateRecord.{field}" for field in (
            "stage_index", "inner_iter", "beta", "u", "w", "lam", "snr_db", "objective_tv",
            "penalty_objective", "constraint_residual", "rel_change",
        )),
    ),
    "tvdeblur.metrics": ("snr_db",),
    "tvdeblur.harness": ("degrade", "write_trace_csv"),
    "tvdeblur.pgm": ("write_pgm", "load_image"),
    "tvdeblur.spectral": ("build_cache",),
    "tvdeblur.decomposition": ("decompose", "gradient_residual"),
    "tvdeblur.cli": ("main",),
}


def _has(owner, name):
    """An attribute, or a field of a dataclass (a field without a default is no class attribute)."""
    return hasattr(owner, name) or (
        dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}
    )


def test_every_name_the_bench_looks_up_exists():
    missing = []
    for module_name, paths in BENCH_NAMES.items():
        for path in paths:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                if not _has(owner, part):
                    missing.append(f"{module_name}.{path}")
                    break
                owner = getattr(owner, part, None)
    assert not missing, f"bench/ looks up names the package no longer has: {missing}"


def test_cli_128_jobs_pass_the_bench_checks_at_seed_0(tmp_path, monkeypatch):
    # bench/worker.py's own checks: the seed-0 counts and SNRs in bench/reference.json, summary.txt against
    # trace.csv, and the shape of every PGM; each job's output directory is made and removed under tmp_path
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # so loading worker.py leaves no __pycache__ in bench/
    spec = importlib.util.spec_from_file_location("bench_worker", Path(__file__).parents[1] / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    load = worker.CliWorkload("cli-128", 0, tmp_path)
    for job in worker.CLI_JOBS:
        load.inprocess_job(job)
