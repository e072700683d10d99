"""Experiment orchestration: degrade a ground truth, solve, score, export.

Reproduces the standard evaluation protocol at configurable scale: blur a
[0, 1] grey-scale image with a flux-preserving kernel, add seeded Gaussian
noise, run one of the two solvers, scoring every stage, then write the
SNR/objective trace as CSV, the best and final reconstructions (plus their
piecewise-constant/smooth splits) as 16-bit PGM, and a plain-text summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .decomposition import decompose, gradient_residual
from .errors import BadSpec
from .grid_ops import KernelSpec, make_kernel, validate_image
from .metrics import best_iterate
from .pgm import load_image, write_pgm
from .solvers import IterateTrace, SolverConfig, solve, stage_policy
from .spectral import apply_kernel, build_cache

# Identity of the noise generator, recorded in every summary: counter-based,
# so degraded images are bit-reproducible from (seed, sigma, shape) alone.
NOISE_GENERATOR = "numpy.random.Philox (philox4x64-10) standard_normal"

TRACE_HEADER = "stage_index,inner_iter,beta,snr_db,objective_tv,penalty_objective,constraint_residual,rel_change"

# Signed detail images (the piecewise-constant component is zero-mean) are
# exported around mid-grey so both signs survive the [0, 1] clamp.
U1_EXPORT_OFFSET = 0.5


@dataclass
class ExperimentConfig:
    """Everything a run needs; same config means bit-identical outputs.

    ``solver_cfg.mu`` may be "auto" here, and only here: ``run_experiment``
    replaces it by 0.05/sigma^2 before the solve.
    """

    input_path: str | Path
    output_dir: str | Path
    solver: str = "ftvd3"
    kernel: KernelSpec = KernelSpec.average(9)
    sigma: float = 0.01
    seed: int = 0
    save_intermediates: bool = False
    solver_cfg: SolverConfig = field(default_factory=lambda: SolverConfig(mu="auto"))


def degrade(u0: np.ndarray, kernel: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Blur with ``kernel`` (periodic true convolution) and add Gaussian noise.

    The blur goes through the spectral cache, the same operator K the
    solvers use, so ``u0`` must be a valid square image and the kernel
    square with an odd side no larger than the image (ValueError /
    BadSpec / KernelTooLarge otherwise).  The zero-mean noise of std
    ``sigma`` comes from the counter-based Philox generator keyed by
    ``seed``, so the same (u0, kernel, sigma, seed) gives the same bytes on
    every platform.  sigma = 0 returns exactly the blur.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    u0 = validate_image(u0)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise BadSpec(f"kernel must be square, got shape {kernel.shape}")
    if kernel.shape[0] % 2 == 0:
        raise BadSpec(f"kernel side must be odd, got {kernel.shape[0]}")
    f = apply_kernel(build_cache(kernel, u0.shape[0]), u0)
    if sigma == 0:
        return f
    gen = np.random.Generator(np.random.Philox(key=seed))
    return f + sigma * gen.standard_normal(u0.shape)


def _fmt(value) -> str:
    return repr(float(value))


def write_trace_csv(path, trace: IterateTrace) -> None:
    """One row per record, floats as shortest round-trip decimals."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(
            ",".join(
                [
                    str(r.stage_index),
                    str(r.inner_iter),
                    _fmt(r.beta),
                    "" if r.snr_db is None else _fmt(r.snr_db),
                    _fmt(r.objective_tv),
                    _fmt(r.penalty_objective),
                    _fmt(r.constraint_residual),
                    _fmt(r.rel_change),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class ExperimentSummary:
    solver: str
    converged: bool
    best_stage: int
    best_snr_db: float
    final_stage: int
    final_snr_db: float
    snr_gain_db: float
    trace: IterateTrace
    output_dir: Path
    trace_csv: Path
    summary_txt: Path


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run the full degrade/solve/score/export pipeline for one config.

    With ``save_intermediates``, each stage's ``iter_NNNN.pgm`` is written
    as soon as the stage is recorded, so a solve that fails part-way leaves
    the stages it finished.
    """
    u0 = validate_image(load_image(cfg.input_path))
    kernel = make_kernel(cfg.kernel)
    solver_cfg = cfg.solver_cfg
    if solver_cfg.mu == "auto":
        if not 0 < cfg.sigma < math.inf:
            raise ValueError(
                f"mu='auto' uses 0.05/sigma^2 and needs a finite sigma > 0, got {cfg.sigma}; pass mu explicitly"
            )
        solver_cfg = replace(solver_cfg, mu=0.05 / (cfg.sigma * cfg.sigma))
    stage_policy(cfg.solver, solver_cfg)  # rejects a bad config before any work or output
    f = degrade(u0, kernel, cfg.sigma, cfg.seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    on_record = None
    if cfg.save_intermediates:
        def on_record(rec):
            write_pgm(out / f"iter_{rec.stage_index:04}.pgm", rec.u)
    cache = build_cache(kernel, u0.shape[0])
    trace = solve(cfg.solver, f, cache, solver_cfg, ground_truth=u0, on_record=on_record)

    trace_csv = out / "trace.csv"
    write_trace_csv(trace_csv, trace)

    best = best_iterate(trace)
    final = len(trace.records) - 1
    best_rec, final_rec = trace.records[best], trace.records[final]
    write_pgm(out / "best.pgm", best_rec.u)
    write_pgm(out / "final.pgm", final_rec.u)

    residuals = {}
    for tag, rec in (("best", best_rec), ("final", final_rec)):
        u1, u2 = decompose(rec.u, rec.w, cache)
        residuals[tag] = gradient_residual(rec.w, u1)
        write_pgm(out / f"{tag}_u1.pgm", u1 + U1_EXPORT_OFFSET)
        write_pgm(out / f"{tag}_u2.pgm", u2)

    summary_txt = out / "summary.txt"
    lines = [
        f"solver: {cfg.solver}",
        f"input: {cfg.input_path}",
        f"image size: {u0.shape[0]}x{u0.shape[1]}",
        f"kernel: {cfg.kernel}",
        f"sigma: {cfg.sigma!r}",
        f"mu: {float(solver_cfg.mu)!r}",
        f"seed: {cfg.seed}",
        f"noise generator: {NOISE_GENERATOR}",
        f"tv variant: {solver_cfg.tv_variant}",
        f"tol: {solver_cfg.tol!r}",
        f"converged: {trace.converged}",
        f"stage records: {len(trace.records)}",
        f"best stage by snr: {best_rec.stage_index}",
        f"best snr (dB): {_fmt(best_rec.snr_db)}",
        f"final stage: {final_rec.stage_index}",
        f"final snr (dB): {_fmt(final_rec.snr_db)}",
        f"best minus final snr (dB): {_fmt(best_rec.snr_db - final_rec.snr_db)}",
        f"gradient residual |w - D u1| at best: {_fmt(residuals['best'])}",
        f"gradient residual |w - D u1| at final: {_fmt(residuals['final'])}",
        f"u1 images exported with +{U1_EXPORT_OFFSET} mid-grey offset",
    ]
    summary_txt.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return ExperimentSummary(
        solver=cfg.solver,
        converged=trace.converged,
        best_stage=best,
        best_snr_db=best_rec.snr_db,
        final_stage=final,
        final_snr_db=final_rec.snr_db,
        snr_gain_db=best_rec.snr_db - final_rec.snr_db,
        trace=trace,
        output_dir=out,
        trace_csv=trace_csv,
        summary_txt=summary_txt,
    )
