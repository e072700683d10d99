"""Experiment orchestration: degrade a ground truth, solve, score, export.

Reproduces the standard evaluation protocol at configurable scale: blur a
[0, 1] grey-scale image with a flux-preserving kernel, add seeded Gaussian
noise, run one of the two solvers, scoring every stage, then write the
SNR/objective trace as CSV, the best and final reconstructions (plus their
piecewise-constant/smooth splits) as 16-bit PGM, and a plain-text summary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .decomposition import decompose, gradient_residual
from .grid_ops import KernelSpec, check_kernel_side, make_kernel, validate_image
from .metrics import best_iterate
from .pgm import load_image, write_pgm
from .solvers import IterateTrace, SolverConfig, solve
from .spectral import SINGULAR_FLOOR, apply_kernel, build_cache

# Identity of the noise generator, recorded in every summary: counter-based,
# so degraded images are bit-reproducible from (seed, sigma, shape) alone.
NOISE_GENERATOR = "numpy.random.Philox (philox4x64-10) standard_normal"

# trace.csv columns after stage_index and inner_iter; snr_db is empty when no ground truth was given
TRACE_FLOAT_COLUMNS = ("beta", "snr_db", "objective_tv", "penalty_objective", "constraint_residual", "rel_change")
TRACE_HEADER = ",".join(("stage_index", "inner_iter") + TRACE_FLOAT_COLUMNS)

# Signed detail images (the piecewise-constant component is zero-mean) are
# exported around mid-grey so both signs survive the [0, 1] clamp.
U1_EXPORT_OFFSET = 0.5


@dataclass(kw_only=True)
class ExperimentConfig(SolverConfig):
    """Everything a run needs; same config means bit-identical outputs.

    The solver knobs are the inherited fields, but ``mu`` defaults to "auto",
    which ``run_experiment`` replaces by 0.05/sigma^2 before the solve.
    """

    input_path: str | Path
    output_dir: str | Path
    solver: str = "ftvd3"
    kernel: KernelSpec = KernelSpec("average", 9)
    sigma: float = 0.01
    seed: int = 0
    save_intermediates: bool = False
    mu: float | str = "auto"


def degrade(u0: np.ndarray, kernel: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Blur with ``kernel`` (periodic true convolution) and add Gaussian noise.

    The blur goes through the spectral cache, the same operator K the
    solvers use, so ``u0`` must be a valid square image (ValueError) and
    the kernel must pass ``build_cache`` (ValueError otherwise).  The
    zero-mean noise of std ``sigma`` comes from the counter-based Philox
    generator keyed by ``seed``, so the same (u0, kernel, sigma, seed)
    gives the same bytes on every platform; ``sigma`` must be a finite
    nonnegative real number and ``seed`` an integer in [0, 2**128)
    (ValueError).  sigma = 0 returns exactly the blur.
    """
    if not isinstance(sigma, numbers.Real) or not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a finite nonnegative real number, got {sigma!r}")
    if not isinstance(seed, numbers.Integral):  # Philox would truncate 1.5 to the key 1
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**128:  # the range of a Philox key
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    u0 = validate_image(u0)
    f = apply_kernel(build_cache(kernel, u0.shape[0]), u0)
    if sigma == 0:
        return f
    gen = np.random.Generator(np.random.Philox(key=seed))
    return f + sigma * gen.standard_normal(u0.shape)


def observe(input_path, spec: KernelSpec, sigma: float, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load a ground truth and ``degrade`` it: ``(u0, taps, f)``, the one path from a spec and an image.

    The spec's side is checked against the image before its taps exist, so an oversized spec costs no memory.
    """
    if not isinstance(spec, KernelSpec):
        raise ValueError(f"kernel must be a KernelSpec, got {spec!r}")
    u0 = validate_image(load_image(input_path))
    check_kernel_side(spec.size, u0.shape[0])
    taps = make_kernel(spec)
    return u0, taps, degrade(u0, taps, sigma, seed)


def _fmt(value) -> str:
    return repr(float(value))


def write_trace_csv(path, trace: IterateTrace) -> None:
    """One row per record, floats as shortest round-trip decimals."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        values = (getattr(r, name) for name in TRACE_FLOAT_COLUMNS)
        cells = ["" if v is None else _fmt(v) for v in values]
        lines.append(",".join([str(r.stage_index), str(r.inner_iter), *cells]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(cfg: ExperimentConfig) -> IterateTrace:
    """Run the full degrade/solve/score/export pipeline for one config.

    Writes trace.csv, summary.txt and the best/final images to
    ``cfg.output_dir`` and returns the solve's trace; its best record is
    ``best_iterate(trace)`` and its final one ``trace.records[-1]``.
    The directory is made when the first stage is recorded, so a run
    rejected before that (a bad config or ground truth, a singular system,
    divergence in stage 0) leaves none.  With ``save_intermediates``, each
    stage's ``iter_NNNN.pgm`` is written as soon as the stage is recorded,
    so a solve that fails part-way leaves the stages it finished.
    """
    u0, kernel, f = observe(cfg.input_path, cfg.kernel, cfg.sigma, cfg.seed)
    if cfg.mu == "auto":
        # sigma^2 underflows to 0 below sigma ~1e-162, and 0.05/sigma^2 overflows below ~1.7e-155;
        # above sigma ~2.2e6 it falls below SINGULAR_FLOOR, which mu (the DC denominator for a flux-1 kernel) must reach
        sigma_sq = cfg.sigma * cfg.sigma if cfg.sigma > 0 else 0.0
        mu = 0.05 / sigma_sq if sigma_sq > 0 else math.inf
        if not SINGULAR_FLOOR <= mu < math.inf:
            raise ValueError(
                f"mu='auto' needs 0.05/sigma^2 in [{SINGULAR_FLOOR:g}, inf), got sigma {cfg.sigma}; pass mu explicitly"
            )
        cfg = replace(cfg, mu=mu)
    out = Path(cfg.output_dir)

    def on_record(rec):
        out.mkdir(parents=True, exist_ok=True)
        if cfg.save_intermediates:
            write_pgm(out / f"iter_{rec.stage_index:04}.pgm", rec.u)

    cache = build_cache(kernel, u0.shape[0])
    trace = solve(cfg.solver, f, cache, cfg, ground_truth=u0, on_record=on_record)

    write_trace_csv(out / "trace.csv", trace)

    best_rec, final_rec = trace.records[best_iterate(trace)], trace.records[-1]
    write_pgm(out / "best.pgm", best_rec.u)
    write_pgm(out / "final.pgm", final_rec.u)

    residuals = {}
    for tag, rec in (("best", best_rec), ("final", final_rec)):
        u1, u2 = decompose(rec.u, rec.w, cache)
        residuals[tag] = gradient_residual(rec.w, u1)
        write_pgm(out / f"{tag}_u1.pgm", u1 + U1_EXPORT_OFFSET)
        write_pgm(out / f"{tag}_u2.pgm", u2)

    lines = [
        f"solver: {cfg.solver}",
        f"input: {cfg.input_path}",
        f"image size: {u0.shape[0]}x{u0.shape[1]}",
        f"kernel: {cfg.kernel}",
        f"sigma: {cfg.sigma!r}",
        f"mu: {float(cfg.mu)!r}",
        f"seed: {cfg.seed}",
        f"noise generator: {NOISE_GENERATOR}",
        f"tv variant: {cfg.tv_variant}",
        f"tol: {cfg.tol!r}",
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
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return trace
