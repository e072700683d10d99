"""TV/L2 image deconvolution with full iterate recording.

Two solvers for the total-variation deblurring model (quadratic-penalty
continuation and fixed-beta augmented-Lagrangian alternating direction),
built on FFT-diagonalized periodic operators and closed-form shrinkage.
Every intermediate solution is recorded, scored, and decomposable into a
piecewise-constant plus smooth part, so the best mixed-regularization
iterate can be selected instead of the pure-TV limit.
"""

from . import errors
from .decomposition import decompose, gradient_residual, tikhonov_energy
from .grid_ops import (
    KernelSpec,
    divergence_adjoint,
    forward_diff,
    make_kernel,
    validate_image,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    degrade,
    run_experiment,
    write_trace_csv,
)
from .metrics import best_iterate, rel_change, snr_db
from .pgm import load_image, read_pgm, write_pgm
from .phantom import make_phantom
from .shrinkage import shrink, shrink_aniso, shrink_iso
from .solvers import (
    IterateRecord,
    IterateTrace,
    SolverConfig,
    eval_penalty_objective,
    eval_tv_objective,
    ftvd3_solve,
    ftvd4_solve,
    penalty_inner_loop,
)
from .spectral import SpectralCache, USystem, apply_kernel, build_cache, prepare_u, solve_u

__version__ = "0.1.0"

__all__ = [
    "errors",
    "KernelSpec",
    "forward_diff",
    "divergence_adjoint",
    "make_kernel",
    "validate_image",
    "SpectralCache",
    "build_cache",
    "apply_kernel",
    "USystem",
    "prepare_u",
    "solve_u",
    "shrink",
    "shrink_iso",
    "shrink_aniso",
    "SolverConfig",
    "IterateRecord",
    "IterateTrace",
    "penalty_inner_loop",
    "ftvd3_solve",
    "ftvd4_solve",
    "eval_tv_objective",
    "eval_penalty_objective",
    "decompose",
    "gradient_residual",
    "tikhonov_energy",
    "snr_db",
    "rel_change",
    "best_iterate",
    "make_phantom",
    "write_pgm",
    "read_pgm",
    "load_image",
    "degrade",
    "run_experiment",
    "write_trace_csv",
    "ExperimentConfig",
    "ExperimentSummary",
    "__version__",
]
