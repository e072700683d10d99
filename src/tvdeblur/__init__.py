"""TV/L2 image deconvolution with every stage recorded and scored.

Two solvers for the total-variation deblurring model (quadratic-penalty
continuation and fixed-beta augmented-Lagrangian alternating direction),
built on FFT-diagonalized periodic operators and closed-form shrinkage.
Every intermediate solution is scored when it is recorded and can be
decomposed into a piecewise-constant plus smooth part, so the best
mixed-regularization iterate can be selected instead of the pure-TV limit.
"""

from . import errors
from .decomposition import decompose, gradient_residual
from .grid_ops import (
    KernelSpec,
    divergence_adjoint,
    forward_diff,
    make_kernel,
    validate_image,
)
from .harness import (
    ExperimentConfig,
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
    ftvd3_solve,
    ftvd4_solve,
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
    "ftvd3_solve",
    "ftvd4_solve",
    "decompose",
    "gradient_residual",
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
    "__version__",
]
