"""The FTVd iteration engine: one loop, ``solve``, for both solvers.

Both solvers attack the TV/L2 model

    min_u  sum_i ||D_i u|| + mu/2 ||K u - f||^2

through the split variable w_i = D_i u; ``solve`` describes the stage
policy that tells them apart.  Every stage is recorded and scored when it
ends, so the best intermediate solution can be selected afterwards instead
of the pure TV limit.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid_ops import forward_diff, is_number, validate_image
from .metrics import best_index, rel_change, snr_scorer
from .shrinkage import pixel_norms, shrink

DEFAULT_BETA_SCHEDULE = tuple(2.0**k for k in range(11))


def _keep_freed_heap() -> None:
    """Make glibc keep the heap a solve frees, so the next alternation reuses it without page faults.

    With glibc's defaults the heap top is trimmed whenever 128 KB or more
    is free there, and a repeated 512² solve faults 15k–27k pages back in.
    With the mmap threshold at 32 MiB (glibc's 64-bit ceiling) and the trim
    threshold at 1 GiB it takes 0–2; on a 2-vCPU Xeon the bench's median
    ``wall_s`` falls 1.324 → 1.186 s (ftvd3-512), 1.112 → 1.052 s (ftvd4-512)
    and 0.263 → 0.252 s (cli-128), in 8–9 of 10 pairs (BENCH_allocator.json).
    The trim threshold alone would pin the mmap threshold at 128 KB and
    mmap every array.  README states the cost to a host process.  Where
    there is no ``mallopt`` (not glibc), this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt in the C library, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_heap()


@dataclass(kw_only=True)
class SolverConfig:
    """Knobs shared by both solvers; defaults follow the standard protocol."""

    mu: float
    tv_variant: str = "iso"
    tol: float = 1e-4
    max_inner_iters: int = 100
    beta_schedule: tuple[float, ...] = DEFAULT_BETA_SCHEDULE
    beta_fixed: float = 10.0
    max_multiplier_updates: int = 100

    def validate(self) -> None:
        """Raise ValueError, naming the field, for a value no solver can run with."""
        for name in ("mu", "tol", "beta_fixed"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("max_inner_iters", "max_multiplier_updates"):
            cap = getattr(self, name)
            if not is_number(cap, integer=True) or cap < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {cap!r}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.tv_variant not in ("iso", "aniso"):
            raise ValueError(f"unknown tv_variant {self.tv_variant!r}")
        betas = self.beta_schedule  # ordered: a set or a dict has no order to check, a 0-d array no entries
        if not (isinstance(betas, Sequence) or isinstance(betas, np.ndarray) and betas.ndim == 1) or len(betas) == 0:
            raise ValueError(f"beta_schedule must be a nonempty sequence of real numbers, got {betas!r}")
        if not all(is_number(b) for b in betas):
            raise ValueError(f"beta_schedule entries must be real numbers, got {betas!r}")
        if not all(2.0**-1024 < b < math.inf for b in betas):  # at or below 2^-1024, shrink's 1/beta overflows
            raise ValueError(f"beta_schedule entries must be positive and finite with 1/beta finite, got {betas}")
        if any(b1 >= b2 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta_schedule must be strictly ascending")
        if not 2.0**-1024 < self.beta_fixed < math.inf:
            raise ValueError(f"beta_fixed must be positive and finite with 1/beta finite, got {self.beta_fixed}")


@dataclass
class IterateRecord:
    """One recorded stage: its scores, its metadata and, while kept, its arrays.

    The scores are those of the stage's last iterate, with ||.|| per pixel as
    in ``pixel_norms`` (2-norm for iso, 1-norm for aniso): ``snr_db`` is u's
    SNR against the ground truth (None without one), ``objective_tv`` is
    sum_i ||D_i u|| + mu/2 ||K u - f||^2, ``penalty_objective`` is
    (sum_i ||w_i|| + beta/2 ||w - D u||^2) + mu/2 ||K u - f||^2,
    ``constraint_residual`` the largest per-pixel 2-norm ||w_i - D_i u||_2
    (either variant) and ``rel_change`` the ``rel_change`` of u over the stage.
    ``u``, ``w`` and ``lam`` (None for ftvd3) are set when the record is
    passed to ``on_record``.  ``lam`` is the scaled multiplier lambda/beta:
    the paper's lambda is ``beta * lam``.  ``solve`` drops them by one rule:
    when a stage starts, the last record gives them up unless it is the
    best so far by SNR (earliest on ties; there is none without ground
    truth), and as soon as a stage's SNR beats the best, the old best gives
    them up.  A returned trace thus keeps them on its best and last records
    only.
    """

    stage_index: int
    inner_iter: int
    beta: float
    u: np.ndarray | None
    w: np.ndarray | None
    lam: np.ndarray | None
    snr_db: float | None
    objective_tv: float
    penalty_objective: float
    constraint_residual: float
    rel_change: float


@dataclass
class IterateTrace:
    """Ordered stage records of a solver run; immutable once returned."""

    records: list[IterateRecord]
    converged: bool

    @property
    def stage_records(self) -> list[IterateRecord]:
        return self.records


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate or score is detected below and raised
def solve(
    method: str,
    f: np.ndarray,
    kernel: np.ndarray | spectral.SpectralCache,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
    on_record: Callable[[IterateRecord], None] | None = None,
) -> IterateTrace:
    """Run FTVd solver ``method``, "ftvd3" or "ftvd4", on the observation ``f``.

    ``kernel`` is either a tap array, which must pass
    ``spectral.build_cache``, or a prebuilt ``SpectralCache`` for ``f``'s
    size.  Both methods start from u = f and alternate a w-step (shrink) with
    an exact u-step; they differ in their stage policy:

    - ftvd3 (beta continuation) replaces the constraint w = D u by a
      beta-weighted quadratic penalty and runs one stage per beta of the
      ascending cfg.beta_schedule, each until the relative change of u
      drops below cfg.tol or cfg.max_inner_iters alternations are done,
      warm-starting every stage from the last;
    - ftvd4 (multipliers) keeps beta at cfg.beta_fixed and runs stages of
      one alternation, each followed by lambda <- lambda - beta (w - D u),
      carried as lam = lambda/beta: lam <- lam - (w - D u).  It stops at
      the first stage below cfg.tol or after cfg.max_multiplier_updates.

    The u-subproblem is prepared once per distinct beta.  Each stage record
    goes to ``on_record`` as soon as it is scored, when it and the best
    record so far are the only ones holding arrays (``IterateRecord``
    defines the scores and states the retention rule).  ``ground_truth``
    must be a finite image of ``f``'s shape.  An invalid ``f`` or ``cfg``,
    an unknown ``method``, a bad ground truth, bad taps or a cache of
    another size (``prepare_u`` checks it) raises ValueError before the
    first alternation; taps become a cache only once the rest has passed.
    Raises FloatingPointError when the relative change or a score is not
    finite (the iteration diverged), so numpy's overflow and invalid-value
    warnings are off for the whole solve, ``on_record`` included.
    """
    f = validate_image(f)
    cfg.validate()
    if method == "ftvd3":
        betas, max_inner, multipliers = cfg.beta_schedule, cfg.max_inner_iters, False
    elif method == "ftvd4":  # a lazy repeat, so a cycle cap costs nothing up front
        betas, max_inner, multipliers = itertools.repeat(cfg.beta_fixed, cfg.max_multiplier_updates), 1, True
    else:
        raise ValueError(f"unknown solver {method!r} (expected 'ftvd3' or 'ftvd4')")
    if ground_truth is not None and np.shape(ground_truth) != f.shape:
        raise ValueError(f"ground truth has shape {np.shape(ground_truth)}, the observation {f.shape}")
    snr = None if ground_truth is None else snr_scorer(ground_truth, "ground truth")
    cache = kernel if isinstance(kernel, spectral.SpectralCache) else spectral.build_cache(kernel, f.shape[0])
    records: list[IterateRecord] = []
    best = None  # the best record so far by SNR, earliest on ties; none without ground truth
    u, du = f, forward_diff(f)
    lam = 0.0 if multipliers else None  # lambda/beta; the first multiplier update makes it a field
    system = None
    converged = True
    # Liveness: every array is unbound (del) at its last read, so each step allocates while only what
    # a later step reads is live, and a read past that point raises instead of holding memory.  The
    # old best record's arrays go as soon as the stage's SNR beats it, before the gap field is formed.
    # Without these releases the tracemalloc peak at 512² (phantom, average:9, seed 7) is 17.0 planes
    # rather than 13.1 (ftvd3-iso) and 22.0 rather than 19.0 (ftvd4-iso); tests/test_memory.py pins it.
    for stage, beta in enumerate(betas):
        if records and records[-1] is not best:  # the retention rule, in two parts: this one and the new best's below
            records[-1].u = records[-1].w = records[-1].lam = None
        if system is None or system.beta != beta:
            system = spectral.prepare_u(f, cfg.mu, beta, cache)
        stage_start = u
        for it in range(1, max_inner + 1):
            w, w_norm_sum = shrink(du if lam is None else lam + du, 1.0 / beta, cfg.tv_variant)
            del du
            u_new, u_hat = spectral.solve_u(system, w if lam is None else w - lam)
            rc = rel_change(u_new, u)
            if not math.isfinite(rc):
                raise FloatingPointError(
                    f"the solve diverged at stage {stage} (beta {beta}), inner iteration {it}: relative change {rc}"
                )
            u = u_new
            du = forward_diff(u)
            if rc < cfg.tol or it == max_inner:
                break
            del w, u_hat
        stage_converged = rc < cfg.tol
        converged = stage_converged and (converged or multipliers)
        fidelity = 0.5 * cfg.mu * spectral.residual_sq(system, u_hat)  # mu/2 ||K u - f||^2, in u^'s buffer
        del u_hat
        stage_rc = rc if it == 1 else rel_change(u, stage_start)  # after one alternation they are equal
        del stage_start
        snr_db = None if snr is None else snr(u)
        if best is not None and best_index((best.snr_db, snr_db)) == 1:
            best.u = best.w = best.lam = None
            best = None
        gap = w - du
        gap_sq = np.einsum("ijk,ijk->ij", gap, gap)  # ||w_i - D_i u||^2 per pixel, in one pass
        if multipliers:
            lam = np.subtract(lam, gap, out=gap)  # in gap's buffer, not the old lam's: the best record may hold that
        del gap
        constraint = math.sqrt(gap_sq.max())  # the largest iso norm, as sqrt is monotone: no per-pixel root
        gap_term = 0.5 * beta * float(gap_sq.sum())
        del gap_sq
        w_tv = float(pixel_norms(w, cfg.tv_variant).sum()) if w_norm_sum is None else w_norm_sum
        scores = {
            "snr_db": snr_db,
            "objective_tv": float(pixel_norms(du, cfg.tv_variant).sum()) + fidelity,
            "penalty_objective": (w_tv + gap_term) + fidelity,
            "constraint_residual": constraint,
            "rel_change": stage_rc,
        }
        bad = [f"{name} {value}" for name, value in scores.items() if value is not None and not math.isfinite(value)]
        if bad:
            raise FloatingPointError(
                f"non-finite scores at stage {stage}, inner iteration {it} ({', '.join(bad)}): "
                "the solve diverged or overflowed"
            )
        record = IterateRecord(stage_index=stage, inner_iter=it, beta=beta, u=u, w=w, lam=lam, **scores)
        del w
        if snr is not None and best is None:
            best = record
        records.append(record)
        if on_record is not None:
            on_record(record)
        if multipliers and stage_converged:
            break
    return IterateTrace(records=records, converged=converged)


# The old per-method entries, kept only because bench/worker.py looks them up by name; ROADMAP item 2 deletes them.
ftvd3_solve = functools.partial(solve, "ftvd3")
ftvd4_solve = functools.partial(solve, "ftvd4")
