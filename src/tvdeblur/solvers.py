"""The FTVd iteration engine: one loop, ``solve``, for both solvers.

Both solvers attack the TV/L2 model

    min_u  sum_i ||D_i u|| + mu/2 ||K u - f||^2

through the split variable w_i = D_i u; ``solve`` describes the stage
policy that tells them apart.  Every stage is recorded and scored when it
ends, so the best intermediate solution can be selected afterwards instead
of the pure TV limit.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Callable, Collection
from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid_ops import forward_diff, validate_image
from .metrics import best_index, rel_change, snr_scorer
from .shrinkage import pixel_norms, shrink

DEFAULT_BETA_SCHEDULE = tuple(2.0**k for k in range(11))


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
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("max_inner_iters", "max_multiplier_updates"):
            cap = getattr(self, name)
            if not isinstance(cap, numbers.Integral) or isinstance(cap, bool) or cap < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {cap!r}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.tv_variant not in ("iso", "aniso"):
            raise ValueError(f"unknown tv_variant {self.tv_variant!r}")
        if not isinstance(self.beta_schedule, Collection) or len(self.beta_schedule) == 0:
            raise ValueError(f"beta_schedule must be a nonempty sequence of real numbers, got {self.beta_schedule!r}")
        if not all(isinstance(b, numbers.Real) for b in self.beta_schedule):
            raise ValueError(f"beta_schedule entries must be real numbers, got {self.beta_schedule!r}")
        if not all(0 < b < math.inf for b in self.beta_schedule):
            raise ValueError(f"beta_schedule entries must be positive and finite, got {self.beta_schedule}")
        if any(b1 >= b2 for b1, b2 in zip(self.beta_schedule, self.beta_schedule[1:])):
            raise ValueError("beta_schedule must be strictly ascending")
        if not 0 < self.beta_fixed < math.inf:
            raise ValueError(f"beta_fixed must be positive and finite, got {self.beta_fixed}")


@dataclass
class IterateRecord:
    """One recorded stage: its scores, its metadata and, while kept, its arrays.

    ``u``, ``w`` and ``lam`` (None for ftvd3) are set when the record is
    passed to ``on_record``.  ``lam`` is the scaled multiplier lambda/beta:
    the paper's lambda is ``beta * lam``.  A returned trace keeps them only
    on its best record by SNR (earliest on ties) and its last record, or,
    without ground truth, on its last record only; elsewhere they are None.
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


def _make_record(
    stage_index: int,
    inner_iter: int,
    u: np.ndarray,
    u_hat: np.ndarray,
    du: np.ndarray,
    w: np.ndarray,
    w_norm_sum: float | None,
    gap: np.ndarray,
    lam: np.ndarray | None,
    rc: float,
    system: spectral.USystem,
    cfg: SolverConfig,
    snr: Callable[[np.ndarray], float] | None,
    kept: list[IterateRecord],
) -> IterateRecord:
    """Score one iterate in one pass.

    ``u_hat`` is u's half spectrum from ``solve_u``; the fidelity
    mu/2 ||K u - f||^2 is taken from it by Parseval and shared, with D u
    and gap = w - D u (passed in), by the three scores: the TV objective,
    the penalty objective sum ||w_i|| + beta/2 ||w - D u||^2 +
    mu/2 ||K u - f||^2, and the largest per-pixel ||w_i - D_i u||.  The
    per-pixel sums of gap's squares serve the last two; sum ||w_i|| is
    ``shrink``'s ``w_norm_sum``, or taken from ``pixel_norms(w)`` when None.
    ``u_hat`` is overwritten.  ``snr`` is a ``metrics.snr_scorer`` or None.

    ``kept`` holds the best record so far by SNR (earliest on ties; none
    without ``snr``) and the last one, and is updated in place to the best
    and the new record.  As soon as the SNR is known, records that drop out
    of it lose their arrays, so their memory is free before the other scores
    are formed.  Raises FloatingPointError when a score is not finite.
    """
    snr_db = None if snr is None else snr(u)
    best = kept[0] if kept else None
    if snr_db is None or best is None or best_index((best.snr_db, snr_db)) == 1:
        best = None  # the new record is the best, or nothing is scored: it alone keeps its arrays
    for old in kept:  # dropped before scoring: after it, +2.1 to +4.2 MB of tracemalloc peak at 512²
        if old is not best:
            old.u = old.w = old.lam = None
    beta = system.beta
    fidelity = 0.5 * cfg.mu * spectral.residual_sq(system, u_hat)
    gap_sq = np.einsum("ijk,ijk->ij", gap, gap)  # ||w_i - D_i u||^2 per pixel, in one pass
    # the largest iso norm: sqrt is monotone, so it is the root of the largest dx^2 + dy^2
    constraint = math.sqrt(gap_sq.max())
    w_tv = float(pixel_norms(w, cfg.tv_variant).sum()) if w_norm_sum is None else w_norm_sum
    penalty = w_tv + 0.5 * beta * float(gap_sq.sum())
    scores = {
        "snr_db": snr_db,
        "objective_tv": float(pixel_norms(du, cfg.tv_variant).sum()) + fidelity,
        "penalty_objective": penalty + fidelity,
        "constraint_residual": constraint,
        "rel_change": rc,
    }
    bad = [f"{name} {value}" for name, value in scores.items() if value is not None and not math.isfinite(value)]
    if bad:
        raise FloatingPointError(
            f"non-finite scores at stage {stage_index}, inner iteration {inner_iter} ({', '.join(bad)}): "
            "the solve diverged or overflowed"
        )
    record = IterateRecord(stage_index=stage_index, inner_iter=inner_iter, beta=beta, u=u, w=w, lam=lam, **scores)
    kept[:] = [record] if best is None else [best, record]
    return record


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
    carries the relative change over the whole stage and goes to
    ``on_record`` as soon as it is scored; afterwards only the best record
    by SNR and the last one (without ground truth, the last one alone) keep
    their arrays.  ``ground_truth`` must be a finite image of ``f``'s
    shape.  An invalid ``f`` or ``cfg``, an unknown ``method``, a bad ground
    truth, bad taps or a cache of another size (``prepare_u`` checks it)
    raises ValueError before the first alternation; taps become a cache
    only once the rest has passed.
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
    if ground_truth is not None:
        if np.shape(ground_truth) != f.shape:
            raise ValueError(f"ground truth has shape {np.shape(ground_truth)}, the observation {f.shape}")
        if not np.isfinite(ground_truth).all():
            raise ValueError("ground truth contains NaN or Inf")
    snr = None if ground_truth is None else snr_scorer(ground_truth)
    cache = kernel if isinstance(kernel, spectral.SpectralCache) else spectral.build_cache(kernel, f.shape[0])
    records: list[IterateRecord] = []
    kept: list[IterateRecord] = []
    u, du = f, forward_diff(f)
    lam = 0.0 if multipliers else None  # lambda/beta; the first multiplier update makes it a field
    system = None
    converged = True
    for stage, beta in enumerate(betas):
        if system is None or system.beta != beta:
            system = spectral.prepare_u(f, cfg.mu, beta, cache)
        stage_start = u
        for it in range(1, max_inner + 1):
            w, w_norm_sum = shrink(du if lam is None else lam + du, 1.0 / beta, cfg.tv_variant)
            u_new, u_hat = spectral.solve_u(system, w if lam is None else w - lam)
            rc = rel_change(u_new, u)
            if not math.isfinite(rc):
                raise FloatingPointError(
                    f"the solve diverged at stage {stage} (beta {beta}), inner iteration {it}: relative change {rc}"
                )
            u, du = u_new, forward_diff(u_new)
            if rc < cfg.tol:
                break
        stage_converged = rc < cfg.tol
        converged = stage_converged and (converged or multipliers)
        gap = w - du
        if multipliers:
            lam = lam - gap  # a new array: the last record holds the old lam
        stage_rc = rc if it == 1 else rel_change(u, stage_start)  # after one alternation they are equal
        record = _make_record(stage, it, u, u_hat, du, w, w_norm_sum, gap, lam, stage_rc, system, cfg, snr, kept)
        u_hat = gap = None  # kept into the next stage: +4.2 MB (ftvd3), +2.1 MB (ftvd4) of tracemalloc peak at 512²
        records.append(record)
        if on_record is not None:
            on_record(record)
        if multipliers and stage_converged:
            break
    return IterateTrace(records=records, converged=converged)


# The old per-method entries, kept only because bench/worker.py looks them up by name; ROADMAP item 2 deletes them.
ftvd3_solve = functools.partial(solve, "ftvd3")
ftvd4_solve = functools.partial(solve, "ftvd4")
