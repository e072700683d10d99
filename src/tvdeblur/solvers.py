"""The two deconvolution iteration schemes and their iterate traces.

Both solvers attack the TV/L2 model

    min_u  sum_i ||D_i u|| + mu/2 ||K u - f||^2

through the split variable w_i = D_i u:

- ``ftvd3_solve`` replaces the constraint by a beta-weighted quadratic
  penalty and runs an alternating w/u minimization for each beta of an
  ascending continuation schedule, warm-starting every stage;
- ``ftvd4_solve`` keeps beta fixed, adds multipliers lambda, and performs
  one w-step, one u-step, and one multiplier update per cycle.

Every stage (or multiplier update) is recorded with its scores, so the
best intermediate solution can be selected afterwards instead of the pure
TV limit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid_ops import forward_diff, validate_image
from .metrics import rel_change, snr_scorer
from .shrinkage import pixel_norms, shrink

DEFAULT_BETA_SCHEDULE = tuple(2.0**k for k in range(11))


@dataclass
class SolverConfig:
    """Knobs shared by both solvers; defaults follow the standard protocol."""

    mu: float
    tv_variant: str = "iso"
    tol: float = 1e-4
    max_inner_iters: int = 100
    beta_schedule: tuple[float, ...] = DEFAULT_BETA_SCHEDULE
    beta_fixed: float = 10.0
    max_multiplier_updates: int = 100
    record_inner: bool = False

    def validate(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.tv_variant not in ("iso", "aniso"):
            raise ValueError(f"unknown tv_variant {self.tv_variant!r}")
        if len(self.beta_schedule) == 0:
            raise ValueError("beta_schedule must be nonempty")
        if not all(0 < b < math.inf for b in self.beta_schedule):
            raise ValueError(f"beta_schedule entries must be positive and finite, got {self.beta_schedule}")
        if any(b1 >= b2 for b1, b2 in zip(self.beta_schedule, self.beta_schedule[1:])):
            raise ValueError("beta_schedule must be strictly ascending")
        if not 0 < self.beta_fixed < math.inf:
            raise ValueError(f"beta_fixed must be positive and finite, got {self.beta_fixed}")
        if self.max_inner_iters < 1 or self.max_multiplier_updates < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class IterateRecord:
    """One recorded solution with its scores and stage metadata.

    ``kind`` is "stage" for the per-continuation-step / per-multiplier-update
    records that are always kept, "inner" for the optional verbose records of
    every inner alternation.
    """

    stage_index: int
    inner_iter: int
    beta: float
    u: np.ndarray
    w: np.ndarray
    lam: np.ndarray | None
    snr_db: float | None
    objective_tv: float
    penalty_objective: float
    constraint_residual: float
    rel_change: float
    kind: str = "stage"


@dataclass
class IterateTrace:
    """Ordered record of a solver run; immutable once returned."""

    records: list[IterateRecord]
    config: SolverConfig
    converged: bool

    @property
    def stage_records(self) -> list[IterateRecord]:
        return [r for r in self.records if r.kind == "stage"]


def eval_tv_objective(
    u: np.ndarray,
    f: np.ndarray,
    cache: spectral.SpectralCache,
    mu: float,
    tv_variant: str = "iso",
) -> float:
    """TV/L2 objective: sum_i ||D_i u|| + mu/2 ||K u - f||^2."""
    tv = float(pixel_norms(forward_diff(u), tv_variant).sum())
    res = spectral.apply_kernel(cache, u) - f
    return tv + 0.5 * mu * float((res * res).sum())


def eval_penalty_objective(
    u: np.ndarray,
    w: np.ndarray,
    f: np.ndarray,
    cache: spectral.SpectralCache,
    mu: float,
    beta: float,
    tv_variant: str = "iso",
) -> float:
    """Penalty objective: sum ||w_i|| + beta/2 sum ||w_i - D_i u||^2 + mu/2 ||Ku - f||^2."""
    diff = w - forward_diff(u)
    value = float(pixel_norms(w, tv_variant).sum())
    value += 0.5 * beta * float((diff * diff).sum())
    res = spectral.apply_kernel(cache, u) - f
    return value + 0.5 * mu * float((res * res).sum())


@dataclass
class InnerLoopResult:
    u: np.ndarray
    du: np.ndarray
    w: np.ndarray
    iterations: int
    converged: bool
    last_rel_change: float


def penalty_inner_loop(
    f: np.ndarray,
    beta: float,
    init_u: np.ndarray,
    cfg: SolverConfig,
    cache: spectral.SpectralCache,
    recorder=None,
) -> InnerLoopResult:
    """Alternating w/u minimization of the penalty objective at fixed beta.

    w <- shrink(D u, 1/beta), u <- quadratic solve, until the relative
    change of u drops below cfg.tol or cfg.max_inner_iters is reached.
    The u-subproblem is prepared once for the whole loop.  ``recorder``,
    when given, is called as recorder(inner_iter, u, du, w, rc) after every
    alternation, with du = D u.  Raises FloatingPointError when the
    relative change is not finite (the iteration diverged).
    """
    system = spectral.prepare_u(f, cfg.mu, beta, cache)
    u = init_u
    du = forward_diff(u)
    w = None
    iterations = 0
    converged = False
    rc = np.inf
    for it in range(1, cfg.max_inner_iters + 1):
        w = shrink(du, 1.0 / beta, cfg.tv_variant)
        u_new = spectral.solve_u(system, w)
        rc = rel_change(u_new, u)
        if not math.isfinite(rc):
            raise FloatingPointError(f"penalty loop diverged at beta {beta}, inner iteration {it}: relative change {rc}")
        u = u_new
        du = forward_diff(u)
        iterations = it
        if recorder is not None:
            recorder(it, u, du, w, rc)
        if rc < cfg.tol:
            converged = True
            break
    return InnerLoopResult(u=u, du=du, w=w, iterations=iterations, converged=converged, last_rel_change=rc)


def _make_record(
    kind: str,
    stage_index: int,
    inner_iter: int,
    beta: float,
    u: np.ndarray,
    du: np.ndarray,
    w: np.ndarray,
    gap: np.ndarray,
    lam: np.ndarray | None,
    rc: float,
    f: np.ndarray,
    cache: spectral.SpectralCache,
    cfg: SolverConfig,
    snr: Callable[[np.ndarray], float] | None,
) -> IterateRecord:
    """Score one iterate in one pass.

    K u - f is formed once and shared, with D u and gap = w - D u (passed
    in), by the three scores, which equal eval_tv_objective,
    eval_penalty_objective and gradient_residual on this (u, w).  ``snr``
    is a ``metrics.snr_scorer`` or None.  Raises FloatingPointError when a
    score is not finite.
    """
    res = spectral.apply_kernel(cache, u) - f
    fidelity = 0.5 * cfg.mu * float((res * res).sum())
    penalty = float(pixel_norms(w, cfg.tv_variant).sum()) + 0.5 * beta * float((gap * gap).sum())
    scores = {
        "snr_db": None if snr is None else snr(u),
        "objective_tv": float(pixel_norms(du, cfg.tv_variant).sum()) + fidelity,
        "penalty_objective": penalty + fidelity,
        "constraint_residual": float(pixel_norms(gap).max()),
        "rel_change": rc,
    }
    bad = [f"{name} {value}" for name, value in scores.items() if value is not None and not math.isfinite(value)]
    if bad:
        raise FloatingPointError(
            f"non-finite scores at stage {stage_index}, inner iteration {inner_iter} ({', '.join(bad)}): "
            "the solve diverged or overflowed"
        )
    return IterateRecord(
        stage_index=stage_index, inner_iter=inner_iter, beta=beta, u=u, w=w, lam=lam, kind=kind, **scores
    )


def ftvd3_solve(
    f: np.ndarray,
    kernel: np.ndarray,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
) -> IterateTrace:
    """Quadratic-penalty solver with beta continuation.

    Runs the inner alternation to the same tolerance for every beta of
    cfg.beta_schedule, warm-starting each stage from the previous solution
    (initial guess: the observation f), and records the converged iterate
    of every stage.
    """
    f = validate_image(f)
    cfg.validate()
    cache = spectral.build_cache(kernel, f.shape[0])
    snr = None if ground_truth is None else snr_scorer(ground_truth)
    records: list[IterateRecord] = []
    u = f
    prev_stage_u = f
    all_converged = True
    for stage, beta in enumerate(cfg.beta_schedule):
        recorder = None
        if cfg.record_inner:
            def recorder(it, u_it, du_it, w_it, rc_it, _stage=stage, _beta=beta):
                records.append(
                    _make_record(
                        "inner", _stage, it, _beta, u_it, du_it, w_it, w_it - du_it, None, rc_it, f, cache, cfg, snr
                    )
                )
        result = penalty_inner_loop(f, beta, u, cfg, cache, recorder)
        u = result.u
        all_converged = all_converged and result.converged
        records.append(
            _make_record(
                "stage",
                stage,
                result.iterations,
                beta,
                u,
                result.du,
                result.w,
                result.w - result.du,
                None,
                rel_change(u, prev_stage_u),
                f,
                cache,
                cfg,
                snr,
            )
        )
        prev_stage_u = u
    return IterateTrace(records=records, config=cfg, converged=all_converged)


def ftvd4_solve(
    f: np.ndarray,
    kernel: np.ndarray,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
) -> IterateTrace:
    """Augmented-Lagrangian solver: fixed beta, alternating direction updates.

    Per cycle: w-step with the current multipliers folded in, exact u-step,
    then lambda <- lambda - beta (w - D u).  Every cycle is recorded; stops
    once the relative change of u drops below cfg.tol.  Raises
    FloatingPointError when the relative change is not finite.
    """
    f = validate_image(f)
    cfg.validate()
    beta = cfg.beta_fixed
    cache = spectral.build_cache(kernel, f.shape[0])
    system = spectral.prepare_u(f, cfg.mu, beta, cache)
    snr = None if ground_truth is None else snr_scorer(ground_truth)
    records: list[IterateRecord] = []
    u = f
    du = forward_diff(u)
    lam = np.zeros(f.shape + (2,), dtype=np.float64)
    converged = False
    for k in range(cfg.max_multiplier_updates):
        w = shrink(du + lam / beta, 1.0 / beta, cfg.tv_variant)
        u_new = spectral.solve_u(system, w, lam)
        du = forward_diff(u_new)
        gap = w - du
        lam = lam - beta * gap
        rc = rel_change(u_new, u)
        if not math.isfinite(rc):
            raise FloatingPointError(f"ftvd4 diverged at cycle {k}: relative change {rc}")
        u = u_new
        records.append(_make_record("stage", k, 1, beta, u, du, w, gap, lam, rc, f, cache, cfg, snr))
        if rc < cfg.tol:
            converged = True
            break
    return IterateTrace(records=records, config=cfg, converged=converged)
