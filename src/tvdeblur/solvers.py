"""The FTVd iteration engine and the two solvers built on it.

Both solvers attack the TV/L2 model

    min_u  sum_i ||D_i u|| + mu/2 ||K u - f||^2

through the split variable w_i = D_i u, with one loop (``_iterate``) whose
stage policy is the only difference between them:

- ``ftvd3_solve`` (beta continuation) replaces the constraint by a
  beta-weighted quadratic penalty and alternates w/u steps to cfg.tol for
  each beta of an ascending schedule, warm-starting every stage;
- ``ftvd4_solve`` (multipliers) keeps beta fixed; each stage is one
  alternation followed by lambda <- lambda - beta (w - D u), and the solve
  stops at the first stage whose relative change is below cfg.tol.

Every stage is recorded and scored when it ends, so the best intermediate
solution can be selected afterwards instead of the pure TV limit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid_ops import forward_diff, validate_image
from .metrics import best_index, rel_change, snr_scorer
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
    """One recorded stage: its scores, its metadata and, while kept, its arrays.

    ``u``, ``w`` and ``lam`` (None for ftvd3) are set when the record is
    passed to ``on_record``.  A returned trace keeps them only on its best
    record by SNR (earliest on ties) and its last record; elsewhere they
    are None.
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
    config: SolverConfig
    converged: bool

    @property
    def stage_records(self) -> list[IterateRecord]:
        return self.records


def _make_record(
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
    in), by the three scores: the TV objective, the penalty objective
    sum ||w_i|| + beta/2 ||w - D u||^2 + mu/2 ||K u - f||^2, and the
    largest per-pixel ||w_i - D_i u||.  ``snr`` is a
    ``metrics.snr_scorer`` or None.  Raises FloatingPointError when a score
    is not finite.
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
    return IterateRecord(stage_index=stage_index, inner_iter=inner_iter, beta=beta, u=u, w=w, lam=lam, **scores)


def _iterate(
    method: str,
    f: np.ndarray,
    cache: spectral.SpectralCache,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
    on_record: Callable[[IterateRecord], None] | None = None,
) -> Generator[tuple[np.ndarray, np.ndarray], None, IterateTrace]:
    """The FTVd loop: yields (u, w) after every alternation, returns the trace.

    Starts from u = f.  Stage k runs at betas[k] until the relative change
    of u drops below cfg.tol or max_inner alternations are done; with
    multipliers, a stage that ends below cfg.tol ends the solve.  The
    u-subproblem is prepared once per distinct beta.  Each stage record
    carries the relative change over the whole stage and goes to
    ``on_record`` as soon as it is scored; afterwards only the best record
    by SNR and the last one keep their arrays.  Raises FloatingPointError
    when the relative change is not finite (the iteration diverged).
    """
    f = validate_image(f)
    cfg.validate()
    if method == "ftvd3":
        betas, max_inner, multipliers = cfg.beta_schedule, cfg.max_inner_iters, False
    elif method == "ftvd4":
        betas, max_inner, multipliers = (cfg.beta_fixed,) * cfg.max_multiplier_updates, 1, True
    else:
        raise ValueError(f"unknown solver {method!r} (expected 'ftvd3' or 'ftvd4')")
    snr = None if ground_truth is None else snr_scorer(ground_truth)
    records: list[IterateRecord] = []
    kept: list[IterateRecord] = []
    best = None
    u, du = f, forward_diff(f)
    lam = np.zeros(f.shape + (2,), dtype=np.float64) if multipliers else None
    system = None
    converged = True
    for stage, beta in enumerate(betas):
        if system is None or system.beta != beta:
            system = spectral.prepare_u(f, cfg.mu, beta, cache)
        stage_start = u
        for it in range(1, max_inner + 1):
            w = shrink(du if lam is None else du + lam / beta, 1.0 / beta, cfg.tv_variant)
            u_new = spectral.solve_u(system, w, lam)
            rc = rel_change(u_new, u)
            if not math.isfinite(rc):
                raise FloatingPointError(
                    f"the solve diverged at stage {stage} (beta {beta}), inner iteration {it}: relative change {rc}"
                )
            u, du = u_new, forward_diff(u_new)
            yield u, w
            if rc < cfg.tol:
                break
        stage_converged = rc < cfg.tol
        converged = stage_converged and (converged or multipliers)
        gap = w - du
        if multipliers:
            lam = lam - beta * gap
        stage_rc = rc if it == 1 else rel_change(u, stage_start)  # after one alternation they are equal
        record = _make_record(stage, it, beta, u, du, w, gap, lam, stage_rc, f, cache, cfg, snr)
        records.append(record)
        if on_record is not None:
            on_record(record)
        if best is None or (snr is not None and best_index((best.snr_db, record.snr_db)) == 1):
            best = record
        for old in kept:
            if old is not best and old is not record:
                old.u = old.w = old.lam = None
        kept = [best, record]
        if multipliers and stage_converged:
            break
    return IterateTrace(records=records, config=cfg, converged=converged)


def solve(
    method: str,
    f: np.ndarray,
    cache: spectral.SpectralCache,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
    on_record: Callable[[IterateRecord], None] | None = None,
) -> IterateTrace:
    """Run solver ``method`` ("ftvd3" or "ftvd4") on a prebuilt spectral cache."""
    alternations = _iterate(method, f, cache, cfg, ground_truth, on_record)
    while True:
        try:
            next(alternations)
        except StopIteration as end:
            return end.value


def ftvd3_solve(
    f: np.ndarray,
    kernel: np.ndarray,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
    on_record: Callable[[IterateRecord], None] | None = None,
) -> IterateTrace:
    """Quadratic-penalty solver with beta continuation.

    Runs the alternation to cfg.tol (at most cfg.max_inner_iters times) for
    every beta of cfg.beta_schedule, warm-starting each stage from the
    previous solution (initial guess: the observation f), and records the
    last iterate of every stage.
    """
    f = validate_image(f)
    return solve("ftvd3", f, spectral.build_cache(kernel, f.shape[0]), cfg, ground_truth, on_record)


def ftvd4_solve(
    f: np.ndarray,
    kernel: np.ndarray,
    cfg: SolverConfig,
    ground_truth: np.ndarray | None = None,
    on_record: Callable[[IterateRecord], None] | None = None,
) -> IterateTrace:
    """Augmented-Lagrangian solver: fixed beta, alternating direction updates.

    Per cycle: w-step with the current multipliers folded in, exact u-step,
    then lambda <- lambda - beta (w - D u).  Every cycle is recorded; stops
    once the relative change of u drops below cfg.tol, or after
    cfg.max_multiplier_updates cycles.
    """
    f = validate_image(f)
    return solve("ftvd4", f, spectral.build_cache(kernel, f.shape[0]), cfg, ground_truth, on_record)
