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
    converged: bool

    @property
    def stage_records(self) -> list[IterateRecord]:
        return self.records


def stage_policy(method: str, cfg: SolverConfig) -> tuple[tuple[float, ...], int, bool]:
    """Validate ``cfg`` and pick the stage policy of solver ``method``.

    Returns the beta of every stage, the cap on alternations per stage, and
    whether multipliers are carried.  Raises ValueError for an invalid
    config or an unknown method.
    """
    cfg.validate()
    if method == "ftvd3":
        return cfg.beta_schedule, cfg.max_inner_iters, False
    if method == "ftvd4":
        return (cfg.beta_fixed,) * cfg.max_multiplier_updates, 1, True
    raise ValueError(f"unknown solver {method!r} (expected 'ftvd3' or 'ftvd4')")


def _make_record(
    stage_index: int,
    inner_iter: int,
    u: np.ndarray,
    u_hat: np.ndarray,
    du: np.ndarray,
    w: np.ndarray,
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
    squares of gap serve the last two.  ``u_hat`` and ``gap`` are
    overwritten.  ``snr`` is a ``metrics.snr_scorer`` or None.

    ``kept`` holds the best record so far by SNR (earliest on ties) and the
    last one, and is updated in place to the best and the new record.  As
    soon as the SNR is known, records that drop out of it lose their arrays,
    so their memory is free before the other scores are formed.  Raises
    FloatingPointError when a score is not finite.
    """
    snr_db = None if snr is None else snr(u)
    best = kept[0] if kept else None
    is_best = best is None or (snr_db is not None and best_index((best.snr_db, snr_db)) == 1)
    for old in kept:
        if is_best or old is not best:
            old.u = old.w = old.lam = None
    beta = system.beta
    fidelity = 0.5 * cfg.mu * spectral.residual_sq(system, u_hat)
    gap_sq = np.multiply(gap, gap, out=gap)
    # the largest iso norm: sqrt is monotone, so it is the root of the largest dx^2 + dy^2
    constraint = math.sqrt((gap_sq[..., 0] + gap_sq[..., 1]).max())
    penalty = float(pixel_norms(w, cfg.tv_variant).sum()) + 0.5 * beta * float(gap_sq.sum())
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
    kept[:] = [record if is_best else best, record]
    return record


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
    betas, max_inner, multipliers = stage_policy(method, cfg)
    snr = None if ground_truth is None else snr_scorer(ground_truth)
    records: list[IterateRecord] = []
    kept: list[IterateRecord] = []
    u, du = f, forward_diff(f)
    lam = np.zeros(f.shape + (2,), dtype=np.float64) if multipliers else None
    system = None
    converged = True
    for stage, beta in enumerate(betas):
        if system is None or system.beta != beta:
            system = spectral.prepare_u(f, cfg.mu, beta, cache)
        stage_start = u
        for it in range(1, max_inner + 1):
            if lam is None:
                w = shrink(du, 1.0 / beta, cfg.tv_variant)
            else:
                v = lam / beta
                v += du
                w = shrink(v, 1.0 / beta, cfg.tv_variant)
                del v
            u_hat = None  # free the last spectrum before the solve forms the next
            u_new, u_hat = spectral.solve_u(system, w, lam)
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
            step = np.multiply(beta, gap)
            lam = np.subtract(lam, step, out=step)  # a new array: the last record holds the old lam
        stage_rc = rc if it == 1 else rel_change(u, stage_start)  # after one alternation they are equal
        record = _make_record(stage, it, u, u_hat, du, w, gap, lam, stage_rc, system, cfg, snr, kept)
        u_hat = gap = None  # neither is needed again; free them before the next stage
        records.append(record)
        if on_record is not None:
            on_record(record)
        if multipliers and stage_converged:
            break
    return IterateTrace(records=records, converged=converged)


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
