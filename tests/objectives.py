"""Reference definitions of the scores the solvers compute in one pass.

Each function evaluates one quantity straight from its formula, with no
sharing between them, so the tests can check the solvers' record scores
against them.
"""

from __future__ import annotations

from tvdeblur import apply_kernel, forward_diff
from tvdeblur.shrinkage import pixel_norms


def eval_tv_objective(u, f, cache, mu, tv_variant="iso"):
    """TV/L2 objective: sum_i ||D_i u|| + mu/2 ||K u - f||^2."""
    tv = float(pixel_norms(forward_diff(u), tv_variant).sum())
    res = apply_kernel(cache, u) - f
    return tv + 0.5 * mu * float((res * res).sum())


def eval_penalty_objective(u, w, f, cache, mu, beta, tv_variant="iso"):
    """Penalty objective: sum ||w_i|| + beta/2 sum ||w_i - D_i u||^2 + mu/2 ||Ku - f||^2."""
    diff = w - forward_diff(u)
    value = float(pixel_norms(w, tv_variant).sum())
    value += 0.5 * beta * float((diff * diff).sum())
    res = apply_kernel(cache, u) - f
    return value + 0.5 * mu * float((res * res).sum())
