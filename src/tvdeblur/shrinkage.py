"""Per-pixel proximal operators for the TV w-subproblem.

Each pixel is an independent 2-vector problem

    min_w  ||w|| + (1/(2 t)) ||w - v||_2^2

whose closed form is radial shrinkage for the 2-norm (isotropic TV) and a
componentwise soft threshold for the 1-norm (anisotropic TV).  Callers pass
t = 1/beta.
"""

from __future__ import annotations

import numpy as np


def pixel_norms(g: np.ndarray, tv_variant: str = "iso") -> np.ndarray:
    """Per-pixel norm of an (n, n, 2) field: the 2-norm for 'iso', the 1-norm for 'aniso'.

    The 2-norm is sqrt(dx*dx + dy*dy), formed in one buffer.  It agrees with
    np.hypot to about one ulp and is several times cheaper, but overflows to
    inf once a pixel's norm passes about 1.3e154.
    """
    if tv_variant == "iso":
        dx = g[..., 0]
        dy = g[..., 1]
        out = np.multiply(dx, dx)
        out += dy * dy  # one buffer here and in shrink: plain expressions add 1-4 MB of peak RSS at 512²
        return np.sqrt(out, out=out)
    if tv_variant == "aniso":
        return np.abs(g[..., 0]) + np.abs(g[..., 1])
    raise ValueError(f"unknown tv_variant {tv_variant!r}")


def shrink(v: np.ndarray, t: float, tv_variant: str = "iso") -> tuple[np.ndarray, float | None]:
    """The w-step: the per-pixel prox of ``pixel_norms`` at threshold t > 0, and the sum of its norms.

    'iso' is radial 2-vector shrinkage, out_i = v_i * max(||v_i|| - t, 0) /
    max(||v_i||, t): the usual radial factor where ||v_i|| > t, and exactly
    0 where ||v_i|| <= t (t > 0, so the 0/0 tie never arises); a NaN pixel
    stays NaN.  'aniso' is the componentwise soft threshold
    sign(c) * max(|c| - t, 0) on dx and dy, computed as c - clip(c, -t, t),
    which has the same values (a component at or below the threshold
    becomes +0.0).  Returns (out, s): for 'iso', s = sum_i ||out_i|| =
    sum_i max(||v_i|| - t, 0), summed before that buffer becomes the radial
    factor; for 'aniso', whose prox forms no norm, s is None.  Raises
    ValueError unless t > 0.
    """
    if not t > 0:
        raise ValueError(f"shrinkage threshold must be > 0, got {t}")
    if tv_variant == "iso":
        scale = pixel_norms(v)
        denom = np.maximum(scale, t)
        scale -= t  # the factor is formed in the norm's buffer: see pixel_norms
        np.maximum(scale, 0.0, out=scale)
        norm_sum = float(scale.sum())
        scale /= denom
        return v * scale[..., None], norm_sum
    if tv_variant == "aniso":
        out = np.clip(v, -t, t)
        return np.subtract(v, out, out=out), None
    raise ValueError(f"unknown tv_variant {tv_variant!r}")
