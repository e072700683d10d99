"""Per-pixel proximal operators for the TV w-subproblem.

Each pixel is an independent 2-vector problem

    min_w  ||w|| + (1/(2 t)) ||w - v||_2^2

whose closed form is radial shrinkage for the 2-norm (isotropic TV) and a
componentwise soft threshold for the 1-norm (anisotropic TV).  Callers pass
t = 1/beta.
"""

from __future__ import annotations

import numpy as np

from .errors import NonpositiveThreshold


def _check_threshold(t: float) -> None:
    if not t > 0:
        raise NonpositiveThreshold(f"shrinkage threshold must be > 0, got {t}")


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
        out += dy * dy  # one buffer here and in shrink_iso: plain expressions add 1-4 MB of peak RSS at 512²
        return np.sqrt(out, out=out)
    if tv_variant == "aniso":
        return np.abs(g[..., 0]) + np.abs(g[..., 1])
    raise ValueError(f"unknown tv_variant {tv_variant!r}")


def shrink_iso(v: np.ndarray, t: float) -> np.ndarray:
    """Radial 2-vector shrinkage: scale each pixel vector toward zero by t.

    out_i = v_i * max(||v_i|| - t, 0) / max(||v_i||, t): the usual radial
    factor where ||v_i|| > t, and exactly 0 where ||v_i|| <= t (t > 0, so
    the 0/0 tie never arises).  A NaN pixel stays NaN.
    """
    _check_threshold(t)
    scale = pixel_norms(v)
    denom = np.maximum(scale, t)
    scale -= t  # the factor is formed in the norm's buffer: see pixel_norms
    np.maximum(scale, 0.0, out=scale)
    scale /= denom
    return v * scale[..., None]


def shrink_aniso(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise soft threshold: sign(c) * max(|c| - t, 0) on dx and dy.

    Computed as c - clip(c, -t, t), which has the same values (a component
    at or below the threshold becomes +0.0).
    """
    _check_threshold(t)
    out = np.clip(v, -t, t)
    return np.subtract(v, out, out=out)


def shrink(v: np.ndarray, t: float, tv_variant: str = "iso") -> np.ndarray:
    """Dispatch on the TV variant ('iso' or 'aniso')."""
    if tv_variant == "iso":
        return shrink_iso(v, t)
    if tv_variant == "aniso":
        return shrink_aniso(v, t)
    raise ValueError(f"unknown tv_variant {tv_variant!r}")
