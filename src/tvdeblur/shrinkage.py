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
    """Per-pixel norm of an (n, n, 2) field: the 2-norm for 'iso', the 1-norm for 'aniso'."""
    if tv_variant == "iso":
        return np.hypot(g[..., 0], g[..., 1])
    if tv_variant == "aniso":
        return np.abs(g[..., 0]) + np.abs(g[..., 1])
    raise ValueError(f"unknown tv_variant {tv_variant!r}")


def shrink_iso(v: np.ndarray, t: float) -> np.ndarray:
    """Radial 2-vector shrinkage: scale each pixel vector toward zero by t.

    out_i = max(||v_i|| - t, 0) * v_i / ||v_i||, with out_i = 0 whenever
    ||v_i|| <= t (the 0/0 tie resolves to zero).
    """
    _check_threshold(t)
    mag = pixel_norms(v)
    scale = np.zeros_like(mag)
    np.divide(np.maximum(mag - t, 0.0), mag, out=scale, where=mag > 0)
    return v * scale[..., None]


def shrink_aniso(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise soft threshold: sign(c) * max(|c| - t, 0) on dx and dy."""
    _check_threshold(t)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def shrink(v: np.ndarray, t: float, tv_variant: str = "iso") -> np.ndarray:
    """Dispatch on the TV variant ('iso' or 'aniso')."""
    if tv_variant == "iso":
        return shrink_iso(v, t)
    if tv_variant == "aniso":
        return shrink_aniso(v, t)
    raise ValueError(f"unknown tv_variant {tv_variant!r}")
