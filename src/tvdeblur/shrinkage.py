"""Per-pixel proximal operators for the TV w-subproblem.

Each pixel is an independent 2-vector problem

    min_w  ||w|| + (1/(2 t)) ||w - v||_2^2

whose closed form is radial shrinkage for the 2-norm (isotropic TV) and a
componentwise soft threshold for the 1-norm (anisotropic TV).  Callers pass
t = 1/beta.
"""

from __future__ import annotations

import math

import numpy as np

from . import halves
from .grid_ops import is_number


def pixel_norms(g: np.ndarray, tv_variant: str = "iso") -> np.ndarray:
    """Per-pixel norm of an (n, n, 2) field: the 2-norm for 'iso', the 1-norm for 'aniso'.

    The 2-norm is sqrt(dx*dx + dy*dy), the root of one einsum plane.  It
    agrees with np.hypot to about one ulp and is several times cheaper, but
    overflows to inf once a pixel's norm passes about 1.3e154.
    """
    if tv_variant == "iso":
        out = np.einsum("ijk,ijk->ij", g, g)
        return np.sqrt(out, out=out)
    if tv_variant == "aniso":
        return np.abs(g[..., 0]) + np.abs(g[..., 1])
    raise ValueError(f"unknown tv_variant {tv_variant!r}")


def shrink(v: np.ndarray, t: float, tv_variant: str = "iso") -> tuple[np.ndarray, float | None]:
    """The w-step: the per-pixel prox of ``pixel_norms`` at a finite threshold t > 0, and the sum of its norms.

    'iso' is radial 2-vector shrinkage, out_i = v_i * max(||v_i|| - t, 0) /
    max(||v_i||, t): the usual radial factor where ||v_i|| > t, and exactly
    0 where ||v_i|| <= t (t > 0, so the 0/0 tie never arises); a NaN pixel
    stays NaN.  'aniso' is the componentwise soft threshold
    sign(c) * max(|c| - t, 0) on dx and dy, computed as c - clip(c, -t, t),
    which has the same values (a component at or below the threshold
    becomes +0.0).  Returns (out, s): for 'iso', s = sum_i ||out_i|| =
    sum_i max(||v_i|| - t, 0), summed before that buffer becomes the radial
    factor; for 'aniso', whose prox forms no norm, s is None.  Raises
    ValueError unless t is a finite real number > 0.
    """
    if not is_number(t) or not 0 < t < math.inf:  # an infinite t makes the iso prox inf - inf, NaN
        raise ValueError(f"shrinkage threshold must be > 0 and finite, got {t!r}")
    n = v.shape[0]
    if tv_variant == "iso":  # scale and denom are the parts of the radial factor; each half forms its rows
        scale = np.empty(v.shape[:2])
        denom = np.empty_like(scale)
        halves.run(lambda lo, hi: _iso_parts(v, t, scale, denom, lo, hi), n, scale.size)
        norm_sum = float(scale.sum())
        halves.run(lambda lo, hi: np.divide(scale[lo:hi], denom[lo:hi], out=scale[lo:hi]), n, scale.size)
        del denom  # out is allocated after denom's release, as scale * v needs no denom
        out = np.empty_like(v)
        halves.run(lambda lo, hi: _scale_rows(v, scale, out, lo, hi), n, scale.size)
        return out, norm_sum
    if tv_variant == "aniso":  # in out's buffer: a fresh one adds 1.9 MB of tracemalloc peak (ftvd3-aniso, 512²)
        out = np.empty_like(v)
        halves.run(lambda lo, hi: _soft_rows(v, t, out, lo, hi), n, v[..., 0].size)
        return out, None
    raise ValueError(f"unknown tv_variant {tv_variant!r}")


def _iso_parts(v: np.ndarray, t: float, scale: np.ndarray, denom: np.ndarray, lo: int, hi: int) -> None:
    """Rows [lo, hi): denom = max(||v_i||, t) and scale = denom - t, which is max(||v_i|| - t, 0) bit for bit."""
    s = scale[lo:hi]
    np.einsum("ijk,ijk->ij", v[lo:hi], v[lo:hi], out=s)  # as in pixel_norms
    np.sqrt(s, out=s)
    np.maximum(s, t, out=denom[lo:hi])
    np.subtract(denom[lo:hi], t, out=s)


def _scale_rows(v: np.ndarray, scale: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Rows [lo, hi) of the iso prox, out = v * scale, one component plane at a time."""
    for k in range(2):  # a plane is contiguous; the (rows, n, 2) block with a broadcast scale would be buffered
        np.multiply(v[lo:hi, :, k], scale[lo:hi], out=out[lo:hi, :, k])


def _soft_rows(v: np.ndarray, t: float, out: np.ndarray, lo: int, hi: int) -> None:
    """Rows [lo, hi) of the aniso prox, v - clip(v, -t, t), one component plane at a time."""
    for k in range(2):
        part = np.clip(v[lo:hi, :, k], -t, t, out=out[lo:hi, :, k])
        np.subtract(v[lo:hi, :, k], part, out=part)
