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
from .grid_ops import check_field, is_number
from .metrics import add_rows


def pixel_norms(g: np.ndarray, tv_variant: str = "iso") -> np.ndarray:
    """Per-pixel norm of an (n, n, 2) field: the 2-norm for 'iso', the 1-norm for 'aniso'.

    The 2-norm is sqrt(dx*dx + dy*dy), the root of one einsum plane.  It
    agrees with np.hypot to about one ulp and is several times cheaper, but
    overflows to inf once a pixel's norm passes about 1.3e154.  Raises
    ValueError unless g is a real (n, n, 2) field (``check_field``).
    """
    check_field(g)
    g = np.asarray(g, dtype=np.float64)  # an integer field as its float64 values, in its own layout
    if tv_variant not in ("iso", "aniso"):
        raise ValueError(f"unknown tv_variant {tv_variant!r}")
    out = np.empty(g.shape[:2])
    _norms_into(g, tv_variant, out, np.empty_like(out) if tv_variant == "aniso" else None)
    return out


def shrink(v: np.ndarray, t: float, tv_variant: str = "iso") -> tuple[np.ndarray, float]:
    """The w-step: the per-pixel prox of ``pixel_norms`` at a finite threshold t > 0, and the sum of its norms.

    'iso' is radial 2-vector shrinkage, out_i = v_i * max(||v_i|| - t, 0) /
    max(||v_i||, t): the usual radial factor where ||v_i|| > t, and exactly 0
    where ||v_i|| <= t (t > 0, so the 0/0 tie never arises); a NaN pixel
    stays NaN.  'aniso' is the componentwise soft threshold sign(c) *
    max(|c| - t, 0) on dx and dy, computed as c - clip(c, -t, t), which has
    the same values (a component at or below the threshold becomes +0.0).
    Returns (out, s), where s is the sum of out's pixel norms by
    ``plane_sum``'s rule: for 'iso' of max(||v_i|| - t, 0), before that
    buffer becomes the radial factor, and for 'aniso' of
    ``pixel_norms(out, "aniso")``, to the bit.  Raises ValueError unless t is
    a finite real number > 0 and v a real (n, n, 2) field (``check_field``).
    """
    if not is_number(t) or not 0 < t < math.inf:  # an infinite t makes the iso prox inf - inf, NaN
        raise ValueError(f"shrinkage threshold must be > 0 and finite, got {t!r}")
    check_field(v)
    if tv_variant not in ("iso", "aniso"):
        raise ValueError(f"unknown tv_variant {tv_variant!r}")
    v = np.asarray(v, dtype=np.float64)  # as in pixel_norms
    n = v.shape[0]
    out = np.empty_like(v)
    norms = np.empty(v.shape[:2])
    partials = np.empty(n)

    # Beside out, a half writes its rows of norms; its row sums go to partials
    def rows(lo, hi):
        s, w0, w1 = norms[lo:hi], out[lo:hi, :, 0], out[lo:hi, :, 1]
        if tv_variant == "iso":  # w0, dx's rows of out, holds d = max(||v_i||, t) until the prox overwrites it
            _norms_into(v[lo:hi], "iso", s, None)
            np.maximum(s, t, out=w0)
            np.subtract(w0, t, out=s)  # d - t, which is max(||v_i|| - t, 0) bit for bit
            np.sum(s, axis=1, out=partials[lo:hi])
            np.divide(s, w0, out=s)
            for k in range(2):  # a plane is contiguous; the (rows, n, 2) block with a broadcast scale would be buffered
                np.multiply(v[lo:hi, :, k], s, out=out[lo:hi, :, k])
            return
        for k, w in enumerate((w0, w1)):  # v - clip(v, -t, t)
            np.subtract(v[lo:hi, :, k], np.clip(v[lo:hi, :, k], -t, t, out=w), out=w)
        # |w0| + |w1| as pixel_norms forms it, with dy's rows of out as the scratch.  w1 is then made again from |w1|:
        # v1 - clip(v1) is |w1| with v1's sign where nonzero, and +0.0 where v1 is clipped whole (+ 0.0 clears -0.0)
        _norms_into(out[lo:hi], "aniso", s, w1)
        np.sum(s, axis=1, out=partials[lo:hi])
        np.copysign(w1, v[lo:hi, :, 1], out=w1)
        w1 += 0.0

    halves.run(rows, n, norms.size)
    return out, add_rows(partials)


def _norms_into(g: np.ndarray, tv_variant: str, out: np.ndarray, scratch: np.ndarray | None) -> None:
    """``pixel_norms(g, tv_variant)`` of a block of rows into out; 'aniso' forms |dy| in scratch, of out's shape."""
    if tv_variant == "iso":
        np.einsum("ijk,ijk->ij", g, g, out=out)
        np.sqrt(out, out=out)
    else:
        np.abs(g[..., 0], out=out)
        out += np.abs(g[..., 1], out=scratch)
