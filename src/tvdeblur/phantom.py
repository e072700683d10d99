"""Deterministic synthetic test image.

A stand-in for the usual photographic test images: flat shapes with sharp
edges, a smooth shading background, a few small high-contrast details, and
an oriented sinusoidal texture band.  The mixture matters: the shading and
texture regions are exactly where a pure-TV reconstruction staircases or
flattens, so intermediate mixed-regularization iterates can beat the final
one on this image, as they do on natural photographs.
"""

from __future__ import annotations

import numpy as np

from .grid_ops import is_number


def make_phantom(n: int) -> np.ndarray:
    """Build the n x n phantom, grey levels in [0, 1].  Pure function of the integer n >= 4 (ValueError otherwise)."""
    if not is_number(n, integer=True) or n < 4:
        raise ValueError(f"phantom needs n >= 4, got {n!r}")
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64) / n

    # smooth shading: diagonal ramp plus a broad hill
    img = 0.20 + 0.30 * xx + 0.10 * yy
    img += 0.25 * np.exp(-(((xx - 0.72) ** 2) + (yy - 0.25) ** 2) / (2 * 0.16**2))

    # flat piecewise-constant shapes
    disk = (xx - 0.28) ** 2 + (yy - 0.30) ** 2 <= 0.17**2
    img[disk] = 0.85
    img[(yy >= 0.58) & (yy < 0.86) & (xx >= 0.06) & (xx < 0.34)] = 0.12

    # small high-contrast details
    for cx, cy, v in ((0.50, 0.12, 0.95), (0.58, 0.12, 0.05), (0.50, 0.47, 0.05)):
        half = 0.025
        img[(np.abs(xx - cx) < half) & (np.abs(yy - cy) < half)] = v

    # oriented sinusoidal texture band (wavelength ~ n/9 pixels)
    band = (yy >= 0.58) & (yy < 0.95) & (xx >= 0.40)
    stripes = 0.48 + 0.26 * np.sin(2.0 * np.pi * (8.0 * xx + 4.0 * yy))
    img[band] = stripes[band]

    return np.clip(img, 0.0, 1.0)
