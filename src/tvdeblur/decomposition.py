"""Split an iterate into a piecewise-constant and a smooth component.

Any recorded iterate (u, w) can be read as the solution of a mixed model in
which w plays the role of the gradient of a piecewise-constant part u1 and
the leftover u2 = u - u1 carries the squared-gradient (Tikhonov) penalty.
The shrunk field w is generally not an exact discrete gradient, so u1 is
defined as its least-squares potential; the residual ||w - D u1|| measures
how far w is from integrability and is worth reporting next to the split.
"""

from __future__ import annotations

import numpy as np

from .grid_ops import check_real, divergence_adjoint, forward_diff
from .shrinkage import pixel_norms
from .spectral import SpectralCache, _irfft2, _rfft2


def decompose(u: np.ndarray, w: np.ndarray, cache: SpectralCache) -> tuple[np.ndarray, np.ndarray]:
    """Return (u1, u2) with u1 + u2 == u exactly.

    u1 is the zero-mean least-squares potential of w: the minimizer of
    sum_i ||D_i x - w_i||^2 over zero-mean images, obtained per frequency
    as FFT(D^T w) / eigDtD with the zero frequency pinned to 0.
    u2 = u - u1 carries all of mean(u).  Raises ValueError unless ``cache``
    was built for u's size and u and w are a real image and a real gradient
    field of it.
    """
    cache.check_grid(u)
    _check_pair(w, u)
    numer = _rfft2(divergence_adjoint(w))
    denom = cache.eig_dtd
    denom[0, 0] = 1.0  # zero frequency handled by convention below
    x_hat = numer / denom
    x_hat[0, 0] = 0.0
    u1 = _irfft2(x_hat)
    u2 = u - u1
    return u1, u2


def gradient_residual(w: np.ndarray, u1: np.ndarray) -> float:
    """max over pixels of ||w_i - D_i u1||_2: how far w is from a gradient field (of u1's shape, or ValueError)."""
    _check_pair(w, u1)
    return float(pixel_norms(w - forward_diff(u1)).max())


def _check_pair(w: np.ndarray, u: np.ndarray) -> None:
    """Raise ValueError naming a complex input, or naming both shapes unless w is a gradient field of u's shape."""
    check_real(w, "gradient field")
    check_real(u, "image")
    if np.shape(w) != np.shape(u) + (2,):
        raise ValueError(f"gradient field has shape {np.shape(w)}, the image {np.shape(u)}")
