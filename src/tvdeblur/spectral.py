"""Frequency-domain diagonalization of the blur and difference operators.

Under periodic boundaries both the convolution K and the forward differences
Dx, Dy are circulant, so the 2-D DFT diagonalizes them.  Images are real, so
only the half spectrum of ``numpy.fft.rfft2`` is kept: every per-frequency
array here has shape (n, n//2 + 1), and ``irfft2(..., s=(n, n))`` maps back
(the ``s`` is needed for odd n).  The cache built here holds the
eigenvalues; ``prepare_u`` and ``solve_u`` turn them into the closed-form
u-subproblem solve shared by both solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, SingularSystem
from .grid_ops import check_kernel_side, divergence_adjoint

SINGULAR_FLOOR = 1e-14


def stencil_transfer(taps: np.ndarray, n: int) -> np.ndarray:
    """Half-spectrum transfer function of a centre-anchored convolution stencil.

    Embeds the stencil into an n x n circulant: the tap at offset (a, b)
    from the anchor (the (h//2, w//2) entry) lands at index (a mod n,
    b mod n), accumulating where offsets wrap onto each other.  The real
    2-D DFT of that embedding diagonalizes the periodic convolution.
    """
    taps = np.asarray(taps, dtype=np.float64)
    h, w = taps.shape
    rows = (np.arange(h) - h // 2) % n
    cols = (np.arange(w) - w // 2) % n
    pad = np.zeros((n, n), dtype=np.float64)
    np.add.at(pad, (rows[:, None], cols[None, :]), taps)
    return np.fft.rfft2(pad)


@dataclass(frozen=True)
class SpectralCache:
    """Half-spectrum eigenvalues of K and of D^T D on an n x n periodic grid.

    ``eig_k`` and ``eig_dtd`` have shape (n, n//2 + 1).  Valid only for the
    (n, kernel) pair it was built from.  Arrays are never written after
    construction; the cache may be shared across threads.
    """

    eig_k: np.ndarray
    eig_dtd: np.ndarray


def build_cache(kernel: np.ndarray, n: int) -> SpectralCache:
    """Diagonalize the kernel and D^T D on an n x n grid.

    Every kernel the package uses passes here, so these are its rules: a
    2-D square array with an odd side (BadSpec otherwise) no larger than n
    (KernelTooLarge).  D^T D = Dx^T Dx + Dy^T Dy has eigenvalue
    4 sin^2(pi p/n) + 4 sin^2(pi q/n) at frequency (p, q).
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise BadSpec(f"kernel must be a square 2-D array, got shape {kernel.shape}")
    if kernel.shape[0] % 2 == 0:
        raise BadSpec(f"kernel side must be odd, got {kernel.shape[0]}")
    check_kernel_side(kernel.shape[0], n)
    rows = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    cols = 4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return SpectralCache(eig_k=stencil_transfer(kernel, n), eig_dtd=rows[:, None] + cols[None, :])


def apply_kernel(cache: SpectralCache, u: np.ndarray) -> np.ndarray:
    """Apply the blur K through the cache (spectral multiplication)."""
    return np.fft.irfft2(cache.eig_k * np.fft.rfft2(u), s=u.shape)


@dataclass(frozen=True)
class USystem:
    """The u-subproblem at one (f, mu, beta), ready for repeated solves.

    Holds what does not change between iterations at fixed beta: the data
    term mu conj(K^) f^ of the right-hand side and the per-frequency
    denominator mu |K^|^2 + beta |D^|^2, plus K^ and f^ themselves for
    ``residual_sq``.  Build it with ``prepare_u``.
    """

    beta: float
    eig_k: np.ndarray
    f_hat: np.ndarray
    data_hat: np.ndarray
    denom: np.ndarray


def prepare_u(f: np.ndarray, mu: float, beta: float, cache: SpectralCache) -> USystem:
    """Set up the u-subproblem (mu K^T K + beta D^T D) u = mu K^T f + ... .

    Raises ValueError unless mu and beta are positive, and SingularSystem if
    the per-frequency denominator falls below 1e-14 anywhere (possible only
    for zero-flux kernels).
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    denom = mu * np.abs(cache.eig_k) ** 2 + beta * cache.eig_dtd
    if denom.min() < SINGULAR_FLOOR:
        raise SingularSystem(
            f"frequency-domain denominator reaches {denom.min():.3e}; "
            "the kernel has (near-)zero flux"
        )
    f_hat = np.fft.rfft2(f)
    data_hat = mu * np.conj(cache.eig_k) * f_hat
    return USystem(beta=beta, eig_k=cache.eig_k, f_hat=f_hat, data_hat=data_hat, denom=denom)


def solve_u(system: USystem, w: np.ndarray, lam: np.ndarray | float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizer of the quadratic u-subproblem, and its half spectrum.

    Solves (mu K^T K + beta D^T D) u = mu K^T f + D^T (beta w - lam) by
    per-frequency division, with D^T applied in space.  ``lam`` is a
    gradient field, the scalar 0 before the first multiplier update, or
    None for the penalty solver, which carries no multipliers.  Returns (u, u^):
    the caller may hand u^ to ``residual_sq``, which overwrites it.
    """
    u_hat = np.fft.rfft2(divergence_adjoint(system.beta * w if lam is None else system.beta * w - lam))
    u_hat += system.data_hat
    u_hat /= system.denom
    return np.fft.irfft2(u_hat, s=w.shape[:2]), u_hat


def residual_sq(system: USystem, u_hat: np.ndarray) -> float:
    """||K u - f||^2 from the half spectrum u^ = rfft2(u), by Parseval.

    Works in u^'s buffer, which it overwrites: r^ = K^ u^ - f^, then the
    squares of its real and imaginary parts.  Over the full spectrum
    ||r||^2 = sum |r^|^2 / n^2.  The half spectrum stands for every column
    twice (itself and its conjugate mirror) except column 0 and, for even
    n, column n/2, which are their own mirrors and count once.
    """
    r = u_hat
    r *= system.eig_k
    r -= system.f_hat
    n = r.shape[0]
    sq = r.view(np.float64)  # (re, im) pairs: column c of r is sq[:, 2c : 2c + 2]
    np.multiply(sq, sq, out=sq)
    total = 2.0 * float(sq.sum()) - float(sq[:, :2].sum())
    if n % 2 == 0:
        total -= float(sq[:, n : n + 2].sum())
    return total / (n * n)
