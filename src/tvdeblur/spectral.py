"""Frequency-domain diagonalization of the blur and difference operators.

Under periodic boundaries both the convolution K and the forward differences
Dx, Dy are circulant, so the 2-D DFT diagonalizes them.  Images are real, so
only the half spectrum of ``numpy.fft.rfft2`` is kept: every per-frequency
array here has shape (n, n//2 + 1), and ``irfft2(..., s=(n, n))`` maps back
(the ``s`` is needed for odd n).  Every 2-D transform of the package goes
through ``_rfft2`` and ``_irfft2``, which compute exactly those two, bit for
bit, from numpy's 1-D transforms on row and column halves (``halves.run``).
The cache built here holds the eigenvalues; ``prepare_u`` and ``solve_u``
turn them into the closed-form u-subproblem solve shared by both solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import halves
from .grid_ops import check_field, check_kernel_side, check_real, divergence_adjoint, is_number
from .metrics import add_rows

SINGULAR_FLOOR = 1e-14


def _rfft2(x: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2(x)`` of a real (n, n) image, bit for bit: row rffts, then column ffts in place."""
    n = x.shape[0]
    spec = np.empty((n, n // 2 + 1), dtype=np.complex128)
    halves.run(lambda lo, hi: np.fft.rfft(x[lo:hi], axis=1, out=spec[lo:hi]), n, x.size)
    cols = spec.shape[1]
    halves.run(lambda lo, hi: np.fft.fft(spec[:, lo:hi], axis=0, out=spec[:, lo:hi]), cols, x.size)
    return spec


def _irfft2(spec: np.ndarray) -> np.ndarray:
    """``np.fft.irfft2(spec, s=(n, n))`` of an (n, n//2 + 1) half spectrum, bit for bit: column iffts, then row irffts."""
    n = spec.shape[0]
    cols = np.empty_like(spec)
    halves.run(lambda lo, hi: np.fft.ifft(spec[:, lo:hi], axis=0, out=cols[:, lo:hi]), spec.shape[1], n * n)
    u = np.empty((n, n))
    halves.run(lambda lo, hi: np.fft.irfft(cols[lo:hi], n, axis=1, out=u[lo:hi]), n, n * n)
    return u


@dataclass(frozen=True)
class SpectralCache:
    """Half-spectrum eigenvalues of K and of D^T D on an n x n periodic grid.

    ``eig_k`` and ``eig_dtd`` have shape (n, n//2 + 1).  Valid only for the
    (n, kernel) pair it was built from.  Arrays are never written after
    construction; the cache may be shared across threads.
    """

    eig_k: np.ndarray
    eig_dtd: np.ndarray

    def check_grid(self, image: np.ndarray) -> None:
        """Raise ValueError, naming both sizes, unless ``image`` is real and n x n for the cache's n."""
        check_real(image, "image")
        n = self.eig_dtd.shape[0]
        if np.shape(image) != (n, n):
            raise ValueError(f"spectral cache was built for n={n}, the image is {'x'.join(map(str, np.shape(image)))}")


def build_cache(kernel: np.ndarray, n: int) -> SpectralCache:
    """Diagonalize the kernel and D^T D on an n x n grid.

    Every kernel the package uses passes here, so these are its rules: a
    2-D square array of finite taps with an odd side no larger than the
    integer n (ValueError otherwise).  K's eigenvalues are the real 2-D DFT of its n x n
    circulant embedding, where the tap at offset (a, b) from the centre sits
    at (a mod n, b mod n), no two on one index.  D^T D has eigenvalue
    4 sin^2(pi p/n) + 4 sin^2(pi q/n) at frequency (p, q).
    """
    if not is_number(n, integer=True):
        raise ValueError(f"grid side n must be an integer, got {n!r}")
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError(f"kernel must be a square 2-D array, got shape {kernel.shape}")
    if kernel.shape[0] % 2 == 0:
        raise ValueError(f"kernel side must be odd, got {kernel.shape[0]}")
    check_kernel_side(kernel.shape[0], n)
    if not np.isfinite(kernel).all():
        raise ValueError("kernel taps must be finite")
    offsets = (np.arange(kernel.shape[0]) - kernel.shape[0] // 2) % n
    pad = np.zeros((n, n))
    pad[np.ix_(offsets, offsets)] = kernel
    rows = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    cols = 4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return SpectralCache(eig_k=_rfft2(pad), eig_dtd=rows[:, None] + cols[None, :])


def apply_kernel(cache: SpectralCache, u: np.ndarray) -> np.ndarray:
    """Apply the blur K through the cache (spectral multiplication); ``u`` must fit the cache (ValueError)."""
    cache.check_grid(u)
    return _irfft2(cache.eig_k * _rfft2(u))


@dataclass(frozen=True)
class USystem:
    """The u-subproblem at one (f, mu, beta), ready for repeated solves.

    Holds what does not change between iterations at fixed beta, divided by
    beta once: the data term (mu/beta) conj(K^) f^ of the right-hand side
    and the per-frequency denominator (mu/beta) |K^|^2 + |D^|^2, plus K^
    and f^ themselves for ``residual_sq``.  Build it with ``prepare_u``.
    """

    eig_k: np.ndarray
    f_hat: np.ndarray
    data_hat: np.ndarray
    denom: np.ndarray


def prepare_u(f: np.ndarray, mu: float, beta: float, cache: SpectralCache) -> USystem:
    """Set up the u-subproblem (mu K^T K + beta D^T D) u = mu K^T f + beta D^T g.

    Raises ValueError unless mu and beta are positive finite real numbers and ``f`` fits the cache, and
    FloatingPointError if the per-frequency denominator mu |K^|^2 + beta |D^|^2 falls below 1e-14
    anywhere (a tiny mu or a zero-flux kernel) or overflows (a huge beta), or mu/beta overflows.
    """
    if not is_number(mu) or not 0 < mu < np.inf:
        raise ValueError(f"mu must be a positive real number, got {mu!r}")
    if not is_number(beta) or not 0 < beta < np.inf:
        raise ValueError(f"beta must be a positive real number, got {beta!r}")
    cache.check_grid(f)
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        denom = mu * np.abs(cache.eig_k) ** 2 + beta * cache.eig_dtd
    if denom.min() < SINGULAR_FLOOR:
        raise FloatingPointError(
            f"frequency-domain denominator mu |K^|^2 + beta |D^|^2 reaches {denom.min():.3e} "
            f"at mu {mu!r}, beta {beta!r}: mu is too small or the kernel has (near-)zero flux"
        )
    if not np.isfinite(denom.max()):  # inf there would set those frequencies of u to 0, whatever g is
        raise FloatingPointError(
            f"frequency-domain denominator mu |K^|^2 + beta |D^|^2 overflows at mu {mu!r}, beta {beta!r}"
        )
    if not np.isfinite(float(mu) / float(beta)):  # both terms of the system are scaled by it
        raise FloatingPointError(f"mu/beta overflows at mu {mu!r}, beta {beta!r}")
    denom /= beta
    f_hat = _rfft2(f)
    data_hat = mu / beta * np.conj(cache.eig_k) * f_hat
    return USystem(eig_k=cache.eig_k, f_hat=f_hat, data_hat=data_hat, denom=denom)


def solve_u(system: USystem, w: np.ndarray, lam: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizer of the quadratic u-subproblem, and its half spectrum.

    Solves (mu K^T K + beta D^T D) u = mu K^T f + beta D^T g for the
    gradient field g = w, or g = w - lam with the multiplier solver's field
    lam = lambda/beta, by per-frequency division, with D^T applied in space
    (``divergence_adjoint(w, lam)``, which forms w - lam row by row).  As
    ``prepare_u`` divided the system by beta, no pass scales g.  Returns
    (u, u^): the caller may hand u^ to ``residual_sq``, which overwrites it.
    Raises ValueError unless w (and lam) is a real (n, n, 2) field for the
    system's n.
    """
    check_field(w)
    n = system.denom.shape[0]
    if w.shape[0] != n:  # the per-frequency update would fail with numpy's broadcast message
        raise ValueError(f"u-system was built for n={n}, the gradient field is {'x'.join(map(str, w.shape))}")
    u_hat = _rfft2(divergence_adjoint(w, lam))

    # u^ <- (u^ + data^) / denom on rows, not columns: a column slice is strided, and numpy would buffer each
    # half's complex and float operands, adding 0.4 MB of peak at 512².
    def rows(lo, hi):
        part = u_hat[lo:hi]
        part += system.data_hat[lo:hi]
        part /= system.denom[lo:hi]

    halves.run(rows, n, n * n)
    return _irfft2(u_hat), u_hat


def residual_sq(system: USystem, u_hat: np.ndarray) -> float:
    """||K u - f||^2 from the half spectrum u^ = rfft2(u), by Parseval, on row halves.

    Works in u^'s buffer, which it overwrites: r^ = K^ u^ - f^, then the
    squares of its real and imaginary parts.  Over the full spectrum
    ||r||^2 = sum |r^|^2 / n^2.  The half spectrum stands for every column
    twice (itself and its conjugate mirror) except column 0 and, for even
    n, column n/2, their own mirrors, whose squares are halved to count once.
    The squares are summed by ``plane_sum``'s rule.
    """
    n = u_hat.shape[0]
    partials = np.empty(n)

    def rows(lo, hi):  # r^ and its halved squares in u^'s rows, and each row's partial
        part = u_hat[lo:hi]
        part *= system.eig_k[lo:hi]
        part -= system.f_hat[lo:hi]
        sq = part.view(np.float64)  # (re, im) pairs: column c of r^ is sq[:, 2c : 2c + 2]
        np.multiply(sq, sq, out=sq)
        sq[:, :2] *= 0.5
        if n % 2 == 0:
            sq[:, n : n + 2] *= 0.5
        np.sum(sq, axis=1, out=partials[lo:hi])

    halves.run(rows, n, n * n)
    return 2.0 * add_rows(partials) / (n * n)
