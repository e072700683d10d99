"""Periodic-boundary difference operators and blur kernels on square images.

Conventions used throughout the package:

- an image is an (n, n) float64 array, n >= 2, row-major, indexed (row, col);
- a gradient field is an (n, n, 2) float64 array where [..., 0] holds the
  horizontal (column) forward difference dx and [..., 1] the vertical (row)
  forward difference dy.  It is stored plane-major: ``forward_diff`` lays
  out each of [..., 0] and [..., 1] as a C-contiguous (n, n) plane (strides
  (8n, 8, 8n^2)), so per-pixel passes read contiguous memory.  Ufuncs keep
  their inputs' layout, so every field derived from it stays plane-major;
  an interleaved (C-ordered) field gives the same values, only more slowly;
- a kernel is an (m, m) float64 array with odd m, anchored at its centre tap;
  blurring with it (``spectral.apply_kernel``) is true convolution (kernel
  flipped) with circular wrap-around.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DX = 0
DY = 1


def validate_image(u: np.ndarray) -> np.ndarray:
    """Check the square-image invariants and return ``u`` as float64.

    Raises ValueError on non-square shapes, n < 2, or non-finite entries.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"image must be square 2-D, got shape {u.shape}")
    if u.shape[0] < 2:
        raise ValueError("image side must be at least 2 pixels")
    if not np.isfinite(u).all():
        raise ValueError("image contains NaN or Inf")
    return u


def forward_diff(u: np.ndarray) -> np.ndarray:
    """Forward differences with periodic wrap.

    dx(i, j) = u(i, (j+1) mod n) - u(i, j)
    dy(i, j) = u((i+1) mod n, j) - u(i, j)

    Returns an (n, n, 2) gradient field; [..., 0] is dx, [..., 1] is dy.
    This is the one place that decides the storage order: the field is
    plane-major, each component a C-contiguous plane.  Each plane is written
    in place: the interior, then the wrap column/row.
    """
    g = np.empty((2,) + u.shape, dtype=np.float64).transpose(1, 2, 0)
    dx = g[..., DX]
    dy = g[..., DY]
    np.subtract(u[:, 1:], u[:, :-1], out=dx[:, :-1])
    np.subtract(u[:, :1], u[:, -1:], out=dx[:, -1:])
    np.subtract(u[1:], u[:-1], out=dy[:-1])
    np.subtract(u[:1], u[-1:], out=dy[-1:])
    return g


def divergence_adjoint(g: np.ndarray) -> np.ndarray:
    """Exact adjoint D^T of ``forward_diff``.

    Satisfies <forward_diff(u), g> == <u, divergence_adjoint(g)> for all
    u, g (this is the negative discrete divergence of the field):

        (gx(i, j-1) - gx(i, j)) + (gy(i-1, j) - gy(i, j)), indices mod n.
    """
    gx = g[..., DX]
    gy = g[..., DY]
    out = np.empty(gx.shape, dtype=np.float64)
    np.subtract(gx[:, :-1], gx[:, 1:], out=out[:, 1:])
    np.subtract(gx[:, -1:], gx[:, :1], out=out[:, :1])
    ydiff = np.empty_like(out)
    np.subtract(gy[:-1], gy[1:], out=ydiff[1:])
    np.subtract(gy[-1:], gy[:1], out=ydiff[:1])
    out += ydiff
    return out


@dataclass(frozen=True)
class KernelSpec:
    """Description of a blurring kernel: average(m), gaussian(m, sigma), delta; m an integer, sigma a real."""

    kind: str
    size: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        if not isinstance(self.size, numbers.Integral):
            raise ValueError(f"kernel size must be an integer, got {self.size!r}")
        if not isinstance(self.sigma, numbers.Real):
            raise ValueError(f"gaussian width must be a real number, got {self.sigma!r}")

    @classmethod
    def average(cls, size: int) -> "KernelSpec":
        return cls("average", size)

    @classmethod
    def gaussian(cls, size: int, sigma: float) -> "KernelSpec":
        return cls("gaussian", size, sigma)

    @classmethod
    def delta(cls) -> "KernelSpec":
        return cls("delta", 1)

    @classmethod
    def from_string(cls, text: str) -> "KernelSpec":
        """Parse 'delta', 'average:M' or 'gaussian:M:SIGMA' (CLI syntax)."""
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            if kind == "delta" and len(parts) == 1:
                return cls.delta()
            if kind == "average" and len(parts) == 2:
                return cls.average(int(parts[1]))
            if kind == "gaussian" and len(parts) == 3:
                return cls.gaussian(int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ValueError(f"cannot parse kernel spec {text!r}: {exc}") from exc
        raise ValueError(f"unknown kernel spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "delta":
            return "delta"
        if self.kind == "average":
            return f"average:{self.size}"
        return f"gaussian:{self.size}:{float(self.sigma)!r}"


def check_kernel_side(side: int, n: int) -> None:
    """Raise ValueError unless a kernel of side ``side`` fits an n x n grid (before its taps exist)."""
    if side > n:
        raise ValueError(f"kernel side {side} exceeds grid side {n}")


def make_kernel(spec: KernelSpec | str) -> np.ndarray:
    """Realize a KernelSpec as an (m, m) tap array.

    average(m): all taps 1/m^2; gaussian(m, s): sampled isotropic Gaussian
    renormalized to sum 1; delta: single unit tap.  Flux-1 by construction.
    """
    if isinstance(spec, str):
        spec = KernelSpec.from_string(spec)
    if spec.kind == "delta":
        return np.ones((1, 1), dtype=np.float64)
    m = spec.size
    if m % 2 == 0 or m < 1:
        raise ValueError(f"kernel size must be odd and positive, got {m}")
    if spec.kind == "average":
        return np.full((m, m), 1.0 / (m * m), dtype=np.float64)
    if spec.kind == "gaussian":
        s = spec.sigma
        if not (s > 0 and 2.0 * s * s > 0) or not math.isfinite(s):
            raise ValueError(f"gaussian width must be positive and finite with 2*width^2 > 0, got {s}")
        c = (m - 1) // 2
        offs = np.arange(m, dtype=np.float64) - c
        r2 = offs[:, None] ** 2 + offs[None, :] ** 2
        with np.errstate(over="ignore"):  # a width below ~1e-154 takes r2 / (2 s^2) to inf, and exp to the right 0
            taps = np.exp(-r2 / (2.0 * s * s))
        return taps / taps.sum()
    raise ValueError(f"unknown kernel kind {spec.kind!r}")
