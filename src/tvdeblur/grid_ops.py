"""The package's number and image rules, periodic differences and blur kernels.

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


def is_number(value, integer: bool = False) -> bool:
    """The one number rule: a real a float64 holds, or with ``integer`` any integer; numpy scalars count, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return False
    if not integer:
        try:
            float(value)  # a real past the float64 range (a huge int) would raise OverflowError where it is used
        except OverflowError:
            return False
    return True


def check_real(a, name: str) -> None:
    """Raise ValueError, calling the input ``name``, when ``a`` is complex; a dtype check, not a pass over the data."""
    if np.iscomplexobj(a):  # a float64 cast would drop the imaginary part with a ComplexWarning
        raise ValueError(f"{name} must be real, got complex values")


def validate_image(u: np.ndarray, name: str = "image") -> np.ndarray:
    """The one image rule: check the square-image invariants and return ``u`` as float64.

    Raises ValueError, calling the input ``name``, on complex or non-finite entries, non-square shapes, or n < 2.
    """
    check_real(u, name)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {u.shape}")
    if u.shape[0] < 2:
        raise ValueError(f"{name} side must be at least 2 pixels")
    if not np.isfinite(u).all():
        raise ValueError(f"{name} contains NaN or Inf")
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
    """A blurring kernel: delta, average(m) or gaussian(m, width), valid once it exists.

    m is odd and positive (1 for a delta); only a gaussian has a width.  A bad field raises ValueError naming it.
    """

    kind: str
    size: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("delta", "average", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not is_number(self.size, integer=True):
            raise ValueError(f"kernel size must be an integer, got {self.size!r}")
        if self.size % 2 == 0 or self.size < 1:
            raise ValueError(f"kernel size must be odd and positive, got {self.size}")
        if self.kind == "delta" and self.size != 1:
            raise ValueError(f"a delta kernel has size 1, got {self.size}")
        if not is_number(self.sigma):
            raise ValueError(f"gaussian width must be a real number, got {self.sigma!r}")
        s = self.sigma
        if self.kind != "gaussian" and s != 0:
            raise ValueError(f"only a gaussian kernel has a width, got {s!r} for {self.kind}")
        if self.kind == "gaussian" and not (s > 0 and 2.0 * s * s > 0 and math.isfinite(s)):
            raise ValueError(f"gaussian width must be positive and finite with 2*width^2 > 0, got {s}")

    @classmethod
    def from_string(cls, text: str) -> "KernelSpec":
        """Parse 'delta', 'average:M' or 'gaussian:M:SIGMA' (CLI syntax)."""
        kind, *tokens = text.strip().split(":")
        converters = {"delta": (), "average": (int,), "gaussian": (int, float)}.get(kind)
        if converters is None or len(tokens) != len(converters):
            raise ValueError(f"unknown kernel spec {text!r}")
        try:
            fields = [convert(token) for convert, token in zip(converters, tokens)]
        except ValueError as exc:
            raise ValueError(f"cannot parse kernel spec {text!r}: {exc}") from exc
        return cls(kind, *fields)

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
    """Realize a KernelSpec (or its CLI string) as an (m, m) tap array.

    average(m): all taps 1/m^2, and a delta is its m = 1 case; gaussian(m, s):
    sampled isotropic Gaussian renormalized to sum 1.  Flux-1 by construction.
    """
    if isinstance(spec, str):
        spec = KernelSpec.from_string(spec)
    m = spec.size
    if spec.kind != "gaussian":
        return np.full((m, m), 1.0 / (m * m), dtype=np.float64)
    s = spec.sigma
    offs = np.arange(m, dtype=np.float64) - m // 2
    r2 = offs[:, None] ** 2 + offs[None, :] ** 2
    with np.errstate(over="ignore"):  # a width below ~1e-154 takes r2 / (2 s^2) to inf, and exp to the right 0
        taps = np.exp(-r2 / (2.0 * s * s))
    return taps / taps.sum()
