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
- a pass split on row halves (``halves.run``) nests its row work, ``rows(lo,
  hi)``, over its own buffers, and passes numpy only 1-D runs or whole-row
  blocks: a strided 2-D operand makes numpy allocate ~0.2 MB of iteration
  buffers per call, which both halves would hold at once.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import halves

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
    check_square(u, name)
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] < 2:
        raise ValueError(f"{name} side must be at least 2 pixels")
    if not np.isfinite(u).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return u


def check_square(u: np.ndarray, name: str = "image") -> None:
    """Raise ValueError, calling the input ``name``, unless ``u`` is real and square 2-D; not a pass over the data."""
    check_real(u, name)
    shape = np.shape(u)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {shape}")


def check_field(g: np.ndarray) -> None:
    """Raise ValueError, naming its shape, unless ``g`` is a real (n, n, 2) gradient field; not a pass over the data."""
    check_real(g, "gradient field")
    shape = np.shape(g)
    if len(shape) != 3 or shape[2] != 2 or shape[0] != shape[1]:
        raise ValueError(f"gradient field must have shape (n, n, 2), got {shape}")


def forward_diff(u: np.ndarray) -> np.ndarray:
    """Forward differences with periodic wrap.

    dx(i, j) = u(i, (j+1) mod n) - u(i, j)
    dy(i, j) = u((i+1) mod n, j) - u(i, j)

    Returns an (n, n, 2) gradient field; [..., 0] is dx, [..., 1] is dy.
    This is the one place that decides the storage order: the field is
    plane-major, each component a C-contiguous plane.  Each plane is written
    in place, on row halves (``halves.run``).  Raises ValueError unless u is
    a real square image (``check_square``).
    """
    check_square(u)
    u = np.ascontiguousarray(u)
    n = u.shape[0]
    g = np.empty((2,) + u.shape, dtype=np.float64).transpose(1, 2, 0)
    dx, dy, flat = g[..., DX], g[..., DY], u.reshape(-1)

    def rows(lo, hi):  # dy reads row hi (mod n) as its halo
        first, stop = lo * n, hi * n
        # u(i, j+1) - u(i, j) along the flat rows; each row's last entry is then overwritten by its wrap
        np.subtract(flat[first + 1 : stop], flat[first : stop - 1], out=dx.reshape(-1)[first : stop - 1])
        np.subtract(u[lo:hi, 0], u[lo:hi, -1], out=dx[lo:hi, -1])
        last = min(hi, n - 1)
        np.subtract(u[lo + 1 : last + 1], u[lo:last], out=dy[lo:last])
        if last < hi:
            np.subtract(u[0], u[-1], out=dy[-1])

    halves.run(rows, n, u.size)
    return g


def divergence_adjoint(g: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint D^T of ``forward_diff``, of g or, with a field ``lam``, of g - lam, on row halves (``halves.run``).

    Satisfies <forward_diff(u), g> == <u, divergence_adjoint(g)> for all
    u, g (this is the negative discrete divergence of the field):

        (gx(i, j-1) - gx(i, j)) + (gy(i-1, j) - gy(i, j)), indices mod n.

    With ``lam`` each half forms g - lam on its own rows, one component at a
    time, and the result has the bits of ``divergence_adjoint(g - lam)``
    without a field for the difference.  Raises ValueError unless g (and
    lam) is a real (n, n, 2) field (``check_field``).
    """
    check_field(g)
    if lam is not None:
        check_field(lam)
        if np.shape(lam) != np.shape(g):
            raise ValueError(f"multiplier field has shape {np.shape(lam)}, the gradient field {np.shape(g)}")
    out = np.empty(g.shape[:2], dtype=np.float64)
    ydiff = np.empty_like(out)
    part = None if lam is None else np.empty_like(out)

    # gy reads row lo - 1 (mod n) as its halo.  g - lam is formed a component at a time in part, its halo in ydiff
    def rows(lo, hi):
        hx = g[lo:hi, :, DX] if lam is None else np.subtract(g[lo:hi, :, DX], lam[lo:hi, :, DX], out=part[lo:hi])
        hx_flat, block = hx.reshape(-1), out[lo:hi]  # a view for both field layouts
        # hx(i, j-1) - hx(i, j) along the flat rows; each row's first entry is then overwritten by its wrap
        np.subtract(hx_flat[:-1], hx_flat[1:], out=block.reshape(-1)[1:])
        np.subtract(hx[:, -1], hx[:, 0], out=block[:, 0])
        hy = g[lo:hi, :, DY] if lam is None else np.subtract(g[lo:hi, :, DY], lam[lo:hi, :, DY], out=part[lo:hi])
        np.subtract(hy[:-1], hy[1:], out=ydiff[lo + 1 : hi])
        above = (lo - 1) % out.shape[0]
        halo = g[above, :, DY] if lam is None else np.subtract(g[above, :, DY], lam[above, :, DY], out=ydiff[lo])
        np.subtract(halo, hy[0], out=ydiff[lo])
        block += ydiff[lo:hi]

    halves.run(rows, out.shape[0], out.size)
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
