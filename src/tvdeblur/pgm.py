"""16-bit binary PGM (P5) image I/O, plus optional PNG import via Pillow.

PGM with maxval 65535 and big-endian samples is the package's native image
format: lossless for export purposes (1/65535 quantization), trivially
parseable, and byte-stable for tests.  Grey levels map [0, 1] <-> [0, 65535];
values are clamped to [0, 1] on write.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .grid_ops import check_real

PGM_MAXVAL = 65535

# magic, then width, height and maxval, each after whitespace or comment
# lines, then the one whitespace byte that precedes the raster
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-D image as 16-bit big-endian PGM, clamping to [0, 1] (+-inf too); ValueError for NaN or complex."""
    check_real(img, f"{path}: image")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"{path}: a PGM image must be 2-D, got shape {img.shape}")
    if np.isnan(img).any():  # the cast would write it as 0
        raise ValueError(f"{path}: image contains NaN")
    h, w = img.shape
    scaled = np.rint(np.clip(img, 0.0, 1.0) * PGM_MAXVAL).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(scaled.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float64 image scaled to [0, 1]; ValueError, naming the file, for a malformed one.

    A malformed file has another magic, a truncated header or raster, a maxval outside [1, 65535], or a sample
    above its maxval.
    """
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary (P5) PGM file")
    header = _HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: truncated or malformed PGM header")
    w, h, maxval = map(int, header.groups())
    offset = header.end()
    if maxval <= 0 or maxval > 65535:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    expected = w * h * dtype.itemsize
    if len(data) - offset < expected:
        raise ValueError(
            f"{path}: truncated PGM raster: expected {expected} bytes for {w}x{h}, found {len(data) - offset}"
        )
    raster = np.frombuffer(data, dtype=dtype, count=w * h, offset=offset)
    if maxval < np.iinfo(dtype).max and (top := raster.max(initial=0)) > maxval:  # it would load above 1
        raise ValueError(f"{path}: largest PGM sample {top} exceeds maxval {maxval}")
    return raster.reshape(h, w).astype(np.float64) / maxval


def load_image(path) -> np.ndarray:
    """Load a grey-scale image normalized to [0, 1].

    PGM is handled natively; anything else goes through Pillow when it is
    installed (the 'png' extra), and raises ValueError when it is not.  A
    directory, or a path with no suffix to tell the format by, raises
    ValueError naming the path; a missing file raises FileNotFoundError
    naming it, whatever its suffix.
    """
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{path}: is a directory, not an image file")
    if not path.suffix:
        raise ValueError(f"{path}: has no image suffix (.pgm, or .png and the like with Pillow)")
    if path.suffix.lower() == ".pgm":
        return read_pgm(path)
    path.stat()  # a missing file raises FileNotFoundError naming it, not the ImportError below
    try:
        from PIL import Image
    except ImportError as exc:
        raise ValueError(
            f"loading {path.suffix} files requires Pillow (pip install tvdeblur[png])"
        ) from exc
    with Image.open(path) as im:
        if im.mode in ("I", "I;16", "I;16B", "I;16L"):
            arr = np.asarray(im.convert("I"), dtype=np.float64)
            return arr / 65535.0
        arr = np.asarray(im.convert("L"), dtype=np.float64)
        return arr / 255.0
