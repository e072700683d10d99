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

PGM_MAXVAL = 65535

# magic, then width, height and maxval, each after whitespace or comment
# lines, then the one whitespace byte that precedes the raster
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def write_pgm(path, img: np.ndarray) -> None:
    """Write an image as 16-bit big-endian binary PGM, clamping to [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    scaled = np.rint(np.clip(img, 0.0, 1.0) * PGM_MAXVAL).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(scaled.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float64 image scaled to [0, 1]."""
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
    return raster.reshape(h, w).astype(np.float64) / maxval


def load_image(path) -> np.ndarray:
    """Load a grey-scale image normalized to [0, 1].

    PGM is handled natively; anything else goes through Pillow when it is
    installed (the 'png' extra), and raises ValueError when it is not.
    """
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return read_pgm(path)
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
