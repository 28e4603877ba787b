"""Binary PGM images, and the checked binary reads and float64 array records.

Images are stored as P5 PGM, 8-bit or 16-bit (16-bit samples big-endian per
the format), and map linearly to [0,1] floats on read. Maps whose natural
range is not [0,1] are rescaled on write, with the true min/max recorded in a
small text sidecar next to the image. Array records (rank, dims, little-endian
payload) round-trip byte for byte; checkpoints are built from them.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "read_pgm",
    "write_pgm",
    "write_scaled_pgm",
    "read_minmax",
    "read_exact",
    "read_u32",
    "write_array",
    "read_array",
]


def read_exact(f, size, path):
    """Exactly ``size`` bytes from ``f``, or a ValueError naming ``path`` and the offset.

    The size is checked against the file before reading, so a corrupt length
    field cannot allocate more than the file holds.
    """
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if size > left:
        raise ValueError(f"{path}: truncated at byte {offset}: need {size} bytes, {max(left, 0)} left")
    return f.read(size)


def read_u32(f, path, count=1):
    """``count`` little-endian uint32 values, as a tuple."""
    return struct.unpack(f"<{count}I", read_exact(f, 4 * count, path))


def write_array(f, arr):
    """Append one float64 array record: rank, dims, little-endian payload."""
    arr = np.asarray(arr, dtype=np.float64)
    f.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    f.write(arr.astype("<f8").tobytes())


def read_array(f, path):
    """Read one record written by :func:`write_array`."""
    rank, = read_u32(f, path)
    if rank > 32:
        raise ValueError(f"{path}: implausible tensor rank {rank} at byte {f.tell() - 4}")
    dims = read_u32(f, path, rank)
    n = math.prod(dims)                          # exact: corrupt dims must not wrap around
    return np.frombuffer(read_exact(f, 8 * n, path), dtype="<f8").reshape(dims).astype(np.float64)


def _read_header_numbers(f, count, path):
    """Next ``count`` whitespace-separated decimal header fields, skipping # comments."""
    numbers = []
    while len(numbers) < count:
        ch = f.read(1)
        if not ch:
            raise ValueError(f"{path}: truncated PGM header at byte {f.tell()}")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        tok = ch
        while True:
            ch = f.read(1)
            if not ch or ch in b" \t\r\n":
                break
            tok += ch
        if not tok.isdigit():
            raise ValueError(f"{path}: PGM header field {tok!r} is not a decimal number")
        numbers.append(int(tok))
    return numbers


def read_pgm(path):
    """Load a binary PGM as float64 in [0,1] (sample / maxval)."""
    path = Path(path)
    with open(path, "rb") as f:
        if f.read(2) != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        w, h, maxval = _read_header_numbers(f, 3, path)
        if w < 1 or h < 1:
            raise ValueError(f"{path}: bad PGM dimensions {w}x{h}")
        if not 0 < maxval < 65536:
            raise ValueError(f"{path}: PGM maxval {maxval} out of range")
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raw = read_exact(f, w * h * dtype.itemsize, path)
    img = np.frombuffer(raw, dtype=dtype).reshape(h, w)
    return img.astype(np.float64) / maxval


def write_pgm(path, img, maxval=65535):
    """Quantize a [0,1] image to PGM. 16-bit samples are written big-endian."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"write_pgm: expected a 2-D image, got shape {img.shape}")
    if not 0 < maxval < 65536:
        raise ValueError(f"write_pgm: maxval {maxval} out of range")
    q = np.round(np.clip(img, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        f.write(q.astype(dtype).tobytes())
    return path


def write_scaled_pgm(path, arr, maxval=65535):
    """Write an arbitrary-range map rescaled to [0,1], plus a min/max sidecar.

    A constant map writes as all zeros. Returns (pgm_path, sidecar_path);
    the sidecar is ``<pgm path>.minmax.txt`` holding the original range.
    """
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo
    scaled = (arr - lo) / span if span > 0 else np.zeros_like(arr)
    pgm_path = write_pgm(path, scaled, maxval)
    sidecar = Path(str(pgm_path) + ".minmax.txt")
    sidecar.write_text(f"min {lo!r}\nmax {hi!r}\n", encoding="ascii")
    return pgm_path, sidecar


def read_minmax(sidecar_path):
    lines = Path(sidecar_path).read_text(encoding="ascii").split()
    if len(lines) != 4 or lines[0] != "min" or lines[2] != "max":
        raise ValueError(f"{sidecar_path}: malformed min/max sidecar")
    return float(lines[1]), float(lines[3])
