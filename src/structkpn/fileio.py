"""Binary PGM images, and the checked binary reads and float64 array records.

Images are stored as P5 PGM, 8-bit or 16-bit (16-bit samples big-endian per
the format), and map linearly to [0,1] floats on read. Maps whose natural
range is not [0,1] are rescaled on write, with the true min/max recorded in a
small text sidecar next to the image. Array records (rank, dims, little-endian
payload) round-trip byte for byte, and a reader can seek past one with the
same checks; checkpoints are built from them.
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
    "read_exact",
    "read_u32",
    "write_array",
    "read_array",
    "skip_array",
]


def _check_left(f, size, path):
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if size > left:
        raise ValueError(f"{path}: truncated at byte {offset}: need {size} bytes, {max(left, 0)} left")


def read_exact(f, size, path):
    """Exactly ``size`` bytes from ``f``, or a ValueError naming ``path`` and the offset.

    The size is checked against the file before reading, so a corrupt length
    field cannot allocate more than the file holds.
    """
    _check_left(f, size, path)
    return f.read(size)


def read_u32(f, path, count=1):
    """``count`` little-endian uint32 values, as a tuple."""
    return struct.unpack(f"<{count}I", read_exact(f, 4 * count, path))


def write_array(f, arr):
    """Append one float64 array record: rank, dims, little-endian payload."""
    arr = np.asarray(arr, dtype=np.float64)
    f.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    f.write(arr.astype("<f8").tobytes())


def _read_dims(f, path):
    """A record's dims and its payload's byte count, leaving ``f`` at the payload."""
    rank, = read_u32(f, path)
    if rank > 32:
        raise ValueError(f"{path}: implausible tensor rank {rank} at byte {f.tell() - 4}")
    dims = read_u32(f, path, rank)
    return dims, 8 * math.prod(dims)             # exact: corrupt dims must not wrap around


def read_array(f, path):
    """Read one record written by :func:`write_array`."""
    dims, size = _read_dims(f, path)
    return np.frombuffer(read_exact(f, size, path), dtype="<f8").reshape(dims).astype(np.float64)


def skip_array(f, path):
    """Seek past one record written by :func:`write_array`; returns its dims.

    The record is checked as :func:`read_array` checks it, so a file fails
    the one where it fails the other, but its payload is never read.
    """
    dims, size = _read_dims(f, path)
    _check_left(f, size, path)
    f.seek(size, os.SEEK_CUR)
    return dims


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
    """Load a binary PGM as float64 in [0,1] (sample / maxval).

    A sample above maxval, which the format forbids, is a ValueError naming
    the file, so every image that loads lies in [0,1].
    """
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
    if img.max() > maxval:
        raise ValueError(f"{path}: PGM sample {img.max()} exceeds maxval {maxval}")
    return img.astype(np.float64) / maxval


def write_pgm(path, img, maxval=65535):
    """Quantize a finite [0,1] image to PGM. 16-bit samples are written big-endian."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"write_pgm: expected a 2-D image, got shape {img.shape}")
    if not 0 < maxval < 65536:
        raise ValueError(f"write_pgm: maxval {maxval} out of range")
    path = Path(path)
    if not np.isfinite(img).all():
        raise ValueError(f"{path}: refusing to write non-finite pixels")
    q = np.round(np.clip(img, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        f.write(q.astype(dtype).tobytes())
    return path


def write_scaled_pgm(path, arr):
    """Write an arbitrary-range map rescaled to [0,1], plus a min/max sidecar.

    A constant map writes as all zeros. Returns (pgm_path, sidecar_path);
    the sidecar is ``<pgm path>.minmax.txt`` holding the original range.
    """
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo
    scaled = (arr - lo) / span if span > 0 else np.zeros_like(arr)
    pgm_path = write_pgm(path, scaled)
    sidecar = Path(str(pgm_path) + ".minmax.txt")
    sidecar.write_text(f"min {lo!r}\nmax {hi!r}\n", encoding="ascii")
    return pgm_path, sidecar

