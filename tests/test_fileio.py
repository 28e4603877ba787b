import struct

import numpy as np
import pytest

from structkpn.fileio import read_pgm, write_pgm, write_scaled_pgm, read_array
from helpers import read_minmax


def test_pgm_16bit_roundtrip_exact_levels(tmp_path):
    # values on the quantization grid survive a write/read cycle exactly
    rng = np.random.default_rng(80)
    img = np.round(rng.random((13, 9)) * 65535) / 65535
    p = write_pgm(tmp_path / "a.pgm", img)
    back = read_pgm(p)
    assert np.array_equal(back, img)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n9 13\n65535\n")
    assert len(raw) == len(b"P5\n9 13\n65535\n") + 13 * 9 * 2


def test_pgm_16bit_is_big_endian(tmp_path):
    img = np.array([[1.0]])
    p = write_pgm(tmp_path / "one.pgm", img)
    assert p.read_bytes().endswith(b"\xff\xff")
    img2 = np.array([[256 / 65535]])
    p2 = write_pgm(tmp_path / "two.pgm", img2)
    assert p2.read_bytes().endswith(b"\x01\x00")   # MSB first


def test_pgm_8bit_roundtrip(tmp_path):
    img = np.linspace(0, 1, 16).reshape(4, 4)
    p = write_pgm(tmp_path / "b.pgm", img, maxval=255)
    back = read_pgm(p)
    assert np.array_equal(back, np.round(img * 255) / 255)


def test_pgm_write_clips_out_of_range(tmp_path):
    img = np.array([[-0.5, 1.7]])
    back = read_pgm(write_pgm(tmp_path / "c.pgm", img))
    assert np.array_equal(back, [[0.0, 1.0]])


def test_pgm_write_refuses_non_finite_pixels(tmp_path):
    img = np.full((4, 5), 0.5)
    img[2, 3] = np.nan
    path = tmp_path / "nan.pgm"
    with pytest.raises(ValueError, match="nan.pgm"):
        write_pgm(path, img)
    assert not path.exists()


def test_pgm_header_comments_are_skipped(tmp_path):
    p = tmp_path / "d.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
    assert np.array_equal(read_pgm(p), [[0.0, 1.0]])


def test_pgm_errors(tmp_path):
    p = tmp_path / "e.pgm"
    p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")   # truncated pixels
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n70000\n" + b"\x00" * 8)
    with pytest.raises(ValueError):
        read_pgm(p)
    for bad_header in (b"P5\n2 x\n255\n\x00\x00", b"P5\n-2 2\n255\n\x00\x00",
                       b"P5\n2 2\n", b"P5 # comment to the end"):
        p.write_bytes(bad_header)
        with pytest.raises(ValueError, match="e.pgm"):
            read_pgm(p)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "f.pgm", np.zeros((2, 2, 2)))


def test_pgm_sample_above_maxval_names_the_file(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5 2 1 100\n" + bytes([50, 200]))
    with pytest.raises(ValueError, match="over.pgm"):
        read_pgm(p)
    p.write_bytes(b"P5 2 1 300\n" + b"\x01\x2c\x01\x2d")   # 300 loads, 301 does not
    with pytest.raises(ValueError, match="over.pgm"):
        read_pgm(p)


@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_byte_flips_and_truncations_load_in_range_or_name_the_file(tmp_path, maxval):
    img = np.random.default_rng(81).random((4, 5))
    full = write_pgm(tmp_path / "src.pgm", img, maxval=maxval).read_bytes()
    path = tmp_path / "fuzz.pgm"
    cases = [full[:n] for n in range(len(full))]
    for i in range(len(full)):
        for mask in (0x01, 0x20, 0x80, 0xFF):
            flipped = bytearray(full)
            flipped[i] ^= mask
            cases.append(bytes(flipped))
    loaded = 0
    for data in cases:
        path.write_bytes(data)
        try:
            back = read_pgm(path)
        except ValueError as e:
            assert "fuzz.pgm" in str(e), (data, e)
            continue
        assert back.min() >= 0.0 and back.max() <= 1.0, data
        loaded += 1
    assert 0 < loaded < len(cases)


def test_scaled_pgm_sidecar_roundtrip(tmp_path):
    arr = np.array([[-3.0, 0.0], [5.0, 1.0]])
    pgm, sidecar = write_scaled_pgm(tmp_path / "m.pgm", arr)
    assert sidecar.name == "m.pgm.minmax.txt"
    lo, hi = read_minmax(sidecar)
    assert (lo, hi) == (-3.0, 5.0)
    back = read_pgm(pgm)
    assert np.allclose(lo + back * (hi - lo), arr, atol=(hi - lo) / 65535)


def test_scaled_pgm_constant_map(tmp_path):
    pgm, sidecar = write_scaled_pgm(tmp_path / "flat.pgm", np.full((3, 3), 4.2))
    assert np.array_equal(read_pgm(pgm), np.zeros((3, 3)))
    lo, hi = read_minmax(sidecar)
    assert lo == hi == 4.2


def test_array_record_with_overflowing_dims_names_file(tmp_path):
    # the element count of 2^32-1 x 2^32-1 dims must not wrap to a small or negative size
    p = tmp_path / "dims.bin"
    p.write_bytes(struct.pack("<3I", 2, 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 8)
    with open(p, "rb") as f, pytest.raises(ValueError, match="dims.bin"):
        read_array(f, p)
