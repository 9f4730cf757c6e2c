"""Binary PPM/PGM image I/O and raw float64 channel dumps.

All 8-bit images use the linear mapping byte = round(255 * clip(v, 0, 1));
readers invert it as v = byte / 255. Raw dumps are little-endian float64 in
C order with no header (shape comes from the caller).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError


def _to_u8(arr: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) float image in [0, 1] as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DataError(f"PPM payload must be (H, W, 3), got {rgb.shape}")
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_to_u8(rgb).tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) float image in [0, 1] as binary PGM (P5)."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise DataError(f"PGM payload must be (H, W), got {gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_to_u8(gray).tobytes())


def _read_pnm(path, magic: bytes) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(magic):
        raise DataError(f"{path}: expected {magic.decode()} file")
    # Header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed; pixel data starts after the single byte of
    # whitespace that terminates maxval.
    tokens: list[int] = []
    i = 2
    while len(tokens) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if not data[i:j].isdigit():
            raise DataError(f"{path}: header cut short or not a decimal size: {data[i:j][:16]!r}")
        tokens.append(int(data[i:j]))
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PNM supported, maxval={maxval}")
    channels = 3 if magic == b"P6" else 1
    count = w * h * channels
    if len(data) - i < count:
        raise DataError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=i)
    arr = raw.astype(np.float64) / 255.0
    return arr.reshape(h, w, 3) if channels == 3 else arr.reshape(h, w)


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6")


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5")


def write_f64(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_f64(path, shape) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f8")
    expect = int(np.prod(shape))
    if raw.size != expect:
        raise DataError(f"{path}: expected {expect} float64 values, got {raw.size}")
    return raw.reshape(shape)
