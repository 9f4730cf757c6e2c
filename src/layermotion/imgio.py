"""The one file writer, the one file reader, and one codec per on-disk format.

`write_bytes(path, data)` writes every file: it creates the parent
directory, writes a temporary sibling and `os.replace`s it into place, so a
reader never sees a partial file. It does not fsync. It and every writer on
it return the SHA-256 of the bytes written. `read_bytes(path)`
reads every file whole; any `OSError` (a missing file, a directory in its
place) becomes `DataError`. The codecs on top of them:
PPM (P6) and PGM (P5) images map byte = round(255 * clip(v, 0, 1)), and
readers invert it as v = byte / 255; raw dumps are little-endian float64 in
C order with no header (the caller knows the shape); `encode_csv` writes
rows with "\r\n" line ends; `read_json` reads one JSON object. Text is
UTF-8, whatever the locale.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataError


def write_bytes(path, data: bytes) -> str:
    """Write `data` to `path` whole, or leave `path` as it was; returns sha256(data) in hex."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return hashlib.sha256(data).hexdigest()


def read_bytes(path) -> bytes:
    """The whole contents of `path`; a file that cannot be read raises `DataError`."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read ({e.strerror})") from e


def encode_csv(rows) -> bytes:
    """Rows as CSV bytes, the header first, each row ended by "\\r\\n"."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def read_json(path) -> dict:
    """The JSON object in `path`. A file that cannot be read, is not valid
    JSON or holds anything but an object raises `DataError`."""
    data = read_bytes(path)
    try:
        doc = json.loads(data)
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def _to_u8(arr: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)


def _encode_pnm(magic: str, img: np.ndarray) -> bytes:
    h, w = img.shape[:2]
    return f"{magic}\n{w} {h}\n255\n".encode("ascii") + _to_u8(img).tobytes()


def write_ppm(path, rgb: np.ndarray) -> str:
    """Write an (H, W, 3) float image in [0, 1] as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DataError(f"PPM payload must be (H, W, 3), got {rgb.shape}")
    return write_bytes(path, _encode_pnm("P6", rgb))


def write_pgm(path, gray: np.ndarray) -> str:
    """Write an (H, W) float image in [0, 1] as binary PGM (P5)."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise DataError(f"PGM payload must be (H, W), got {gray.shape}")
    return write_bytes(path, _encode_pnm("P5", gray))


def _read_pnm(path, magic: bytes) -> np.ndarray:
    data = read_bytes(path)
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


def write_f64(path, arr: np.ndarray) -> str:
    return write_bytes(path, np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_f64(path, shape) -> np.ndarray:
    """The dump at `path` as a read-only array of `shape`; a caller that writes copies it."""
    data = read_bytes(path)
    expect = math.prod(shape)
    if len(data) != 8 * expect:
        raise DataError(f"{path}: expected {expect} float64 values ({8 * expect} bytes), got {len(data)} bytes")
    return np.frombuffer(data, dtype="<f8").reshape(shape)
