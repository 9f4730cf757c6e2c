import numpy as np
import pytest

from layermotion import imgio
from layermotion.errors import DataError


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((7, 5, 3))
    path = tmp_path / "x.ppm"
    imgio.write_ppm(path, img)
    back = imgio.read_ppm(path)
    assert back.shape == (7, 5, 3)
    # 8-bit quantization: worst case half a step.
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_pgm_round_trip_binary_exact(tmp_path):
    mask = (np.random.default_rng(1).random((9, 4)) > 0.5).astype(float)
    path = tmp_path / "m.pgm"
    imgio.write_pgm(path, mask)
    back = imgio.read_pgm(path)
    np.testing.assert_array_equal(back, mask)  # 0 and 255/255 survive exactly


def test_pgm_linear_mapping(tmp_path):
    path = tmp_path / "g.pgm"
    imgio.write_pgm(path, np.array([[0.0, 0.5, 1.0]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    assert list(raw[-3:]) == [0, 128, 255]


def test_ppm_header(tmp_path):
    path = tmp_path / "x.ppm"
    imgio.write_ppm(path, np.zeros((2, 3, 3)))
    assert path.read_bytes().startswith(b"P6\n3 2\n255\n")


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DataError):
        imgio.read_ppm(path)


def test_comment_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
    back = imgio.read_pgm(path)
    np.testing.assert_allclose(back, [[0.0, 1.0]])


@pytest.mark.parametrize("cut", [2, 4, 6])
def test_header_cut_short(tmp_path, cut):
    path = tmp_path / "x.pgm"
    imgio.write_pgm(path, np.zeros((24, 24)))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(DataError, match="header cut short"):
        imgio.read_pgm(path)


def test_non_integer_size_token(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n2x 1\n255\n" + bytes(6))
    with pytest.raises(DataError, match="not a decimal size"):
        imgio.read_ppm(path)


@pytest.mark.parametrize("keep", [0, 1, 5])
def test_truncated_pixel_data(tmp_path, keep):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes(keep))
    with pytest.raises(DataError, match="truncated pixel data"):
        imgio.read_ppm(path)


def test_f64_round_trip(tmp_path):
    arr = np.random.default_rng(2).standard_normal((4, 6))
    path = tmp_path / "x.f64"
    imgio.write_f64(path, arr)
    np.testing.assert_array_equal(imgio.read_f64(path, (4, 6)), arr)


def test_f64_shape_mismatch(tmp_path):
    path = tmp_path / "x.f64"
    imgio.write_f64(path, np.zeros(3))
    with pytest.raises(DataError):
        imgio.read_f64(path, (4,))


def test_write_bytes_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "x.bin"
    imgio.write_bytes(path, b"abc")
    assert path.read_bytes() == b"abc"
    assert [p.name for p in path.parent.iterdir()] == ["x.bin"]


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "x.pgm"
    imgio.write_pgm(path, np.zeros((2, 2)))
    old = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(imgio.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        imgio.write_pgm(path, np.ones((2, 2)))
    assert path.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []

