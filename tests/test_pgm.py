import numpy as np
import pytest

from tvdeblur import cli, load_image, make_phantom, read_pgm, write_pgm


def test_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(81)
    img = rng.random((12, 12))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 1.0 / 65535


def test_write_clamps_out_of_range(tmp_path):
    img = np.array([[-0.5, 0.25], [1.5, 1.0]])
    path = tmp_path / "clamp.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back[0, 0] == 0.0
    assert back[1, 0] == 1.0
    assert back[1, 1] == 1.0
    assert abs(back[0, 1] - 0.25) <= 1.0 / 65535


def test_write_clamps_infinities(tmp_path):
    path = tmp_path / "inf.pgm"
    write_pgm(path, np.array([[-np.inf, np.inf], [0.0, 1.0]]))
    assert np.array_equal(read_pgm(path), [[0.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "img, reason",
    [
        (np.array([[0.5, np.nan], [0.0, 1.0]]), "image contains NaN"),  # the cast would write it as 0
        (np.zeros((2, 2, 2)), r"a PGM image must be 2-D, got shape \(2, 2, 2\)"),
        (np.zeros(4), r"a PGM image must be 2-D, got shape \(4,\)"),
    ],
    ids=["nan", "three_d", "one_d"],
)
def test_write_rejects_what_it_cannot_write_before_opening(tmp_path, img, reason):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match=rf"bad\.pgm: {reason}"):
        write_pgm(path, img)
    assert not path.exists()


def test_header_comments_are_skipped(tmp_path):
    raster = np.arange(4, dtype=">u2") * 1000
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n# maxval next\n65535\n" + raster.tobytes())
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert np.allclose(img.ravel() * 65535, raster.view(">u2").astype(float))


def test_eight_bit_pgm_is_scaled(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_pgm(path)
    assert img[0, 0] == 0.0
    assert img[1, 0] == 1.0
    assert abs(img[0, 1] - 128 / 255) < 1e-12


def test_raster_may_start_with_whitespace_bytes(tmp_path):
    # exactly one whitespace byte ends the header; the raster's 10 and 32 are pixels
    path = tmp_path / "ws.pgm"
    path.write_bytes(b"P5 2 1 255\n" + bytes([10, 32]))
    assert np.array_equal(read_pgm(path) * 255, [[10, 32]])


def test_rejects_non_p5(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_truncated_raster_names_file_and_byte_counts(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n65535\n" + bytes(20))
    with pytest.raises(ValueError, match=r"short\.pgm.*expected 32 bytes.*found 20"):
        load_image(path)


MALFORMED = "truncated or malformed PGM header"


@pytest.mark.parametrize(
    "header, reason",
    [
        (b"P5\n2", MALFORMED),
        (b"P5 2 x 255\n", MALFORMED),
        (b"P5\n2 2\n0\n" + bytes(4), "unsupported maxval 0"),
        (b"P5\n2 2\n65536\n" + bytes(8), "unsupported maxval 65536"),
    ],
    ids=["truncated", "non_numeric", "maxval_0", "maxval_65536"],
)
def test_malformed_header_names_file(tmp_path, capsys, header, reason):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=rf"bad\.pgm: {reason}"):
        read_pgm(path)
    out = tmp_path / "o"
    assert cli.main(["deblur", "--input-path", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    assert not out.exists()


def test_load_image_png_via_pillow(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(82)
    img8 = (rng.random((10, 10)) * 255).astype(np.uint8)
    path = tmp_path / "img.png"
    PIL.fromarray(img8, mode="L").save(path)
    loaded = load_image(path)
    assert np.abs(loaded - img8 / 255.0).max() < 1e-12


def test_phantom_properties():
    u = make_phantom(64)
    assert u.shape == (64, 64)
    assert u.min() >= 0.0 and u.max() <= 1.0
    assert np.array_equal(u, make_phantom(64))  # deterministic
    # it has genuinely flat regions and a textured band
    flat = u[38:54, 5:20]
    assert np.ptp(flat) == 0.0
    texture = u[40:60, 30:60]
    assert texture.std() > 0.05
    with pytest.raises(ValueError):
        make_phantom(3)
