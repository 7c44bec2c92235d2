"""Netpbm decoding, resizing, and image loading."""

import numpy as np
import pytest

from cskn.errors import DecodeError, InvalidArgumentError
from cskn.images import (
    LUMA_WEIGHTS,
    bilinear_resize,
    decode_netpbm,
    load_image,
    rgb_to_luma,
    write_pgm,
)


def pgm_bytes(width, height, raster, maxval=255, comment=None):
    header = f"P5\n{width} {height}\n"
    if comment is not None:
        header = f"P5\n# {comment}\n{width} {height}\n"
    header += f"{maxval}\n"
    return header.encode("ascii") + bytes(raster)


class TestDecodeNetpbm:
    def test_grayscale_round_values(self):
        data = pgm_bytes(3, 2, [0, 10, 20, 30, 40, 50])
        planes, maxval = decode_netpbm(data)
        assert maxval == 255
        assert planes.shape == (2, 3)
        np.testing.assert_array_equal(planes, [[0, 10, 20], [30, 40, 50]])

    def test_color_pixel_layout(self):
        raster = bytes([255, 0, 0, 0, 255, 0])
        data = b"P6\n2 1\n255\n" + raster
        planes, _ = decode_netpbm(data)
        assert planes.shape == (1, 2, 3)
        np.testing.assert_array_equal(planes[0, 0], [255, 0, 0])
        np.testing.assert_array_equal(planes[0, 1], [0, 255, 0])

    def test_header_comments_are_skipped(self):
        data = pgm_bytes(2, 1, [7, 9], comment="created by hand")
        np.testing.assert_array_equal(decode_netpbm(data)[0], [[7, 9]])

    def test_bad_magic_reports_offset_zero(self):
        with pytest.raises(DecodeError, match="magic.*offset 0"):
            decode_netpbm(b"P4\n1 1\n255\n\x00")

    def test_truncated_raster_reports_end_offset(self):
        data = pgm_bytes(2, 2, [1, 2, 3])
        with pytest.raises(DecodeError, match="truncated raster"):
            decode_netpbm(data)

    def test_trailing_bytes_are_rejected(self):
        data = pgm_bytes(2, 1, [1, 2, 3])
        with pytest.raises(DecodeError, match="trailing raster bytes"):
            decode_netpbm(data)

    def test_bad_maxval(self):
        with pytest.raises(DecodeError, match="maxval"):
            decode_netpbm(b"P5\n1 1\n256\n\x00")
        with pytest.raises(DecodeError, match="maxval"):
            decode_netpbm(b"P5\n1 1\n0\n\x00")

    def test_non_numeric_dimension(self):
        with pytest.raises(DecodeError, match="width"):
            decode_netpbm(b"P5\nwide 1\n255\n\x00")

    def test_missing_header_field(self):
        with pytest.raises(DecodeError, match="missing maxval"):
            decode_netpbm(b"P5\n1 1\n")

    def test_source_name_appears_in_errors(self):
        with pytest.raises(DecodeError, match="sample.pgm"):
            decode_netpbm(b"P4\n", source="sample.pgm")

    def test_raster_may_contain_whitespace_bytes(self):
        # Raster bytes that happen to equal ASCII whitespace must pass
        # through untouched.
        data = pgm_bytes(2, 1, [0x20, 0x0A])
        np.testing.assert_array_equal(decode_netpbm(data)[0], [[32, 10]])


class TestBilinearResize:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(0)
        array = rng.random((5, 7))
        np.testing.assert_array_equal(bilinear_resize(array, 5, 7), array)

    def test_doubling_one_row(self):
        # Centers at 0.25 and 0.75 relative to input width 2: the edge
        # samples clamp, the inner ones mix 3:1.
        out = bilinear_resize(np.array([[0.0, 1.0]]), 1, 4)
        np.testing.assert_allclose(out, [[0.0, 0.25, 0.75, 1.0]])

    def test_constant_stays_constant(self):
        out = bilinear_resize(np.full((3, 3), 0.4), 7, 5)
        np.testing.assert_allclose(out, np.full((7, 5), 0.4))

    def test_channels_resize_independently(self):
        rng = np.random.default_rng(1)
        array = rng.random((4, 4, 3))
        out = bilinear_resize(array, 8, 8)
        for ch in range(3):
            np.testing.assert_allclose(
                out[:, :, ch], bilinear_resize(array[:, :, ch], 8, 8)
            )

    def test_downscale_stays_in_range(self):
        rng = np.random.default_rng(2)
        array = rng.random((16, 16))
        out = bilinear_resize(array, 5, 5)
        assert out.min() >= array.min() - 1e-12
        assert out.max() <= array.max() + 1e-12

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            bilinear_resize(np.ones((3, 3)), 0, 3)
        with pytest.raises(InvalidArgumentError):
            bilinear_resize(np.ones(4), 2, 2)


class TestRgbToLuma:
    def test_weights(self):
        pixels = np.zeros((1, 3, 3))
        pixels[0, 0, 0] = 1.0
        pixels[0, 1, 1] = 1.0
        pixels[0, 2, 2] = 1.0
        np.testing.assert_allclose(rgb_to_luma(pixels)[0], LUMA_WEIGHTS)

    def test_white_maps_to_one(self):
        assert rgb_to_luma(np.ones((1, 1, 3)))[0, 0] == pytest.approx(1.0)

    def test_rejects_grayscale(self):
        with pytest.raises(InvalidArgumentError):
            rgb_to_luma(np.ones((2, 2)))


class TestLoadImage:
    def test_constant_gray_scales_by_maxval(self, tmp_path):
        path = tmp_path / "flat.pgm"
        path.write_bytes(pgm_bytes(4, 4, [128] * 16))
        fmap = load_image(path, target_size=4)
        assert fmap.values.shape == (4, 4, 1)
        np.testing.assert_allclose(fmap.values, 128 / 255)

    def test_smaller_maxval_rescales(self, tmp_path):
        path = tmp_path / "dim.pgm"
        path.write_bytes(pgm_bytes(2, 2, [5, 10, 15, 20], maxval=20))
        fmap = load_image(path, target_size=2)
        np.testing.assert_allclose(
            fmap.values[:, :, 0], [[0.25, 0.5], [0.75, 1.0]]
        )

    def test_color_to_grayscale_uses_luma(self, tmp_path):
        path = tmp_path / "red.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes([255, 0, 0] * 4))
        fmap = load_image(path, target_size=2, grayscale=True)
        np.testing.assert_allclose(fmap.values[:, :, 0], LUMA_WEIGHTS[0])

    def test_grayscale_to_color_replicates(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(pgm_bytes(2, 2, [51] * 4))
        fmap = load_image(path, target_size=2, grayscale=False)
        assert fmap.channels == 3
        np.testing.assert_allclose(fmap.values, 0.2)

    def test_resizes_to_target(self, tmp_path):
        path = tmp_path / "small.pgm"
        path.write_bytes(pgm_bytes(3, 5, list(range(15))))
        fmap = load_image(path, target_size=8)
        assert fmap.values.shape == (8, 8, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DecodeError, match="cannot read"):
            load_image(tmp_path / "absent.pgm", target_size=4)

    def test_target_size_guard(self, tmp_path):
        path = tmp_path / "flat.pgm"
        path.write_bytes(pgm_bytes(2, 2, [0] * 4))
        with pytest.raises(InvalidArgumentError):
            load_image(path, target_size=1)


class TestWriters:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 256, size=(6, 4)) / 255.0
        path = tmp_path / "out.pgm"
        write_pgm(path, values)
        decoded, _ = decode_netpbm(path.read_bytes(), source=str(path))
        np.testing.assert_array_equal(decoded, np.rint(values * 255).astype(np.uint8))

    def test_values_are_clipped(self, tmp_path):
        path = tmp_path / "clip.pgm"
        write_pgm(path, np.array([[-0.5, 1.5]]))
        decoded, _ = decode_netpbm(path.read_bytes())
        np.testing.assert_array_equal(decoded, [[0, 255]])

    def test_shape_guards(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_pgm(tmp_path / "bad.pgm", np.ones((2, 2, 3)))

    def test_loader_reads_writer_output_exactly(self, tmp_path):
        values = np.array([[0.0, 1.0], [0.2, 0.8]])
        path = tmp_path / "cycle.pgm"
        write_pgm(path, values)
        fmap = load_image(path, target_size=2)
        quantized = np.rint(values * 255) / 255
        np.testing.assert_allclose(fmap.values[:, :, 0], quantized)
