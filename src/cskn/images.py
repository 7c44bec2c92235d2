"""Binary PGM/PPM decoding, grayscale conversion, and bilinear resizing."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import DecodeError, InvalidArgumentError
from .featmap import FeatureMap

LUMA_WEIGHTS = (0.299, 0.587, 0.114)
_WHITESPACE = b" \t\n\r\x0b\x0c"


class _ByteCursor:
    """Header tokenizer that remembers byte offsets for error messages."""

    def __init__(self, data: bytes, source: str) -> None:
        self.data = data
        self.pos = 0
        self.source = source

    def fail(self, message: str) -> "DecodeError":
        return DecodeError(f"{self.source}: {message} at byte offset {self.pos}")

    def _skip_filler(self) -> None:
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in (b"#",):
                while self.pos < len(self.data) and self.data[
                    self.pos : self.pos + 1
                ] not in (b"\n", b"\r"):
                    self.pos += 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self, name: str) -> bytes:
        self._skip_filler()
        if self.pos >= len(self.data):
            raise self.fail(f"missing {name}")
        start = self.pos
        while (
            self.pos < len(self.data)
            and self.data[self.pos : self.pos + 1] not in _WHITESPACE
        ):
            self.pos += 1
        return self.data[start : self.pos]

    def integer(self, name: str) -> int:
        tok = self.token(name)
        if not tok.isdigit():
            raise self.fail(f"{name} must be an unsigned decimal, got {tok!r}")
        return int(tok)


def decode_netpbm(data: bytes, source: str = "<bytes>") -> tuple[np.ndarray, int]:
    """Decode a binary PGM (P5) or PPM (P6) byte stream to uint8 planes.

    Returns the planes, (height, width) for grayscale or (height, width, 3)
    for color, and the header's maxval. Only 8-bit rasters (maxval <= 255)
    are supported.
    """
    cursor = _ByteCursor(data, source)
    magic = cursor.token("magic number")
    if magic not in (b"P5", b"P6"):
        cursor.pos = 0
        raise cursor.fail(f"unsupported magic {magic!r}, expected P5 or P6")
    width = cursor.integer("width")
    height = cursor.integer("height")
    if width < 1 or height < 1:
        raise cursor.fail(f"degenerate image size {width}x{height}")
    maxval = cursor.integer("maxval")
    if not 0 < maxval <= 255:
        raise cursor.fail(f"maxval {maxval} outside the 8-bit range")
    if cursor.pos >= len(cursor.data):
        raise cursor.fail("missing raster separator")
    if cursor.data[cursor.pos : cursor.pos + 1] not in _WHITESPACE:
        raise cursor.fail("expected single whitespace before raster")
    cursor.pos += 1
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raster = cursor.data[cursor.pos :]
    if len(raster) < expected:
        cursor.pos = len(cursor.data)
        raise cursor.fail(
            f"truncated raster: expected {expected} bytes, found {len(raster)}"
        )
    if len(raster) > expected:
        cursor.pos += expected
        raise cursor.fail(f"{len(raster) - expected} trailing raster bytes")
    pixels = np.frombuffer(raster, dtype=np.uint8, count=expected)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return pixels.reshape(shape).copy(), maxval


def bilinear_resize(array: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Separable bilinear resampling with edge clamping.

    Output pixel centers map to (i + 0.5) * in/out - 0.5 in input
    coordinates, so resizing to the same extent is exact.
    """
    if out_height < 1 or out_width < 1:
        raise InvalidArgumentError("output extent must be positive")
    arr = np.asarray(array, dtype=np.float64)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3:
        raise InvalidArgumentError("expected a 2-D or 3-D array")

    def axis_weights(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coords = (np.arange(dst) + 0.5) * (src / dst) - 0.5
        coords = np.clip(coords, 0.0, src - 1.0)
        lower = np.floor(coords).astype(np.int64)
        frac = coords - lower
        upper = np.minimum(lower + 1, src - 1)
        return lower, upper, frac

    r0, r1, fr = axis_weights(arr.shape[0], out_height)
    c0, c1, fc = axis_weights(arr.shape[1], out_width)
    rows = arr[r0] * (1.0 - fr)[:, np.newaxis, np.newaxis] + arr[r1] * fr[
        :, np.newaxis, np.newaxis
    ]
    out = rows[:, c0] * (1.0 - fc)[np.newaxis, :, np.newaxis] + rows[:, c1] * fc[
        np.newaxis, :, np.newaxis
    ]
    return out[:, :, 0] if squeeze else out


def rgb_to_luma(pixels: np.ndarray) -> np.ndarray:
    """Weighted RGB average (0.299, 0.587, 0.114)."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise InvalidArgumentError("expected an RGB array")
    r, g, b = LUMA_WEIGHTS
    return pixels[:, :, 0] * r + pixels[:, :, 1] * g + pixels[:, :, 2] * b


def load_image(
    path: str | os.PathLike, target_size: int, grayscale: bool = True
) -> FeatureMap:
    """Decode, scale to [0, 1], convert channels, and resize to a square.

    Grayscale requests collapse color inputs through the luma weights;
    color requests replicate single-channel inputs across three channels.
    Intensities are divided by the raster's maxval.
    """
    if target_size < 2:
        raise InvalidArgumentError("target_size must be >= 2")
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DecodeError(f"{path}: cannot read image: {exc}") from exc
    planes, maxval = decode_netpbm(data, source=str(path))
    scaled = planes.astype(np.float64) / float(maxval)
    if grayscale:
        if scaled.ndim == 3:
            scaled = rgb_to_luma(scaled)
    else:
        if scaled.ndim == 2:
            scaled = np.repeat(scaled[:, :, np.newaxis], 3, axis=2)
    if scaled.shape[0] != target_size or scaled.shape[1] != target_size:
        scaled = bilinear_resize(scaled, target_size, target_size)
    return FeatureMap(scaled)


def write_pgm(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as an 8-bit binary PGM."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise InvalidArgumentError("expected a 2-D grayscale array")
    quantized = np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())
