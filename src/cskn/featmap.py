"""Feature maps, sub-patch extraction, and the gradient map.

A feature map is a 2-D grid of per-location feature vectors: a grayscale
image (one channel), an RGB image (three), the (gx, gy) gradient map of a
grayscale image (two), or the output of a network layer (one channel per
filter). Sub-patches are square windows of a map, split into a magnitude
(the window's Euclidean norm) and a direction (the contrast-normalized
window), so that downstream similarity is computed on the unit sphere
while magnitudes re-enter as linear weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class FeatureMap:
    """A height x width grid of channel vectors, stored row-major.

    ``values`` has shape (height, width, channels); a 2-D array is accepted
    and promoted to a single channel. Entries must be finite. The backing
    array is made read-only so maps can be shared freely.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise InvalidArgumentError(
                f"feature map must be 2-D or 3-D, got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise InvalidArgumentError(f"feature map has empty shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidArgumentError("feature map contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class SubPatchGrid:
    """All valid sub-patches of one map, in raster (row-major) order.

    ``grid_shape`` is the (rows, cols) window grid; ``normalized`` is
    (rows * cols, dim) and ``norms`` is (rows * cols,). A window whose
    vector is all zero has norm 0 and a zero ``normalized`` row.
    """

    grid_shape: tuple[int, int]
    norms: np.ndarray
    normalized: np.ndarray

    @property
    def dim(self) -> int:
        return self.normalized.shape[1]

    def __len__(self) -> int:
        return self.norms.shape[0]


class SubPatchPool:
    """A bag of sub-patches pooled across maps (grid structure dropped)."""

    def __init__(self, norms: np.ndarray, normalized: np.ndarray) -> None:
        norms = np.asarray(norms, dtype=np.float64)
        normalized = np.asarray(normalized, dtype=np.float64)
        if normalized.ndim != 2 or norms.shape != (normalized.shape[0],):
            raise InvalidArgumentError("inconsistent pool arrays")
        self.norms = norms
        self.normalized = normalized

    @classmethod
    def from_grids(cls, grids: "list[SubPatchGrid]") -> "SubPatchPool":
        if not grids:
            raise InvalidArgumentError("cannot pool zero grids")
        norms = np.concatenate([g.norms for g in grids])
        normalized = np.concatenate([g.normalized for g in grids])
        return cls(norms, normalized)

    @property
    def dim(self) -> int:
        return self.normalized.shape[1]

    def __len__(self) -> int:
        return self.norms.shape[0]


def extract_subpatches(feature_map: FeatureMap, patch_size: int) -> SubPatchGrid:
    """Extract every valid (fully inside) square window of the map.

    The window grid has (height - e + 1) x (width - e + 1) entries for
    window side e, in raster order. Each window's vector concatenates the
    window per channel (all of channel 0, then channel 1, ...), each
    channel block in row-major order; with e = 1 it is the pixel's
    channel vector.
    """
    e = int(patch_size)
    if e < 1:
        raise InvalidArgumentError(f"patch size must be >= 1, got {e}")
    h, w, c = feature_map.values.shape
    if e > h or e > w:
        raise InvalidArgumentError(
            f"patch size {e} exceeds map extent {h}x{w}"
        )
    windows = sliding_window_view(feature_map.values, (e, e), axis=(0, 1))
    rows, cols = windows.shape[0], windows.shape[1]
    # (rows, cols, c, e, e) flattens to channel-major sub-patch vectors,
    # copied once into a buffer that is then normalized in place.
    normalized = np.empty((rows * cols, c * e * e))
    normalized.reshape(windows.shape)[...] = windows
    norms = np.linalg.norm(normalized, axis=1)
    np.divide(normalized, norms[:, np.newaxis], out=normalized, where=norms[:, np.newaxis] > 0)
    # A window of tiny values whose squares underflow also has norm 0; its
    # direction must be zero like that of an all-zero window.
    normalized[norms == 0] = 0.0
    return SubPatchGrid((rows, cols), norms, normalized)


def build_gradient_map(image: FeatureMap) -> FeatureMap:
    """Forward-difference gradients as a 2-channel (gx, gy) map.

    gx(r, c) = I(r, c+1) - I(r, c) and gy(r, c) = I(r+1, c) - I(r, c),
    both defined on rows 0..H-2 and cols 0..W-2 (the last row and column
    are dropped so the two differences share a grid). A gradient layer
    reads this map through 1x1 sub-patches: each norm is the gradient
    magnitude and each direction the gradient orientation.
    """
    if image.channels != 1:
        raise InvalidArgumentError(
            f"gradient map requires a single-channel map, got {image.channels}"
        )
    if image.height < 2 or image.width < 2:
        raise InvalidArgumentError("gradient map needs at least a 2x2 map")
    plane = image.values[:, :, 0]
    gx = plane[:-1, 1:] - plane[:-1, :-1]
    gy = plane[1:, :-1] - plane[:-1, :-1]
    return FeatureMap(np.stack([gx, gy], axis=2))
