"""Feature maps, window extraction, and the (gx, gy) gradient map."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cskn.errors import InvalidArgumentError
from cskn.featmap import (
    FeatureMap,
    SubPatchPool,
    build_gradient_map,
    extract_subpatches,
    harvest_subpatches,
)


def raw_vectors(grid):
    """Each window's vector, rebuilt from its polar split."""
    return grid.normalized * grid.norms[:, np.newaxis]


class TestFeatureMap:
    def test_promotes_2d_to_single_channel(self):
        fmap = FeatureMap(np.ones((3, 4)))
        assert fmap.values.shape == (3, 4, 1)
        assert fmap.height == 3
        assert fmap.width == 4
        assert fmap.channels == 1

    def test_casts_to_float64(self):
        fmap = FeatureMap(np.ones((2, 2, 3), dtype=np.float32))
        assert fmap.values.dtype == np.float64

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            FeatureMap(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidArgumentError):
            FeatureMap(np.ones(4))

    def test_values_are_read_only(self):
        fmap = FeatureMap(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fmap.values[0, 0, 0] = 1.0


class TestExtractSubpatches:
    def test_size_one_windows_are_pixels(self):
        values = np.arange(12, dtype=np.float64).reshape(3, 4)
        grid = extract_subpatches(FeatureMap(values), 1)
        assert grid.grid_shape == (3, 4)
        assert grid.dim == 1
        np.testing.assert_array_equal(grid.norms, values.ravel())
        np.testing.assert_array_equal(grid.normalized[1:, 0], 1.0)
        assert grid.normalized[0, 0] == 0.0

    def test_window_count_and_center_offset(self):
        values = np.random.default_rng(0).random((5, 7))
        grid = extract_subpatches(FeatureMap(values), 3)
        assert grid.grid_shape == (3, 5)
        assert len(grid) == 15
        # 3x3 windows center one pixel inside the map, in raster order:
        # the first is centered on (1, 1), the last on (3, 5).
        raw = raw_vectors(grid)
        np.testing.assert_allclose(raw[0], values[0:3, 0:3].ravel(), rtol=1e-15)
        np.testing.assert_allclose(raw[-1], values[2:5, 4:7].ravel(), rtol=1e-15)

    def test_vectors_are_channel_major(self):
        rng = np.random.default_rng(1)
        values = rng.random((4, 4, 2))
        grid = extract_subpatches(FeatureMap(values), 2)
        expected = np.concatenate(
            [values[0:2, 0:2, 0].ravel(), values[0:2, 0:2, 1].ravel()]
        )
        np.testing.assert_allclose(raw_vectors(grid)[0], expected, rtol=1e-15)
        assert grid.dim == 8

    def test_norms_and_normalized_split(self):
        values = np.zeros((2, 2))
        values[0, 0] = 3.0
        values[0, 1] = 4.0
        grid = extract_subpatches(FeatureMap(values), 2)
        assert grid.norms[0] == pytest.approx(5.0)
        np.testing.assert_allclose(grid.normalized[0], [0.6, 0.8, 0.0, 0.0], atol=1e-15)

    def test_zero_window_has_zero_direction(self):
        # 1e-170 squares to 0: such a window has norm 0 like an all-zero one.
        for value in (0.0, 1e-170):
            grid = extract_subpatches(FeatureMap(np.full((3, 3), value)), 2)
            assert (grid.norms == 0).all()
            assert (grid.normalized == 0).all()

    def test_rejects_oversized_patch(self):
        with pytest.raises(InvalidArgumentError):
            extract_subpatches(FeatureMap(np.ones((3, 3))), 4)

    def test_rejects_nonpositive_patch(self):
        with pytest.raises(InvalidArgumentError):
            extract_subpatches(FeatureMap(np.ones((3, 3))), 0)

    @given(scale=st.floats(min_value=0.1, max_value=50.0), seed=st.integers(0, 2**16))
    def test_scaling_moves_norms_not_directions(self, scale, seed):
        values = np.random.default_rng(seed).random((4, 4)) + 0.5
        base = extract_subpatches(FeatureMap(values), 2)
        scaled = extract_subpatches(FeatureMap(values * scale), 2)
        np.testing.assert_allclose(scaled.norms, base.norms * scale, rtol=1e-12)
        np.testing.assert_allclose(scaled.normalized, base.normalized, atol=1e-12)


class TestSubPatchPool:
    def test_harvest_matches_extraction_per_map(self):
        rng = np.random.default_rng(3)
        values = rng.random((3, 5, 6, 2))
        values[1, :3, :3] = 0.0  # zero windows keep a zero direction
        maps = [FeatureMap(v) for v in values]
        pool = harvest_subpatches(maps, 2)
        grids = [extract_subpatches(m, 2) for m in maps]
        assert len(pool) == 3 * 20 and pool.dim == 8
        np.testing.assert_array_equal(pool.norms, np.concatenate([g.norms for g in grids]))
        np.testing.assert_array_equal(
            pool.normalized, np.concatenate([g.normalized for g in grids])
        )
        for view, grid in zip(pool.grids, grids):
            assert view.grid_shape == grid.grid_shape == (4, 5)
            np.testing.assert_array_equal(view.normalized, grid.normalized)
            np.testing.assert_array_equal(view.norms, grid.norms)
            assert np.shares_memory(view.normalized, pool.normalized)
            assert np.shares_memory(view.norms, pool.norms)

    def test_rejects_empty_map_list(self):
        with pytest.raises(InvalidArgumentError):
            harvest_subpatches([], 3)

    def test_rejects_maps_of_different_shapes(self):
        maps = [FeatureMap(np.ones((4, 4))), FeatureMap(np.ones((4, 5)))]
        with pytest.raises(InvalidArgumentError, match="one shape"):
            harvest_subpatches(maps, 2)
        with pytest.raises(InvalidArgumentError, match="exceeds"):
            harvest_subpatches(maps[:1], 5)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(InvalidArgumentError):
            SubPatchPool(np.ones(3), np.ones((2, 4)))


class TestGradientEncoding:
    """The (gx, gy) map, and the 1x1 sub-patches a gradient layer reads."""

    def test_forward_differences_by_hand(self):
        values = np.array(
            [
                [0.0, 1.0, 3.0],
                [2.0, 2.0, 4.0],
                [5.0, 7.0, 6.0],
            ]
        )
        gradients = build_gradient_map(FeatureMap(values))
        # gx = right neighbor minus self, gy = lower neighbor minus self.
        assert gradients.values.shape == (2, 2, 2)
        np.testing.assert_array_equal(gradients.values[:, :, 0], [[1.0, 2.0], [0.0, 2.0]])
        np.testing.assert_array_equal(gradients.values[:, :, 1], [[2.0, 1.0], [3.0, 5.0]])

    def test_unit_windows_expose_polar_split(self):
        plane = np.random.default_rng(5).random((20, 20))
        plane[3:6, 3:6] = 0.25  # a flat block: zero gradients inside it
        gradients = build_gradient_map(FeatureMap(plane)).values
        gx = gradients[:, :, 0].ravel()
        gy = gradients[:, :, 1].ravel()
        grid = extract_subpatches(FeatureMap(gradients), 1)
        assert grid.grid_shape == (19, 19)
        assert grid.dim == 2
        magnitude = np.hypot(gx, gy)
        np.testing.assert_allclose(grid.norms, magnitude, rtol=4e-16, atol=0.0)
        nonzero = magnitude > 0
        orientation = np.stack([gx, gy], axis=1)[nonzero] / magnitude[nonzero, np.newaxis]
        np.testing.assert_allclose(grid.normalized[nonzero], orientation, rtol=4e-16, atol=0.0)
        assert (~nonzero).sum() == 4
        assert (grid.norms[~nonzero] == 0).all()
        assert (grid.normalized[~nonzero] == 0).all()

    def test_directions_are_unit_where_nonzero(self):
        values = np.random.default_rng(4).random((6, 6))
        grid = extract_subpatches(build_gradient_map(FeatureMap(values)), 1)
        lengths = np.linalg.norm(grid.normalized, axis=1)
        nonzero = grid.norms > 0
        np.testing.assert_allclose(lengths[nonzero], 1.0, rtol=1e-12)
        assert (lengths[~nonzero] == 0).all()

    def test_constant_map_has_zero_gradients(self):
        gradients = build_gradient_map(FeatureMap(np.full((4, 4), 0.7)))
        assert (gradients.values == 0).all()
        grid = extract_subpatches(gradients, 1)
        assert (grid.norms == 0).all()
        assert (grid.normalized == 0).all()

    def test_rejects_multichannel(self):
        with pytest.raises(InvalidArgumentError):
            build_gradient_map(FeatureMap(np.ones((4, 4, 3))))

    def test_rejects_tiny_map(self):
        with pytest.raises(InvalidArgumentError):
            build_gradient_map(FeatureMap(np.ones((1, 5))))
        with pytest.raises(InvalidArgumentError):
            build_gradient_map(FeatureMap(np.ones((2, 1))))
        assert build_gradient_map(FeatureMap(np.ones((2, 2)))).values.shape == (1, 1, 2)
