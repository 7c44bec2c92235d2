"""The slow reference implementations must themselves be trustworthy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cskn.errors import InvalidArgumentError, NumericFailureError
from cskn.featmap import FeatureMap
from cskn.oracle import exact_match_kernel, finite_diff_gradient


def brute_force_kernel(map_a, map_b, patch_size, alpha, beta):
    """Fully independent recomputation with raw Python loops.

    Windows, norms, normalization, center coordinates, and both Gaussian
    factors are rebuilt from scratch so nothing is shared with the
    package's own sub-patch machinery.
    """
    def windows(fmap):
        vals = fmap.values
        h, w, c = vals.shape
        out = []
        for r in range(h - patch_size + 1):
            for col in range(w - patch_size + 1):
                patch = []
                for ch in range(c):
                    for dr in range(patch_size):
                        for dc in range(patch_size):
                            patch.append(vals[r + dr, col + dc, ch])
                center = (
                    r + (patch_size - 1) / 2.0,
                    col + (patch_size - 1) / 2.0,
                )
                out.append((center, patch))
        return out

    total = 0.0
    for (ca, pa) in windows(map_a):
        norm_a = sum(v * v for v in pa) ** 0.5
        for (cb, pb) in windows(map_b):
            norm_b = sum(v * v for v in pb) ** 0.5
            spatial = (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2
            if norm_a == 0.0 or norm_b == 0.0:
                continue
            feature = sum(
                (x / norm_a - y / norm_b) ** 2 for x, y in zip(pa, pb)
            )
            total += (
                norm_a
                * norm_b
                * np.exp(-spatial / (2.0 * beta * beta))
                * np.exp(-feature / (2.0 * alpha * alpha))
            )
    return total


class TestExactMatchKernel:
    @pytest.mark.parametrize("patch_size", [1, 2])
    def test_matches_independent_recomputation(self, patch_size):
        rng = np.random.default_rng(patch_size)
        map_a = FeatureMap(rng.random((4, 5, 2)))
        map_b = FeatureMap(rng.random((5, 4, 2)))
        fast = exact_match_kernel(map_a, map_b, patch_size, alpha=0.6, beta=1.3)
        slow = brute_force_kernel(map_a, map_b, patch_size, alpha=0.6, beta=1.3)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        map_a = FeatureMap(rng.random((4, 4)))
        map_b = FeatureMap(rng.random((4, 4)))
        ab = exact_match_kernel(map_a, map_b, 2, alpha=0.5, beta=1.0)
        ba = exact_match_kernel(map_b, map_a, 2, alpha=0.5, beta=1.0)
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_magnitude_scaling_is_linear(self):
        # Scaling one map scales every window norm, and the kernel is
        # linear in those magnitudes when windows are single pixels.
        rng = np.random.default_rng(4)
        map_a = FeatureMap(rng.random((3, 3)))
        map_b = FeatureMap(rng.random((3, 3)))
        base = exact_match_kernel(map_a, map_b, 1, alpha=0.5, beta=1.0)
        scaled = exact_match_kernel(
            FeatureMap(2.5 * map_a.values), map_b, 1, alpha=0.5, beta=1.0
        )
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_gram_matrix_is_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        maps = [FeatureMap(rng.random((4, 4))) for _ in range(6)]
        gram = np.array(
            [
                [
                    exact_match_kernel(a, b, 2, alpha=0.7, beta=1.2)
                    for b in maps
                ]
                for a in maps
            ]
        )
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-8 * np.trace(gram)

    def test_zero_map_contributes_nothing(self):
        rng = np.random.default_rng(6)
        map_a = FeatureMap(np.zeros((3, 3)))
        map_b = FeatureMap(rng.random((3, 3)))
        assert exact_match_kernel(map_a, map_b, 1, alpha=0.5, beta=1.0) == 0.0

    def test_extent_cap(self):
        big = FeatureMap(np.ones((17, 4)))
        small = FeatureMap(np.ones((4, 4)))
        with pytest.raises(InvalidArgumentError):
            exact_match_kernel(big, small, 1, alpha=0.5, beta=1.0)

    def test_parameter_guards(self):
        fmap = FeatureMap(np.ones((3, 3)))
        with pytest.raises(InvalidArgumentError):
            exact_match_kernel(fmap, fmap, 1, alpha=0.0, beta=1.0)
        with pytest.raises(InvalidArgumentError):
            exact_match_kernel(fmap, fmap, 1, alpha=1.0, beta=-2.0)
        rgb = FeatureMap(np.ones((3, 3, 3)))
        with pytest.raises(InvalidArgumentError):
            exact_match_kernel(fmap, rgb, 1, alpha=0.5, beta=1.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_identical_maps_dominate(self, seed):
        # K(A, A) >= K(A, B) is not true in general, but self-similarity
        # is positive whenever the map has any nonzero window.
        rng = np.random.default_rng(seed)
        fmap = FeatureMap(rng.random((3, 4)) + 0.1)
        assert exact_match_kernel(fmap, fmap, 1, alpha=0.5, beta=1.0) > 0


class TestFiniteDiffGradient:
    def test_quadratic_form(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(4, 4))
        matrix = matrix + matrix.T

        def func(x):
            return float(x @ matrix @ x)

        point = rng.normal(size=4)
        grad = finite_diff_gradient(func, point)
        np.testing.assert_allclose(grad, 2.0 * matrix @ point, rtol=1e-6, atol=1e-8)

    def test_linear_function_is_exact(self):
        direction = np.array([1.0, -2.0, 3.0])

        def func(x):
            return float(direction @ x)

        grad = finite_diff_gradient(func, np.zeros(3))
        np.testing.assert_allclose(grad, direction, rtol=1e-9)

    def test_non_finite_probe_raises(self):
        def func(x):
            return float("nan")

        with pytest.raises(NumericFailureError):
            finite_diff_gradient(func, np.zeros(2))

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            finite_diff_gradient(lambda x: 0.0, np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(2), step=0.0)

