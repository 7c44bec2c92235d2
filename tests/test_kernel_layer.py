"""Bandwidths, activations, pooling, and the pair-fitting objective."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize
from scipy.spatial.distance import pdist

from cskn.errors import (
    DegeneratePoolError,
    DegenerateSampleError,
    InvalidArgumentError,
)
from cskn import kernel_layer
from cskn.featmap import FeatureMap, SubPatchPool, extract_subpatches
from cskn.kernel_layer import (
    ALPHA_PAIR_SAMPLE_CAP,
    LBFGS_MAX_ITER,
    LayerConfig,
    LayerParams,
    PairBatch,
    _pooling_operator,
    activation_h,
    approx_kernel,
    compute_beta,
    empirical_quantile,
    estimate_alpha,
    objective_and_gradient,
    sample_training_pairs,
    spatial_pool_g,
    train_layer,
)
from cskn.oracle import (
    finite_diff_gradient,
    reference_pair_objective,
    reference_spatial_pool,
)


def random_params(rng, num_filters, dim, alpha=None, beta=1.0):
    filters = rng.normal(size=(num_filters, dim))
    weights = rng.uniform(0.1, 2.0, size=num_filters)
    if alpha is None:
        alpha = rng.uniform(0.4, 1.5)
    return LayerParams(filters, weights, alpha=alpha, beta=beta)


def bag(vectors):
    """A pool of the given rows, each with its Euclidean norm."""
    return SubPatchPool(np.linalg.norm(vectors, axis=1), vectors)


class TestBandwidths:
    def test_empirical_quantile_matches_numpy(self):
        values = np.random.default_rng(0).random(101)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert empirical_quantile(values, q) == pytest.approx(
                float(np.quantile(values, q))
            )

    def test_empirical_quantile_guards(self):
        with pytest.raises(InvalidArgumentError):
            empirical_quantile(np.array([]), 0.5)
        with pytest.raises(InvalidArgumentError):
            empirical_quantile(np.ones(3), 1.5)

    def test_estimate_alpha_full_enumeration(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(40, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        expected = float(np.quantile(pdist(vectors), 0.1))
        assert estimate_alpha(bag(vectors), 0.1) == pytest.approx(expected, rel=1e-12)

    def test_estimate_alpha_ignores_zero_rows(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(20, 3))
        padded = np.vstack([vectors, np.zeros((5, 3))])
        assert estimate_alpha(bag(padded), 0.2) == pytest.approx(
            estimate_alpha(bag(vectors), 0.2)
        )

    def test_estimate_alpha_sampled_mode_is_seeded(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(300, 2))
        a = estimate_alpha(bag(vectors), 0.1, max_pairs=500, seed=9)
        b = estimate_alpha(bag(vectors), 0.1, max_pairs=500, seed=9)
        c = estimate_alpha(bag(vectors), 0.1, max_pairs=500, seed=10)
        assert a == b
        assert a != c
        full = estimate_alpha(bag(vectors), 0.1)
        assert abs(a - full) / full < 0.25

    @pytest.mark.parametrize("dim", [2, 9, 144])
    def test_chunked_alpha_distances_match_the_unchunked_expression(
        self, dim, monkeypatch
    ):
        rng = np.random.default_rng(dim)
        vectors = rng.normal(size=(600, dim))
        max_pairs = ALPHA_PAIR_SAMPLE_CAP + 3
        assert max_pairs % kernel_layer._PAIR_CHUNK != 0
        seen = []
        quantile = kernel_layer.empirical_quantile
        monkeypatch.setattr(
            kernel_layer,
            "empirical_quantile",
            lambda values, q: seen.append(values.copy()) or quantile(values, q),
        )
        alpha = estimate_alpha(bag(vectors), 0.1, max_pairs=max_pairs, seed=4)
        draws = np.random.default_rng(4)
        i = draws.integers(0, 600, size=max_pairs)
        j = (i + draws.integers(1, 600, size=max_pairs)) % 600
        expected = np.linalg.norm(vectors[i] - vectors[j], axis=1)
        np.testing.assert_array_equal(seen[0], expected)
        assert alpha == quantile(expected, 0.1)

    def test_estimate_alpha_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            estimate_alpha(bag(np.zeros((5, 3))), 0.1)
        with pytest.raises(DegenerateSampleError):
            estimate_alpha(bag(np.ones((4, 3))), 0.1)  # all identical -> zero distances

    def test_compute_beta_halves_the_diagonal(self):
        assert compute_beta(2) == pytest.approx(np.sqrt(2.0))
        assert compute_beta(4) == pytest.approx(2.0 * np.sqrt(2.0))
        with pytest.raises(InvalidArgumentError):
            compute_beta(0)


class TestActivation:
    def test_single_filter_by_hand(self):
        values = np.zeros((1, 2))
        values[0, 0] = 2.0  # one pixel of magnitude 2, direction +1
        grid = extract_subpatches(FeatureMap(values), 1)
        params = LayerParams(
            np.array([[1.0]]), np.array([4.0]), alpha=0.5, beta=1.0
        )
        acts = activation_h(grid, params)
        # magnitude * sqrt(weight) * exp(-||W - direction||^2 / alpha^2)
        assert acts.values[0, 0, 0] == pytest.approx(2.0 * 2.0 * 1.0)
        assert acts.values[0, 1, 0] == pytest.approx(0.0)

    def test_zero_locations_stay_zero(self):
        grid = extract_subpatches(FeatureMap(np.zeros((3, 3))), 1)
        params = random_params(np.random.default_rng(4), 5, 1)
        acts = activation_h(grid, params)
        assert (acts.values == 0).all()

    @given(scale=st.floats(min_value=0.1, max_value=20.0), seed=st.integers(0, 2**16))
    def test_activations_scale_linearly_with_magnitude(self, scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((4, 4)) + 0.25
        params = random_params(np.random.default_rng(7), 3, 1)
        base = activation_h(extract_subpatches(FeatureMap(values), 1), params)
        scaled = activation_h(
            extract_subpatches(FeatureMap(values * scale), 1), params
        )
        np.testing.assert_allclose(
            scaled.values, base.values * scale, rtol=1e-10, atol=1e-12
        )

    def test_matches_closed_form_per_location(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(6, 5, 2))
        values[:3, :3] = 0.0  # windows inside this block have zero norm
        grid = extract_subpatches(FeatureMap(values), 2)
        assert (grid.norms == 0).sum() == 4
        params = random_params(rng, 7, grid.dim)
        acts = activation_h(grid, params).values.reshape(len(grid), -1)
        for z in range(len(grid)):
            for i in range(params.num_filters):
                gap = params.filters[i] - grid.normalized[z]
                expected = (
                    grid.norms[z]
                    * np.sqrt(params.weights[i])
                    * np.exp(-(gap @ gap) / params.alpha**2)
                )
                assert acts[z, i] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_dim_mismatch_raises(self):
        grid = extract_subpatches(FeatureMap(np.ones((3, 3))), 1)
        params = random_params(np.random.default_rng(8), 2, 5)
        with pytest.raises(InvalidArgumentError):
            activation_h(grid, params)


class TestSpatialPooling:
    def test_output_grid_dimensions(self):
        fmap = FeatureMap(np.random.default_rng(9).random((7, 5, 2)))
        pooled = spatial_pool_g(fmap, beta=np.sqrt(2.0), subsampling_factor=2)
        assert pooled.values.shape == (4, 3, 2)
        pooled = spatial_pool_g(fmap, beta=2.0 * np.sqrt(2.0), subsampling_factor=4)
        assert pooled.values.shape == (2, 2, 2)

    def test_spike_spreads_gaussian_weights(self):
        values = np.zeros((9, 9))
        values[4, 4] = 1.0
        beta = np.sqrt(2.0)
        pooled = spatial_pool_g(FeatureMap(values), beta=beta, subsampling_factor=1)
        # Window centers coincide with pixels at stride 1; weight at offset
        # (dr, dc) is exp(-(dr^2 + dc^2) / (2 beta^2)).
        assert pooled.values[4, 4, 0] == pytest.approx(1.0)
        assert pooled.values[4, 5, 0] == pytest.approx(np.exp(-1.0 / 4.0))
        assert pooled.values[3, 3, 0] == pytest.approx(np.exp(-2.0 / 4.0))
        assert pooled.values[4, 8, 0] == pytest.approx(np.exp(-16.0 / 4.0))

    def test_truncation_beyond_three_beta(self):
        values = np.zeros((13, 13))
        values[6, 6] = 1.0
        beta = np.sqrt(2.0)  # 3*beta ~ 4.24 -> window radius 4
        pooled = spatial_pool_g(FeatureMap(values), beta=beta, subsampling_factor=1)
        assert pooled.values[6, 11, 0] == 0.0  # offset (0, 5): outside the window
        assert pooled.values[2, 3, 0] == 0.0  # offset (4, 3): distance 5 > 3*beta
        # Offset (3, 3) sits exactly at distance 3*beta and is kept.
        assert pooled.values[3, 3, 0] == pytest.approx(np.exp(-18.0 / 4.0))

    def test_stride_offset_centers(self):
        values = np.zeros((8, 8))
        values[2, 2] = 1.0
        pooled = spatial_pool_g(
            FeatureMap(values), beta=4.0 / np.sqrt(2.0), subsampling_factor=4
        )
        # Output (0, 0) sits at input (2, 2): exact hit.
        assert pooled.values[0, 0, 0] == pytest.approx(1.0)
        # Output (1, 1) sits at (6, 6): squared distance 32.
        assert pooled.values[1, 1, 0] == pytest.approx(np.exp(-32.0 / 16.0))

    def test_linearity_in_the_input(self):
        rng = np.random.default_rng(10)
        a = rng.random((6, 6, 3))
        b = rng.random((6, 6, 3))
        beta = np.sqrt(2.0)
        left = spatial_pool_g(FeatureMap(a + b), beta, 2)
        right = spatial_pool_g(FeatureMap(a), beta, 2).values + spatial_pool_g(
            FeatureMap(b), beta, 2
        ).values
        np.testing.assert_allclose(left.values, right, rtol=1e-12)

    def test_guards(self):
        fmap = FeatureMap(np.ones((4, 4)))
        with pytest.raises(InvalidArgumentError):
            spatial_pool_g(fmap, beta=0.0, subsampling_factor=1)
        with pytest.raises(InvalidArgumentError):
            spatial_pool_g(fmap, beta=1.0, subsampling_factor=0)


def assert_matches_reference(fmap, beta, factor):
    fast = spatial_pool_g(fmap, beta, factor).values
    slow = reference_spatial_pool(fmap, beta, factor).values
    assert fast.shape == slow.shape
    assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


class TestPoolingOperator:
    """The cached sparse operator against the per-cell reference loop."""

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(9, 9), (8, 8), (7, 5), (5, 8)])
    def test_extents_and_strides(self, shape, factor):
        rng = np.random.default_rng(factor * 100 + shape[0] * 10 + shape[1])
        fmap = FeatureMap(rng.random(shape + (3,)))
        assert_matches_reference(fmap, compute_beta(factor), factor)

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_maps_smaller_than_the_window(self, factor):
        fmap = FeatureMap(np.random.default_rng(factor).random((2, 3, 2)))
        assert_matches_reference(fmap, 3.0, factor)

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_beta_unrelated_to_the_stride(self, factor):
        fmap = FeatureMap(np.random.default_rng(factor).random((7, 5, 2)))
        assert_matches_reference(fmap, 0.2, factor)  # radius 0: one tap
        assert_matches_reference(fmap, 6.0, factor)  # window wider than the map

    @pytest.mark.parametrize("shape, factor", [((199, 199, 16), 4), ((48, 48, 64), 2)])
    def test_benchmark_shapes(self, shape, factor):
        fmap = FeatureMap(np.random.default_rng(12).random(shape))
        assert_matches_reference(fmap, compute_beta(factor), factor)

    def test_alternating_shapes_never_share_an_operator(self):
        rng = np.random.default_rng(13)
        keys = [
            ((h, w), beta, factor)
            for (h, w) in ((7, 5), (5, 7), (6, 6))
            for beta, factor in ((compute_beta(2), 2), (compute_beta(3), 3), (1.0, 2))
        ]
        assert len(keys) > _pooling_operator.cache_info().maxsize
        maps = {shape: FeatureMap(rng.random(shape + (2,))) for shape, _, _ in keys}
        # More keys than the cache holds, visited twice: evicted operators
        # are rebuilt and every call meets its own (extent, beta, f).
        for shape, beta, factor in keys + keys[::-1]:
            assert_matches_reference(maps[shape], beta, factor)


class TestApproxKernel:
    def test_is_sum_of_elementwise_products(self):
        rng = np.random.default_rng(11)
        a = FeatureMap(rng.random((3, 3, 4)))
        b = FeatureMap(rng.random((3, 3, 4)))
        assert approx_kernel(a, b) == pytest.approx(
            float(np.sum(a.values * b.values))
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidArgumentError):
            approx_kernel(
                FeatureMap(np.ones((2, 2, 1))), FeatureMap(np.ones((3, 2, 1)))
            )


def random_batch(rng, count, dim):
    left = rng.normal(size=(count, dim))
    right = rng.normal(size=(count, dim))
    targets = rng.uniform(0.05, 1.0, size=count)
    return PairBatch.from_pairs(left, right, targets)


class TestPairObjective:
    def test_loss_value_against_direct_formula(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 4, 3)
        left = rng.normal(size=(17, 3))
        right = rng.normal(size=(17, 3))
        targets = rng.uniform(0.05, 1.0, size=17)
        loss, _, _ = objective_and_gradient(params, PairBatch.from_pairs(left, right, targets))
        model = np.zeros(17)
        for i in range(params.num_filters):
            w = params.filters[i]
            dx = np.sum((left - w) ** 2, axis=1)
            dy = np.sum((right - w) ** 2, axis=1)
            model += params.weights[i] * np.exp(
                -(dx + dy) / params.alpha**2
            )
        expected = float(np.sum((targets - model) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            p, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            params = random_params(rng, p, d)
            batch = random_batch(rng, int(rng.integers(2, 20)), d)
            _, grad_w, grad_b = objective_and_gradient(params, batch)
            theta = np.concatenate([params.filters.ravel(), params.weights])

            def loss_at(vec, p=p, d=d, params=params, batch=batch):
                trial = LayerParams(
                    vec[: p * d].reshape(p, d),
                    vec[p * d :],
                    alpha=params.alpha,
                    beta=params.beta,
                )
                return objective_and_gradient(trial, batch)[0]

            numeric = finite_diff_gradient(loss_at, theta)
            analytic = np.concatenate([grad_w.ravel(), grad_b])
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_perfect_fit_has_zero_loss(self):
        # One filter sitting exactly between x and y reproduces the target
        # when the weight is tuned to the required product value.
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])
        alpha = 0.8
        target = np.exp(-np.sum((x - y) ** 2) / (2 * alpha**2))
        mid = (x + y) / 2.0
        gauss = np.exp(
            -(np.sum((mid - x) ** 2) + np.sum((mid - y) ** 2)) / alpha**2
        )
        params = LayerParams(mid, np.array([float(target / gauss)]), alpha=alpha, beta=1.0)
        batch = PairBatch.from_pairs(x, y, np.array([target]))
        loss, _, _ = objective_and_gradient(params, batch)
        assert loss == pytest.approx(0.0, abs=1e-18)


def recover_pairs(vectors, batch):
    """The (left, right) rows of a sampled batch, found from its sums."""
    n = vectors.shape[0]
    all_sums = (vectors[:, np.newaxis, :] + vectors[np.newaxis, :, :]).reshape(n * n, -1)
    gaps = np.sum((batch.sums[:, np.newaxis, :] - all_sums) ** 2, axis=2)
    i, j = np.divmod(np.argmin(gaps, axis=1), n)
    np.testing.assert_array_equal(batch.sums, vectors[i] + vectors[j])
    return vectors[i], vectors[j]


def assert_objective_matches_reference(params, left, right, targets, batch=None):
    if batch is None:
        batch = PairBatch.from_pairs(left, right, targets)
    fast = objective_and_gradient(params, batch)
    slow = reference_pair_objective(
        params.filters, params.weights, params.alpha, left, right, targets
    )
    assert abs(fast[0] - slow[0]) <= 1e-12 * abs(slow[0])
    for new, ref in zip(fast[1:], slow[1:]):
        assert new.shape == ref.shape
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    return slow


class TestPairObjectiveAgainstReference:
    """The x+y objective against the two-distance loop it replaced."""

    def test_unit_pairs_from_the_sampler(self):
        rng = np.random.default_rng(30)
        raw = rng.normal(size=(60, 9))
        pool = SubPatchPool(np.ones(60), raw / np.linalg.norm(raw, axis=1)[:, None])
        alpha = estimate_alpha(pool, 0.1, seed=1)
        batch = sample_training_pairs(pool, 400, alpha, seed=2)
        left, right = recover_pairs(pool.normalized, batch)
        params = LayerParams(
            pool.normalized[:8] + 0.1 * rng.normal(size=(8, 9)),
            rng.uniform(0.1, 1.0, size=8),
            alpha=alpha,
            beta=1.0,
        )
        assert_objective_matches_reference(
            params, left, right, batch.targets, batch=batch
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_non_unit_random_pairs(self, seed):
        rng = np.random.default_rng(40 + seed)
        p, d, n = int(rng.integers(1, 9)), int(rng.integers(1, 20)), 60
        params = random_params(rng, p, d, alpha=float(rng.uniform(1.0, 3.0)))
        left = rng.normal(scale=0.7, size=(n, d))
        right = rng.normal(scale=0.7, size=(n, d))
        targets = rng.uniform(0.05, 1.0, size=n)
        assert_objective_matches_reference(params, left, right, targets)

    def test_identical_members_with_unit_targets(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(25, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        params = LayerParams(
            x[:5].copy(), rng.uniform(0.2, 1.0, size=5), alpha=0.6, beta=1.0
        )
        assert_objective_matches_reference(params, x, x.copy(), np.ones(25))

    def test_far_filters_underflow_to_zero(self):
        rng = np.random.default_rng(60)
        left = rng.normal(size=(30, 4))
        right = rng.normal(size=(30, 4))
        targets = rng.uniform(0.1, 1.0, size=30)
        params = LayerParams(
            100.0 + rng.normal(size=(3, 4)), np.ones(3), alpha=0.5, beta=1.0
        )
        loss, grad_w, grad_b = assert_objective_matches_reference(
            params, left, right, targets
        )
        # Every activation is exp of below -1e5: the model is exactly zero.
        assert loss == float(targets @ targets)
        assert not grad_w.any() and not grad_b.any()

    def test_chunks_agree_with_one_pass(self, monkeypatch):
        rng = np.random.default_rng(70)
        params = random_params(rng, 5, 7)
        left = rng.normal(size=(103, 7))
        right = rng.normal(size=(103, 7))
        targets = rng.uniform(0.05, 1.0, size=103)
        # The reference keeps its own chunk size and sees one chunk.
        monkeypatch.setattr(kernel_layer, "_OBJECTIVE_CHUNK", 10)
        assert_objective_matches_reference(params, left, right, targets)

    def test_batch_keeps_only_sums_and_norms(self):
        rng = np.random.default_rng(80)
        left = rng.normal(size=(6, 3))
        right = rng.normal(size=(6, 3))
        batch = PairBatch.from_pairs(left, right, np.full(6, 0.5))
        np.testing.assert_array_equal(batch.sums, left + right)
        np.testing.assert_allclose(
            batch.sq_norms, np.sum(left**2 + right**2, axis=1), rtol=1e-15
        )
        assert batch.dim == 3 and len(batch) == 6
        assert not hasattr(batch, "left") and not hasattr(batch, "right")


class TestTrainLayer:
    def test_never_worse_than_the_initial_point(self):
        rng = np.random.default_rng(14)
        dim = 3
        config = LayerConfig("patch", 1, 2, 6, num_training_pairs=200, seed=0)
        init = random_params(rng, 6, dim, alpha=0.7)
        batch = random_batch(rng, 200, dim)
        trained, fit = train_layer(batch, config, init)
        before = objective_and_gradient(init, batch)[0]
        after = objective_and_gradient(trained, batch)[0]
        assert after <= before
        assert 0 <= fit.iterations <= LBFGS_MAX_ITER
        assert fit.evaluations > fit.iterations
        assert not fit.fell_back

    def test_a_failed_solve_falls_back_to_the_initial_point(self, monkeypatch):
        rng = np.random.default_rng(17)
        config = LayerConfig("patch", 1, 2, 3, num_training_pairs=20, seed=0)
        init = random_params(rng, 3, 2, alpha=0.7)
        batch = random_batch(rng, 20, 2)

        class Diverged:
            @staticmethod
            def minimize(fun, x0, **kwargs):
                fun(x0 + 1.0)
                return optimize.OptimizeResult(
                    x=x0 + 1.0, fun=np.nan, nit=3, status=2
                )

        monkeypatch.setattr(kernel_layer, "optimize", Diverged)
        trained, fit = train_layer(batch, config, init)
        np.testing.assert_array_equal(trained.filters, init.filters)
        np.testing.assert_array_equal(trained.weights, init.weights)
        assert fit == kernel_layer.FitOutcome(
            iterations=3, evaluations=2, status=2, fell_back=True
        )

    def test_held_out_fit_improves_with_width(self):
        # Median held-out residual over five seeds must not grow as the
        # embedding widens 4 -> 8 -> 16 -> 32.
        def held_out_rmse(seed, num_filters):
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(600, 3))
            vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            pool = SubPatchPool(np.ones(600), vectors)
            alpha = estimate_alpha(pool, 0.1, seed=seed)
            train = sample_training_pairs(pool, 4000, alpha, seed=seed + 1)
            held = sample_training_pairs(pool, 2000, alpha, seed=seed + 2)
            pick = rng.choice(600, size=num_filters, replace=False)
            init = LayerParams(
                vectors[pick],
                np.full(num_filters, 1.0 / num_filters),
                alpha=alpha,
                beta=1.0,
            )
            config = LayerConfig(
                "patch", 1, 1, num_filters, num_training_pairs=4000, seed=seed
            )
            trained, _ = train_layer(train, config, init)
            loss = objective_and_gradient(trained, held)[0]
            return float(np.sqrt(loss / len(held)))

        widths = (4, 8, 16, 32)
        medians = []
        for width in widths:
            scores = [held_out_rmse(50 + 7 * s, width) for s in range(5)]
            medians.append(float(np.median(scores)))
        assert all(a >= b - 1e-12 for a, b in zip(medians, medians[1:])), medians

    def test_config_mismatch_raises(self):
        rng = np.random.default_rng(15)
        config = LayerConfig("patch", 1, 2, 3)
        with pytest.raises(InvalidArgumentError):
            train_layer(random_batch(rng, 10, 2), config, random_params(rng, 4, 2))
        with pytest.raises(InvalidArgumentError):
            train_layer(random_batch(rng, 10, 5), config, random_params(rng, 3, 2))


class TestSampleTrainingPairs:
    def test_targets_follow_the_gaussian_rule(self):
        rng = np.random.default_rng(16)
        raw = rng.normal(size=(50, 4))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        pool = SubPatchPool(np.ones(50), vectors)
        batch = sample_training_pairs(pool, 500, 0.9, seed=3)
        left, right = recover_pairs(vectors, batch)
        d2 = np.sum((left - right) ** 2, axis=1)
        np.testing.assert_allclose(
            batch.targets, np.exp(-d2 / (2 * 0.81)), rtol=1e-12
        )
        np.testing.assert_allclose(batch.sq_norms, 2.0, rtol=1e-12)
        assert (batch.targets > 0).all() and (batch.targets <= 1).all()

    def test_seeded_and_skips_zero_rows(self):
        vectors = np.vstack([np.eye(3), np.zeros((2, 3))])
        norms = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        pool = SubPatchPool(norms, vectors)
        one = sample_training_pairs(pool, 64, 1.0, seed=11)
        two = sample_training_pairs(pool, 64, 1.0, seed=11)
        np.testing.assert_array_equal(one.sums, two.sums)
        np.testing.assert_array_equal(one.sq_norms, two.sq_norms)
        # Both members of every pair are unit rows, never the zero rows.
        np.testing.assert_array_equal(one.sq_norms, 2.0)

    def test_chunked_batch_matches_the_gathered_pairs_in_bounded_memory(self):
        rng = np.random.default_rng(18)
        raw = rng.normal(size=(3000, 144))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        norms = rng.uniform(0.5, 2.0, size=3000)
        vectors[::7] = 0.0
        norms[::7] = 0.0
        pool = SubPatchPool(norms, vectors)
        count, alpha = 30_000, 0.9
        assert count % kernel_layer._PAIR_CHUNK != 0
        tracemalloc.start()
        try:
            batch = sample_training_pairs(pool, count, alpha, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        batch_bytes = batch.sums.nbytes + batch.sq_norms.nbytes + batch.targets.nbytes
        assert peak <= 1.5 * batch_bytes, peak / batch_bytes
        # The whole-batch construction the chunks replaced.
        kept = vectors[norms > 0]
        draws = np.random.default_rng(5)
        left = kept[draws.integers(0, len(kept), size=count)]
        right = kept[draws.integers(0, len(kept), size=count)]
        targets = np.exp(-np.sum((left - right) ** 2, axis=1) / (2.0 * alpha * alpha))
        whole = PairBatch.from_pairs(left, right, targets)
        np.testing.assert_array_equal(batch.targets, whole.targets)
        np.testing.assert_array_equal(batch.sums, whole.sums)
        np.testing.assert_array_equal(batch.sq_norms, whole.sq_norms)

    def test_degenerate_pool_raises(self):
        pool = SubPatchPool(np.zeros(4), np.zeros((4, 2)))
        with pytest.raises(DegeneratePoolError):
            sample_training_pairs(pool, 10, 1.0, seed=0)

    def test_tight_pool_trains_with_zero_targets(self):
        # Two tight clusters of unit 2-D directions half a turn apart give a
        # tiny alpha, and exp(-d2 / (2 alpha^2)) underflows to exactly 0 for
        # pairs across the clusters. Such pairs are valid training targets.
        rng = np.random.default_rng(17)
        angles = np.where(rng.random(5000) < 0.5, 0.0, np.pi)
        angles += 0.01 * rng.normal(size=5000)
        vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pool = SubPatchPool(np.ones(5000), vectors)
        alpha = estimate_alpha(pool, 0.1, seed=1)
        assert alpha < 0.01
        batch = sample_training_pairs(pool, 4000, alpha, seed=2)
        assert (batch.targets == 0.0).any()
        assert (batch.targets > 0.0).any()
        config = LayerConfig("gradient", 1, 2, 4, num_training_pairs=4000)
        init = LayerParams(
            vectors[:4], np.full(4, 0.25), alpha=alpha, beta=compute_beta(2)
        )
        trained, fit = train_layer(batch, config, init)
        assert np.isfinite(trained.filters).all()
        assert objective_and_gradient(trained, batch)[0] <= objective_and_gradient(
            init, batch
        )[0]


class TestValidation:
    def test_layer_config_guards(self):
        with pytest.raises(InvalidArgumentError):
            LayerConfig("voxel", 1, 2, 4)
        with pytest.raises(InvalidArgumentError):
            LayerConfig("gradient", 3, 2, 4)
        with pytest.raises(InvalidArgumentError):
            LayerConfig("patch", 1, 2, 4, alpha_quantile=1.0)

    def test_layer_params_guards(self):
        with pytest.raises(InvalidArgumentError):
            LayerParams(np.ones((2, 2)), np.ones(3), alpha=1.0, beta=1.0)
        with pytest.raises(InvalidArgumentError):
            LayerParams(np.ones((2, 2)), -np.ones(2), alpha=1.0, beta=1.0)
        with pytest.raises(InvalidArgumentError):
            LayerParams(np.ones((2, 2)), np.ones(2), alpha=0.0, beta=1.0)

    def test_pair_batch_guards(self):
        with pytest.raises(InvalidArgumentError):
            PairBatch.from_pairs(np.ones((3, 2)), np.ones((3, 2)), np.array([0.5, -1e-300, 0.5]))
        with pytest.raises(InvalidArgumentError):
            PairBatch.from_pairs(np.ones((3, 2)), np.ones((2, 2)), np.ones(3))
        with pytest.raises(InvalidArgumentError, match="one squared norm"):
            PairBatch(np.ones((3, 2)), np.ones(2), np.ones(3))
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            PairBatch(np.ones((3, 2)), np.array([1.0, np.inf, 1.0]), np.ones(3))
        with pytest.raises(InvalidArgumentError, match="2-D"):
            PairBatch(np.ones(3), np.ones(3), np.ones(3))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**16))
    def test_objective_is_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 3, 2)
        batch = random_batch(rng, 12, 2)
        assert objective_and_gradient(params, batch)[0] >= 0.0
