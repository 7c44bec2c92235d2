"""Winner selection under the epoch capacity, and the pre-training loop."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cskn.epls import (
    PretrainConfig,
    _minmax_normalize,
    epls_epoch_step,
    init_gradient_layer,
    pretrain_layer,
)
from cskn.errors import (
    CapacityExhaustedError,
    DegeneratePoolError,
    InvalidArgumentError,
)
from cskn.featmap import SubPatchPool
from cskn.kernel_layer import LayerConfig
from cskn.oracle import reference_epls_epoch_step


def fresh(num_outputs):
    return np.zeros(num_outputs, dtype=np.int64)


class TestSparseTarget:
    """A batch's sparse target is one winner index per row."""

    def test_accepts_one_hot_rows(self):
        # One-hot responses within capacity are their own target: each
        # row's winner is its active entry.
        order = [2, 0, 3, 1]
        winners, _ = epls_epoch_step(np.eye(4)[order], fresh(4), 4)
        np.testing.assert_array_equal(winners, order)


class TestInhibitorState:
    """The epoch's selection counts and total, passed as plain values."""

    def test_fresh_state_is_zeroed(self):
        counts = fresh(5)
        winners, after = epls_epoch_step(np.eye(5)[:3], counts, 100)
        np.testing.assert_array_equal(counts, np.zeros(5))
        assert after.dtype == np.int64
        np.testing.assert_array_equal(after, np.bincount(winners, minlength=5))

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            epls_epoch_step(np.ones((1, 2)), np.array([-1, 0]), 10)
        with pytest.raises(InvalidArgumentError):
            epls_epoch_step(np.ones((1, 2)), fresh(2), 0)


class TestEpochStep:
    def test_clear_winners_trace(self):
        normalized = np.array([[0.9, 0.1], [0.2, 0.8]])
        winners, counts = epls_epoch_step(normalized, fresh(2), 2)
        np.testing.assert_array_equal(winners, [0, 1])
        np.testing.assert_array_equal(counts, [1, 1])

    def test_capacity_overrides_raw_preference(self):
        # The second row prefers output 0 too, but the epoch budget of one
        # selection per output forces it onto output 1.
        normalized = np.array([[0.9, 0.1], [0.8, 0.7]])
        winners, counts = epls_epoch_step(normalized, fresh(2), 2)
        np.testing.assert_array_equal(winners, [0, 1])
        np.testing.assert_array_equal(counts, [1, 1])

    def test_constant_batch_normalizes_to_zero_and_ties_go_low(self):
        normalized, scale = _minmax_normalize(np.full((2, 2), 0.4))
        np.testing.assert_array_equal(normalized, np.zeros((2, 2)))
        assert scale == 0.0
        winners, _ = epls_epoch_step(normalized, fresh(2), 2)
        np.testing.assert_array_equal(winners, [0, 1])

    def test_tied_row_picks_lowest_index(self):
        normalized = np.array([[0.5, 0.5, 0.5], [0.2, 0.8, 0.2]])
        winners, _ = epls_epoch_step(normalized, fresh(3), 3)
        assert winners[0] == 0

    def test_state_threads_across_batches(self):
        rng = np.random.default_rng(0)
        counts = fresh(4)
        seen = 0
        while seen < 20:
            size = min(int(rng.integers(1, 7)), 20 - seen)
            _, counts = epls_epoch_step(rng.random((size, 4)), counts, 20)
            seen += size
        assert counts.sum() == 20
        assert (counts == 5).all()

    def test_overfeeding_the_epoch_raises(self):
        _, counts = epls_epoch_step(np.random.default_rng(1).random((2, 2)), fresh(2), 2)
        with pytest.raises(CapacityExhaustedError):
            epls_epoch_step(np.random.default_rng(2).random((1, 2)), counts, 2)

    def test_shape_and_finiteness_guards(self):
        with pytest.raises(InvalidArgumentError):
            epls_epoch_step(np.ones((2, 2)), fresh(3), 10)
        with pytest.raises(InvalidArgumentError):
            epls_epoch_step(np.ones((0, 3)), fresh(3), 10)
        bad = np.ones((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(InvalidArgumentError):
            epls_epoch_step(bad, fresh(3), 10)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_outputs=st.integers(1, 9),
        total=st.integers(1, 60),
    )
    def test_epoch_counts_stay_balanced(self, seed, num_outputs, total):
        rng = np.random.default_rng(seed)
        counts = fresh(num_outputs)
        winners = []
        seen = 0
        while seen < total:
            size = min(int(rng.integers(1, 8)), total - seen)
            batch, counts = epls_epoch_step(
                rng.random((size, num_outputs)), counts, total
            )
            assert batch.shape == (size,)
            winners.append(batch)
            seen += size
        winners = np.concatenate(winners)
        assert ((0 <= winners) & (winners < num_outputs)).all()
        np.testing.assert_array_equal(
            np.bincount(winners, minlength=num_outputs), counts
        )
        lo = total // num_outputs
        hi = -(-total // num_outputs)
        assert (counts >= lo).all()
        assert (counts <= hi).all()


def step_outcome(step, normalized, counts, total):
    try:
        return step(normalized, counts, total)
    except CapacityExhaustedError as exc:
        return str(exc)


def assert_same_step(normalized, counts, total):
    """The incremental step and the reference loop agree bit for bit.

    Returns the updated counts, or None when both raised the same error.
    """
    new = step_outcome(epls_epoch_step, normalized, counts, total)
    old = step_outcome(reference_epls_epoch_step, normalized, counts, total)
    assert type(new) is type(old)
    if isinstance(old, str):
        assert new == old
        return None
    np.testing.assert_array_equal(new[0], old[0])
    np.testing.assert_array_equal(new[1], old[1])
    return new[1]


class TestEpochStepAgainstReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_epochs(self, seed):
        rng = np.random.default_rng(seed)
        num_outputs = int(rng.integers(1, 10))
        total = int(rng.integers(1, 300))
        counts = fresh(num_outputs)
        seen = 0
        while seen < total:
            size = min(int(rng.integers(1, 50)), total - seen)
            normalized = rng.random((size, num_outputs))
            if seed % 2:
                normalized = np.round(4.0 * normalized) / 4.0  # many ties
            counts = assert_same_step(normalized, counts, total)
            seen += size
        assert assert_same_step(rng.random((1, num_outputs)), counts, total) is None

    def test_deficit_regime_after_the_favourites_fill(self):
        # 42 selections over 4 outputs: caps 10 and 11. Rows prefer outputs
        # 0 and 1; once both hold 11, the 20 selections left are exactly
        # the deficit of outputs 2 and 3, and only those stay eligible.
        normalized = np.tile([1.0, 0.9, 0.0, 0.1], (42, 1))
        counts = assert_same_step(normalized, fresh(4), 42)
        np.testing.assert_array_equal(counts, [11, 11, 10, 10])

    def test_every_small_state(self):
        # Includes spent epochs and counts above both caps. "Every output
        # at maximal inhibition" cannot happen with selections left: it
        # needs every count at the cap of its regime, which spends them.
        rng = np.random.default_rng(5)
        for num_outputs in (1, 2, 3):
            for total in range(1, 8):
                cap_hi = -(-total // num_outputs)
                for counts in itertools.product(range(cap_hi + 2), repeat=num_outputs):
                    assert_same_step(
                        rng.random((3, num_outputs)),
                        np.array(counts, dtype=np.int64),
                        total,
                    )


def unit_pool(rng, count, dim=4):
    raw = rng.normal(size=(count, dim))
    vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return SubPatchPool(rng.uniform(0.5, 1.5, size=count), vectors)


class TestPretrainLayer:
    def test_loss_trace_trends_down(self):
        rng = np.random.default_rng(7)
        pool = unit_pool(rng, 400)
        config = LayerConfig("patch", 2, 2, 8, seed=1)
        pcfg = PretrainConfig(
            batch_size=50, patches_per_epoch=400, epochs=4, seed=9
        )
        trace: list[float] = []
        params = pretrain_layer(pool, config, pcfg, alpha=0.8, loss_trace=trace)
        assert len(trace) == 8 * 4
        first_epoch = float(np.mean(trace[:8]))
        last_epoch = float(np.mean(trace[-8:]))
        assert last_epoch < first_epoch
        assert params.num_filters == 8
        assert params.dim == 4

    def test_deterministic_for_fixed_seeds(self):
        rng = np.random.default_rng(8)
        pool = unit_pool(rng, 300)
        config = LayerConfig("patch", 2, 4, 6, seed=2)
        pcfg = PretrainConfig(batch_size=30, patches_per_epoch=120, epochs=2, seed=3)
        one = pretrain_layer(pool, config, pcfg, alpha=0.7)
        two = pretrain_layer(pool, config, pcfg, alpha=0.7)
        np.testing.assert_array_equal(one.filters, two.filters)
        np.testing.assert_array_equal(one.weights, two.weights)

    def test_seed_changes_the_result(self):
        rng = np.random.default_rng(9)
        pool = unit_pool(rng, 300)
        config = LayerConfig("patch", 2, 4, 6, seed=2)
        one = pretrain_layer(
            pool, config, PretrainConfig(batch_size=30, patches_per_epoch=120, epochs=2, seed=3),
            alpha=0.7,
        )
        other = pretrain_layer(
            pool, config, PretrainConfig(batch_size=30, patches_per_epoch=120, epochs=2, seed=4),
            alpha=0.7,
        )
        assert not np.array_equal(one.filters, other.filters)

    def test_weights_respect_the_floor(self):
        rng = np.random.default_rng(10)
        pool = unit_pool(rng, 200)
        config = LayerConfig("patch", 2, 2, 5, seed=0)
        pcfg = PretrainConfig(batch_size=25, patches_per_epoch=100, epochs=3, seed=1)
        params = pretrain_layer(pool, config, pcfg, alpha=0.6)
        assert (params.weights >= 1e-8).all()

    def test_beta_comes_from_the_subsampling_factor(self):
        rng = np.random.default_rng(11)
        pool = unit_pool(rng, 150)
        config = LayerConfig("patch", 2, 4, 4, seed=0)
        pcfg = PretrainConfig(batch_size=25, patches_per_epoch=100, epochs=1, seed=1)
        params = pretrain_layer(pool, config, pcfg, alpha=0.6)
        assert params.beta == pytest.approx(4.0 / np.sqrt(2.0))
        assert params.alpha == pytest.approx(0.6)

    def test_small_pool_raises(self):
        pool = SubPatchPool(np.zeros(10), np.zeros((10, 3)))
        config = LayerConfig("patch", 1, 2, 4, seed=0)
        with pytest.raises(DegeneratePoolError):
            pretrain_layer(pool, config, PretrainConfig(), alpha=0.5)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan_vectors", "inf_norm"])
    def test_non_finite_responses_are_rejected(self, bad):
        # The batch is normalized before the epoch step sees it; a NaN or
        # infinite response must still reach the step's finiteness guard.
        rng = np.random.default_rng(13)
        pool = unit_pool(rng, 40)
        if bad == "nan_vectors":
            pool.normalized[:] = np.nan
        else:
            pool.norms[5] = np.inf
        config = LayerConfig("patch", 1, 2, 4, seed=0)
        pcfg = PretrainConfig(batch_size=40, patches_per_epoch=40, epochs=1, seed=1)
        with pytest.raises(InvalidArgumentError, match="outputs contain non-finite"):
            pretrain_layer(pool, config, pcfg, alpha=0.5)

    def test_alpha_guard(self):
        rng = np.random.default_rng(12)
        pool = unit_pool(rng, 50)
        config = LayerConfig("patch", 1, 2, 4, seed=0)
        with pytest.raises(InvalidArgumentError):
            pretrain_layer(pool, config, PretrainConfig(), alpha=0.0)


class TestGradientLayerInit:
    def test_sixteen_orientations(self):
        filters, weights = init_gradient_layer(16)
        assert filters.shape == (16, 2)
        np.testing.assert_allclose(np.linalg.norm(filters, axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(weights, np.full(16, 1.0 / 16.0))
        angles = np.arctan2(filters[:, 1], filters[:, 0])
        spacing = np.diff(np.unwrap(angles))
        np.testing.assert_allclose(spacing, np.deg2rad(22.5), rtol=1e-12)

    def test_first_filter_points_along_x(self):
        filters, _ = init_gradient_layer(4)
        np.testing.assert_allclose(filters[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(filters[1], [0.0, 1.0], atol=1e-15)

    def test_rejects_zero_orientations(self):
        with pytest.raises(InvalidArgumentError):
            init_gradient_layer(0)


class TestPretrainConfig:
    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            PretrainConfig(batch_size=0)
        with pytest.raises(InvalidArgumentError):
            PretrainConfig(smoothing=1.0)
        with pytest.raises(InvalidArgumentError):
            PretrainConfig(base_step=0.0)
