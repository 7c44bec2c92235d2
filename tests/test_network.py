"""Layer stacking, pyramid pooling, and whole-network training."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cskn.config import load_manifest, parse_run_config
from cskn.epls import PretrainConfig
from cskn.errors import InvalidArgumentError
from cskn.featmap import FeatureMap
from cskn.kernel_layer import LBFGS_MAX_ITER, LayerConfig, LayerParams
from cskn.network import (
    DegenerateGridWarning,
    ModelBundle,
    PyramidDescriptor,
    TrainedLayer,
    forward_layer,
    forward_network,
    spp_pool,
    train_network,
)
from cskn.images import load_image
from cskn.model_io import save_model
from cskn.oracle import reference_train_network

from conftest import TINY_CONFIG


def sealed_layer(config, dim, seed=0, alpha=2.0):
    rng = np.random.default_rng(seed)
    filters = rng.normal(size=(config.num_filters, dim))
    filters /= np.linalg.norm(filters, axis=1, keepdims=True)
    params = LayerParams(
        filters.astype(np.float32),
        rng.uniform(0.1, 1.0, size=config.num_filters).astype(np.float32),
        alpha=alpha,
        beta=config.subsampling_factor / np.sqrt(2.0),
    )
    return TrainedLayer(config, params)


class TestTrainedLayer:
    def test_from_training_seals_to_float32(self):
        config = LayerConfig("patch", 2, 2, 3, seed=0)
        params = LayerParams(
            np.random.default_rng(0).normal(size=(3, 4)),
            np.full(3, 0.5),
            alpha=0.4,
            beta=1.0,
        )
        layer = TrainedLayer.from_training(config, params)
        assert layer.params.filters.dtype == np.float32
        assert layer.params.weights.dtype == np.float32

    def test_rejects_float64_storage(self):
        config = LayerConfig("patch", 2, 2, 3, seed=0)
        params = LayerParams(
            np.zeros((3, 4)), np.full(3, 0.5), alpha=0.4, beta=1.0
        )
        with pytest.raises(InvalidArgumentError):
            TrainedLayer(config, params)

    def test_rejects_filter_count_mismatch(self):
        config = LayerConfig("patch", 2, 2, 5, seed=0)
        params = LayerParams(
            np.zeros((3, 4), dtype=np.float32),
            np.full(3, 0.5, dtype=np.float32),
            alpha=0.4,
            beta=1.0,
        )
        with pytest.raises(InvalidArgumentError):
            TrainedLayer(config, params)

    def test_gradient_layer_needs_two_dim_filters(self):
        config = LayerConfig("gradient", 1, 4, 3, seed=0)
        params = LayerParams(
            np.zeros((3, 4), dtype=np.float32),
            np.full(3, 0.5, dtype=np.float32),
            alpha=0.4,
            beta=1.0,
        )
        with pytest.raises(InvalidArgumentError):
            TrainedLayer(config, params)


class TestModelBundle:
    def test_layer_dims_must_chain(self):
        first = sealed_layer(LayerConfig("patch", 2, 2, 6, seed=0), dim=4)
        good = sealed_layer(LayerConfig("patch", 2, 4, 5, seed=1), dim=24)
        ModelBundle(layers=(first, good), input_size=20)
        bad = sealed_layer(LayerConfig("patch", 2, 4, 5, seed=1), dim=20)
        with pytest.raises(InvalidArgumentError, match="chain"):
            ModelBundle(layers=(first, bad), input_size=20)

    def test_gradient_only_first(self):
        first = sealed_layer(LayerConfig("patch", 2, 2, 6, seed=0), dim=4)
        grad = sealed_layer(LayerConfig("gradient", 1, 2, 8, seed=1), dim=2)
        with pytest.raises(InvalidArgumentError):
            ModelBundle(layers=(first, grad), input_size=20)

    def test_descriptor_length_counts_pyramid_bins(self):
        layer = sealed_layer(LayerConfig("patch", 2, 2, 7, seed=0), dim=4)
        model = ModelBundle(
            layers=(layer,), pyramid_levels=(1, 2, 3, 6), input_size=20
        )
        assert model.descriptor_length == 50 * 7

    def test_expected_channels(self):
        gray = sealed_layer(LayerConfig("patch", 2, 2, 4, seed=0), dim=4)
        assert ModelBundle(layers=(gray,), input_size=20).expected_channels() == 1
        rgb = sealed_layer(LayerConfig("patch", 2, 2, 4, seed=0), dim=12)
        assert ModelBundle(layers=(rgb,), input_size=20).expected_channels() == 3
        grad = sealed_layer(LayerConfig("gradient", 1, 2, 8, seed=0), dim=2)
        assert ModelBundle(layers=(grad,), input_size=20).expected_channels() == 1

    def test_pyramid_levels_must_increase(self):
        layer = sealed_layer(LayerConfig("patch", 2, 2, 4, seed=0), dim=4)
        with pytest.raises(InvalidArgumentError):
            ModelBundle(layers=(layer,), pyramid_levels=(2, 2), input_size=20)

    def test_needs_a_layer(self):
        with pytest.raises(InvalidArgumentError):
            ModelBundle(layers=(), input_size=20)


class TestPyramidDescriptor:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            PyramidDescriptor(np.ones(3), levels=(1,), channels=2)
        with pytest.raises(InvalidArgumentError):
            PyramidDescriptor(np.array([1.0, -0.5]), levels=(1,), channels=2)
        with pytest.raises(InvalidArgumentError):
            PyramidDescriptor(np.array([1.0, np.nan]), levels=(1,), channels=2)


class TestSppPool:
    def test_single_spike_level_two(self):
        values = np.zeros((4, 4))
        values[0, 0] = 7.0
        desc = spp_pool(FeatureMap(values), levels=(2,))
        np.testing.assert_array_equal(desc.values, [7.0, 0.0, 0.0, 0.0])

    def test_window_geometry_overlaps(self):
        # Extent 5 at level 2: windows of side 3 with stride 2 share row 2.
        values = np.zeros((5, 5))
        values[2, 2] = 3.0
        desc = spp_pool(FeatureMap(values), levels=(2,))
        np.testing.assert_array_equal(desc.values, [3.0, 3.0, 3.0, 3.0])

    def test_last_window_reaches_the_edge(self):
        values = np.zeros((7, 7))
        values[6, 6] = 2.0
        desc = spp_pool(FeatureMap(values), levels=(3,))
        expected = np.zeros(9)
        expected[8] = 2.0
        np.testing.assert_array_equal(desc.values, expected)

    def test_channels_fastest_ordering(self):
        values = np.zeros((4, 4, 2))
        values[0, 0, 0] = 5.0
        values[3, 3, 1] = 6.0
        desc = spp_pool(FeatureMap(values), levels=(1, 2))
        np.testing.assert_array_equal(
            desc.values, [5.0, 6.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0]
        )

    def test_degenerate_level_warns_and_repeats_first_cell(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.warns(DegenerateGridWarning):
            desc = spp_pool(FeatureMap(values), levels=(3,))
        np.testing.assert_array_equal(desc.values, np.full(9, 1.0))

    def test_shift_within_finest_cell_is_exact(self):
        # On a 12x12 map the level-6 cells are 2x2 blocks at even offsets,
        # and no coarser window boundary can split such a block. Moving a
        # spike anywhere inside one block leaves every level untouched.
        def descriptor(r, c):
            values = np.zeros((12, 12))
            values[r, c] = 1.0
            return spp_pool(FeatureMap(values), levels=(1, 2, 3, 6)).values

        base = descriptor(4, 6)
        for r, c in [(4, 7), (5, 6), (5, 7)]:
            np.testing.assert_array_equal(descriptor(r, c), base)
        assert not np.array_equal(descriptor(6, 6), base)

    def test_rejects_bad_levels(self):
        fmap = FeatureMap(np.ones((4, 4)))
        with pytest.raises(InvalidArgumentError):
            spp_pool(fmap, levels=())
        with pytest.raises(InvalidArgumentError):
            spp_pool(fmap, levels=(0, 2))
        with pytest.raises(InvalidArgumentError):
            spp_pool(fmap, levels=(3, 2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), extent=st.integers(2, 9))
    def test_pointwise_dominance_carries_through(self, seed, extent):
        rng = np.random.default_rng(seed)
        small = rng.random((extent, extent, 2))
        large = small + rng.random((extent, extent, 2))
        lo = spp_pool(FeatureMap(small), levels=(1, 2))
        hi = spp_pool(FeatureMap(large), levels=(1, 2))
        assert (hi.values >= lo.values).all()


class TestForward:
    def test_two_layer_shape_and_length(self):
        # 2x2 patches, pooling strides 2 then 4, 100 then 800 filters on a
        # 200x200 single-channel input: the pyramid gives 50 * 800 values.
        first = sealed_layer(LayerConfig("patch", 2, 2, 100, seed=0), dim=4)
        second = sealed_layer(LayerConfig("patch", 2, 4, 800, seed=1), dim=400)
        model = ModelBundle(layers=(first, second), input_size=200)
        assert model.descriptor_length == 40_000
        image = FeatureMap(np.random.default_rng(2).random((200, 200)))
        desc = forward_network(image, model)
        assert desc.values.shape == (40_000,)
        assert desc.channels == 800
        assert desc.values.max() > 0

    def test_wide_second_layer_channel_count(self):
        # 3x3 patches with stride-4 pooling and 1024 filters on a 10x10
        # 16-channel map: an 8x8 grid pools down to 2x2 output cells.
        config = LayerConfig("patch", 3, 4, 1024, seed=0)
        layer = sealed_layer(config, dim=16 * 9)
        inputs = FeatureMap(np.random.default_rng(3).random((10, 10, 16)))
        out = forward_layer(inputs, config, layer.params)
        assert out.values.shape == (2, 2, 1024)

    def test_gradient_first_layer_shrinks_by_one(self):
        config = LayerConfig("gradient", 1, 2, 8, seed=0)
        layer = sealed_layer(config, dim=2)
        image = FeatureMap(np.random.default_rng(4).random((9, 9)))
        out = forward_layer(image, config, layer.params)
        assert out.values.shape == (4, 4, 8)

    def test_input_size_and_channels_are_checked(self):
        layer = sealed_layer(LayerConfig("patch", 2, 2, 4, seed=0), dim=4)
        model = ModelBundle(layers=(layer,), input_size=20)
        with pytest.raises(InvalidArgumentError):
            forward_network(FeatureMap(np.ones((19, 20))), model)
        with pytest.raises(InvalidArgumentError):
            forward_network(FeatureMap(np.ones((20, 20, 3))), model)

    def test_zero_image_gives_zero_descriptor(self):
        layer = sealed_layer(LayerConfig("patch", 2, 2, 4, seed=0), dim=4)
        model = ModelBundle(layers=(layer,), input_size=12)
        desc = forward_network(FeatureMap(np.zeros((12, 12))), model)
        np.testing.assert_array_equal(desc.values, np.zeros(model.descriptor_length))


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(21)
    images = [FeatureMap(rng.random((24, 24))) for _ in range(3)]
    configs = [
        LayerConfig("gradient", 1, 4, 6, num_training_pairs=400, seed=11),
        LayerConfig("patch", 2, 2, 8, num_training_pairs=400, seed=12),
    ]
    pcfg = PretrainConfig(batch_size=100, patches_per_epoch=400, epochs=1, seed=13)
    model = train_network(images, configs, pcfg, pyramid_levels=(1, 2, 3))
    return model, images


class TestTrainNetwork:
    def test_structure(self, trained):
        model, images = trained
        assert len(model.layers) == 2
        assert model.layers[0].params.dim == 2
        assert model.layers[1].params.dim == 6 * 4
        desc = forward_network(images[0], model)
        assert desc.values.shape == (model.descriptor_length,)

    def test_training_provenance(self, trained):
        model, _ = trained
        for i in (1, 2):
            init = model.provenance[f"layer{i}_pair_loss_init"]
            final = model.provenance[f"layer{i}_pair_loss_final"]
            assert final <= init
            assert model.provenance[f"layer{i}_alpha"] > 0
            iterations = model.provenance[f"layer{i}_lbfgs_iterations"]
            evaluations = model.provenance[f"layer{i}_lbfgs_evaluations"]
            status = model.provenance[f"layer{i}_lbfgs_status"]
            fell_back = model.provenance[f"layer{i}_lbfgs_fell_back"]
            assert all(
                type(value) is int
                for value in (iterations, evaluations, status, fell_back)
            )
            assert 0 <= iterations <= LBFGS_MAX_ITER
            assert evaluations > iterations
            assert fell_back in (0, 1)
        assert model.provenance["layer1_beta"] == pytest.approx(4 / np.sqrt(2))
        assert model.provenance["layer2_beta"] == pytest.approx(2 / np.sqrt(2))

    def test_seed_reproducibility(self, trained):
        model, images = trained
        configs = [layer.config for layer in model.layers]
        pcfg = PretrainConfig(batch_size=100, patches_per_epoch=400, epochs=1, seed=13)
        again = train_network(images, configs, pcfg)
        for a, b in zip(model.layers, again.layers):
            np.testing.assert_array_equal(a.params.filters, b.params.filters)
            np.testing.assert_array_equal(a.params.weights, b.params.weights)

    def test_input_validation(self):
        config = LayerConfig("patch", 2, 2, 4, seed=0)
        with pytest.raises(InvalidArgumentError):
            train_network([], [config], PretrainConfig())
        mixed = [FeatureMap(np.ones((8, 8))), FeatureMap(np.ones((9, 9)))]
        with pytest.raises(InvalidArgumentError):
            train_network(mixed, [config], PretrainConfig())
        grad_second = [
            LayerConfig("patch", 2, 2, 4, seed=0),
            LayerConfig("gradient", 1, 2, 8, seed=1),
        ]
        with pytest.raises(InvalidArgumentError):
            train_network([FeatureMap(np.ones((8, 8)))], grad_second, PretrainConfig())

    def test_pyramid_levels_are_checked_before_training(self, monkeypatch):
        import cskn.network as network

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(network, "estimate_alpha", no_training)
        config = LayerConfig("patch", 2, 2, 4, seed=0)
        with pytest.raises(InvalidArgumentError, match="pyramid levels"):
            train_network(
                [FeatureMap(np.ones((8, 8)))],
                [config],
                PretrainConfig(),
                pyramid_levels=(2, 1),
            )


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


class TestTrainNetworkAgainstReference:
    """The one-pool training loop against the grid-per-map loop it replaced."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_tiny_config_models_are_byte_identical(self, tiny_manifest, tmp_path, seed):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG.replace("\nseed = 3\n", f"\nseed = {seed}\n", 1))
        run = parse_run_config(config)
        manifest = load_manifest(tiny_manifest)
        images = [
            load_image(manifest.resolve(entry), run.input_size, run.grayscale)
            for entry in manifest.split_entries("train")
        ]
        args = (images, run.layers, run.pretrain)
        kwargs = {"pyramid_levels": run.pyramid_levels}
        fast = model_bytes(train_network(*args, **kwargs), tmp_path / "fast.cskn")
        slow = model_bytes(reference_train_network(*args, **kwargs), tmp_path / "slow.cskn")
        assert fast == slow

    def test_patch_first_layer_models_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        images = [FeatureMap(rng.random((20, 20, 3))) for _ in range(3)]
        configs = [
            LayerConfig("patch", 2, 2, 6, num_training_pairs=600, seed=41),
            LayerConfig("patch", 2, 1, 5, num_training_pairs=600, seed=42),
        ]
        pcfg = PretrainConfig(batch_size=100, patches_per_epoch=300, epochs=2, seed=43)
        fast = model_bytes(
            train_network(images, configs, pcfg, pyramid_levels=(1, 2)),
            tmp_path / "fast.cskn",
        )
        slow = model_bytes(
            reference_train_network(images, configs, pcfg, pyramid_levels=(1, 2)),
            tmp_path / "slow.cskn",
        )
        assert fast == slow


def test_training_memory_peaks_near_the_largest_pool():
    # Layer 1 keeps the full 63x63 grid (stride 1), so layer 2's pool of
    # 61x61 windows x 8 channels x 3x3 dominates every other allocation.
    rng = np.random.default_rng(51)
    images = [FeatureMap(rng.random((64, 64))) for _ in range(12)]
    configs = [
        LayerConfig("gradient", 1, 1, 8, num_training_pairs=500, seed=52),
        LayerConfig("patch", 3, 2, 16, num_training_pairs=500, seed=53),
    ]
    pcfg = PretrainConfig(batch_size=100, patches_per_epoch=500, epochs=1, seed=54)
    layer2_pool_bytes = len(images) * 61 * 61 * (8 * 3 * 3 + 1) * 8
    tracemalloc.start()
    try:
        train_network(images, configs, pcfg, pyramid_levels=(1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * layer2_pool_bytes, peak / layer2_pool_bytes
