"""Stacked layers, spatial pyramid pooling, and network training.

A trained network is a sealed bundle of (config, params) layers plus the
pyramid levels used to summarize the final map into a fixed-length
descriptor. Training is layer-wise and fully unsupervised: harvest
sub-patches from the current maps, estimate the similarity bandwidth,
initialize filters (sparsity pre-training, or fixed orientations for a
gradient first layer), then fit the pair objective.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .epls import PretrainConfig, init_gradient_layer, pretrain_layer
from .errors import InvalidArgumentError
from .featmap import (
    FeatureMap,
    SubPatchGrid,
    SubPatchPool,
    build_gradient_map,
    extract_subpatches,
)
from .kernel_layer import (
    ALPHA_PAIR_SAMPLE_CAP,
    LBFGS_MAX_ITER,
    LBFGS_MEMORY,
    LBFGS_PGTOL,
    WEIGHT_FLOOR,
    LayerConfig,
    LayerParams,
    activation_h,
    compute_beta,
    estimate_alpha,
    objective_and_gradient,
    sample_training_pairs,
    spatial_pool_g,
    train_layer,
)

DEFAULT_PYRAMID_LEVELS = (1, 2, 3, 6)


class DegenerateGridWarning(UserWarning):
    """A pyramid level exceeds the map extent; windows collapse to cells."""


def check_pyramid_levels(levels: Sequence[int]) -> tuple[int, ...]:
    """The pyramid rule: a nonempty, strictly increasing run of positive
    window counts. Returns the levels as a tuple of ints."""
    levels = tuple(int(n) for n in levels)
    if not levels or levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidArgumentError(
            "pyramid levels must be strictly increasing positive counts"
        )
    return levels


def check_input_size(size: int) -> int:
    """The input rule: images are resized to a square of side at least 2."""
    if size < 2:
        raise InvalidArgumentError("input_size must be >= 2")
    return int(size)


def check_layer_input(index: int, config: LayerConfig) -> None:
    """The stacking rule: only the first layer (index 0) reads gradients."""
    if config.input_kind == "gradient" and index > 0:
        raise InvalidArgumentError("gradient input is only allowed in [layer1]")


@dataclass(frozen=True)
class TrainedLayer:
    """A sealed layer: its architecture plus float32 parameters."""

    config: LayerConfig
    params: LayerParams

    def __post_init__(self) -> None:
        if self.params.num_filters != self.config.num_filters:
            raise InvalidArgumentError(
                "layer params and config disagree on the filter count"
            )
        if self.config.input_kind == "gradient" and self.params.dim != 2:
            raise InvalidArgumentError("gradient layers use 2-D filters")
        if (
            self.params.filters.dtype != np.float32
            or self.params.weights.dtype != np.float32
        ):
            raise InvalidArgumentError("bundled layers store float32 arrays")

    @classmethod
    def from_training(cls, config: LayerConfig, params: LayerParams) -> "TrainedLayer":
        """Seal freshly trained float64 parameters to their storage form."""
        sealed = LayerParams(
            np.asarray(params.filters, dtype=np.float32),
            np.asarray(params.weights, dtype=np.float32),
            alpha=params.alpha,
            beta=params.beta,
        )
        return cls(config, sealed)


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to turn an image into a pyramid descriptor."""

    layers: tuple[TrainedLayer, ...]
    input_size: int
    pyramid_levels: tuple[int, ...] = DEFAULT_PYRAMID_LEVELS
    provenance: Mapping[str, int | float | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        levels = check_pyramid_levels(self.pyramid_levels)
        if not layers:
            raise InvalidArgumentError("a model needs at least one layer")
        size = check_input_size(self.input_size)
        for index, layer in enumerate(layers):
            check_layer_input(index, layer.config)
            if index > 0:
                expected = (
                    layers[index - 1].config.num_filters
                    * layer.config.sub_patch_size**2
                )
                if layer.params.dim != expected:
                    raise InvalidArgumentError(
                        f"layer {index + 1} filter dim {layer.params.dim} does not "
                        f"chain onto {expected} from the previous layer"
                    )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "pyramid_levels", levels)
        object.__setattr__(self, "input_size", size)
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def descriptor_length(self) -> int:
        bins = sum(n * n for n in self.pyramid_levels)
        return bins * self.layers[-1].config.num_filters

    def expected_channels(self) -> int:
        """Input channels implied by the first layer's filter width."""
        first = self.layers[0]
        if first.config.input_kind == "gradient":
            return 1
        return first.params.dim // first.config.sub_patch_size**2


@dataclass(frozen=True)
class PyramidDescriptor:
    """Concatenated max-pooled pyramid cells, channels fastest."""

    values: np.ndarray
    levels: tuple[int, ...]
    channels: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64, copy=True)
        levels = tuple(int(n) for n in self.levels)
        if values.ndim != 1:
            raise InvalidArgumentError("descriptor values must be a vector")
        expected = self.channels * sum(n * n for n in levels)
        if values.shape[0] != expected:
            raise InvalidArgumentError(
                f"descriptor length {values.shape[0]}, expected {expected}"
            )
        if not np.isfinite(values).all():
            raise InvalidArgumentError("descriptor contains non-finite values")
        if (values < 0).any():
            raise InvalidArgumentError("descriptor entries must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "channels", int(self.channels))


def _layer_grid(input_map: FeatureMap, config: LayerConfig) -> SubPatchGrid:
    # A gradient layer is a 1x1 sub-patch layer over the (gx, gy) map.
    if config.input_kind == "gradient":
        input_map = build_gradient_map(input_map)
    return extract_subpatches(input_map, config.sub_patch_size)


def forward_layer(
    input_map: FeatureMap, config: LayerConfig, params: LayerParams
) -> FeatureMap:
    """Run one layer: sub-patches, embedding activations, spatial pooling."""
    grid = _layer_grid(input_map, config)
    activations = activation_h(grid, params)
    return spatial_pool_g(activations, params.beta, config.subsampling_factor)


def spp_pool(feature_map: FeatureMap, levels: Sequence[int]) -> PyramidDescriptor:
    """Spatial pyramid max pooling.

    For a level of n x n windows on an extent x, windows have side
    ceil(x/n), stride floor(x/n), anchor at multiples of the stride, and
    are clipped to the map. Each window takes a per-channel max. When
    x < n the stride is zero and the windows all collapse onto the first
    cell; that degenerate case is flagged with DegenerateGridWarning.
    Blocks are concatenated level by level, windows in raster order,
    channels fastest. Worked example: a 4x4 single-channel map whose only
    nonzero value is 7.0 at the top-left corner pools at level 2 into
    four 2x2 windows and yields the block [7, 0, 0, 0].
    """
    levels = check_pyramid_levels(levels)
    vals = feature_map.values
    h, w, c = vals.shape
    blocks: list[np.ndarray] = []
    for n in levels:
        if min(h, w) < n:
            warnings.warn(
                f"pyramid level {n} exceeds map extent {h}x{w}; windows degenerate",
                DegenerateGridWarning,
                stacklevel=2,
            )
        win_h, stride_h = -(-h // n), h // n
        win_w, stride_w = -(-w // n), w // n
        block = np.empty((n, n, c), dtype=np.float64)
        for i in range(n):
            r0 = i * stride_h
            r1 = min(r0 + win_h, h)
            for j in range(n):
                c0 = j * stride_w
                c1 = min(c0 + win_w, w)
                block[i, j] = vals[r0:r1, c0:c1].max(axis=(0, 1))
        blocks.append(block.reshape(-1))
    return PyramidDescriptor(np.concatenate(blocks), levels, c)


def forward_network(image: FeatureMap, model: ModelBundle) -> PyramidDescriptor:
    """Full inference: every layer in order, then the pyramid summary."""
    if image.height != model.input_size or image.width != model.input_size:
        raise InvalidArgumentError(
            f"model expects {model.input_size}x{model.input_size} input, "
            f"got {image.height}x{image.width}"
        )
    expected = model.expected_channels()
    if image.channels != expected:
        raise InvalidArgumentError(
            f"model expects {expected} input channel(s), got {image.channels}"
        )
    current = image
    for layer in model.layers:
        current = forward_layer(current, layer.config, layer.params)
    return spp_pool(current, model.pyramid_levels)


def _derived_seeds(seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0]), int(state[1])


def train_network(
    images: Sequence[FeatureMap],
    configs: Sequence[LayerConfig],
    pcfg: PretrainConfig,
    *,
    pyramid_levels: Sequence[int] = DEFAULT_PYRAMID_LEVELS,
) -> ModelBundle:
    """Layer-wise unsupervised training over a set of equal-size images.

    Per layer: harvest all sub-patches of the current maps, estimate the
    similarity bandwidth from the configured distance quantile, derive the
    spatial bandwidth from the pooling stride, initialize filters
    (orientation grid for a gradient layer, sparsity pre-training
    otherwise), then fit the pair objective and forward every image
    through the sealed layer. Deterministic: all randomness flows from the
    layer and pre-training seeds.
    """
    images = list(images)
    if not images:
        raise InvalidArgumentError("training needs at least one image")
    if not configs:
        raise InvalidArgumentError("training needs at least one layer config")
    size = images[0].height
    for image in images:
        if image.height != size or image.width != size:
            raise InvalidArgumentError("all training images must share one size")
        if image.channels != images[0].channels:
            raise InvalidArgumentError("all training images must share channels")
    for index, config in enumerate(configs):
        check_layer_input(index, config)
    pyramid_levels = check_pyramid_levels(pyramid_levels)

    provenance: dict[str, int | float | str] = {
        "lbfgs_memory": LBFGS_MEMORY,
        "lbfgs_max_iter": LBFGS_MAX_ITER,
        "lbfgs_pgtol": LBFGS_PGTOL,
        "weight_floor": WEIGHT_FLOOR,
        "alpha_pair_cap": ALPHA_PAIR_SAMPLE_CAP,
        **{f"pretrain_{key}": value for key, value in asdict(pcfg).items()},
    }
    maps = images
    layers: list[TrainedLayer] = []
    for index, config in enumerate(configs):
        grids = [_layer_grid(m, config) for m in maps]
        pool = SubPatchPool.from_grids(grids)
        alpha_seed, pair_seed = _derived_seeds(config.seed)
        alpha = estimate_alpha(pool.normalized, config.alpha_quantile, seed=alpha_seed)
        beta = compute_beta(config.subsampling_factor)
        if config.input_kind == "gradient":
            filters, weights = init_gradient_layer(config.num_filters)
            init = LayerParams(filters, weights, alpha=alpha, beta=beta)
        else:
            init = pretrain_layer(pool, config, pcfg, alpha)
        batch = sample_training_pairs(
            pool, config.num_training_pairs, alpha, seed=pair_seed
        )
        provenance[f"layer{index + 1}_pair_loss_init"] = objective_and_gradient(
            init, batch
        )[0]
        trained, fit = train_layer(batch, config, init)
        provenance[f"layer{index + 1}_pair_loss_final"] = objective_and_gradient(
            trained, batch
        )[0]
        for key, value in asdict(fit).items():
            provenance[f"layer{index + 1}_lbfgs_{key}"] = int(value)
        provenance[f"layer{index + 1}_alpha"] = alpha
        provenance[f"layer{index + 1}_beta"] = beta
        sealed = TrainedLayer.from_training(config, trained)
        layers.append(sealed)
        # Forward with the sealed params so training-time maps match what
        # a reloaded model will produce bit for bit.
        maps = [forward_layer(m, config, sealed.params) for m in maps]
    return ModelBundle(
        layers=tuple(layers),
        pyramid_levels=pyramid_levels,
        input_size=size,
        provenance=provenance,
    )
