"""Slow, obviously correct references for validating the fast paths.

The exact match kernel evaluates the full double sum over sub-patch
locations that the embedding approximates; the finite-difference helper
checks analytic gradients; the reference pooling loop checks the sparse
pooling operator; the reference pair objective checks the x+y form of the
pair-fit; the reference epoch step checks the incremental winner
bookkeeping; the per-query retrieval loop checks the one-matrix ranking;
the grid-per-map training loop checks the one-pool training loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CapacityExhaustedError, InvalidArgumentError, NumericFailureError
from .epls import PretrainConfig
from .featmap import FeatureMap, SubPatchPool, extract_subpatches
from .kernel_layer import _OBJECTIVE_CHUNK, LayerConfig, _pooling_kernel, _sq_dists
from .network import (
    DEFAULT_PYRAMID_LEVELS,
    ModelBundle,
    _check_training_inputs,
    _fit_layer,
    _layer_grid,
    _training_provenance,
    forward_layer,
)

EXACT_KERNEL_MAX_EXTENT = 16
FINITE_DIFF_STEP = 1e-5


def exact_match_kernel(
    map_a: FeatureMap,
    map_b: FeatureMap,
    patch_size: int,
    alpha: float,
    beta: float,
) -> float:
    """Exact kernel value by summing over all location pairs.

    K = sum over (z, z') of ||s_z|| ||s'_z'||
        * exp(-||z - z'||^2 / (2 beta^2))
        * exp(-||s~_z - s~'_z'||^2 / (2 alpha^2))

    Locations are valid-window indices (the kernel only sees their
    differences); maps larger than 16x16 are rejected because the double
    sum is meant for verification only.
    """
    if alpha <= 0 or beta <= 0:
        raise InvalidArgumentError("alpha and beta must be positive")
    for m in (map_a, map_b):
        if m.height > EXACT_KERNEL_MAX_EXTENT or m.width > EXACT_KERNEL_MAX_EXTENT:
            raise InvalidArgumentError(
                f"exact kernel is limited to {EXACT_KERNEL_MAX_EXTENT}x"
                f"{EXACT_KERNEL_MAX_EXTENT} maps, got {m.height}x{m.width}"
            )
    if map_a.channels != map_b.channels:
        raise InvalidArgumentError("maps must share a channel count")
    grid_a = extract_subpatches(map_a, patch_size)
    grid_b = extract_subpatches(map_b, patch_size)
    coords_a = np.indices(grid_a.grid_shape).reshape(2, -1).T.astype(np.float64)
    coords_b = np.indices(grid_b.grid_shape).reshape(2, -1).T.astype(np.float64)
    total = 0.0
    two_a2 = 2.0 * alpha * alpha
    two_b2 = 2.0 * beta * beta
    for za in range(len(grid_a)):
        norm_a = grid_a.norms[za]
        if norm_a == 0.0:
            continue
        vec_a = grid_a.normalized[za]
        spatial_d2 = np.sum((coords_b - coords_a[za]) ** 2, axis=1)
        feature_d2 = np.sum((grid_b.normalized - vec_a) ** 2, axis=1)
        terms = (
            norm_a
            * grid_b.norms
            * np.exp(-spatial_d2 / two_b2)
            * np.exp(-feature_d2 / two_a2)
        )
        total += float(terms.sum())
    return total


def finite_diff_gradient(
    func, point: np.ndarray, step: float = FINITE_DIFF_STEP
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    if step <= 0:
        raise InvalidArgumentError("step must be positive")
    point = np.asarray(point, dtype=np.float64)
    if point.ndim != 1:
        raise InvalidArgumentError("point must be a flat vector")
    grad = np.empty_like(point)
    for k in range(point.shape[0]):
        forward = point.copy()
        backward = point.copy()
        forward[k] += step
        backward[k] -= step
        hi = float(func(forward))
        lo = float(func(backward))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericFailureError(
                f"non-finite function value while probing coordinate {k}"
            )
        grad[k] = (hi - lo) / (2.0 * step)
    return grad


def reference_spatial_pool(
    feature_map: FeatureMap, beta: float, subsampling_factor: int
) -> FeatureMap:
    """Gaussian pooling as one window contraction per output cell.

    Same contract as ``kernel_layer.spatial_pool_g``: output k sits at
    input coordinate floor(f/2) + k*f, and the truncated kernel is clipped
    at the map border.
    """
    if beta <= 0:
        raise InvalidArgumentError("beta must be positive")
    f = int(subsampling_factor)
    if f < 1:
        raise InvalidArgumentError("subsampling_factor must be >= 1")
    vals = feature_map.values
    h, w, c = vals.shape
    kernel = _pooling_kernel(beta)
    radius = kernel.shape[0] // 2
    out_h = -(-h // f)
    out_w = -(-w // f)
    centers_r = f // 2 + f * np.arange(out_h)
    centers_c = f // 2 + f * np.arange(out_w)
    out = np.zeros((out_h, out_w, c), dtype=np.float64)
    for oi, ur in enumerate(centers_r):
        r0 = max(0, ur - radius)
        r1 = min(h, ur + radius + 1)
        if r0 >= r1:
            continue
        kr0 = r0 - (ur - radius)
        for oj, uc in enumerate(centers_c):
            c0 = max(0, uc - radius)
            c1 = min(w, uc + radius + 1)
            if c0 >= c1:
                continue
            kc0 = c0 - (uc - radius)
            window = kernel[kr0 : kr0 + (r1 - r0), kc0 : kc0 + (c1 - c0)]
            out[oi, oj] = np.tensordot(window, vals[r0:r1, c0:c1], axes=([0, 1], [0, 1]))
    return FeatureMap(out)


def reference_pair_objective(
    filters: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    left: np.ndarray,
    right: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared pair residuals with analytic gradients.

    The model for a pair (x, y) is
    ``sum_i b_i exp(-||W_i - x||^2 / a^2) exp(-||W_i - y||^2 / a^2)``;
    the loss is ``sum_pairs (target - model)^2``. Work is chunked so the
    (pairs, filters) temporaries stay bounded; chunk order is fixed, so
    the reduction is deterministic.
    """
    a2 = alpha * alpha
    loss = 0.0
    grad_w = np.zeros_like(filters)
    grad_b = np.zeros_like(weights)
    count = targets.shape[0]
    for start in range(0, count, _OBJECTIVE_CHUNK):
        stop = min(start + _OBJECTIVE_CHUNK, count)
        x = left[start:stop]
        y = right[start:stop]
        t = targets[start:stop]
        u = np.exp(-(_sq_dists(x, filters) + _sq_dists(y, filters)) / a2)
        residual = t - u @ weights
        loss += float(residual @ residual)
        grad_b -= 2.0 * (u.T @ residual)
        ru = u * residual[:, np.newaxis]
        col = ru.sum(axis=0)
        grad_w += (4.0 * weights / a2)[:, np.newaxis] * (
            2.0 * filters * col[:, np.newaxis] - ru.T @ (x + y)
        )
    return loss, grad_w, grad_b


def reference_epls_epoch_step(
    normalized: np.ndarray, counts: np.ndarray, epoch_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick one winning output per row under the epoch capacity.

    Same contract as ``epls.epls_epoch_step``, with every rule recomputed
    from the counts at each row: rows are processed in order, each picking
    the eligible output maximizing (normalized response - inhibitor), ties
    going to the lowest index. An output becomes ineligible once its epoch
    count reaches ceil(N / num_outputs); additionally, when the selections
    still owed to outputs below floor(N / num_outputs) equal the selections
    left in the epoch, only those deficit outputs are eligible. Inputs
    are taken as valid; the fast step owns the guards.
    """
    num_outputs = normalized.shape[1]
    cap_hi = -(-epoch_total // num_outputs)
    cap_lo = epoch_total // num_outputs
    inhibitor_unit = num_outputs / epoch_total
    counts = counts.copy()
    winners = np.empty(normalized.shape[0], dtype=np.int64)
    for row in range(normalized.shape[0]):
        remaining = epoch_total - int(counts.sum())
        if remaining <= 0:
            raise CapacityExhaustedError(
                f"epoch capacity of {epoch_total} selections already spent"
            )
        deficit = int(np.maximum(cap_lo - counts, 0).sum())
        if deficit >= remaining:
            eligible = counts < cap_lo
        else:
            eligible = counts < cap_hi
        if not eligible.any():
            raise CapacityExhaustedError("every output is at maximal inhibition")
        scores = normalized[row] - counts * inhibitor_unit
        scores = np.where(eligible, scores, -np.inf)
        winner = int(np.argmax(scores))
        winners[row] = winner
        counts[winner] += 1
    return winners, counts


def reference_retrieval_precision(
    queries: np.ndarray,
    gallery: np.ndarray,
    relevant: np.ndarray,
    exclude: np.ndarray,
    cutoffs: list[int],
) -> np.ndarray:
    """Mean precision at each cutoff, ranking one query at a time.

    Same contract as ``evalkit.retrieval_precision``: each query drops its
    excluded gallery rows, stably sorts the rest by Euclidean distance, and
    scores the top min(q, kept) items against its relevance flags.
    """
    gallery = np.asarray(gallery, dtype=np.float64)
    precisions: list[list[float]] = [[] for _ in cutoffs]
    for row, vector in enumerate(np.asarray(queries, dtype=np.float64)):
        keep = [i for i in range(gallery.shape[0]) if not exclude[row][i]]
        if not keep:
            raise InvalidArgumentError("gallery must be nonempty")
        distances = np.linalg.norm(gallery[keep] - vector[np.newaxis, :], axis=1)
        order = np.argsort(distances, kind="stable")
        ranked = tuple(bool(relevant[row][keep[k]]) for k in order)
        for column, q in enumerate(cutoffs):
            depth = min(q, len(ranked))
            precisions[column].append(sum(ranked[:depth]) / depth)
    return np.array([np.mean(column) for column in precisions])


def reference_train_network(
    images: Sequence[FeatureMap],
    configs: Sequence[LayerConfig],
    pcfg: PretrainConfig,
    *,
    pyramid_levels: Sequence[int] = DEFAULT_PYRAMID_LEVELS,
) -> ModelBundle:
    """Layer-wise training with a grid per map and a concatenated pool.

    Same contract as ``network.train_network``, and the same per-layer
    fit: each layer extracts every map's sub-patches on its own, copies
    them into one pool, and forwards every map, the last layer's included,
    through ``forward_layer``.
    """
    images = list(images)
    levels = _check_training_inputs(images, configs, pyramid_levels)
    provenance = _training_provenance(pcfg)
    maps = images
    layers = []
    for index, config in enumerate(configs):
        grids = [_layer_grid(m, config) for m in maps]
        pool = SubPatchPool(
            np.concatenate([g.norms for g in grids]),
            np.concatenate([g.normalized for g in grids]),
        )
        sealed = _fit_layer(pool, index, config, pcfg, provenance)
        layers.append(sealed)
        maps = [forward_layer(m, config, sealed.params) for m in maps]
    return ModelBundle(
        layers=tuple(layers),
        pyramid_levels=levels,
        input_size=images[0].height,
        provenance=provenance,
    )
