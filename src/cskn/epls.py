"""Sparsity-enforcing pre-training for layer filters.

Each mini-batch of layer outputs is min-max normalized once, and every
row then picks one winning output: the one with the largest
inhibitor-adjusted response, where the inhibitor grows with each
selection and a per-epoch capacity keeps selection counts balanced
across outputs. Filters then take one adaptive gradient step toward the
one-hot targets those winners define. The result initializes the
pair-fitting stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityExhaustedError,
    DegeneratePoolError,
    InvalidArgumentError,
    NumericFailureError,
)
from .featmap import SubPatchPool
from .kernel_layer import (
    WEIGHT_FLOOR,
    LayerConfig,
    LayerParams,
    _sq_dists,
    check_seed,
    compute_beta,
)

_RMS_EPSILON = 1e-8


@dataclass(frozen=True)
class PretrainConfig:
    """Knobs for the sparsity pre-training loop."""

    batch_size: int = 1000
    patches_per_epoch: int = 100_000
    epochs: int = 5
    base_step: float = 0.01
    smoothing: float = 0.99
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        if self.patches_per_epoch < 1:
            raise InvalidArgumentError("patches_per_epoch must be >= 1")
        if self.epochs < 1:
            raise InvalidArgumentError("epochs must be >= 1")
        if not (math.isfinite(self.base_step) and self.base_step > 0):
            raise InvalidArgumentError("base_step must be positive and finite")
        if not 0.0 <= self.smoothing < 1.0:
            raise InvalidArgumentError("smoothing must lie in [0, 1)")
        check_seed(self.seed)


def _minmax_normalize(outputs: np.ndarray) -> tuple[np.ndarray, float]:
    """Batch-global min-max scaling; a constant batch maps to all zeros.

    Returns the normalized matrix and the scale 1/(max-min) (0 for a
    constant batch), which the gradient step reuses. Non-finite entries
    come out non-finite, so the epoch step's guard still sees them.
    """
    lo = float(outputs.min())
    hi = float(outputs.max())
    if hi > lo:
        scale = 1.0 / (hi - lo)
        return (outputs - lo) * scale, scale
    return outputs - lo, 0.0


def epls_epoch_step(
    normalized: np.ndarray, counts: np.ndarray, epoch_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick one winning output per row under the epoch capacity.

    ``normalized`` holds the batch's min-max normalized responses and
    ``counts`` the epoch's int64 selection counts so far, out of the
    ``epoch_total`` selections the epoch will make. Returns the winner
    index of every row and the updated counts (a new array).

    Rows are processed in order. Each row picks the eligible output
    maximizing (normalized response - inhibitor), where the inhibitor of
    output j is counts_j * num_outputs / epoch_total; ties go to the lowest
    index. An output becomes ineligible once its epoch count reaches
    ceil(N / num_outputs); additionally, when the selections still owed to
    outputs below floor(N / num_outputs) equal the selections left in the
    epoch, only those deficit outputs are eligible. Together the two rules
    pin every epoch count into [floor(N/n), ceil(N/n)].

    The selections left, the deficit and a per-output penalty (the
    inhibitor, or +inf once the output is ineligible) are kept up to date
    row by row; the deficit regime, once entered, lasts to the end of the
    epoch, and the penalties are rebuilt once when it starts.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2 or normalized.size == 0:
        raise InvalidArgumentError("outputs must be a nonempty 2-D matrix")
    if not np.isfinite(normalized).all():
        raise InvalidArgumentError("outputs contain non-finite values")
    num_outputs = normalized.shape[1]
    if counts.shape != (num_outputs,) or (counts < 0).any() or epoch_total < 1:
        raise InvalidArgumentError(
            f"need {num_outputs} nonnegative selection counts and epoch_total >= 1"
        )
    cap_lo = epoch_total // num_outputs
    inhibitor_unit = num_outputs / epoch_total
    counts = counts.copy()
    remaining = epoch_total - int(counts.sum())
    deficit = int(np.maximum(cap_lo - counts, 0).sum())
    cap = -(-epoch_total // num_outputs)
    penalty = np.where(counts < cap, counts * inhibitor_unit, np.inf)
    winners = np.empty(normalized.shape[0], dtype=np.int64)
    for row in range(normalized.shape[0]):
        if remaining <= 0:
            raise CapacityExhaustedError(
                f"epoch capacity of {epoch_total} selections already spent"
            )
        if cap > cap_lo and deficit >= remaining:
            cap = cap_lo
            penalty = np.where(counts < cap, counts * inhibitor_unit, np.inf)
        winner = int(np.argmax(normalized[row] - penalty))
        if penalty[winner] == np.inf:
            raise CapacityExhaustedError("every output is at maximal inhibition")
        if counts[winner] < cap_lo:
            deficit -= 1
        counts[winner] += 1
        remaining -= 1
        penalty[winner] = (
            counts[winner] * inhibitor_unit if counts[winner] < cap else np.inf
        )
        winners[row] = winner
    return winners, counts


def pretrain_layer(
    pool: SubPatchPool,
    config: LayerConfig,
    pcfg: PretrainConfig,
    alpha: float,
    *,
    loss_trace: list[float] | None = None,
) -> LayerParams:
    """Initialize layer parameters by fitting sparse one-hot targets.

    Filters start as distinct nonzero sub-patches, weights at
    1/num_filters. Each mini-batch contributes one gradient step on the
    squared Frobenius distance between normalized activations and the
    one-hot targets of the batch's winners; steps are scaled per parameter
    by the running RMS of its gradients. Selection counts reset every
    epoch. Deterministic for fixed seeds.
    """
    if alpha <= 0:
        raise InvalidArgumentError("alpha must be positive")
    vectors = pool.normalized
    norms = pool.norms
    nz_idx = np.flatnonzero(norms > 0)
    num_filters = config.num_filters
    if nz_idx.size < num_filters:
        raise DegeneratePoolError(
            f"pool has {nz_idx.size} nonzero sub-patches, need {num_filters}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([pcfg.seed, config.seed]))
    pick = rng.choice(nz_idx.size, size=num_filters, replace=False)
    filters = vectors[nz_idx[pick]].copy()
    weights = np.full(num_filters, 1.0 / num_filters)
    rms_filters = np.zeros_like(filters)
    rms_weights = np.zeros_like(weights)
    a2 = alpha * alpha
    rho = pcfg.smoothing
    epoch_total = pcfg.patches_per_epoch
    for _ in range(pcfg.epochs):
        counts = np.zeros(num_filters, dtype=np.int64)
        if nz_idx.size >= epoch_total:
            epoch_idx = nz_idx[rng.permutation(nz_idx.size)[:epoch_total]]
        else:
            epoch_idx = nz_idx[rng.integers(0, nz_idx.size, size=epoch_total)]
        for start in range(0, epoch_total, pcfg.batch_size):
            sel = epoch_idx[start : start + pcfg.batch_size]
            x = vectors[sel]
            mags = norms[sel]
            gauss = np.exp(-_sq_dists(x, filters) / a2)
            raw = gauss * np.sqrt(weights)[np.newaxis, :]
            raw *= mags[:, np.newaxis]
            normalized, scale = _minmax_normalize(raw)
            winners, counts = epls_epoch_step(normalized, counts, epoch_total)
            residual = normalized.copy()
            residual[np.arange(winners.size), winners] -= 1.0
            loss = float(np.sum(residual * residual))
            if not math.isfinite(loss):
                raise NumericFailureError("non-finite pre-training loss")
            if loss_trace is not None:
                loss_trace.append(loss)
            # Batch min/max are treated as constants when differentiating.
            upstream = 2.0 * residual * scale
            grad_weights = (upstream * raw / weights[np.newaxis, :]).sum(axis=0) / 2.0
            weighted = upstream * raw
            col = weighted.sum(axis=0)
            grad_filters = (-2.0 / a2) * (
                filters * col[:, np.newaxis] - weighted.T @ x
            )
            rms_weights = rho * rms_weights + (1.0 - rho) * grad_weights**2
            rms_filters = rho * rms_filters + (1.0 - rho) * grad_filters**2
            weights = weights - pcfg.base_step * grad_weights / (
                np.sqrt(rms_weights) + _RMS_EPSILON
            )
            filters = filters - pcfg.base_step * grad_filters / (
                np.sqrt(rms_filters) + _RMS_EPSILON
            )
            weights = np.maximum(weights, WEIGHT_FLOOR)
    return LayerParams(
        filters, weights, alpha=alpha, beta=compute_beta(config.subsampling_factor)
    )


def init_gradient_layer(num_orientations: int) -> tuple[np.ndarray, np.ndarray]:
    """Evenly spaced unit-circle filters for a gradient-encoded layer.

    Returns (filters, weights): filters[i] = (cos, sin) of 2*pi*i/n and
    uniform weights 1/n. This replaces sparsity pre-training when the
    layer input is the (gx, gy) gradient map.
    """
    n = int(num_orientations)
    if n < 1:
        raise InvalidArgumentError("num_orientations must be >= 1")
    angles = 2.0 * np.pi * np.arange(n) / n
    filters = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(n, 1.0 / n)
    return filters, weights
