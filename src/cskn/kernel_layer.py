"""One layer of the sparse kernel network.

A layer compares two maps through a match kernel: every pair of sub-patch
locations contributes the product of the two patch magnitudes, a Gaussian
in the spatial distance between the locations (bandwidth beta), and a
Gaussian in the distance between the contrast-normalized patches
(bandwidth alpha). The layer approximates that kernel with a finite
embedding: per location, an activation vector

    h_i(z) = ||s_z|| * sqrt(b_i) * exp(-||W_i - s_z/||s_z||||^2 / alpha^2)

followed by Gaussian spatial pooling onto a strided grid, so that the sum
of pooled inner products approximates the kernel. Filters W and mixing
weights b are fit so that the weighted product of two activation
Gaussians reproduces the patch-similarity Gaussian on sampled pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import optimize, sparse
from scipy.spatial.distance import pdist

from .errors import (
    DegeneratePoolError,
    DegenerateSampleError,
    InvalidArgumentError,
    NumericFailureError,
)
from .featmap import FeatureMap, SubPatchGrid, SubPatchPool

ALPHA_PAIR_SAMPLE_CAP = 100_000
_ALPHA_CHUNK = 8_192
LBFGS_MEMORY = 10
LBFGS_MAX_ITER = 200
LBFGS_PGTOL = 1e-5
WEIGHT_FLOOR = 1e-8
_OBJECTIVE_CHUNK = 65_536

INPUT_KINDS = ("patch", "gradient")
MAX_SEED = 2**63 - 1  # model files store seeds as signed 64-bit integers


def check_seed(seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise InvalidArgumentError(f"seed must lie in [0, 2**63 - 1], got {seed}")


@dataclass(frozen=True)
class LayerConfig:
    """Architecture and training knobs for one layer.

    ``input_kind`` selects sub-patches of the input map ("patch") or 1x1
    sub-patches of its (gx, gy) gradient map ("gradient", first layer
    only). ``sub_patch_size`` is the window side, ``subsampling_factor``
    the pooling stride, and ``num_filters`` the embedding width.
    """

    input_kind: str
    sub_patch_size: int
    subsampling_factor: int
    num_filters: int
    alpha_quantile: float = 0.1
    num_training_pairs: int = 400_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_kind not in INPUT_KINDS:
            raise InvalidArgumentError(
                f"input must be patch or gradient, got {self.input_kind!r}"
            )
        if self.sub_patch_size < 1:
            raise InvalidArgumentError("sub_patch_size must be >= 1")
        if self.input_kind == "gradient" and self.sub_patch_size != 1:
            raise InvalidArgumentError("gradient layers use sub_patch_size 1")
        if self.subsampling_factor < 1:
            raise InvalidArgumentError("subsampling_factor must be >= 1")
        if self.num_filters < 1:
            raise InvalidArgumentError("num_filters must be >= 1")
        if not 0.0 < self.alpha_quantile < 1.0:
            raise InvalidArgumentError("alpha_quantile must lie in (0, 1)")
        if self.num_training_pairs < 1:
            raise InvalidArgumentError("num_training_pairs must be >= 1")
        check_seed(self.seed)


def _frozen_array(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LayerParams:
    """Learned parameters of one layer.

    ``filters`` is (num_filters, dim) and lives on (or near) the unit
    sphere after training; ``weights`` are the nonnegative mixing
    coefficients b. ``alpha`` is the patch-similarity bandwidth, ``beta``
    the spatial pooling bandwidth. Array dtype is preserved: models train
    in float64 and are sealed to float32 for persistence.
    """

    filters: np.ndarray
    weights: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        filters = _frozen_array(self.filters)
        weights = _frozen_array(self.weights)
        if filters.ndim != 2 or weights.ndim != 1:
            raise InvalidArgumentError("filters must be 2-D and weights 1-D")
        if filters.shape[0] != weights.shape[0]:
            raise InvalidArgumentError(
                f"{filters.shape[0]} filters but {weights.shape[0]} weights"
            )
        if not (np.isfinite(filters).all() and np.isfinite(weights).all()):
            raise InvalidArgumentError("layer parameters contain non-finite values")
        if (weights < 0).any():
            raise InvalidArgumentError("mixing weights must be nonnegative")
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidArgumentError("alpha and beta must be positive")
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def num_filters(self) -> int:
        return self.filters.shape[0]

    @property
    def dim(self) -> int:
        return self.filters.shape[1]


@dataclass(frozen=True)
class PairBatch:
    """Sampled sub-patch pairs with their Gaussian similarity targets.

    Built from ``(left, right, targets)``, but kept only as each pair's
    sum ``left + right`` and summed squared norms ``||left||^2 +
    ||right||^2``: the pair objective sees a pair through nothing else.
    """

    left: InitVar[np.ndarray]
    right: InitVar[np.ndarray]
    targets: np.ndarray
    sums: np.ndarray = field(init=False)
    sq_norms: np.ndarray = field(init=False)

    def __post_init__(self, left: np.ndarray, right: np.ndarray) -> None:
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        targets = _frozen_array(self.targets, dtype=np.float64)
        if left.ndim != 2 or left.shape != right.shape:
            raise InvalidArgumentError("left/right must be matching 2-D arrays")
        if targets.shape != (left.shape[0],):
            raise InvalidArgumentError("one target per pair required")
        if not (
            np.isfinite(left).all()
            and np.isfinite(right).all()
            and np.isfinite(targets).all()
        ):
            raise InvalidArgumentError("pair batch contains non-finite values")
        if (targets < 0).any() or (targets > 1).any():
            raise InvalidArgumentError("targets must lie in [0, 1]")
        sums = np.add(left, right)
        sq_norms = np.einsum("ij,ij->i", left, left)
        sq_norms += np.einsum("ij,ij->i", right, right)
        sums.setflags(write=False)
        sq_norms.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "sq_norms", sq_norms)

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.sums.shape[1]


def empirical_quantile(values: np.ndarray, quantile: float) -> float:
    """Order-statistic quantile with linear interpolation."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidArgumentError("cannot take a quantile of an empty sample")
    if not 0.0 <= quantile <= 1.0:
        raise InvalidArgumentError("quantile must lie in [0, 1]")
    return float(np.quantile(values, quantile, method="linear"))


def _nonzero_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors[np.any(vectors != 0.0, axis=1)]


def estimate_alpha(
    normalized: np.ndarray,
    quantile: float,
    *,
    max_pairs: int = ALPHA_PAIR_SAMPLE_CAP,
    seed: int = 0,
) -> float:
    """Similarity bandwidth: a quantile of pairwise patch distances.

    Takes a (count, dim) matrix of normalized sub-patch vectors (a pool's
    ``normalized``); all-zero rows (zero-norm windows) are ignored. When
    the number of distinct unordered pairs exceeds ``max_pairs`` a
    uniform sample of that many pairs is used instead of the full set.
    """
    vectors = np.asarray(normalized, dtype=np.float64)
    if vectors.ndim != 2:
        raise InvalidArgumentError("expected a (count, dim) matrix of sub-patches")
    vectors = _nonzero_rows(vectors)
    n = vectors.shape[0]
    if n < 2:
        raise DegenerateSampleError(
            "need at least two nonzero sub-patches to estimate alpha"
        )
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        distances = pdist(vectors)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        # Uniform over j != i: shift by a nonzero offset modulo n.
        j = (i + rng.integers(1, n, size=max_pairs)) % n
        # Row chunks bound the (pairs, dim) temporaries; each row's norm is
        # reduced alone, so the distances do not depend on the chunk size.
        distances = np.empty(max_pairs)
        for start in range(0, max_pairs, _ALPHA_CHUNK):
            rows = slice(start, start + _ALPHA_CHUNK)
            distances[rows] = np.linalg.norm(vectors[i[rows]] - vectors[j[rows]], axis=1)
    alpha = empirical_quantile(distances, quantile)
    if alpha <= 0.0:
        raise DegenerateSampleError(
            "pairwise sub-patch distances are zero at the requested quantile"
        )
    return alpha


def compute_beta(subsampling_factor: int) -> float:
    """Spatial bandwidth tied to the pooling stride: factor / sqrt(2)."""
    if subsampling_factor < 1:
        raise InvalidArgumentError("subsampling_factor must be >= 1")
    return subsampling_factor / math.sqrt(2.0)


def _sq_dists(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (points, anchors), clipped at zero."""
    d2 = (2.0 * points) @ anchors.T
    np.subtract(np.sum(points * points, axis=1)[:, np.newaxis], d2, out=d2)
    d2 += np.sum(anchors * anchors, axis=1)[np.newaxis, :]
    return np.maximum(d2, 0.0, out=d2)


def activation_h(patches: SubPatchGrid, params: LayerParams) -> FeatureMap:
    """Per-location embedding activations, one channel per filter.

    Channel i at location z is
    ``||s_z|| * sqrt(b_i) * exp(-||W_i - s~_z||^2 / alpha^2)`` where s~_z
    is the normalized sub-patch; zero-norm locations yield zero vectors.
    Every step after the distance matmul works in place on its buffer.
    """
    if patches.dim != params.dim:
        raise InvalidArgumentError(
            f"sub-patch dim {patches.dim} does not match filter dim {params.dim}"
        )
    filters = np.asarray(params.filters, dtype=np.float64)
    weights = np.asarray(params.weights, dtype=np.float64)
    acts = _sq_dists(patches.normalized, filters)
    acts /= -(params.alpha * params.alpha)
    np.exp(acts, out=acts)
    acts *= np.sqrt(weights)[np.newaxis, :]
    acts *= patches.norms[:, np.newaxis]
    rows, cols = patches.grid_shape
    return FeatureMap(acts.reshape(rows, cols, filters.shape[0]))


def _pooling_kernel(beta: float) -> np.ndarray:
    """Truncated Gaussian window: zero beyond Euclidean radius 3*beta."""
    radius = int(math.floor(3.0 * beta))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    d2 = offsets[:, np.newaxis] ** 2 + offsets[np.newaxis, :] ** 2
    kernel = np.exp(-d2 / (2.0 * beta * beta))
    kernel[d2 > 9.0 * beta * beta] = 0.0
    return kernel


@functools.lru_cache(maxsize=8)
def _pooling_operator(h: int, w: int, beta: float, f: int) -> sparse.csr_array:
    """Sparse (out_h*out_w, h*w) map from a raster map to its pooled grid.

    Row k holds the truncated kernel's nonzero taps placed at output k's
    center and clipped to the map, columns ascending. Temporaries are
    (out_h, out_w, taps): the size of the operator, never dense.
    """
    kernel = _pooling_kernel(beta)
    offsets = np.argwhere(kernel > 0.0) - kernel.shape[0] // 2
    rows = (f // 2 + f * np.arange(-(-h // f)))[:, np.newaxis] + offsets[:, 0]
    cols = (f // 2 + f * np.arange(-(-w // f)))[:, np.newaxis] + offsets[:, 1]
    inside = ((rows >= 0) & (rows < h))[:, np.newaxis] & ((cols >= 0) & (cols < w))
    # The smallest index dtype that holds every column and offset.
    index = np.int32 if max(h * w, inside.size) <= np.iinfo(np.int32).max else np.int64
    columns = rows.astype(index)[:, np.newaxis] * w + cols.astype(index)
    taps = np.broadcast_to(kernel[kernel > 0.0], inside.shape)[inside]
    indptr = np.zeros(rows.shape[0] * cols.shape[0] + 1, dtype=index)
    np.cumsum(inside.sum(axis=2, dtype=index), out=indptr[1:])
    return sparse.csr_array((taps, columns[inside], indptr), shape=(indptr.size - 1, h * w))


def spatial_pool_g(
    feature_map: FeatureMap, beta: float, subsampling_factor: int
) -> FeatureMap:
    """Gaussian-pool activations onto a strided grid.

    Output location k sits at input coordinate floor(f/2) + k*f; the output
    has ceil(extent / f) entries per axis. Each output is the sum of the
    input weighted by exp(-||u - z||^2 / (2 beta^2)), truncated at radius
    3*beta. For small maps the last centers may fall past the border; the
    window clip handles that. The weights form one fixed sparse operator
    per (extent, beta, f), built once and cached.
    """
    if beta <= 0:
        raise InvalidArgumentError("beta must be positive")
    f = int(subsampling_factor)
    if f < 1:
        raise InvalidArgumentError("subsampling_factor must be >= 1")
    h, w, c = feature_map.values.shape
    operator = _pooling_operator(h, w, float(beta), f)
    pooled = operator @ feature_map.values.reshape(h * w, c)
    return FeatureMap(pooled.reshape(-(-h // f), -(-w // f), c))


def approx_kernel(map_a: FeatureMap, map_b: FeatureMap) -> float:
    """Embedding-side kernel value: sum of pooled inner products.

    Both maps must be pooled outputs of the same layer (matching shapes).
    """
    if map_a.values.shape != map_b.values.shape:
        raise InvalidArgumentError(
            f"mismatched pooled maps {map_a.values.shape} vs {map_b.values.shape}"
        )
    return float(np.sum(map_a.values * map_b.values))


def _pair_objective(
    filters: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    sums: np.ndarray,
    sq_norms: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared pair residuals with analytic gradients.

    The model for a pair (x, y) is
    ``sum_i b_i exp(-(||W_i - x||^2 + ||W_i - y||^2) / a^2)``, which with
    s = x + y and c = ||x||^2 + ||y||^2 is
    ``sum_i b_i exp((2 W_i.s - 2||W_i||^2 - c) / a^2)``; the loss is
    ``sum_pairs (target - model)^2``. Each chunk does one distance matmul
    and finishes the (pairs, filters) block in place; chunk order is
    fixed, so the reduction is deterministic.
    """
    a2 = alpha * alpha
    twice = 2.0 * filters
    offsets = np.einsum("ij,ij->i", filters, twice)
    loss = 0.0
    col = np.zeros_like(weights)
    pull = np.zeros_like(filters)
    count = targets.shape[0]
    for start in range(0, count, _OBJECTIVE_CHUNK):
        stop = min(start + _OBJECTIVE_CHUNK, count)
        s = sums[start:stop]
        u = s @ twice.T
        u -= offsets
        u -= sq_norms[start:stop, np.newaxis]
        np.minimum(u, 0.0, out=u)
        u /= a2
        np.exp(u, out=u)
        residual = targets[start:stop] - u @ weights
        loss += float(residual @ residual)
        col += residual @ u
        u *= residual[:, np.newaxis]
        pull += u.T @ s
    grad_w = (4.0 * weights / a2)[:, np.newaxis] * (twice * col[:, np.newaxis] - pull)
    return loss, grad_w, -2.0 * col


def objective_and_gradient(
    params: LayerParams, batch: PairBatch
) -> tuple[float, np.ndarray, np.ndarray]:
    """Evaluate the pair-fitting loss and its gradients at ``params``.

    Returns (loss, grad_filters, grad_weights).
    """
    if params.dim != batch.dim:
        raise InvalidArgumentError(
            f"filter dim {params.dim} does not match pair dim {batch.dim}"
        )
    filters = np.asarray(params.filters, dtype=np.float64)
    weights = np.asarray(params.weights, dtype=np.float64)
    return _pair_objective(
        filters, weights, params.alpha, batch.sums, batch.sq_norms, batch.targets
    )


@dataclass(frozen=True)
class FitOutcome:
    """How one pair-fit's L-BFGS run ended.

    ``iterations`` and ``status`` are the solver's; ``evaluations``
    counts every pair-objective evaluation of the fit, the one at the
    initial point included; ``fell_back`` is set when the solver's point
    was non-finite or worse than the initial one, which was kept instead.
    """

    iterations: int
    evaluations: int
    status: int
    fell_back: bool


def train_layer(
    pairs: PairBatch, config: LayerConfig, init: LayerParams
) -> tuple[LayerParams, FitOutcome]:
    """Fit filters and weights to the pair targets with bounded L-BFGS.

    Weights are box-constrained to [WEIGHT_FLOOR, inf); filters are free.
    Termination: projected-gradient sup-norm below LBFGS_PGTOL or
    LBFGS_MAX_ITER iterations. The returned loss never exceeds the loss at
    the (floor-clipped) initial point. Returns the fitted parameters and
    the solver's outcome.
    """
    if init.num_filters != config.num_filters:
        raise InvalidArgumentError(
            f"init has {init.num_filters} filters, config wants {config.num_filters}"
        )
    if init.dim != pairs.dim:
        raise InvalidArgumentError("init filter dim does not match pair dim")
    p, d = init.num_filters, init.dim
    w0 = np.asarray(init.filters, dtype=np.float64).copy()
    b0 = np.maximum(np.asarray(init.weights, dtype=np.float64), WEIGHT_FLOOR)
    theta0 = np.concatenate([w0.ravel(), b0])
    alpha = init.alpha
    evaluations = [0]

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        evaluations[0] += 1
        filters = theta[: p * d].reshape(p, d)
        weights = theta[p * d :]
        loss, grad_w, grad_b = _pair_objective(
            filters, weights, alpha, pairs.sums, pairs.sq_norms, pairs.targets
        )
        if not (
            math.isfinite(loss)
            and np.isfinite(grad_w).all()
            and np.isfinite(grad_b).all()
        ):
            raise NumericFailureError(
                f"non-finite pair objective at evaluation {evaluations[0]}"
            )
        return loss, np.concatenate([grad_w.ravel(), grad_b])

    initial_loss = fun(theta0)[0]
    bounds = [(None, None)] * (p * d) + [(WEIGHT_FLOOR, None)] * p
    result = optimize.minimize(
        fun,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxcor": LBFGS_MEMORY,
            "maxiter": LBFGS_MAX_ITER,
            "gtol": LBFGS_PGTOL,
            "ftol": 1e-12,
        },
    )
    # Line searches are monotone; falling back keeps the guarantee even
    # if the solver bails out on a pathological instance.
    fell_back = bool(not math.isfinite(result.fun) or result.fun > initial_loss)
    theta = theta0 if fell_back else result.x
    filters = theta[: p * d].reshape(p, d)
    weights = np.maximum(theta[p * d :], WEIGHT_FLOOR)
    outcome = FitOutcome(
        iterations=int(result.nit),
        evaluations=evaluations[0],
        status=int(result.status),
        fell_back=fell_back,
    )
    return LayerParams(filters, weights, alpha=init.alpha, beta=init.beta), outcome


def sample_training_pairs(
    pool: SubPatchPool, count: int, alpha: float, seed: int
) -> PairBatch:
    """Draw pairs of nonzero sub-patches uniformly with replacement.

    Targets are ``exp(-||x - y||^2 / (2 alpha^2))`` on the normalized
    vectors; a pair may repeat one patch twice (target exactly 1).
    """
    if count < 1:
        raise InvalidArgumentError("pair count must be >= 1")
    if alpha <= 0:
        raise InvalidArgumentError("alpha must be positive")
    keep = pool.norms > 0
    vectors = pool.normalized[keep]
    n = vectors.shape[0]
    if n < 2:
        raise DegeneratePoolError(
            "need at least two nonzero sub-patches to sample pairs"
        )
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=count)
    j = rng.integers(0, n, size=count)
    left = vectors[i]
    right = vectors[j]
    d2 = np.sum((left - right) ** 2, axis=1)
    targets = np.exp(-d2 / (2.0 * alpha * alpha))
    return PairBatch(left, right, targets)
