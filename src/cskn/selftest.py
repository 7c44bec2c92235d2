"""Fast oracle-backed invariant checks behind the ``selftest`` command."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from .epls import InhibitorState, PretrainConfig, epls_epoch_step, pretrain_layer
from .evalkit import retrieval_precision, roc_auc
from .featmap import FeatureMap, SubPatchPool, extract_subpatches
from .kernel_layer import (
    LayerConfig,
    LayerParams,
    PairBatch,
    activation_h,
    compute_beta,
    estimate_alpha,
    objective_and_gradient,
    sample_training_pairs,
    spatial_pool_g,
)
from .model_io import load_model, save_model
from .network import ModelBundle, TrainedLayer, spp_pool
from .oracle import (
    exact_match_kernel,
    finite_diff_gradient,
    reference_pair_objective,
    reference_retrieval_precision,
    reference_spatial_pool,
)


def _check_gradient(rng: np.random.Generator) -> str:
    """Analytic pair-objective gradients against central differences."""
    for _ in range(5):
        p, d, n = int(rng.integers(2, 5)), int(rng.integers(2, 4)), 12
        left = rng.normal(size=(n, d))
        right = rng.normal(size=(n, d))
        targets = rng.uniform(0.2, 1.0, size=n)
        batch = PairBatch(left, right, targets)
        alpha = float(rng.uniform(0.6, 1.4))
        filters = rng.normal(size=(p, d))
        weights = rng.uniform(0.1, 1.0, size=p)
        params = LayerParams(filters, weights, alpha=alpha, beta=1.0)
        _, grad_w, grad_b = objective_and_gradient(params, batch)
        flat = np.concatenate([filters.ravel(), weights])

        def loss_at(theta: np.ndarray) -> float:
            cand = LayerParams(
                theta[: p * d].reshape(p, d), theta[p * d :], alpha=alpha, beta=1.0
            )
            return objective_and_gradient(cand, batch)[0]

        numeric = finite_diff_gradient(loss_at, flat)
        analytic = np.concatenate([grad_w.ravel(), grad_b])
        scale = max(1.0, float(np.abs(numeric).max()))
        if np.abs(analytic - numeric).max() / scale > 1e-5:
            raise AssertionError("analytic gradient disagrees with finite differences")
    return "pair-objective gradients match finite differences"


def _check_pair_objective(rng: np.random.Generator) -> str:
    """The x+y pair objective against the two-distance reference loop."""
    for _ in range(5):
        p, d, n = int(rng.integers(1, 9)), int(rng.integers(1, 12)), 40
        left = rng.normal(size=(n, d))
        right = rng.normal(size=(n, d))
        targets = rng.uniform(0.05, 1.0, size=n)
        params = LayerParams(
            rng.normal(size=(p, d)),
            rng.uniform(0.1, 1.0, size=p),
            alpha=float(rng.uniform(1.0, 3.0)),
            beta=1.0,
        )
        fast = objective_and_gradient(params, PairBatch(left, right, targets))
        slow = reference_pair_objective(
            params.filters, params.weights, params.alpha, left, right, targets
        )
        if abs(fast[0] - slow[0]) > 1e-12 * abs(slow[0]) or any(
            np.abs(new - ref).max() > 1e-12 * np.abs(ref).max()
            for new, ref in zip(fast[1:], slow[1:])
        ):
            raise AssertionError("pair objective disagrees with the reference loop")
    return "pair objective matches the reference"


def _check_epls(rng: np.random.Generator) -> str:
    """Row sparsity and balanced epoch counts on random instances."""
    for _ in range(5):
        num_outputs = int(rng.integers(2, 9))
        total = int(rng.integers(num_outputs, 200))
        state = InhibitorState.fresh(num_outputs, total)
        produced = 0
        while produced < total:
            rows = min(int(rng.integers(1, 40)), total - produced)
            outputs = rng.normal(size=(rows, num_outputs))
            target, state = epls_epoch_step(outputs, state)
            if not (target.matrix.sum(axis=1) == 1).all():
                raise AssertionError("a target row lost its single active entry")
            produced += rows
        counts = state.selection_counts
        if counts.min() < total // num_outputs or counts.max() > -(-total // num_outputs):
            raise AssertionError("epoch selection counts left the balanced band")
    return "sparse targets are one-hot with balanced epoch counts"


def _check_exact_kernel(rng: np.random.Generator) -> str:
    """Symmetry and positive semidefiniteness of the exact kernel."""
    maps = [FeatureMap(rng.uniform(0.0, 1.0, size=(5, 5))) for _ in range(4)]
    alpha, beta = 0.8, 1.2
    gram = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            gram[i, j] = exact_match_kernel(maps[i], maps[j], 2, alpha, beta)
    if np.abs(gram - gram.T).max() > 1e-9:
        raise AssertionError("exact kernel is not symmetric")
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues.min() < -1e-8 * max(1.0, float(np.trace(gram))):
        raise AssertionError("exact kernel Gram matrix is not PSD")
    return "exact kernel is symmetric and PSD on random maps"


def _check_embedding_consistency(rng: np.random.Generator) -> str:
    """A trained 1-layer embedding reproduces Gaussian pair targets."""
    pool_vectors = rng.normal(size=(400, 3))
    pool_vectors /= np.linalg.norm(pool_vectors, axis=1, keepdims=True)
    pool = SubPatchPool(np.ones(400), pool_vectors)
    alpha = estimate_alpha(pool.normalized, 0.1, seed=3)
    config = LayerConfig("patch", 1, 1, 12, num_training_pairs=3000, seed=5)
    pcfg = PretrainConfig(
        batch_size=64, patches_per_epoch=256, epochs=2, seed=5
    )
    init = pretrain_layer(pool, config, pcfg, alpha)
    batch = sample_training_pairs(pool, 3000, alpha, seed=7)
    from .kernel_layer import train_layer

    trained, _ = train_layer(batch, config, init)
    loss_init = objective_and_gradient(init, batch)[0]
    loss_final = objective_and_gradient(trained, batch)[0]
    if loss_final > loss_init:
        raise AssertionError("pair training increased the objective")
    if loss_final / len(batch) > 0.01:
        raise AssertionError("mean squared pair residual is implausibly large")
    return "trained embedding reproduces pair targets"


def _check_pooling(rng: np.random.Generator) -> str:
    """Spatial pooling identities and the pyramid contract."""
    spike = np.zeros((3, 3, 1))
    spike[1, 1, 0] = 1.0
    pooled = spatial_pool_g(FeatureMap(spike), 1.0, 1)
    if abs(pooled.values[0, 1, 0] - np.exp(-0.5)) > 1e-12:
        raise AssertionError("pooling weight at unit distance is off")
    flat = FeatureMap(np.full((4, 4, 2), 0.25))
    descriptor = spp_pool(flat, (1, 2))
    if descriptor.values.shape[0] != (1 + 4) * 2:
        raise AssertionError("pyramid descriptor length is off")
    spike_map = np.zeros((4, 4, 1))
    spike_map[0, 0, 0] = 7.0
    values = spp_pool(FeatureMap(spike_map), (1, 2)).values
    if not (values[0] == 7.0 and values[1] == 7.0 and values[2:].max() == 0.0):
        raise AssertionError("pyramid max placement is off")
    return "pooling and pyramid identities hold"


def _check_pooling_operator(rng: np.random.Generator) -> str:
    """The cached sparse pooling operator against the reference loop."""
    fmap = FeatureMap(rng.uniform(0.0, 1.0, size=(11, 7, 3)))
    for factor in (1, 2, 3):
        beta = compute_beta(factor)
        fast = spatial_pool_g(fmap, beta, factor).values
        slow = reference_spatial_pool(fmap, beta, factor).values
        if np.abs(fast - slow).max() > 1e-12 * np.abs(slow).max():
            raise AssertionError("pooling operator disagrees with the reference loop")
    return "pooling operator matches the reference loop"


def _check_metrics(rng: np.random.Generator) -> str:
    """Rank-statistic AUC against exhaustive pair enumeration."""
    for _ in range(10):
        n = int(rng.integers(4, 10))
        scores = rng.choice(np.linspace(0.0, 1.0, 7), size=n)
        truths = rng.integers(0, 2, size=n)
        if truths.min() == truths.max():
            truths[0] = 1 - truths[0]
        wins = ties = 0
        pos = scores[truths == 1]
        neg = scores[truths == 0]
        for sp in pos:
            for sn in neg:
                wins += sp > sn
                ties += sp == sn
        expected = (wins + 0.5 * ties) / (pos.size * neg.size)
        if abs(roc_auc(scores, truths) - expected) > 1e-12:
            raise AssertionError("AUC disagrees with exhaustive enumeration")
    return "AUC matches exhaustive enumeration"


def _check_retrieval(rng: np.random.Generator) -> str:
    """One-matrix retrieval against the per-query reference loop."""
    labels = rng.integers(0, 3, size=30)
    # Few distinct integer values: duplicate rows tie exactly.
    tied = rng.integers(0, 2, size=(30, 3)).astype(np.float64)
    own = rng.choice(30, size=8, replace=False)
    keep_all = np.zeros((8, 30), dtype=bool)
    cases = (
        (rng.normal(size=(8, 5)), rng.normal(size=(30, 5)), rng.integers(0, 3, size=8), keep_all),
        (rng.integers(0, 2, size=(8, 3)).astype(np.float64), tied, rng.integers(0, 3, size=8),
         keep_all),
        # Train-split queries are gallery rows that leave themselves out.
        (tied[own], tied, labels[own], own[:, np.newaxis] == np.arange(30)),
    )
    for queries, gallery, query_labels, exclude in cases:
        relevant = query_labels[:, np.newaxis] == labels
        args = (queries, gallery, relevant, exclude, [1, 5, 10, 29, 30, 100])
        if not np.array_equal(retrieval_precision(*args), reference_retrieval_precision(*args)):
            raise AssertionError("retrieval precision disagrees with the reference loop")
    return "one-matrix retrieval matches the per-query loop"


def _check_persistence(rng: np.random.Generator) -> str:
    """Bitwise round trip of a small sealed model."""
    config = LayerConfig("patch", 2, 2, 3, seed=11)
    params = LayerParams(
        rng.normal(size=(3, 4)).astype(np.float32),
        rng.uniform(0.1, 1.0, size=3).astype(np.float32),
        alpha=0.7,
        beta=compute_beta(2),
    )
    model = ModelBundle(
        layers=(TrainedLayer(config, params),),
        pyramid_levels=(1, 2),
        input_size=16,
        provenance={"seed": 11, "note": "selftest", "alpha": 0.7},
    )
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "model.cskn"
        second = Path(tmp) / "again.cskn"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        if first.read_bytes() != second.read_bytes():
            raise AssertionError("model round trip changed bytes")
        reloaded = load_model(second)
    for original, copy in zip(model.layers, reloaded.layers):
        if original.params.filters.tobytes() != copy.params.filters.tobytes():
            raise AssertionError("filters changed across the round trip")
        if original.params.weights.tobytes() != copy.params.weights.tobytes():
            raise AssertionError("weights changed across the round trip")
    return "model persistence round trip is bitwise"


def _check_activation(rng: np.random.Generator) -> str:
    """Activation homogeneity: scaling a map scales activations linearly."""
    base = rng.uniform(0.1, 1.0, size=(5, 5, 2))
    params = LayerParams(
        rng.normal(size=(4, 8)), rng.uniform(0.2, 1.0, size=4), alpha=0.9, beta=1.0
    )
    one = activation_h(extract_subpatches(FeatureMap(base), 2), params)
    three = activation_h(extract_subpatches(FeatureMap(3.0 * base), 2), params)
    if np.abs(three.values - 3.0 * one.values).max() > 1e-9:
        raise AssertionError("activations are not 1-homogeneous in the map")
    return "activations scale linearly with patch magnitude"


CHECKS = (
    ("gradient", _check_gradient),
    ("pair-objective", _check_pair_objective),
    ("sparsity", _check_epls),
    ("exact-kernel", _check_exact_kernel),
    ("embedding", _check_embedding_consistency),
    ("pooling", _check_pooling),
    ("pooling-operator", _check_pooling_operator),
    ("metrics", _check_metrics),
    ("retrieval", _check_retrieval),
    ("persistence", _check_persistence),
    ("activation", _check_activation),
)


def run_selftest(write=print) -> bool:
    """Run every check; report one line each; True when all pass."""
    all_ok = True
    for name, check in CHECKS:
        rng = np.random.default_rng(12345)
        try:
            detail = check(rng)
        except Exception as exc:  # report and continue; the run must cover all
            all_ok = False
            write(f"selftest:{name}\tFAIL\t{exc}")
        else:
            write(f"selftest:{name}\tPASS\t{detail}")
    return all_ok
