#!/usr/bin/env python3
"""How well does the learned embedding track the exact match kernel?

Trains single-layer embeddings of increasing width on a pool of
single-pixel sub-patches from synthetic spatially-coherent maps, then
compares the pooled approximate kernel against the exact double-sum
kernel on held-out 8x8 map pairs (both cosine-normalized). Prints one
row per width: the per-seed mean absolute errors and their median.
"""

import argparse
import time

import numpy as np

from cskn.featmap import SubPatchPool, extract_subpatches, harvest_subpatches
from cskn.kernel_layer import (
    LayerConfig,
    LayerParams,
    activation_h,
    approx_kernel,
    compute_beta,
    estimate_alpha,
    sample_training_pairs,
    spatial_pool_g,
    train_layer,
)
from cskn.oracle import exact_match_kernel
from cskn.synthetic import mixture_feature_map, sphere_cluster_centers


def fidelity_mae(
    seed: int,
    num_filters: int,
    *,
    factor: int,
    extent: int,
    pairs: int,
    pool_size: int,
    held_out_pairs: int,
) -> float:
    rng = np.random.default_rng(seed)
    centers = sphere_cluster_centers(rng, 8, dim=3)

    def make_map():
        one = centers[rng.integers(0, len(centers))][np.newaxis, :]
        return mixture_feature_map(rng, extent, one, spread=0.25)

    full = harvest_subpatches([make_map() for _ in range(32)], 1)
    pool = SubPatchPool(full.norms[:pool_size], full.normalized[:pool_size])
    held_out = [(make_map(), make_map()) for _ in range(held_out_pairs)]
    alpha = estimate_alpha(pool, 0.1, seed=seed)
    beta = compute_beta(factor)
    batch = sample_training_pairs(pool, pairs, alpha, seed=seed + 1)
    nonzero = pool.normalized[pool.norms > 0]
    init = LayerParams(
        nonzero[rng.choice(len(nonzero), num_filters, replace=False)],
        np.full(num_filters, 1.0 / num_filters),
        alpha=alpha,
        beta=beta,
    )
    config = LayerConfig(
        "patch", 1, factor, num_filters, num_training_pairs=pairs, seed=seed
    )
    params, _ = train_layer(batch, config, init)

    def embed(fmap):
        return spatial_pool_g(
            activation_h(extract_subpatches(fmap, 1), params), beta, factor
        )

    def normalized_gap(map_a, map_b):
        exact = exact_match_kernel(map_a, map_b, 1, alpha, beta) / np.sqrt(
            exact_match_kernel(map_a, map_a, 1, alpha, beta)
            * exact_match_kernel(map_b, map_b, 1, alpha, beta)
        )
        ga, gb = embed(map_a), embed(map_b)
        approx = approx_kernel(ga, gb) / np.sqrt(
            approx_kernel(ga, ga) * approx_kernel(gb, gb)
        )
        return abs(exact - approx)

    return float(np.mean([normalized_gap(a, b) for a, b in held_out]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--widths", default="4,8,16,32", help="comma-separated filter counts"
    )
    parser.add_argument("--seeds", type=int, default=5, help="seeds per width")
    parser.add_argument("--pairs", type=int, default=20_000, help="training pairs")
    parser.add_argument("--pool-size", type=int, default=2000)
    parser.add_argument("--held-out-pairs", type=int, default=20)
    parser.add_argument("--extent", type=int, default=8, help="held-out map side")
    parser.add_argument("--factor", type=int, default=2, help="pooling stride")
    args = parser.parse_args()

    widths = [int(part) for part in args.widths.split(",")]
    started = time.perf_counter()
    print("width\tmedian_mae\tper_seed_mae")
    for width in widths:
        errors = [
            fidelity_mae(
                1000 + 17 * s,
                width,
                factor=args.factor,
                extent=args.extent,
                pairs=args.pairs,
                pool_size=args.pool_size,
                held_out_pairs=args.held_out_pairs,
            )
            for s in range(args.seeds)
        ]
        per_seed = ",".join(f"{e:.4f}" for e in errors)
        print(f"{width}\t{float(np.median(errors)):.4f}\t{per_seed}")
    print(f"# elapsed {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
