"""Acceptance gate: eight go/no-go checks covering gradients, sparsity
invariants, kernel fidelity, pyramid pooling, metric oracles, end-to-end
learning, determinism, and persistence.

Each test prints one ``A# PASS/FAIL — detail`` line (visible under
``pytest -s``) before asserting, so the printed verdicts always agree
with the test outcomes.
"""

import itertools
from time import perf_counter

import numpy as np
import pytest

from cskn.cli import run_command
from cskn.epls import InhibitorState, epls_epoch_step
from cskn.evalkit import retrieval_precision, roc_auc, top1_accuracy
from cskn.featmap import FeatureMap, SubPatchPool, extract_subpatches
from cskn.kernel_layer import (
    LayerConfig,
    LayerParams,
    PairBatch,
    activation_h,
    approx_kernel,
    compute_beta,
    estimate_alpha,
    objective_and_gradient,
    sample_training_pairs,
    spatial_pool_g,
    train_layer,
)
from cskn.model_io import load_model, save_model
from cskn.network import spp_pool
from cskn.oracle import exact_match_kernel, finite_diff_gradient
from cskn.synthetic import mixture_feature_map, sphere_cluster_centers

from conftest import TINY_CONFIG


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"\n{tag} {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


class TestA1GradientCorrectness:
    def test_analytic_matches_finite_differences(self):
        started = perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            num_filters = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 6))
            num_pairs = int(rng.integers(1, 21))
            alpha = float(rng.uniform(0.4, 1.2))
            filters = rng.normal(size=(num_filters, dim))
            weights = rng.uniform(0.2, 1.0, size=num_filters)
            batch = PairBatch(
                rng.normal(size=(num_pairs, dim)),
                rng.normal(size=(num_pairs, dim)),
                rng.uniform(0.05, 1.0, size=num_pairs),
            )
            params = LayerParams(filters, weights, alpha=alpha, beta=1.0)
            _, grad_filters, grad_weights = objective_and_gradient(params, batch)
            analytic = np.concatenate([grad_filters.ravel(), grad_weights])

            def loss_at(vector):
                probe = LayerParams(
                    vector[: num_filters * dim].reshape(num_filters, dim),
                    vector[num_filters * dim :],
                    alpha=alpha,
                    beta=1.0,
                )
                return objective_and_gradient(probe, batch)[0]

            numeric = finite_diff_gradient(
                loss_at, np.concatenate([filters.ravel(), weights])
            )
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
            worst = max(worst, float(rel.max()))
        elapsed = perf_counter() - started
        ok = worst < 1e-4 and elapsed < 10.0
        report(
            "A1",
            ok,
            f"50 instances, worst componentwise rel err {worst:.2e} "
            f"(< 1e-4), {elapsed:.1f}s (< 10s)",
        )
        assert worst < 1e-4
        assert elapsed < 10.0


class TestA2SparsityInvariants:
    def test_one_hot_rows_and_balanced_counts(self):
        started = perf_counter()
        rng = np.random.default_rng(202)
        epochs_checked = 0
        for index in range(100):
            if index == 0:
                total, num_outputs = 5000, 64
            else:
                total = int(np.exp(rng.uniform(0.0, np.log(5000.0))))
                num_outputs = int(rng.integers(1, 65))
            state = InhibitorState.fresh(num_outputs, total)
            seen = 0
            while seen < total:
                size = min(int(rng.integers(1, 513)), total - seen)
                target, state = epls_epoch_step(
                    rng.random((size, num_outputs)), state
                )
                active = np.sum(target.matrix == 1.0, axis=1)
                assert (active == 1).all(), "a target row is not one-hot"
                seen += size
            lo = total // num_outputs
            hi = -(-total // num_outputs)
            counts = state.selection_counts
            assert counts.sum() == total
            assert (counts >= lo).all() and (counts <= hi).all(), (
                f"epoch {index}: counts outside [{lo}, {hi}]"
            )
            epochs_checked += 1
        elapsed = perf_counter() - started
        ok = epochs_checked == 100 and elapsed < 10.0
        report(
            "A2",
            ok,
            f"{epochs_checked} epochs (incl. 5000x64 boundary), every row "
            f"one-hot, counts within floor/ceil, {elapsed:.1f}s (< 10s)",
        )
        assert epochs_checked == 100
        assert elapsed < 10.0


def fidelity_mae(seed: int, num_filters: int) -> float:
    """Cosine-normalized |exact - approx| averaged over 20 held-out pairs.

    One embedding layer is trained on a pool of 2,000 single-pixel
    sub-patches drawn from spatially coherent synthetic maps (each map's
    pixel directions share one spherical cluster); alpha comes from the
    0.1 distance quantile and beta from the pooling stride.
    """
    factor, extent, pairs = 2, 8, 20_000
    rng = np.random.default_rng(seed)
    centers = sphere_cluster_centers(rng, 8, dim=3)

    def make_map():
        one = centers[rng.integers(0, len(centers))][np.newaxis, :]
        return mixture_feature_map(rng, extent, one, spread=0.25)

    grids = [extract_subpatches(make_map(), 1) for _ in range(32)]
    full = SubPatchPool.from_grids(grids)
    pool = SubPatchPool(full.norms[:2000], full.normalized[:2000])
    held_out = [(make_map(), make_map()) for _ in range(20)]
    alpha = estimate_alpha(pool.normalized, 0.1, seed=seed)
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


class TestA3KernelFidelity:
    def test_embedding_tracks_exact_kernel(self):
        started = perf_counter()
        widths = (4, 8, 16, 32)
        errors = {
            width: [fidelity_mae(1000 + 17 * s, width) for s in range(5)]
            for width in widths
        }
        medians = [float(np.median(errors[width])) for width in widths]
        worst_final = max(errors[32])
        monotone = all(a >= b for a, b in zip(medians, medians[1:]))
        elapsed = perf_counter() - started
        ok = worst_final <= 0.10 and monotone and elapsed < 300.0
        report(
            "A3",
            ok,
            f"n=32 MAE max over 5 seeds {worst_final:.4f} (<= 0.10); medians "
            f"{['%.4f' % m for m in medians]} for widths {list(widths)} "
            f"non-increasing={monotone}; {elapsed:.0f}s (< 300s)",
        )
        assert worst_final <= 0.10
        assert monotone
        assert elapsed < 300.0


class TestA4PyramidContract:
    def test_lengths_spikes_and_worked_example(self):
        started = perf_counter()
        rng = np.random.default_rng(404)
        lengths_ok = True
        for channels in (1, 16, 100):
            desc = spp_pool(
                FeatureMap(rng.random((8, 8, channels))), (1, 2, 3, 6)
            )
            lengths_ok = lengths_ok and desc.values.shape == (50 * channels,)

        example = np.zeros((4, 4))
        example[0, 0] = 7.0
        block = spp_pool(FeatureMap(example), (2,)).values
        example_ok = np.array_equal(block, [7.0, 0.0, 0.0, 0.0])

        def pyramid(r, c):
            values = np.zeros((12, 12))
            values[r, c] = 1.0
            return spp_pool(FeatureMap(values), (1, 2, 3, 6)).values

        shift_ok = True
        for r0, c0 in ((0, 0), (4, 6), (10, 2)):
            base = pyramid(r0, c0)
            for dr, dc in ((0, 1), (1, 0), (1, 1)):
                shift_ok = shift_ok and np.array_equal(
                    pyramid(r0 + dr, c0 + dc), base
                )
        elapsed = perf_counter() - started
        ok = lengths_ok and example_ok and shift_ok and elapsed < 1.0
        report(
            "A4",
            ok,
            f"lengths 50p for p in (1,16,100): {lengths_ok}; 4x4 example "
            f"[7,0,0,0]: {example_ok}; in-cell spike shifts exact: "
            f"{shift_ok}; {elapsed:.2f}s (< 1s)",
        )
        assert lengths_ok
        assert example_ok
        assert shift_ok
        assert elapsed < 1.0


class TestA5MetricOracles:
    def test_exhaustive_enumerations(self):
        started = perf_counter()

        precision_ok = True
        # Gallery row k sits at distance k from the query, so the ranking
        # is gallery order and the pattern reads off in rank order.
        gallery = np.arange(5, dtype=np.float64)[:, np.newaxis]
        for pattern in itertools.product((False, True), repeat=5):
            got = retrieval_precision(
                np.zeros((1, 1)), gallery, [pattern], np.zeros((1, 5), bool), range(1, 6)
            )
            for q in range(1, 6):
                manual = sum(1 for flag in pattern[:q] if flag) / q
                precision_ok = precision_ok and got[q - 1] == manual

        top1_ok = True
        for size in (1, 2, 3):
            for predicted in itertools.product("ab", repeat=size):
                for actual in itertools.product("ab", repeat=size):
                    manual = sum(
                        1 for p, a in zip(predicted, actual) if p == a
                    ) / size
                    top1_ok = top1_ok and top1_accuracy(
                        list(predicted), list(actual)
                    ) == manual

        auc_ok = roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75
        for scores in itertools.product((0.1, 0.2, 0.3), repeat=4):
            for truths in itertools.product((0, 1), repeat=4):
                if sum(truths) in (0, 4):
                    continue
                wins = half = total = 0
                for i, j in itertools.product(range(4), repeat=2):
                    if truths[i] == 1 and truths[j] == 0:
                        total += 1
                        wins += scores[i] > scores[j]
                        half += scores[i] == scores[j]
                manual = (wins + 0.5 * half) / total
                auc_ok = auc_ok and abs(
                    roc_auc(list(scores), list(truths)) - manual
                ) <= 1e-12

        elapsed = perf_counter() - started
        ok = precision_ok and top1_ok and auc_ok and elapsed < 1.0
        report(
            "A5",
            ok,
            f"precision@q exhaustive: {precision_ok}; top-1 exhaustive: "
            f"{top1_ok}; AUC pair-counting incl. 0.75 case: {auc_ok}; "
            f"{elapsed:.2f}s (< 1s)",
        )
        assert precision_ok
        assert top1_ok
        assert auc_ok
        assert elapsed < 1.0


class TestA6EndToEnd:
    def test_texture_learning_beats_the_bars(self, texture_model, tmp_path):
        eval_started = perf_counter()
        classify_report = tmp_path / "classify.tsv"
        status = run_command(
            [
                "classify",
                "--model", str(texture_model.model),
                "--manifest", str(texture_model.manifest),
                "--report", str(classify_report),
            ]
        )
        assert status == 0
        retrieve_report = tmp_path / "retrieve.tsv"
        status = run_command(
            [
                "retrieve",
                "--model", str(texture_model.model),
                "--manifest", str(texture_model.manifest),
                "--q", "1",
                "--report", str(retrieve_report),
            ]
        )
        assert status == 0
        rows = {}
        for path in (classify_report, retrieve_report):
            for line in path.read_text(encoding="utf-8").splitlines():
                key, _, value = line.partition("\t")
                rows[key] = value
        top1 = float(rows["top1_accuracy"])
        p_at_1 = float(rows["precision@1"])
        total_seconds = texture_model.train_seconds + (
            perf_counter() - eval_started
        )
        ok = (
            rows["num_train"] == "60"
            and rows["num_test"] == "30"
            and top1 >= 0.80
            and p_at_1 >= 0.70
            and total_seconds < 900.0
        )
        report(
            "A6",
            ok,
            f"60 train / 30 test at 64x64, 3 classes: top-1 {top1:.3f} "
            f"(>= 0.80, chance 0.333), P@1 {p_at_1:.3f} (>= 0.70), "
            f"train+eval {total_seconds:.0f}s (< 900s)",
        )
        assert rows["num_train"] == "60" and rows["num_test"] == "30"
        assert top1 >= 0.80
        assert p_at_1 >= 0.70
        assert total_seconds < 900.0


class TestA7Determinism:
    def test_repeat_training_is_byte_identical(self, tiny_manifest, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        outputs = []
        for name in ("first.cskn", "second.cskn"):
            out = tmp_path / name
            status = run_command(
                [
                    "train",
                    "--config", str(config),
                    "--manifest", str(tiny_manifest),
                    "--out", str(out),
                ]
            )
            assert status == 0
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1]
        report(
            "A7",
            identical,
            f"two reference-mode train runs, {len(outputs[0])}-byte models "
            f"byte-identical={identical}",
        )
        assert identical


class TestA8Persistence:
    def test_round_trip_is_bitwise_lossless(self, texture_model, tmp_path):
        original = texture_model.model.read_bytes()
        reloaded = load_model(texture_model.model)
        resaved = tmp_path / "resaved.cskn"
        save_model(reloaded, resaved)
        identical = resaved.read_bytes() == original
        report(
            "A8",
            identical,
            f"load/save of the trained texture model preserves all "
            f"{len(original)} bytes={identical}",
        )
        assert identical
