"""Classifier, ranking, and metric behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cskn.errors import InvalidArgumentError, UndefinedMetricError
from cskn.evalkit import (
    ClassifierParams,
    predict,
    retrieval_precision,
    roc_auc,
    top1_accuracy,
    train_svm,
)
from cskn.oracle import reference_retrieval_precision


def grid_search_linear_top1(features, labels, classes):
    """Brute-force reference: best one-vs-rest accuracy over a coarse
    weight grid, as a lower bound a trained linear classifier must meet
    on easy data (and an upper bound neither can beat on XOR)."""
    features = np.asarray(features, dtype=np.float64)
    best = 0.0
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    per_class = []
    for _ in classes:
        per_class.append(
            list(itertools.product(grid, repeat=features.shape[1] + 1))
        )
    # Score each class with its own best-fitting separator independently is
    # not meaningful for argmax voting, so enumerate joint choices only for
    # tiny problems; here all classes share the candidate set.
    best = 0.0
    for combo in itertools.product(*per_class):
        scores = np.stack(
            [
                features @ np.asarray(theta[:-1]) + theta[-1]
                for theta in combo
            ],
            axis=1,
        )
        predicted = [classes[i] for i in np.argmax(scores, axis=1)]
        best = max(best, top1_accuracy(predicted, labels))
    return best


class TestTrainSvm:
    def test_separable_two_class_line(self):
        rng = np.random.default_rng(0)
        neg = rng.normal(loc=-3.0, size=(20, 1))
        pos = rng.normal(loc=3.0, size=(20, 1))
        features = np.vstack([neg, pos])
        labels = ["a"] * 20 + ["b"] * 20
        params = train_svm(features, labels)
        predicted, scores = predict(features, params)
        assert top1_accuracy(predicted, labels) == 1.0
        assert scores.shape == (40, 2)

    def test_three_class_blobs(self):
        rng = np.random.default_rng(1)
        centers = {"x": (0.0, 6.0), "y": (6.0, 0.0), "z": (-6.0, -6.0)}
        features, labels = [], []
        for name, center in centers.items():
            features.append(rng.normal(loc=center, scale=0.5, size=(15, 2)))
            labels += [name] * 15
        features = np.vstack(features)
        params = train_svm(features, labels)
        assert params.classes == ("x", "y", "z")
        predicted, _ = predict(features, params)
        assert top1_accuracy(predicted, labels) == 1.0

    def test_xor_is_capped_like_any_linear_rule(self):
        # Four XOR points duplicated: no linear decision rule exceeds 0.75
        # top-1, which the exhaustive grid-search reference confirms.
        base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        features = np.tile(base, (4, 1))
        labels = (["even", "odd", "odd", "even"]) * 4
        cap = grid_search_linear_top1(base, ["even", "odd", "odd", "even"], ("even", "odd"))
        assert cap <= 0.75
        params = train_svm(features, labels)
        predicted, _ = predict(features, params)
        assert top1_accuracy(predicted, labels) <= 0.75

    def test_duplicating_every_sample_changes_nothing(self):
        # With a mean (not sum) data term the objective is invariant to
        # replicating the training set.
        rng = np.random.default_rng(2)
        features = rng.normal(size=(30, 4))
        labels = ["p" if v > 0 else "q" for v in features[:, 0]]
        once = train_svm(features, labels)
        twice = train_svm(np.vstack([features, features]), labels + labels)
        np.testing.assert_allclose(once.weights, twice.weights, atol=1e-6)
        np.testing.assert_allclose(once.biases, twice.biases, atol=1e-6)

    def test_constant_feature_dimension_is_tolerated(self):
        rng = np.random.default_rng(3)
        informative = np.vstack(
            [rng.normal(loc=-3.0, size=(10, 1)), rng.normal(loc=3.0, size=(10, 1))]
        )
        features = np.hstack([informative, np.full((20, 1), 5.0)])
        labels = ["a" if v > 0 else "b" for v in informative[:, 0]]
        params = train_svm(features, labels)
        assert params.feature_std[1] == 1.0
        predicted, _ = predict(features, params)
        assert top1_accuracy(predicted, labels) == 1.0

    def test_validation(self):
        features = np.ones((4, 2))
        with pytest.raises(InvalidArgumentError):
            train_svm(features, ["a", "b", "a"])
        with pytest.raises(InvalidArgumentError):
            train_svm(features, ["a", "a", "a", "a"])
        with pytest.raises(InvalidArgumentError):
            train_svm(features, ["a", "b", "a", "b"], regularization=0.0)

    def test_stronger_regularization_shrinks_weights(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(40, 3))
        labels = ["a" if v > 0 else "b" for v in features[:, 0]]
        loose = train_svm(features, labels, regularization=0.01)
        tight = train_svm(features, labels, regularization=100.0)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


class TestClassifierParams:
    def test_standardize_uses_training_statistics(self):
        params = ClassifierParams(
            classes=("a", "b"),
            weights=np.zeros((2, 2)),
            biases=np.zeros(2),
            feature_mean=np.array([1.0, 2.0]),
            feature_std=np.array([2.0, 4.0]),
        )
        scaled = params.standardize(np.array([[3.0, 10.0]]))
        np.testing.assert_allclose(scaled, [[1.0, 2.0]])

    def test_shape_guards(self):
        with pytest.raises(InvalidArgumentError):
            ClassifierParams(
                classes=("a",),
                weights=np.zeros((1, 2)),
                biases=np.zeros(1),
                feature_mean=np.zeros(2),
                feature_std=np.ones(2),
            )
        with pytest.raises(InvalidArgumentError):
            ClassifierParams(
                classes=("a", "b"),
                weights=np.zeros((2, 2)),
                biases=np.zeros(3),
                feature_mean=np.zeros(2),
                feature_std=np.ones(2),
            )


def precision(gallery, relevant, cutoffs, query=(0.0,), exclude=None):
    """Single-query retrieval_precision over a gallery of rows."""
    gallery = np.asarray(gallery, dtype=np.float64)
    relevant = np.asarray([relevant], dtype=bool)
    exclude = np.zeros_like(relevant) if exclude is None else np.asarray([exclude])
    return retrieval_precision(
        np.asarray([query], dtype=np.float64), gallery, relevant, exclude, cutoffs
    )


class TestRanking:
    def test_orders_by_distance(self):
        # Distances to 0.9 are 0.9, 2.1, 0.1, 1.1: rank order 2, 0, 3, 1.
        gallery = [[0.0], [3.0], [1.0], [2.0]]
        got = precision(gallery, [True, False, False, False], [1, 2, 3, 4], query=(0.9,))
        np.testing.assert_array_equal(got, [0.0, 0.5, 1 / 3, 0.25])
        got = precision(gallery, [False, False, True, True], [1, 2, 3], query=(0.9,))
        np.testing.assert_array_equal(got, [1.0, 0.5, 2 / 3])

    def test_ties_keep_gallery_order(self):
        got = precision([[1.0], [-1.0], [1.0]], [False, True, False], [1, 2, 3])
        np.testing.assert_array_equal(got, [0.0, 0.5, 1 / 3])

    def test_relevance_reordered_with_ranking(self):
        # Ranked order is rows 1, 2, 0, so the flags read False, True, True.
        got = precision([[5.0], [1.0], [3.0]], [True, False, True], [1, 2, 3])
        np.testing.assert_array_equal(got, [0.0, 0.5, 2 / 3])

    def test_excluded_rows_leave_the_ranking(self):
        got = precision(
            [[0.0], [1.0], [2.0]], [True, False, True], [1, 2], exclude=[True, False, False]
        )
        np.testing.assert_array_equal(got, [0.0, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="dimensions differ"):
            retrieval_precision(
                np.zeros((1, 3)), np.zeros((2, 2)), np.ones((1, 2)), np.zeros((1, 2)), [1]
            )
        with pytest.raises(InvalidArgumentError, match="2-D"):
            precision([0.0, 1.0], [True, True], [1])

    def test_empty_gallery(self):
        with pytest.raises(InvalidArgumentError, match="no gallery item"):
            precision(np.zeros((0, 2)), [], [1], query=(0.0, 0.0))
        with pytest.raises(InvalidArgumentError, match="no gallery item"):
            precision([[1.0]], [True], [1], exclude=[True])


class TestRetrievalRun:
    def test_requires_aligned_relevance(self):
        queries, gallery = np.zeros((2, 1)), np.zeros((3, 1))
        with pytest.raises(InvalidArgumentError, match="shape"):
            retrieval_precision(queries, gallery, np.ones((2, 2)), np.zeros((2, 3)), [1])
        with pytest.raises(InvalidArgumentError, match="shape"):
            retrieval_precision(queries, gallery, np.ones((2, 3)), np.zeros((3, 2)), [1])

    def test_needs_a_query(self):
        with pytest.raises(InvalidArgumentError, match="at least one query"):
            retrieval_precision(np.zeros((0, 1)), np.zeros((3, 1)), np.ones((0, 3)),
                                np.zeros((0, 3)), [1])


class TestPrecisionAtQ:
    def test_hand_counts(self):
        got = precision([[0.1], [0.2], [0.3], [0.4]], [True, False, True, True], [1, 2, 3, 4])
        assert got[0] == 1.0
        assert got[1] == 0.5
        assert got[2] == pytest.approx(2 / 3)
        assert got[3] == 0.75

    def test_bounds_and_missing_relevance(self):
        # A cutoff past the kept gallery is clamped to its size.
        got = precision([[0.0], [1.0]], [False, True], [2, 3, 100])
        np.testing.assert_array_equal(got, [0.5, 0.5, 0.5])
        with pytest.raises(InvalidArgumentError, match="positive"):
            precision([[0.0]], [True], [0])
        with pytest.raises(InvalidArgumentError, match="shape"):
            retrieval_precision(np.zeros((1, 1)), np.zeros((1, 1)), None, np.zeros((1, 1)), [1])

    def test_mean_is_over_queries_in_order(self):
        queries = np.array([[0.0], [10.0]])
        gallery = np.array([[0.0], [10.0]])
        relevant = np.array([[True, False], [True, False]])
        got = retrieval_precision(queries, gallery, relevant, np.zeros((2, 2), bool), [1, 2])
        np.testing.assert_array_equal(got, [0.5, 0.5])


class TestMatchesReferenceLoop:
    """The one-matrix ranking against the per-query reference loop, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_queries=st.integers(1, 12),
        num_gallery=st.integers(1, 25),
        dim=st.integers(1, 5),
        integer_valued=st.booleans(),
    )
    def test_random_galleries(self, seed, num_queries, num_gallery, dim, integer_valued):
        rng = np.random.default_rng(seed)
        if integer_valued:
            # Few distinct small integers: duplicate rows and exact distance ties.
            gallery = rng.integers(0, 3, size=(num_gallery, dim)).astype(np.float64)
            queries = rng.integers(0, 3, size=(num_queries, dim)).astype(np.float64)
        else:
            gallery = rng.normal(size=(num_gallery, dim))
            queries = rng.normal(size=(num_queries, dim))
        relevant = rng.random((num_queries, num_gallery)) < 0.4
        exclude = rng.random((num_queries, num_gallery)) < 0.2
        exclude[exclude.all(axis=1), 0] = False
        cutoffs = [1, 2, 5, num_gallery, num_gallery + 7]
        np.testing.assert_array_equal(
            retrieval_precision(queries, gallery, relevant, exclude, cutoffs),
            reference_retrieval_precision(queries, gallery, relevant, exclude, cutoffs),
        )

    def test_train_split_self_exclusion(self):
        # Queries drawn from the gallery leave their own row out, as the
        # retrieve command does for train-split queries.
        rng = np.random.default_rng(7)
        gallery = rng.integers(0, 2, size=(20, 3)).astype(np.float64)
        labels = rng.integers(0, 3, size=20)
        picks = np.array([0, 4, 4, 19, 7])
        exclude = picks[:, None] == np.arange(20)
        relevant = labels[picks][:, None] == labels
        cutoffs = [1, 3, 10, 19, 30]
        np.testing.assert_array_equal(
            retrieval_precision(gallery[picks], gallery, relevant, exclude, cutoffs),
            reference_retrieval_precision(gallery[picks], gallery, relevant, exclude, cutoffs),
        )

    def test_both_reject_an_empty_ranking(self):
        queries, gallery = np.zeros((2, 1)), np.zeros((2, 1))
        relevant = np.ones((2, 2), dtype=bool)
        exclude = np.array([[False, False], [True, True]])
        for fn in (retrieval_precision, reference_retrieval_precision):
            with pytest.raises(InvalidArgumentError):
                fn(queries, gallery, relevant, exclude, [1])


class TestTop1Accuracy:
    def test_counts_exact_matches(self):
        assert top1_accuracy(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(2 / 3)

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            top1_accuracy(["a"], ["a", "b"])
        with pytest.raises(InvalidArgumentError):
            top1_accuracy([], [])


class TestRocAuc:
    def test_hand_case(self):
        # Positives at ranks 4 and 2 of four: (4 + 2 - 3) / 4 = 0.75.
        assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    def test_perfect_and_inverted(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_partial_tie_counts_half(self):
        # Positive tied with one negative: (1 + 0.5) / 2 pairwise wins.
        assert roc_auc([0.7, 0.7, 0.1], [1, 0, 0]) == 0.75

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        truths = (rng.random(40) < 0.4).astype(int)
        base = roc_auc(scores, truths)
        assert roc_auc(np.exp(scores), truths) == pytest.approx(base)
        assert roc_auc(3.0 * scores + 7.0, truths) == pytest.approx(base)

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [0, 0])

    def test_input_guards(self):
        with pytest.raises(InvalidArgumentError):
            roc_auc([0.1, 0.2], [0, 2])
        with pytest.raises(InvalidArgumentError):
            roc_auc([0.1], [0, 1])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.integers(2, 30))
    def test_matches_pair_counting(self, seed, size):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=size), 1)
        truths = rng.integers(0, 2, size=size)
        if truths.sum() in (0, size):
            truths[0] = 1 - truths[0]
        wins = half = total = 0
        for i in range(size):
            for j in range(size):
                if truths[i] == 1 and truths[j] == 0:
                    total += 1
                    if scores[i] > scores[j]:
                        wins += 1
                    elif scores[i] == scores[j]:
                        half += 1
        expected = (wins + 0.5 * half) / total
        assert roc_auc(scores, truths) == pytest.approx(expected, rel=1e-12)
