"""Linear classification and retrieval evaluation over descriptors.

The classifier is one-vs-rest ridge-regularized squared-hinge regression
fit with limited-memory quasi-Newton steps on standardized features.
Retrieval ranks a gallery by Euclidean distance, all queries against
one distance matrix. Metrics are exact small-sample formulas: precision
at a cutoff, top-1 accuracy, and the rank-statistic area under the ROC
curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from .errors import InvalidArgumentError, UndefinedMetricError

SVM_LBFGS_MEMORY = 10
SVM_LBFGS_TOL = 1e-5
SVM_LBFGS_MAX_ITER = 500
_STD_FLOOR = 1e-12


def _matrix(features) -> np.ndarray:
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D feature matrix, got {matrix.ndim}-D")
    return matrix


@dataclass(frozen=True)
class ClassifierParams:
    """A fitted one-vs-rest linear classifier plus its feature scaling."""

    classes: tuple[str, ...]
    weights: np.ndarray
    biases: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        biases = np.asarray(self.biases, dtype=np.float64)
        mean = np.asarray(self.feature_mean, dtype=np.float64)
        std = np.asarray(self.feature_std, dtype=np.float64)
        if len(self.classes) < 2:
            raise InvalidArgumentError("a classifier needs at least two classes")
        if weights.shape != (len(self.classes), mean.shape[0]):
            raise InvalidArgumentError("weight matrix shape mismatch")
        if biases.shape != (len(self.classes),):
            raise InvalidArgumentError("one bias per class required")
        if std.shape != mean.shape or (std < _STD_FLOOR).any():
            raise InvalidArgumentError("feature stds must be >= 1e-12")
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "feature_mean", mean)
        object.__setattr__(self, "feature_std", std)

    def standardize(self, features) -> np.ndarray:
        matrix = _matrix(features)
        if matrix.shape[1] != self.feature_mean.shape[0]:
            raise InvalidArgumentError(
                f"classifier expects {self.feature_mean.shape[0]} features, "
                f"got {matrix.shape[1]}"
            )
        return (matrix - self.feature_mean) / self.feature_std


def _squared_hinge_objective(
    theta: np.ndarray, x: np.ndarray, y: np.ndarray, regularization: float
) -> tuple[float, np.ndarray]:
    w = theta[:-1]
    b = theta[-1]
    margins = y * (x @ w + b)
    slack = np.maximum(0.0, 1.0 - margins)
    n = x.shape[0]
    loss = regularization * float(w @ w) + float(slack @ slack) / n
    coeff = (2.0 / n) * slack * y
    grad_w = 2.0 * regularization * w - x.T @ coeff
    grad_b = -float(coeff.sum())
    return loss, np.concatenate([grad_w, [grad_b]])


def train_svm(
    features,
    labels: Sequence[str],
    regularization: float = 1.0,
) -> ClassifierParams:
    """Fit one-vs-rest squared-hinge linear classifiers.

    Features are standardized with training statistics (near-constant
    dimensions fall back to unit scale). Per class the objective is
    ``regularization * ||w||^2 + mean(max(0, 1 - y * (w.x + b))^2)``,
    minimized by L-BFGS from zero.
    """
    matrix = _matrix(features)
    labels = [str(label) for label in labels]
    if matrix.shape[0] != len(labels):
        raise InvalidArgumentError("one label per feature row required")
    if matrix.shape[0] < 2:
        raise InvalidArgumentError("training needs at least two samples")
    if regularization <= 0:
        raise InvalidArgumentError("regularization must be positive")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise InvalidArgumentError("training needs at least two distinct classes")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    scaled = (matrix - mean) / std
    label_array = np.asarray(labels)
    weights = np.zeros((len(classes), matrix.shape[1]))
    biases = np.zeros(len(classes))
    for row, cls in enumerate(classes):
        y = np.where(label_array == cls, 1.0, -1.0)
        theta0 = np.zeros(matrix.shape[1] + 1)
        result = optimize.minimize(
            _squared_hinge_objective,
            theta0,
            args=(scaled, y, regularization),
            jac=True,
            method="L-BFGS-B",
            options={
                "maxcor": SVM_LBFGS_MEMORY,
                "maxiter": SVM_LBFGS_MAX_ITER,
                "gtol": SVM_LBFGS_TOL,
                "ftol": 1e-12,
            },
        )
        weights[row] = result.x[:-1]
        biases[row] = result.x[-1]
    return ClassifierParams(
        classes=classes,
        weights=weights,
        biases=biases,
        feature_mean=mean,
        feature_std=std,
    )


def predict(features, params: ClassifierParams) -> tuple[list[str], np.ndarray]:
    """Class decisions and per-class scores; ties go to the earlier class."""
    scaled = params.standardize(features)
    scores = scaled @ params.weights.T + params.biases
    winners = np.argmax(scores, axis=1)
    return [params.classes[i] for i in winners], scores


def retrieval_precision(
    queries: np.ndarray,
    gallery: np.ndarray,
    relevant: np.ndarray,
    exclude: np.ndarray,
    cutoffs: Sequence[int],
) -> np.ndarray:
    """Mean precision at each cutoff, every query ranked in one pass.

    Row i of the (Q, G) masks flags the gallery items relevant to query i
    and those left out of its ranking (say, its own gallery row). Each
    query ranks its kept items by Euclidean distance, ties in gallery
    order. A cutoff past a query's kept count is clamped to that count,
    so every cutoff reports. Means are taken in query order.
    """
    queries = _matrix(queries)
    gallery = _matrix(gallery)
    relevant = np.asarray(relevant, dtype=bool)
    exclude = np.asarray(exclude, dtype=bool)
    shape = (queries.shape[0], gallery.shape[0])
    if queries.shape[1] != gallery.shape[1]:
        raise InvalidArgumentError("query and gallery dimensions differ")
    if relevant.shape != shape or exclude.shape != shape:
        raise InvalidArgumentError(f"relevant and exclude masks must have shape {shape}")
    if shape[0] == 0:
        raise InvalidArgumentError("retrieval needs at least one query")
    if any(q < 1 for q in cutoffs):
        raise InvalidArgumentError(f"cutoffs must be positive, got {list(cutoffs)}")
    kept = shape[1] - exclude.sum(axis=1)
    if (kept == 0).any():
        raise InvalidArgumentError("a query has no gallery item left to rank")
    distances = cdist(queries, gallery)
    distances[exclude] = np.inf
    order = np.argsort(distances, axis=1, kind="stable")
    hits = np.cumsum(np.take_along_axis(relevant, order, axis=1), axis=1)
    rows = np.arange(shape[0])
    means = []
    for q in cutoffs:
        depth = np.minimum(q, kept)
        means.append(np.mean(hits[rows, depth - 1] / depth))
    return np.array(means)


def top1_accuracy(predicted: Sequence[str], actual: Sequence[str]) -> float:
    """Fraction of exact label matches."""
    if len(predicted) != len(actual):
        raise InvalidArgumentError("prediction/label lengths differ")
    if len(predicted) == 0:
        raise InvalidArgumentError("accuracy over zero samples is undefined")
    hits = sum(1 for p, a in zip(predicted, actual) if p == a)
    return hits / len(predicted)


def roc_auc(scores: Sequence[float], truths: Sequence[int]) -> float:
    """Rank-statistic AUC: P(positive score > negative) + half for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truths)
    if scores.ndim != 1 or scores.shape != truth.shape:
        raise InvalidArgumentError("scores and truths must be matching vectors")
    if not np.isin(truth, (0, 1)).all():
        raise InvalidArgumentError("truths must be binary (0/1)")
    positives = int(truth.sum())
    negatives = truth.shape[0] - positives
    if positives == 0 or negatives == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    ranks = rankdata(scores)
    positive_rank_sum = float(ranks[truth == 1].sum())
    return (positive_rank_sum - positives * (positives + 1) / 2.0) / (
        positives * negatives
    )
