"""Two from-scratch binary classifiers over sparse feature vectors.

Multinomial Naive Bayes with additive smoothing, and a linear soft-margin SVM
trained by seeded stochastic subgradient descent (step 1/(lambda*t), averaged
iterates, unregularized bias). Both are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .features import FeatureVector


@dataclass(frozen=True)
class Prediction:
    """Binary decision plus its raw score (NB: log-posterior margin; SVM: w.x+b)."""

    label: Any
    score: float


@dataclass(frozen=True)
class NBModel:
    classes: tuple[str, str]  # (positive-class tag, negative-class tag)
    class_log_prior: dict[str, float]
    feature_log_likelihood: dict[str, np.ndarray]
    smoothing: float
    vocab_size: int
    class_counts: dict[str, int]


def decide(score: float, labels: tuple[Any, Any], counts: tuple[int, int]) -> Any:
    """Label for a score: labels[0] above 0, labels[1] below.

    At exactly 0 the label with the larger training count wins, then the
    smaller label by ``str``.
    """
    pos, neg = labels
    if score > 0:
        return pos
    if score < 0:
        return neg
    if counts[0] != counts[1]:
        return pos if counts[0] > counts[1] else neg
    return min(labels, key=str)


def train_nb(
    vectors: Sequence[FeatureVector],
    labels: Sequence[str],
    smoothing: float = 1.0,
    vocab_size: int | None = None,
    classes: tuple[str, str] | None = None,
) -> NBModel:
    """Fit multinomial NB with additive smoothing over m features.

    loglik(c, i) = log((sum_{p in c} x_i^p + a) / (sum_{p in c} sum_j x_j^p + a*m))

    Feature values must be non-negative but may be fractional (the smoothed
    estimator is well-defined for real-valued "counts").
    """
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels must have equal length")
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    if classes is None:
        distinct = sorted(set(labels), key=str)
        if len(distinct) != 2:
            raise ValueError(f"expected exactly 2 classes in labels, got {distinct}")
        classes = (distinct[1], distinct[0])  # larger tag plays the positive role
    if vocab_size is None:
        vocab_size = 1 + max((i for v in vectors for i in v.values), default=-1)
    for cls in classes:
        if cls not in labels:
            raise ValueError(f"class {cls!r} has no training examples")
    for vec in vectors:
        for idx, val in vec.values.items():
            if val < 0:
                raise ValueError(f"negative feature value {val} at index {idx}")
            if not 0 <= idx < vocab_size:
                raise ValueError(f"index {idx} out of range for vocab_size {vocab_size}")

    n_total = len(labels)
    class_log_prior: dict[str, float] = {}
    feature_log_likelihood: dict[str, np.ndarray] = {}
    class_counts: dict[str, int] = {}
    for cls in classes:
        sums = np.zeros(vocab_size, dtype=np.float64)
        n_cls = 0
        for vec, lab in zip(vectors, labels):
            if lab != cls:
                continue
            n_cls += 1
            for idx, val in vec.values.items():
                sums[idx] += val
        class_counts[cls] = n_cls
        class_log_prior[cls] = math.log(n_cls / n_total)
        denom = sums.sum() + smoothing * vocab_size
        feature_log_likelihood[cls] = np.log((sums + smoothing) / denom)
    return NBModel(
        classes=classes,
        class_log_prior=class_log_prior,
        feature_log_likelihood=feature_log_likelihood,
        smoothing=smoothing,
        vocab_size=vocab_size,
        class_counts=class_counts,
    )


def predict_nb(model: NBModel, x: FeatureVector) -> Prediction:
    """Score = log-posterior(positive class) - log-posterior(negative class)."""
    pos, neg = model.classes
    score = model.class_log_prior[pos] - model.class_log_prior[neg]
    lik_pos = model.feature_log_likelihood[pos]
    lik_neg = model.feature_log_likelihood[neg]
    for idx, val in x.values.items():
        if val < 0:
            raise ValueError(f"negative feature value {val} at index {idx}")
        if not 0 <= idx < model.vocab_size:
            raise ValueError(f"index {idx} out of range for vocab_size {model.vocab_size}")
        score += val * (lik_pos[idx] - lik_neg[idx])
    counts = (model.class_counts[pos], model.class_counts[neg])
    return Prediction(label=decide(score, model.classes, counts), score=score)


@dataclass(frozen=True)
class SVMHyperparams:
    lambda_: float
    epochs: int
    seed: int


@dataclass(frozen=True)
class SVMModel:
    weights: np.ndarray
    bias: float
    hyperparams: SVMHyperparams
    n_pos: int
    n_neg: int

    @property
    def vocab_size(self) -> int:
        return int(self.weights.shape[0])


def _as_arrays(vectors: Sequence[FeatureVector]) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for vec in vectors:
        idx = np.fromiter(vec.values.keys(), dtype=np.int64, count=len(vec.values))
        val = np.fromiter(vec.values.values(), dtype=np.float64, count=len(vec.values))
        out.append((idx, val))
    return out


def svm_objective(
    weights: np.ndarray,
    bias: float,
    vectors: Sequence[FeatureVector],
    labels: Sequence[int],
    lambda_: float,
) -> float:
    """Primal soft-margin objective (lambda/2)||w||^2 + mean hinge loss."""
    total = 0.0
    for vec, y in zip(vectors, labels):
        margin = bias
        for idx, val in vec.values.items():
            margin += weights[idx] * val
        total += max(0.0, 1.0 - y * margin)
    return 0.5 * lambda_ * float(weights @ weights) + total / len(vectors)


def svm_objective_gradient(
    weights: np.ndarray,
    bias: float,
    vectors: Sequence[FeatureVector],
    labels: Sequence[int],
    lambda_: float,
) -> tuple[np.ndarray, float]:
    """Subgradient of the primal objective at (w, b).

    At a hinge kink (margin exactly 1) the flat branch is chosen; callers doing
    finite-difference checks must skip those coordinates.
    """
    grad_w = lambda_ * weights.copy()
    grad_b = 0.0
    n = len(vectors)
    for vec, y in zip(vectors, labels):
        margin = bias
        for idx, val in vec.values.items():
            margin += weights[idx] * val
        if y * margin < 1.0:
            for idx, val in vec.values.items():
                grad_w[idx] -= y * val / n
            grad_b -= y / n
    return grad_w, grad_b


def train_svm(
    vectors: Sequence[FeatureVector],
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
    vocab_size: int | None = None,
) -> SVMModel:
    """Stochastic subgradient descent on the primal objective, averaged iterates.

    Per step t: eta = 1/(lambda*t); w <- (1 - 1/t) w, plus eta*y*x and b <- b + eta*y
    on margin violation. The returned model averages (w, b) over all steps.
    Example order is reshuffled every epoch from a generator seeded once, so the
    whole trajectory is a pure function of (data, hyperparameters, seed).
    """
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels must have equal length")
    if not vectors:
        raise ValueError("cannot train on zero examples")
    if lambda_ <= 0:
        raise ValueError(f"lambda must be positive, got {lambda_}")
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    labs = [int(y) for y in labels]
    if set(labs) != {-1, 1}:
        raise ValueError(f"labels must contain both +1 and -1, got {sorted(set(labs))}")
    if vocab_size is None:
        vocab_size = 1 + max((i for v in vectors for i in v.values), default=-1)
    data = _as_arrays(vectors)
    for idx, val in data:
        if not np.all(np.isfinite(val)):
            raise ValueError("non-finite feature value in training data")
        if len(idx) and (idx.min() < 0 or idx.max() >= vocab_size):
            raise ValueError(f"feature index out of range for vocab_size {vocab_size}")

    rng = np.random.default_rng(seed)
    n = len(data)
    w = np.zeros(vocab_size, dtype=np.float64)
    b = 0.0
    w_sum = np.zeros(vocab_size, dtype=np.float64)
    b_sum = 0.0
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for j in order:
            t += 1
            idx, val = data[j]
            y = labs[j]
            margin = float(w[idx] @ val) + b if len(idx) else b
            eta = 1.0 / (lambda_ * t)
            w *= 1.0 - 1.0 / t
            if y * margin < 1.0:
                w[idx] += eta * y * val
                b += eta * y
            w_sum += w
            b_sum += b
    n_pos = sum(1 for y in labs if y == 1)
    return SVMModel(
        weights=w_sum / t,
        bias=b_sum / t,
        hyperparams=SVMHyperparams(lambda_=lambda_, epochs=epochs, seed=seed),
        n_pos=n_pos,
        n_neg=n - n_pos,
    )


def predict_svm(model: SVMModel, x: FeatureVector) -> Prediction:
    """Score = w.x + b; label +1 iff score > 0, with the deterministic tie rule."""
    score = model.bias
    for idx, val in x.values.items():
        if not 0 <= idx < model.vocab_size:
            raise ValueError(f"index {idx} out of range for vocab_size {model.vocab_size}")
        if not math.isfinite(val):
            raise ValueError(f"non-finite feature value {val} at index {idx}")
        score += float(model.weights[idx]) * val
    return Prediction(label=decide(score, (1, -1), (model.n_pos, model.n_neg)), score=score)
