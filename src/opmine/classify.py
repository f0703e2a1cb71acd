"""Two from-scratch binary classifiers over sparse feature vectors.

Multinomial Naive Bayes with additive smoothing, and a linear soft-margin SVM
trained by seeded stochastic subgradient descent (step 1/(lambda*t), averaged
iterates, unregularized bias). Both are deterministic for fixed inputs.

The SVM never stores w itself: w_t = u_t/(lambda*t), where u_t sums y*x over
the margin-violating steps, and the average of w_1..w_T follows from u and one
harmonic-weighted sum z (see ``train_svm``). Each step therefore costs O(nnz)
of its post, not O(m) of the dictionary.

Both fit kernels keep their loop operands Python floats (labels, step counter,
list accumulators): CPython 3.11+ specializes float-float arithmetic, not mixed
int/float or numpy scalars, and the ints replaced convert to doubles exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np


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
    vectors: Sequence[dict[int, float]],
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
        vocab_size = 1 + max((i for v in vectors for i in v), default=-1)
    strays = sorted(set(labels) - set(classes), key=str)
    if strays:
        raise ValueError(f"label {strays[0]!r} is not one of the classes {classes}")
    class_counts = {cls: labels.count(cls) for cls in classes}
    for cls, n_cls in class_counts.items():
        if not n_cls:
            raise ValueError(f"class {cls!r} has no training examples")
    # one float list per class, each added to in post order
    class_sums = {cls: [0.0] * vocab_size for cls in classes}
    for vec, lab in zip(vectors, labels):
        sums = class_sums[lab]
        for idx, val in vec.items():
            if not 0 <= val < math.inf:
                kind = "negative" if math.isfinite(val) else "non-finite"
                raise ValueError(f"{kind} feature value {val} at index {idx}")
            if not 0 <= idx < vocab_size:
                raise ValueError(f"index {idx} out of range for vocab_size {vocab_size}")
            sums[idx] += val

    class_log_prior = {cls: math.log(n_cls / len(labels)) for cls, n_cls in class_counts.items()}
    feature_log_likelihood: dict[str, np.ndarray] = {}
    for cls in classes:
        sums = np.array(class_sums[cls])
        denom = sums.sum() + smoothing * vocab_size
        feature_log_likelihood[cls] = np.log((sums + smoothing) / denom)
    return NBModel(
        classes=classes,
        class_log_prior=class_log_prior,
        feature_log_likelihood=feature_log_likelihood,
        vocab_size=vocab_size,
        class_counts=class_counts,
    )


def predict_nb(model: NBModel, x: dict[int, float]) -> Prediction:
    """Score = log-posterior(positive class) - log-posterior(negative class)."""
    pos, neg = model.classes
    score = model.class_log_prior[pos] - model.class_log_prior[neg]
    lik_pos = model.feature_log_likelihood[pos]
    lik_neg = model.feature_log_likelihood[neg]
    for idx, val in x.items():
        if val < 0:
            raise ValueError(f"negative feature value {val} at index {idx}")
        if not 0 <= idx < model.vocab_size:
            raise ValueError(f"index {idx} out of range for vocab_size {model.vocab_size}")
        score += val * (lik_pos[idx] - lik_neg[idx])
    counts = (model.class_counts[pos], model.class_counts[neg])
    return Prediction(label=decide(score, model.classes, counts), score=score)


@dataclass(frozen=True)
class SVMModel:
    weights: np.ndarray
    bias: float
    n_pos: int
    n_neg: int

    @property
    def vocab_size(self) -> int:
        return int(self.weights.shape[0])


def _svm_inputs(
    vectors: Sequence[dict[int, float]],
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    vocab_size: int | None,
) -> tuple[list[float], int]:
    """Check one SVM fit's inputs; return its labels as +-1.0 and its vocab size."""
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels must have equal length")
    if not vectors:
        raise ValueError("cannot train on zero examples")
    if lambda_ <= 0:
        raise ValueError(f"lambda must be positive, got {lambda_}")
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    if not all(y == 1 or y == -1 for y in labels) or 1 not in labels or -1 not in labels:
        raise ValueError(f"labels must be +1 or -1 and both occur: {sorted(set(labels), key=str)}")
    if vocab_size is None:
        vocab_size = 1 + max((i for v in vectors for i in v), default=-1)
    for values in vectors:
        for idx, val in values.items():
            if not math.isfinite(val):
                raise ValueError("non-finite feature value in training data")
            if not 0 <= idx < vocab_size:
                raise ValueError(f"feature index out of range for vocab_size {vocab_size}")
    return [float(y) for y in labels], vocab_size


def _svm_model(
    vectors: Sequence[dict[int, float]],
    labs: list[float],
    u: list[float],
    c: list[float],
    h: float,
    b_sum: float,
    lambda_: float,
    t: float,
) -> SVMModel:
    """The averaged model after T = t steps: weights (H_T*u - z)/(lambda*T), with
    z expanded from the per-post coefficients c, and bias b_sum/T."""
    z = [0.0] * len(u)
    for values, c_j, y in zip(vectors, c, labs):
        for idx, val in values.items():
            z[idx] += c_j * y * val
    n_pos = labs.count(1.0)
    return SVMModel(
        weights=(h * np.array(u) - np.array(z)) / (lambda_ * t),
        bias=b_sum / t,
        n_pos=n_pos,
        n_neg=len(labs) - n_pos,
    )


def train_svm(
    vectors: Sequence[dict[int, float]],
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
    vocab_size: int | None = None,
) -> SVMModel:
    """Stochastic subgradient descent on the primal objective, averaged iterates.

    Per step t: eta = 1/(lambda*t); w <- (1 - 1/t) w, plus eta*y*x and b <- b + eta*y
    on margin violation. The returned model averages (w, b) over all T steps.
    Example order is reshuffled every epoch from a generator seeded once, so the
    whole trajectory is a pure function of (data, hyperparameters, seed).

    Since w_0 = 0 and the decays telescope, w_t = u_t/(lambda*t) exactly, where
    u_t sums y*x over the violating steps s <= t. With H_t = 1 + 1/2 + ... + 1/t,
    sum_{t<=T} w_t = (H_T*u_T - z)/lambda, where z sums H_{s-1}*y*x over the
    violating steps; z is gathered per post (c_j sums H_{s-1} over post j's
    violating steps) and expanded once at the end. So a step reads and writes
    only its post's non-zero features: O(nnz), not O(m).
    """
    labs, vocab_size = _svm_inputs(vectors, labels, lambda_, epochs, vocab_size)
    rng = np.random.default_rng(seed)
    n = len(vectors)
    u = [0.0] * vocab_size
    c = [0.0] * n
    h = 0.0  # H_{t-1} during step t
    b = 0.0
    b_sum = 0.0
    t = 0.0  # float like the labels: int*float is not specialized, and t stays far below 2**53
    for _ in range(epochs):
        for j in rng.permutation(n).tolist():
            t += 1.0
            values = vectors[j]
            y = labs[j]
            dot = 0.0
            for idx, val in values.items():
                dot += u[idx] * val
            margin = dot / (lambda_ * (t - 1.0)) + b if t > 1.0 else b
            if y * margin < 1.0:
                for idx, val in values.items():
                    u[idx] += y * val
                c[j] += h
                b += y / (lambda_ * t)
            b_sum += b
            h += 1.0 / t
    return _svm_model(vectors, labs, u, c, h, b_sum, lambda_, t)


def train_svm_pair(
    vectors_a: Sequence[dict[int, float]],
    vectors_b: Sequence[dict[int, float]],
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
    vocab_size: int | None = None,
) -> tuple[SVMModel, SVMModel]:
    """``train_svm`` on vectors_a and on vectors_b: the same two models, bit for bit.

    When each post has the same indices in the same order in both sets, both
    fits walk the same example order, step counter and harmonic sum in one
    loop: it carries two sets of (u, c, b, b_sum), each updated by the
    arithmetic of ``train_svm``, and one (idx, a_val, b_val) row per non-zero
    serves both dots. Other sets are fitted by two ``train_svm`` calls.
    """
    if list(map(list, vectors_a)) != list(map(list, vectors_b)):
        return (
            train_svm(vectors_a, labels, lambda_, epochs, seed, vocab_size),
            train_svm(vectors_b, labels, lambda_, epochs, seed, vocab_size),
        )
    labs, vocab_size = _svm_inputs(vectors_a, labels, lambda_, epochs, vocab_size)
    _svm_inputs(vectors_b, labels, lambda_, epochs, vocab_size)
    rows = [tuple(zip(a, a.values(), b.values())) for a, b in zip(vectors_a, vectors_b)]
    rng = np.random.default_rng(seed)
    n = len(rows)
    ua = [0.0] * vocab_size
    ub = [0.0] * vocab_size
    ca = [0.0] * n
    cb = [0.0] * n
    h = 0.0
    ba = bb = 0.0
    ba_sum = bb_sum = 0.0
    t = 0.0
    for _ in range(epochs):
        for j in rng.permutation(n).tolist():
            t += 1.0
            row = rows[j]
            y = labs[j]
            dot_a = dot_b = 0.0
            for idx, val_a, val_b in row:
                dot_a += ua[idx] * val_a
                dot_b += ub[idx] * val_b
            if t > 1.0:
                scale = lambda_ * (t - 1.0)
                margin_a = dot_a / scale + ba
                margin_b = dot_b / scale + bb
            else:
                margin_a, margin_b = ba, bb
            if y * margin_a < 1.0:
                for idx, val_a, _ in row:
                    ua[idx] += y * val_a
                ca[j] += h
                ba += y / (lambda_ * t)
            if y * margin_b < 1.0:
                for idx, _, val_b in row:
                    ub[idx] += y * val_b
                cb[j] += h
                bb += y / (lambda_ * t)
            ba_sum += ba
            bb_sum += bb
            h += 1.0 / t
    return (
        _svm_model(vectors_a, labs, ua, ca, h, ba_sum, lambda_, t),
        _svm_model(vectors_b, labs, ub, cb, h, bb_sum, lambda_, t),
    )


def predict_svm(model: SVMModel, x: dict[int, float]) -> Prediction:
    """Score = w.x + b; label +1 iff score > 0, with the deterministic tie rule."""
    score = model.bias
    for idx, val in x.items():
        if not 0 <= idx < model.vocab_size:
            raise ValueError(f"index {idx} out of range for vocab_size {model.vocab_size}")
        if not math.isfinite(val):
            raise ValueError(f"non-finite feature value {val} at index {idx}")
        score += float(model.weights[idx]) * val
    return Prediction(label=decide(score, (1, -1), (model.n_pos, model.n_neg)), score=score)
