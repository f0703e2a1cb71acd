"""Test-only SVM references: the dense averaged-SGD loop, the int-typed lazy loop
and the primal objective.

``train_svm_dense`` is the straightforward O(steps * m) form of the trainer:
every step rescales and accumulates the whole weight vector.
``opmine.classify.train_svm`` follows the same trajectory while touching only
each post's non-zero features, so the two must agree up to rounding.

``train_svm_lazy_int`` is that lazy loop with int labels and an int step
counter. ``train_svm`` keeps both as floats, which changes no operand's value,
so the two must agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from opmine.classify import SVMModel


def svm_objective(
    weights: np.ndarray,
    bias: float,
    vectors: Sequence[dict[int, float]],
    labels: Sequence[int],
    lambda_: float,
) -> float:
    """Primal soft-margin objective (lambda/2)||w||^2 + mean hinge loss."""
    total = 0.0
    for vec, y in zip(vectors, labels):
        margin = bias
        for idx, val in vec.items():
            margin += weights[idx] * val
        total += max(0.0, 1.0 - y * margin)
    return 0.5 * lambda_ * float(weights @ weights) + total / len(vectors)


def svm_objective_gradient(
    weights: np.ndarray,
    bias: float,
    vectors: Sequence[dict[int, float]],
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
        for idx, val in vec.items():
            margin += weights[idx] * val
        if y * margin < 1.0:
            for idx, val in vec.items():
                grad_w[idx] -= y * val / n
            grad_b -= y / n
    return grad_w, grad_b


def train_svm_dense(
    vectors: Sequence[dict[int, float]],
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
    vocab_size: int | None = None,
    margins: list[float] | None = None,
) -> SVMModel:
    """Stochastic subgradient descent on the primal objective, averaged iterates.

    Per step t: eta = 1/(lambda*t); w <- (1 - 1/t) w, plus eta*y*x and b <- b + eta*y
    on margin violation. The returned model averages (w, b) over all steps.
    If ``margins`` is given, each step's y*(w.x + b) is appended to it.
    """
    labs = [int(y) for y in labels]
    if vocab_size is None:
        vocab_size = 1 + max((i for v in vectors for i in v), default=-1)
    data = [
        (
            np.fromiter(vec.keys(), dtype=np.int64, count=len(vec)),
            np.fromiter(vec.values(), dtype=np.float64, count=len(vec)),
        )
        for vec in vectors
    ]
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
            if margins is not None:
                margins.append(y * margin)
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
        n_pos=n_pos,
        n_neg=n - n_pos,
    )


def train_svm_lazy_int(
    vectors: Sequence[dict[int, float]],
    labels: Sequence[int],
    lambda_: float,
    epochs: int,
    seed: int,
    vocab_size: int | None = None,
) -> SVMModel:
    """The lazy averaged-SGD loop of ``train_svm`` with int labels and step counter."""
    labs = [int(y) for y in labels]
    if vocab_size is None:
        vocab_size = 1 + max((i for v in vectors for i in v), default=-1)
    rng = np.random.default_rng(seed)
    n = len(vectors)
    u = [0.0] * vocab_size
    c = [0.0] * n
    h = 0.0
    b = 0.0
    b_sum = 0.0
    t = 0
    for _ in range(epochs):
        for j in rng.permutation(n).tolist():
            t += 1
            values = vectors[j]
            y = labs[j]
            dot = 0.0
            for idx, val in values.items():
                dot += u[idx] * val
            margin = dot / (lambda_ * (t - 1)) + b if t > 1 else b
            if y * margin < 1.0:
                for idx, val in values.items():
                    u[idx] += y * val
                c[j] += h
                b += y / (lambda_ * t)
            b_sum += b
            h += 1.0 / t
    z = [0.0] * vocab_size
    for values, c_j, y in zip(vectors, c, labs):
        for idx, val in values.items():
            z[idx] += c_j * y * val
    n_pos = sum(1 for y in labs if y == 1)
    return SVMModel(
        weights=(h * np.array(u) - np.array(z)) / (lambda_ * t),
        bias=b_sum / t,
        n_pos=n_pos,
        n_neg=n - n_pos,
    )
