"""Test-only metric reference: one function per metric, and the dict chain from
a post's counts to the vector a stage fits and the score it gives.

``opmine.features.metric_items`` computes every metric in one function, and
``opmine.pipeline._classifier_vector`` and ``_score`` apply the vector rule to
its (index, value) pairs. The chain below builds each step's dict instead, as
the pipeline once did, so both must agree bit for bit: the same expressions,
the same filters and the same order.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from opmine.features import FeatureDictionary, ZeroTotalCountError


def metric_presence(counts: Mapping[int, int], m: int) -> dict[int, float]:
    for idx in counts:
        if not 0 <= idx < m:
            raise ValueError(f"index {idx} out of range for dictionary size {m}")
    return {i: 1.0 for i, c in counts.items() if c != 0}


def metric_count(counts: Mapping[int, int]) -> dict[int, float]:
    return {i: float(c) for i, c in counts.items() if c != 0}


def metric_frequency(counts: Mapping[int, int]) -> dict[int, float]:
    total = sum(counts.values())
    if total == 0:
        raise ZeroTotalCountError("total in-dictionary count is zero")
    return {i: c / total for i, c in counts.items() if c != 0}


def metric_ifrequency(counts: Mapping[int, int], dictionary: FeatureDictionary) -> dict[int, float]:
    values = {}
    for i, f in metric_frequency(counts).items():
        idf = math.log(dictionary.n_docs / dictionary.doc_freq[i])
        if f * idf != 0.0:
            values[i] = f * idf
    return values


def metric_vector(
    metric: str, counts: Mapping[int, int], dictionary: FeatureDictionary
) -> Optional[dict[int, float]]:
    """The metric's dict; None for a zero total count."""
    try:
        if metric == "presence":
            return metric_presence(counts, len(dictionary))
        if metric == "count":
            return metric_count(counts)
        if metric == "frequency":
            return metric_frequency(counts)
        if metric == "ifrequency":
            return metric_ifrequency(counts, dictionary)
    except ZeroTotalCountError:
        return None
    raise ValueError(f"unknown metric {metric!r}")


def classifier_vector(raw: Optional[dict[int, float]], classifier: str) -> dict[int, float]:
    """The vector a stage fits or scores: empty for a zero total count, and
    NB keeps only the positive values."""
    if raw is None:
        return {}
    if classifier == "nb":
        return {i: v for i, v in raw.items() if v > 0}
    return raw


def score(bias: float, weights: Sequence[float], vector: dict[int, float]) -> float:
    """bias + weights . vector, summed in the vector's order."""
    total = bias
    for idx, val in vector.items():
        total += val * weights[idx]
    return total
