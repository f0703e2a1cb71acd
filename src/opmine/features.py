"""Bag-of-features representation: n-gram dictionary, rule-bigram transforms, metrics.

Four metrics score a post against a fixed dictionary of m n-grams:

  presence_i  = 1 if t_i != 0 else absent
  count_i     = t_i
  frequency_i = t_i / sum_j t_j           (over the post's in-dictionary entries)
  ifreq_i     = frequency_i * ln(n_docs / doc_freq_i)

where t_i is the (possibly rule-adjusted, hence signed) occurrence count of the
i-th n-gram in the post. ``metric_items`` gives the post's sparse vector as
(i, value) pairs that leave out zero values; ``compute_metric`` as a dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional, Sequence

RULE_MODE_OFF = "off"
RULE_MODE_TAG = "tag"
RULE_MODE_SIGNED = "signed-count"
RULE_MODES = (RULE_MODE_OFF, RULE_MODE_TAG, RULE_MODE_SIGNED)

METRIC_PRESENCE = "presence"
METRIC_COUNT = "count"
METRIC_FREQUENCY = "frequency"
METRIC_IFREQUENCY = "ifrequency"
METRICS = (METRIC_PRESENCE, METRIC_COUNT, METRIC_FREQUENCY, METRIC_IFREQUENCY)

NGRAM_SIZES = {
    "unigrams": (1,),
    "bigrams": (2,),
    "unigrams+bigrams": (1, 2),
}

NEG_TAG = "NEG_"
EMP_TAG = "EMP_"

# Tokens hold no space (they are runs of letters and digits, stems their prefixes,
# tags only prefix NEG_/EMP_), so an n-gram is its tokens joined by one space.
NGRAM_SEP = " "
NGram = str


class ZeroTotalCountError(ValueError):
    """Frequency metrics are undefined when the post's counts sum to zero."""


@dataclass(frozen=True)
class RuleLexicons:
    """Negation and emphasis word sets; a word may not belong to both."""

    negatory: frozenset[str] = frozenset()
    emphasizer: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.negatory & self.emphasizer
        if overlap:
            raise ValueError(f"words in both rule lexicons: {sorted(overlap)}")

    @property
    def words(self) -> frozenset[str]:
        return self.negatory | self.emphasizer


@dataclass(frozen=True)
class FeatureDictionary:
    """Ordered n-gram -> dense index map with training document frequencies."""

    entries: dict[NGram, int] = field(hash=False)
    doc_freq: tuple[int, ...]
    n_docs: int
    ngram_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.doc_freq) != len(self.entries):
            raise ValueError("doc_freq length must match the number of entries")
        if self.doc_freq and not (min(self.doc_freq) >= 1 and max(self.doc_freq) <= self.n_docs):
            # the scan only names the first bad index
            i, df = next((i, df) for i, df in enumerate(self.doc_freq) if not 1 <= df <= self.n_docs)
            raise ValueError(f"doc_freq[{i}]={df} outside [1, n_docs={self.n_docs}]")

    def __len__(self) -> int:
        return len(self.entries)


def _ngrams(tokens: Sequence[str], n: int) -> Iterable[NGram]:
    """The post's n-grams of one size, in order."""
    return tokens if n == 1 else map(NGRAM_SEP.join, zip(tokens, *[tokens[i:] for i in range(1, n)]))


def _rule_walk(tokens: Sequence[str], rules: RuleLexicons) -> tuple[list[str], list[int]]:
    """Consume rule words and attach weights to the tokens they modify.

    Returns the surviving tokens and, position by position, their weights: +2
    for emphasized, -1 for negated, +1 otherwise. A rule word binds the next
    non-rule token; between stacked rule words the nearer one wins and the
    farther is dropped. A trailing rule word, having nothing to modify, stays
    in the stream as an ordinary token.
    """
    kept: list[str] = []
    weights: list[int] = []
    pending = 1  # weight of the next non-rule token
    pending_word: Optional[str] = None
    for token in tokens:
        if token in rules.negatory:
            pending, pending_word = -1, token
        elif token in rules.emphasizer:
            pending, pending_word = 2, token
        else:
            kept.append(token)
            weights.append(pending)
            pending, pending_word = 1, None
    if pending_word is not None:
        kept.append(pending_word)
        weights.append(1)
    return kept, weights


def apply_rule_tags(tokens: Sequence[str], rules: RuleLexicons) -> list[str]:
    """Merge rule words into their successors: "not good" -> "NEG_good"."""
    merged = []
    for token, weight in zip(*_rule_walk(tokens, rules)):
        if weight == -1:
            merged.append(NEG_TAG + token)
        elif weight == 2:
            merged.append(EMP_TAG + token)
        else:
            merged.append(token)
    return merged


def rule_adjusted_tokens(tokens: Sequence[str], rules: Optional[RuleLexicons], rule_mode: str) -> list[str]:
    """Token stream as seen by the dictionary builder under the given rule mode.

    Occurrence weights never reach the dictionary: it counts raw occurrences of
    the surviving tokens, so doc_freq keeps its "contains at least once" meaning.
    """
    if rule_mode == RULE_MODE_OFF:
        return list(tokens)
    if rules is None:
        raise ValueError(f"rule_mode={rule_mode!r} requires rule lexicons")
    if rule_mode == RULE_MODE_TAG:
        return apply_rule_tags(tokens, rules)
    if rule_mode == RULE_MODE_SIGNED:
        return _rule_walk(tokens, rules)[0]
    raise ValueError(f"unknown rule_mode {rule_mode!r}")


def build_dictionary(
    training_posts: Sequence[Sequence[str]],
    sizes: tuple[int, ...],
    min_count: int,
) -> FeatureDictionary:
    """Index every n-gram of the given sizes with total occurrence count >= min_count.

    Indices follow first-occurrence order over the training posts, so the
    dictionary is a pure function of the input sequence. Pruning is by total
    corpus occurrences, not document frequency.
    """
    if not training_posts:
        raise ValueError("cannot build a dictionary from zero training posts")
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    totals: dict[NGram, int] = {}
    doc_freq: dict[NGram, int] = {}
    for tokens in training_posts:
        seen: set[NGram] = set()
        for gram in chain.from_iterable(_ngrams(tokens, n) for n in sizes):
            totals[gram] = totals.get(gram, 0) + 1
            seen.add(gram)
        for gram in seen:
            doc_freq[gram] = doc_freq.get(gram, 0) + 1
    entries = {gram: idx for idx, gram in enumerate(g for g, c in totals.items() if c >= min_count)}
    if not entries:
        raise ValueError(
            f"no n-gram reached min_count={min_count}; configuration is untrainable"
        )
    return FeatureDictionary(
        entries=entries,
        doc_freq=tuple(doc_freq[g] for g in entries),
        n_docs=len(training_posts),
        ngram_sizes=tuple(sizes),
    )


def post_ngrams(
    tokens: Sequence[str],
    sizes: Sequence[int],
    rules: Optional[RuleLexicons] = None,
    rule_mode: str = RULE_MODE_OFF,
) -> tuple[list[NGram], Optional[list[int]]]:
    """The post's n-grams of the given sizes, in counting order, and in
    signed-count mode each one's occurrence weight (None: every weight is +1).

    tag mode rewrites the stream (rule word merged into its successor);
    signed-count mode weights each modified unigram occurrence (+2 emphasized,
    -1 negated). N-grams longer than one token always weigh +1 per occurrence
    over the surviving stream.
    """
    if rule_mode == RULE_MODE_SIGNED and rules is not None:
        stream, unigram_weights = _rule_walk(tokens, rules)
        grams: list[NGram] = []
        weights: list[int] = []
        for n in sizes:
            grams.extend(_ngrams(stream, n))
            weights.extend(unigram_weights if n == 1 else repeat(1, len(grams) - len(weights)))
        return grams, weights
    stream = rule_adjusted_tokens(tokens, rules, rule_mode)
    return list(chain.from_iterable(_ngrams(stream, n) for n in sizes)), None


def count_ngrams(
    grams: Sequence[NGram], weights: Optional[Sequence[int]], dictionary: FeatureDictionary
) -> dict[int, int]:
    """Sparse counts of the in-dictionary n-grams of ``post_ngrams``; with
    weights, entries whose weights cancel to zero are dropped."""
    lookup = dictionary.entries.get
    counts: dict[int, int] = {}
    for gram, weight in zip(grams, repeat(1) if weights is None else weights):
        idx = lookup(gram)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + weight
    if weights is not None:
        return {i: c for i, c in counts.items() if c != 0}
    return counts


def extract_counts(
    tokens: Sequence[str],
    dictionary: FeatureDictionary,
    rules: Optional[RuleLexicons] = None,
    rule_mode: str = RULE_MODE_OFF,
) -> dict[int, int]:
    """Sparse signed occurrence counts of in-dictionary n-grams for one post
    (see ``post_ngrams`` for the rule modes)."""
    return count_ngrams(*post_ngrams(tokens, dictionary.ngram_sizes, rules, rule_mode), dictionary)


def metric_items(
    metric: str, counts: Mapping[int, int], dictionary: FeatureDictionary
) -> Optional[list[tuple[int, float]]]:
    """The post's non-zero metric values as (index, value) pairs in counts
    order; None for a frequency metric whose counts sum to zero."""
    if metric == METRIC_PRESENCE:
        m = len(dictionary)
        for idx in counts:
            if not 0 <= idx < m:
                raise ValueError(f"index {idx} out of range for dictionary size {m}")
        return [(i, 1.0) for i, c in counts.items() if c != 0]
    if metric == METRIC_COUNT:
        return [(i, float(c)) for i, c in counts.items() if c != 0]
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    total = sum(counts.values())
    if total == 0:
        return None
    if metric == METRIC_FREQUENCY:
        return [(i, c / total) for i, c in counts.items() if c != 0]
    n_docs, doc_freq = dictionary.n_docs, dictionary.doc_freq
    return [
        (i, v)
        for i, c in counts.items()
        if c != 0 and (v := c / total * math.log(n_docs / doc_freq[i])) != 0.0
    ]


def compute_metric(
    metric: str, counts: Mapping[int, int], dictionary: FeatureDictionary
) -> dict[int, float]:
    """The post's metric vector {index: value} (see ``metric_items``)."""
    items = metric_items(metric, counts, dictionary)
    if items is None:
        raise ZeroTotalCountError("total in-dictionary count is zero")
    return dict(items)
