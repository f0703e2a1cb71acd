import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine.features import (
    NGRAM_SIZES,
    RULE_MODES,
    FeatureDictionary,
    RuleLexicons,
    ZeroTotalCountError,
    apply_rule_tags,
    build_dictionary,
    compute_metric,
    extract_counts,
    metric_items,
    rule_adjusted_tokens,
)

NEG = RuleLexicons(negatory=frozenset({"not"}))
EMP = RuleLexicons(emphasizer=frozenset({"very"}))
BOTH = RuleLexicons(negatory=frozenset({"not"}), emphasizer=frozenset({"very"}))


class TestBuildDictionary:
    def test_min_count_pruning(self):
        d = build_dictionary([["a", "b"], ["a", "c"], ["a"]], sizes=(1,), min_count=2)
        assert list(d.entries) == ["a"]
        assert d.doc_freq == (3,)
        assert d.n_docs == 3

    def test_no_pruning(self):
        d = build_dictionary([["a", "b"], ["a", "c"], ["a"]], sizes=(1,), min_count=1)
        assert set(d.entries) == {"a", "b", "c"}

    def test_adjacent_bigrams(self):
        d = build_dictionary([["a", "b", "c"]], sizes=(2,), min_count=1)
        assert set(d.entries) == {"a b", "b c"}

    def test_mixed_sizes(self):
        d = build_dictionary([["a", "b"]], sizes=(1, 2), min_count=1)
        assert set(d.entries) == {"a", "b", "a b"}

    def test_total_occurrences_not_doc_freq(self):
        # "b" appears 3 times in one post: total-count pruning keeps it at min_count=3
        d = build_dictionary([["b", "b", "b"], ["a"], ["a"], ["a"]], sizes=(1,), min_count=3)
        assert set(d.entries) == {"a", "b"}
        assert d.doc_freq[d.entries["b"]] == 1

    def test_everything_pruned_is_an_error(self):
        with pytest.raises(ValueError, match="untrainable"):
            build_dictionary([["a"], ["b"]], sizes=(1,), min_count=5)

    def test_indices_dense_and_ordered(self):
        d = build_dictionary([["b", "a"], ["c", "a"]], sizes=(1,), min_count=1)
        assert list(d.entries.values()) == [0, 1, 2]
        assert list(d.entries) == ["b", "a", "c"]  # first-occurrence order


class TestRuleTransforms:
    def test_tag_merges_negation(self):
        assert apply_rule_tags(["not", "good"], NEG) == ["NEG_good"]

    def test_tag_merges_emphasis(self):
        assert apply_rule_tags(["very", "good"], EMP) == ["EMP_good"]

    def test_nearer_rule_word_binds(self):
        assert apply_rule_tags(["not", "very", "good"], BOTH) == ["EMP_good"]

    def test_trailing_rule_word_stays(self):
        assert apply_rule_tags(["good", "not"], BOTH) == ["good", "not"]

    def test_dictionary_sees_merged_tokens(self):
        streams = [rule_adjusted_tokens(["not", "good"], NEG, "tag")]
        d = build_dictionary(streams, sizes=(1,), min_count=1)
        assert "NEG_good" in d.entries

    def test_rules_required_for_non_off_modes(self):
        d = build_dictionary([["a"]], sizes=(1,), min_count=1)
        with pytest.raises(ValueError, match="rule"):
            extract_counts(["a"], d, rules=None, rule_mode="tag")
        with pytest.raises(ValueError, match="rule"):
            rule_adjusted_tokens(["a"], None, "signed-count")


class TestExtractCounts:
    def test_plain_counting(self):
        d = build_dictionary([["a", "b", "a"]], sizes=(1,), min_count=1)
        counts = extract_counts(["a", "b", "a", "z"], d)
        assert counts == {d.entries["a"]: 2, d.entries["b"]: 1}

    def test_tag_mode_counts_merged_unigram(self):
        streams = [rule_adjusted_tokens(["not", "good"], NEG, "tag")]
        d = build_dictionary(streams, sizes=(1,), min_count=1)
        counts = extract_counts(["not", "good"], d, NEG, "tag")
        assert counts == {d.entries["NEG_good"]: 1}

    def test_signed_emphasis_counts_double(self):
        d = build_dictionary([["good", "good"]], sizes=(1,), min_count=1)
        counts = extract_counts(["very", "good", "good"], d, EMP, "signed-count")
        assert counts == {d.entries["good"]: 3}  # 2 + 1

    def test_signed_negation_cancels(self):
        d = build_dictionary([["good", "good"]], sizes=(1,), min_count=1)
        counts = extract_counts(["not", "good", "good"], d, NEG, "signed-count")
        assert counts == {}  # -1 + 1 = 0, entry absent

    def test_signed_negation_alone_is_minus_one(self):
        d = build_dictionary([["good"]], sizes=(1,), min_count=1)
        counts = extract_counts(["not", "good"], d, NEG, "signed-count")
        assert counts == {d.entries["good"]: -1}

    def test_signed_bigrams_over_consumed_stream(self):
        d = build_dictionary([["good", "movie"]], sizes=(1, 2), min_count=1)
        counts = extract_counts(["not", "good", "movie"], d, NEG, "signed-count")
        assert counts[d.entries["good movie"]] == 1
        assert counts[d.entries["good"]] == -1
        assert counts[d.entries["movie"]] == 1

    def test_out_of_dictionary_ngrams_skipped(self):
        d = build_dictionary([["a"]], sizes=(1,), min_count=1)
        assert extract_counts(["z", "q"], d) == {}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "not", "very"]), max_size=15))
    def test_signed_mode_with_empty_lexicons_equals_off(self, tokens):
        empty = RuleLexicons()
        d = build_dictionary([["a", "b", "c", "not", "very"]], sizes=(1, 2), min_count=1)
        assert extract_counts(tokens, d, empty, "signed-count") == extract_counts(tokens, d)


def _dict_with(doc_freq, n_docs):
    entries = {f"w{i}": i for i in range(len(doc_freq))}
    return FeatureDictionary(
        entries=entries, doc_freq=tuple(doc_freq), n_docs=n_docs, ngram_sizes=(1,)
    )


def _sized(m):
    """A dictionary of m entries, for the metrics that read only its size."""
    return _dict_with(doc_freq=[1] * m, n_docs=1)


class TestMetrics:
    def test_presence(self):
        vec = compute_metric("presence", {3: 2, 7: 1}, _sized(10))
        assert vec == {3: 1.0, 7: 1.0}

    def test_presence_empty(self):
        assert compute_metric("presence", {}, _sized(4)) == {}

    def test_presence_of_signed_count(self):
        assert compute_metric("presence", {5: -1}, _sized(6)) == {5: 1.0}

    def test_count_identity(self):
        assert compute_metric("count", {3: 2}, _sized(4)) == {3: 2.0}
        assert compute_metric("count", {}, _sized(4)) == {}
        assert compute_metric("count", {5: -1}, _sized(6)) == {5: -1.0}

    def test_frequency(self):
        vec = compute_metric("frequency", {1: 2, 2: 1, 3: 1}, _sized(4))
        assert vec == {1: 0.5, 2: 0.25, 3: 0.25}

    def test_frequency_single_feature(self):
        assert compute_metric("frequency", {1: 5}, _sized(2)) == {1: 1.0}

    def test_frequency_zero_denominator(self):
        for metric in ("frequency", "ifrequency"):
            assert metric_items(metric, {1: 1, 2: -1}, _sized(3)) is None
            with pytest.raises(ZeroTotalCountError):
                compute_metric(metric, {1: 1, 2: -1}, _sized(3))

    def test_ifrequency_hand_value(self):
        # freq = 0.5 with n_docs/doc_freq = 10 gives 0.5 * ln(10)
        d = _dict_with(doc_freq=[10, 100], n_docs=100)
        vec = compute_metric("ifrequency", {0: 1, 1: 1}, d)
        assert vec[0] == pytest.approx(1.151292546497023, abs=1e-12)

    def test_ifrequency_full_document_frequency_vanishes(self):
        d = _dict_with(doc_freq=[10, 100], n_docs=100)
        vec = compute_metric("ifrequency", {0: 1, 1: 1}, d)
        assert 1 not in vec  # ln(100/100) = 0, zero never stored

    def test_ifrequency_single_doc_corpus_all_zero(self):
        d = _dict_with(doc_freq=[1, 1], n_docs=1)
        assert compute_metric("ifrequency", {0: 3, 1: 1}, d) == {}

    def test_presence_index_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            compute_metric("presence", {9: 1}, _sized(3))


counts_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=6), max_size=8
)


@settings(max_examples=200, deadline=None)
@given(counts_strategy)
def test_frequency_sums_to_one_for_nonnegative_counts(counts):
    if not counts:
        return
    vec = compute_metric("frequency", counts, _sized(10))
    assert sum(vec.values()) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(counts_strategy, st.integers(min_value=2, max_value=5))
def test_presence_invariant_under_count_scaling(counts, factor):
    scaled = {i: c * factor for i, c in counts.items()}
    assert compute_metric("presence", counts, _sized(10)) == compute_metric("presence", scaled, _sized(10))


# --- brute-force recount oracle -------------------------------------------

def brute_force_counts(tokens, dictionary):
    """Scan the token list once per dictionary entry; no shared code with extract_counts."""
    out = {}
    for gram, idx in dictionary.entries.items():
        parts = gram.split(" ")
        n = len(parts)
        hits = sum(1 for i in range(len(tokens) - n + 1) if tokens[i : i + n] == parts)
        if hits:
            out[idx] = hits
    return out


def brute_force_metric(metric, counts, dictionary):
    if metric == "presence":
        return {i: 1.0 for i, c in counts.items() if c != 0}
    if metric == "count":
        return {i: float(c) for i, c in counts.items()}
    total = sum(counts.values())
    freq = {i: c / total for i, c in counts.items()}
    if metric == "frequency":
        return freq
    out = {}
    for i, f in freq.items():
        v = f * math.log(dictionary.n_docs / dictionary.doc_freq[i])
        if v != 0.0:
            out[i] = v
    return out


@settings(max_examples=120, deadline=None)
@given(
    posts=st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12), min_size=2, max_size=6
    ),
    sizes=st.sampled_from([(1,), (2,), (1, 2)]),
)
def test_metrics_agree_with_brute_force(posts, sizes):
    try:
        dictionary = build_dictionary(posts, sizes=sizes, min_count=1)
    except ValueError:
        return  # e.g. bigrams requested but every post has a single token
    for tokens in posts:
        counts = extract_counts(tokens, dictionary)
        assert counts == brute_force_counts(tokens, dictionary)
        for metric in ("presence", "count"):
            assert compute_metric(metric, counts, dictionary) == brute_force_metric(
                metric, counts, dictionary
            )
        if sum(counts.values()) != 0:
            for metric in ("frequency", "ifrequency"):
                got = compute_metric(metric, counts, dictionary)
                want = brute_force_metric(metric, counts, dictionary)
                assert got.keys() == want.keys()
                for i in got:
                    assert got[i] == pytest.approx(want[i], abs=1e-12)


# --- rule-aware recount oracle ---------------------------------------------

def naive_rule_counts(tokens, dictionary, rules, rule_mode):
    """extract_counts written out position by position, sharing no code with it.

    A rule word binds the next non-rule token (the nearer of stacked rule words
    wins); a trailing one stays as an ordinary token. tag mode prefixes the bound
    token, signed-count mode weights its unigram -1 (negated) or +2 (emphasized)
    and drops entries that cancel to zero. Longer n-grams count +1 each.
    """
    stream, weights = [], []
    pending = None
    for token in tokens:
        if rule_mode != "off" and (token in rules.negatory or token in rules.emphasizer):
            pending = token
            continue
        weight = 1 if pending is None else -1 if pending in rules.negatory else 2
        pending = None
        if rule_mode == "tag":
            stream.append({1: "", -1: "NEG_", 2: "EMP_"}[weight] + token)
            weights.append(1)
        else:
            stream.append(token)
            weights.append(weight if rule_mode == "signed-count" else 1)
    if pending is not None:
        stream.append(pending)
        weights.append(1)
    counts = {}
    for n in dictionary.ngram_sizes:
        for start in range(len(stream) - n + 1):
            idx = dictionary.entries.get(" ".join(stream[start : start + n]))
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + (weights[start] if n == 1 else 1)
    if rule_mode == "signed-count":
        counts = {i: c for i, c in counts.items() if c != 0}
    return counts


@pytest.mark.parametrize("ngrams", list(NGRAM_SIZES))
@pytest.mark.parametrize("rule_mode", RULE_MODES)
@settings(max_examples=60, deadline=None)
@given(
    posts=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "not", "very"]), min_size=2, max_size=10),
        min_size=1,
        max_size=5,
    )
)
def test_extract_counts_matches_rule_oracle_in_items_and_order(rule_mode, ngrams, posts):
    sizes = NGRAM_SIZES[ngrams]
    streams = [rule_adjusted_tokens(tokens, BOTH, rule_mode) for tokens in posts]
    try:
        dictionary = build_dictionary(streams, sizes=sizes, min_count=1)
    except ValueError:
        return  # e.g. bigrams requested but every stream has a single token
    for tokens in posts:
        got = extract_counts(tokens, dictionary, BOTH, rule_mode)
        assert list(got.items()) == list(naive_rule_counts(tokens, dictionary, BOTH, rule_mode).items())


def test_rule_lexicons_must_be_disjoint():
    with pytest.raises(ValueError, match="both"):
        RuleLexicons(negatory=frozenset({"x"}), emphasizer=frozenset({"x"}))
