from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine import preprocess
from opmine.preprocess import (
    SuffixTrie,
    build_suffix_trie,
    load_word_list,
    remove_stop_words,
    stem,
    stem_tokens,
    tokenize,
)

from conftest import successor_variety


class TestTokenize:
    def test_punctuation_split_and_case_folding(self):
        assert tokenize("Не е добро!") == ["не", "е", "добро"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding_across_scripts(self):
        assert tokenize("ABC abc АБВ абв") == ["abc", "abc", "абв", "абв"]

    def test_digits_kept_inside_tokens(self):
        assert tokenize("mp3 player, 100%") == ["mp3", "player", "100"]

    def test_underscore_separates(self):
        # keeps the NEG_/EMP_ merged-token namespace collision-free
        assert tokenize("a_b") == ["a", "b"]

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent_on_joined_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once
        assert all(t and not any(c.isspace() for c in t) for t in once)


class TestStopWords:
    def test_filter(self):
        assert remove_stop_words(["не", "е", "добро"], frozenset({"е"})) == ["не", "добро"]

    def test_empty_stop_list_is_identity(self):
        tokens = ["a", "b", "a"]
        assert remove_stop_words(tokens, frozenset()) == tokens

    def test_total_removal(self):
        assert remove_stop_words(["е", "е", "е"], frozenset({"е"})) == []

    @settings(max_examples=100, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from("abcde"), max_size=20),
        stop=st.sets(st.sampled_from("abcde")),
    )
    def test_output_is_subsequence(self, tokens, stop):
        out = remove_stop_words(tokens, frozenset(stop))
        it = iter(tokens)
        assert all(any(t == u for u in it) for t in out)
        assert not any(t in stop for t in out)

    def test_lexicon_file_format(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\n\n  и  \n", encoding="utf-8")
        assert load_word_list(path) == frozenset({"the", "и"})
        assert "the" in load_word_list(path)


class TestSuffixTrie:
    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_suffix_trie(set())


def brute_force_variety(vocab, prefix):
    return len({w[len(prefix)] for w in vocab if w.startswith(prefix) and len(w) > len(prefix)})


class TestSuccessorVariety:
    def test_three_children(self):
        trie = build_suffix_trie({"ab", "ac", "ad"})
        assert successor_variety(trie, "ab", 1) == 3

    def test_root_fanout(self):
        trie = build_suffix_trie({"ab", "ba", "ca"})
        assert successor_variety(trie, "anything", 0) == 3

    def test_chain(self):
        trie = build_suffix_trie({"ab"})
        assert successor_variety(trie, "ab", 1) == 1

    def test_absent_prefix_rejected(self):
        trie = build_suffix_trie({"ab"})
        with pytest.raises(ValueError, match="prefix"):
            successor_variety(trie, "zz", 1)

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=12))
    def test_matches_brute_force_scan(self, vocab):
        trie = build_suffix_trie(vocab)
        for word in vocab:
            for i in range(len(word) + 1):
                assert successor_variety(trie, word, i) == brute_force_variety(vocab, word[:i])


class TestStem:
    def test_peak_cut_on_inflection_cluster(self):
        # v(i) over this vocabulary is 1,1,1,1,1,3,... for "работен": the
        # variety jump after the shared 5-letter prefix is the cut point
        trie = build_suffix_trie({"работи", "работам", "работен", "работа"})
        assert stem(trie, "работен") == "работ"
        assert stem(trie, "работам") == "работ"

    def test_no_variety_returns_word(self):
        trie = build_suffix_trie({"x"})
        assert stem(trie, "x") == "x"

    def test_short_word_guard(self):
        trie = build_suffix_trie({"ab", "ac", "ad"})
        assert stem(trie, "a") == "a"

    def test_unknown_word_survives(self):
        trie = build_suffix_trie({"работи", "работам"})
        assert stem(trie, "qqqq") == "qqqq"

    def test_plateau_cut(self):
        # v(1)=v(2)=2 with no strict rise: the plateau onset at 2 is the cut
        vocab = {"abx", "aby", "acx", "acy"}
        trie = build_suffix_trie(vocab)
        assert [successor_variety(trie, "abx", i) for i in range(4)] == [1, 2, 2, 0]
        assert stem(trie, "abx") == "ab"
        assert stem(trie, "abx") == _reference_stem(vocab, "abx")

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.text(alphabet="abcd", min_size=2, max_size=8), min_size=1, max_size=20))
    def test_stem_is_bounded_prefix(self, vocab):
        trie = build_suffix_trie(vocab)
        for word in vocab:
            s = stem(trie, word)
            assert word.startswith(s)
            assert len(s) >= min(2, len(word))

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.text(alphabet="abc", min_size=2, max_size=7), min_size=1, max_size=15))
    def test_matches_reference_rule(self, vocab):
        trie = build_suffix_trie(vocab)
        for word in vocab:
            assert stem(trie, word) == _reference_stem(vocab, word)

    def test_stem_tokens_maps_elementwise(self):
        trie = build_suffix_trie({"работи", "работам", "работен", "работа"})
        assert stem_tokens(trie, ["работен", "x"]) == ["работ", "x"]


class TestStemMemo:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=12),
        # "d" makes out-of-vocabulary words, size 1 words shorter than the minimum
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), max_size=20),
    )
    def test_same_as_stem_and_second_call_served_from_memo(self, vocab, tokens):
        trie = build_suffix_trie(vocab)
        words = tokens + sorted(vocab) + tokens
        expected = [stem(trie, w) for w in words]
        assert stem_tokens(trie, words) == expected
        with mock.patch.object(preprocess, "stem", side_effect=AssertionError("memo missed")):
            assert stem_tokens(trie, words) == expected

    def test_tries_keep_their_own_stems(self):
        wide = build_suffix_trie({"работи", "работам", "работен", "работа"})
        narrow = build_suffix_trie({"работен", "книга"})
        assert stem(narrow, "работен") == "работен"
        assert stem_tokens(wide, ["работен"]) == ["работ"]
        assert stem_tokens(narrow, ["работен"]) == ["работен"]
        assert stem_tokens(wide, ["работен"]) == ["работ"]

    def test_equality_and_hash_ignore_the_memo(self):
        trie = build_suffix_trie({"работи", "работам", "работен"})
        twin = SuffixTrie(root=trie.root, vocabulary=trie.vocabulary)
        stem_tokens(trie, ["работен", "x"])
        assert trie.stems and not twin.stems
        assert trie == twin
        assert hash(trie) == hash(twin)
        assert "stems" not in repr(trie)


def _reference_stem(vocab, word, min_stem_len=2):
    """Independent peak-and-plateau over brute-force varieties."""
    if len(word) < min_stem_len:
        return word
    deepest = 0
    for i in range(len(word) + 1):
        if any(w.startswith(word[:i]) for w in vocab):
            deepest = i
        else:
            break
    vs = [brute_force_variety(vocab, word[:i]) for i in range(deepest + 1)]
    for b in range(min_stem_len, deepest + 1):
        nxt = vs[b + 1] if b + 1 <= deepest else 0
        if (vs[b] > vs[b - 1] and vs[b] >= nxt) or (vs[b] == vs[b - 1] and vs[b] > 1):
            return word[:b]
    return word
