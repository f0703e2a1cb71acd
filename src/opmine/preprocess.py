"""Text normalization: tokenization, stop-word filtering, trie-based stemming.

The stemmer needs nothing but the vocabulary to be stemmed: it builds a trie
over the word set and cuts each word where the successor-variety sequence
(number of distinct characters that can follow a prefix) peaks or plateaus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# Maximal runs of Unicode letters and digits; underscore and everything else separates.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

MIN_STEM_LEN = 2


def tokenize(text: str) -> list[str]:
    """Case-fold text and split it into maximal runs of letters and digits."""
    return _TOKEN_RE.findall(text.casefold())


@dataclass(frozen=True)
class StopList:
    words: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token in self.words


def load_word_list(path: str | Path) -> frozenset[str]:
    """Read a one-entry-per-line UTF-8 lexicon; ``#`` comment lines are ignored.

    Entries are case-folded on load. Used for stop lists and rule lexicons alike.
    """
    words: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = line.strip()
            if not entry or entry.startswith("#"):
                continue
            words.add(entry.casefold())
    return frozenset(words)


def load_stop_list(path: str | Path) -> StopList:
    return StopList(words=load_word_list(path))


def remove_stop_words(tokens: list[str], stop: StopList) -> list[str]:
    """Drop stop words, preserving the relative order of survivors."""
    return [t for t in tokens if t not in stop]


class TrieNode:
    __slots__ = ("children", "terminal", "count")

    def __init__(self) -> None:
        self.children: dict[str, TrieNode] = {}
        self.terminal = False
        self.count = 0  # number of inserted words whose prefix reaches this node


@dataclass(frozen=True)
class SuffixTrie:
    """Prefix trie over a vocabulary, with pass-through counts at every node,
    and the memo of ``stem_tokens`` (min_stem_len -> word -> stem)."""

    root: TrieNode
    vocabulary: frozenset[str] = field(hash=False)
    stems: dict[int, dict[str, str]] = field(default_factory=dict, compare=False, hash=False, repr=False)

    def node_at(self, prefix: str) -> TrieNode | None:
        node = self.root
        for ch in prefix:
            node = node.children.get(ch)
            if node is None:
                return None
        return node


def build_suffix_trie(vocabulary: Iterable[str]) -> SuffixTrie:
    """Build the stemming trie over a non-empty, case-folded vocabulary."""
    words = frozenset(vocabulary)
    if not words:
        raise ValueError("cannot build a suffix trie from an empty vocabulary")
    root = TrieNode()
    for word in words:
        root.count += 1
        node = root
        for ch in word:
            node = node.children.setdefault(ch, TrieNode())
            node.count += 1
        node.terminal = True
    return SuffixTrie(root=root, vocabulary=words)


def successor_variety(trie: SuffixTrie, word: str, i: int) -> int:
    """Number of distinct characters following word[:i] among vocabulary words."""
    if not 0 <= i <= len(word):
        raise ValueError(f"position {i} out of range for word {word!r}")
    node = trie.node_at(word[:i])
    if node is None:
        raise ValueError(f"prefix {word[:i]!r} not present in the trie")
    return len(node.children)


def _variety_sequence(trie: SuffixTrie, word: str) -> list[int]:
    """v(0..L) where L is the deepest position whose prefix stays inside the trie."""
    vs = [len(trie.root.children)]
    node = trie.root
    for ch in word:
        node = node.children.get(ch)
        if node is None:
            break
        vs.append(len(node.children))
    return vs


def stem(trie: SuffixTrie, word: str, min_stem_len: int = MIN_STEM_LEN) -> str:
    """Cut a word at the first peak or plateau of its successor-variety sequence.

    A peak at position b means v(b) > v(b-1) and v(b) >= v(b+1) (a position past
    the known prefixes counts as variety 0); a plateau onset means
    v(b) == v(b-1) with v(b) > 1. The earliest such b >= min_stem_len wins.
    Words shorter than min_stem_len, or with no peak/plateau, come back unchanged.
    """
    if len(word) < min_stem_len:
        return word
    vs = _variety_sequence(trie, word)
    deepest = len(vs) - 1
    for b in range(min_stem_len, deepest + 1):
        nxt = vs[b + 1] if b + 1 <= deepest else 0
        if vs[b] > vs[b - 1] and vs[b] >= nxt:
            return word[:b]
        if vs[b] == vs[b - 1] and vs[b] > 1:
            return word[:b]
    return word


def stem_tokens(trie: SuffixTrie, tokens: list[str], min_stem_len: int = MIN_STEM_LEN) -> list[str]:
    """``stem`` of every token; each distinct word is stemmed once per trie."""
    memo = trie.stems.setdefault(min_stem_len, {})
    out = []
    for token in tokens:
        stemmed = memo.get(token)
        if stemmed is None:
            stemmed = memo[token] = stem(trie, token, min_stem_len)
        out.append(stemmed)
    return out
