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


def remove_stop_words(tokens: list[str], stop: frozenset[str]) -> list[str]:
    """Drop stop words, preserving the relative order of survivors."""
    return [t for t in tokens if t not in stop]


@dataclass(frozen=True)
class SuffixTrie:
    """Prefix trie over a vocabulary as nested dicts (character -> child node),
    and the memo of ``stem_tokens`` (word -> stem), which maps each kept word to
    itself from the start. A trie is a function of its vocabulary and kept
    words, so only these take part in equality and hashing."""

    root: dict = field(compare=False, repr=False)
    vocabulary: frozenset[str]
    kept: frozenset[str] = frozenset()
    stems: dict[str, str] = field(default_factory=dict, compare=False, repr=False)


def build_suffix_trie(vocabulary: Iterable[str], kept: frozenset[str] = frozenset()) -> SuffixTrie:
    """Build the stemming trie over a non-empty, case-folded vocabulary; the
    kept words are never stemmed."""
    words = frozenset(vocabulary)
    if not words:
        raise ValueError("cannot build a suffix trie from an empty vocabulary")
    root: dict = {}
    for word in words:
        node = root
        for ch in word:
            node = node.setdefault(ch, {})
    return SuffixTrie(root=root, vocabulary=words, kept=kept, stems=dict(zip(kept, kept)))


def _variety_sequence(trie: SuffixTrie, word: str) -> list[int]:
    """v(0..L) where L is the deepest position whose prefix stays inside the trie."""
    vs = [len(trie.root)]
    node = trie.root
    for ch in word:
        node = node.get(ch)
        if node is None:
            break
        vs.append(len(node))
    return vs


def stem(trie: SuffixTrie, word: str) -> str:
    """Cut a word at the first peak or plateau of its successor-variety sequence.

    A peak at position b means v(b) > v(b-1) and v(b) >= v(b+1) (a position past
    the known prefixes counts as variety 0); a plateau onset means
    v(b) == v(b-1) with v(b) > 1. The earliest such b >= MIN_STEM_LEN wins.
    Words shorter than MIN_STEM_LEN, or with no peak/plateau, come back unchanged.
    """
    if len(word) < MIN_STEM_LEN:
        return word
    vs = _variety_sequence(trie, word)
    deepest = len(vs) - 1
    for b in range(MIN_STEM_LEN, deepest + 1):
        nxt = vs[b + 1] if b + 1 <= deepest else 0
        if vs[b] > vs[b - 1] and vs[b] >= nxt:
            return word[:b]
        if vs[b] == vs[b - 1] and vs[b] > 1:
            return word[:b]
    return word


def stem_tokens(trie: SuffixTrie, tokens: list[str]) -> list[str]:
    """``stem`` of every token; each distinct word is stemmed once per trie."""
    memo = trie.stems
    out = []
    for token in tokens:
        stemmed = memo.get(token)
        if stemmed is None:
            stemmed = memo[token] = stem(trie, token)
        out.append(stemmed)
    return out
