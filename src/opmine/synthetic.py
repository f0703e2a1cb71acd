"""Seeded synthetic corpora with class-conditional vocabularies.

Each gold class draws its posts from its own word pool; a configurable fraction
of every pool is shared across classes, so class separability is tunable from
trivial (no sharing) down to hard. Posts carry topics and timestamps so the
mood statistics have something to group by.
"""

from __future__ import annotations

import random
from datetime import datetime, timezone

from .corpus import GOLD_LABELS, Corpus, Post

NEGATORY_WORDS = frozenset({"nodok", "nibar"})
EMPHASIZER_WORDS = frozenset({"vemos", "silno"})

TOPICS = ("food", "fashion", "economy", "sports", "music")

_CONSONANTS = "bdgklmnprstvz"
_VOWELS = "aeiou"


def _new_word(rng: random.Random, used: set[str]) -> str:
    while True:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
        )
        if word not in used:
            used.add(word)
            return word


def generate_corpus(
    n_posts: int = 300,
    seed: int = 7,
    vocab_size: int = 50,
    shared_fraction: float = 0.2,
    rule_word_prob: float = 0.05,
    min_len: int = 8,
    max_len: int = 20,
) -> Corpus:
    """Build a labeled corpus of n_posts split evenly over the three gold classes.

    Each class vocabulary holds vocab_size words of which
    round(vocab_size * shared_fraction) come from a pool common to all classes.
    With probability rule_word_prob a negation or emphasis word is planted in
    front of a token, so the rule-bigram modes have something to chew on.
    """
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(f"shared_fraction must be in [0, 1], got {shared_fraction}")
    rng = random.Random(seed)
    used = set(NEGATORY_WORDS) | set(EMPHASIZER_WORDS)
    n_shared = round(vocab_size * shared_fraction)
    shared = [_new_word(rng, used) for _ in range(n_shared)]
    vocab = {
        label: [_new_word(rng, used) for _ in range(vocab_size - n_shared)] + shared
        for label in GOLD_LABELS
    }
    rule_words = sorted(NEGATORY_WORDS | EMPHASIZER_WORDS)

    posts = []
    for i in range(n_posts):
        label = GOLD_LABELS[i % len(GOLD_LABELS)]
        length = rng.randint(min_len, max_len)
        tokens: list[str] = []
        for _ in range(length):
            if rule_word_prob and rng.random() < rule_word_prob:
                tokens.append(rng.choice(rule_words))
            tokens.append(rng.choice(vocab[label]))
        text = " ".join(tokens) + rng.choice(["", ".", "!", "?"])
        timestamp = datetime(
            2009,
            rng.randint(1, 12),
            rng.randint(1, 28),
            rng.randint(0, 23),
            rng.randint(0, 59),
            tzinfo=timezone.utc,
        )
        posts.append(
            Post(
                id=f"p{i:04d}",
                text=text,
                topic=rng.choice(TOPICS),
                timestamp=timestamp,
                label=label,
            )
        )
    return Corpus(posts=tuple(posts))
