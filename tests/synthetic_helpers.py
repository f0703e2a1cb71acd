"""Test-only helpers over the synthetic corpora of ``opmine.synthetic``: its rule
lexicons as one ``RuleLexicons``, and the permutation-null corpus."""

from __future__ import annotations

import random

from opmine.corpus import Corpus, Post
from opmine.features import RuleLexicons
from opmine.synthetic import EMPHASIZER_WORDS, NEGATORY_WORDS


def rule_lexicons() -> RuleLexicons:
    return RuleLexicons(negatory=NEGATORY_WORDS, emphasizer=EMPHASIZER_WORDS)


def shuffle_labels(corpus: Corpus, seed: int) -> Corpus:
    """Permute the gold labels across posts (the permutation-null corpus)."""
    rng = random.Random(seed)
    labels = [p.label for p in corpus]
    rng.shuffle(labels)
    return Corpus(
        posts=tuple(
            Post(id=p.id, text=p.text, topic=p.topic, timestamp=p.timestamp, label=lab)
            for p, lab in zip(corpus, labels)
        )
    )
