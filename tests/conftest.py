import os
import random

import pytest

from opmine import synthetic


@pytest.fixture(scope="session")
def synth300():
    """The standard 300-post synthetic corpus: 3 classes, 20% shared vocabulary."""
    return synthetic.generate_corpus(n_posts=300, seed=7)


@pytest.fixture(scope="session")
def separable_corpus():
    """Fully disjoint class vocabularies; any sane config classifies it perfectly."""
    return synthetic.generate_corpus(n_posts=90, seed=11, shared_fraction=0.0, rule_word_prob=0.0)


def assert_no_child_processes():
    """This process has no child left, running or unreaped (which
    multiprocessing.active_children() cannot see unless multiprocessing
    started it)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_separable_2d(n=60, seed=5, margin=0.5):
    """2-D points kept only when the generating hyperplane clears them by `margin`.

    Returns (vectors, labels, true_normal); separability is verifiable against
    true_normal by exhaustive check.
    """
    rng = random.Random(seed)
    w_true = (1 / 2**0.5, 1 / 2**0.5)
    vectors, labels = [], []
    while len(vectors) < n:
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = w_true[0] * x[0] + w_true[1] * x[1]
        if abs(s) >= margin:
            vectors.append({0: x[0], 1: x[1]})
            labels.append(1 if s > 0 else -1)
    return vectors, labels, w_true
