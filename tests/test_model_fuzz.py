"""Fuzz the model loader: a mutated model file makes `classify` exit 0, or exit 1
with exactly one `error:` line; it never raises."""

import base64
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine.cli import main
from opmine.corpus import save_corpus
from opmine.features import NGRAM_SIZES
from opmine.pipeline import _dictionary_from_payload
from opmine.synthetic import EMPHASIZER_WORDS, NEGATORY_WORDS, generate_corpus

STAGES = ("subjectivity", "polarity")
# one value of each JSON type; int and float count as two, as the loader tells them apart
TYPED_VALUES = (None, True, 7, 0.5, "s", [], {})
BASE64_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
NON_FINITE = (math.inf, -math.inf, math.nan)


@pytest.fixture(scope="module")
def model_case(tmp_path_factory):
    """A model that stores every optional part: stop words, stem vocabularies,
    both rule lexicons and unigram+bigram dictionaries."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.jsonl"
    save_corpus(generate_corpus(n_posts=60, seed=3), corpus)
    lexicons = {}
    for name, words in (("stop", ["sugi"]), ("neg", NEGATORY_WORDS), ("emp", EMPHASIZER_WORDS)):
        lexicons[name] = root / f"{name}.txt"
        lexicons[name].write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    model = root / "model.json"
    rc = main([
        "train", str(corpus), "--out", str(model), "--classifier", "nb", "--metric", "ifrequency",
        "--ngrams", "unigrams+bigrams", "--min-count", "2", "--stem",
        "--stop-words", str(lexicons["stop"]), "--rule-mode", "signed-count",
        "--rules", f"neg={lexicons['neg']},emp={lexicons['emp']}",
    ])
    assert rc == 0
    return root / "mutated.json", model.read_bytes()


def _paths(value, path=()):
    """The path of every value below value, depth first."""
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _mutate(data, original: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "drop-key", "swap-type", "base64-char", "non-finite"]))
    if kind == "truncate":  # by bytes, so a cut may split a UTF-8 character
        return original[: data.draw(st.integers(0, len(original) - 1))]
    payload = json.loads(original)
    paths = list(_paths(payload))
    if kind == "drop-key":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _parent(payload, path)[path[-1]]
    elif kind == "swap-type":
        path = data.draw(st.sampled_from(paths))
        parent = _parent(payload, path)
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(st.sampled_from([v for v in TYPED_VALUES if type(v) is not type(old)]))
    else:
        stage = payload["stages"][data.draw(st.sampled_from(STAGES))]
        if kind == "base64-char":
            packed = stage["weights"]
            i = data.draw(st.integers(0, len(packed) - 1))
            char = data.draw(st.sampled_from(BASE64_CHARS + "!. é"))
            stage["weights"] = packed[:i] + char + packed[i + 1 :]
        else:
            weights = np.frombuffer(base64.b64decode(stage["weights"]), dtype="<f8").copy()
            weights[data.draw(st.integers(0, len(weights) - 1))] = data.draw(st.sampled_from(NON_FINITE))
            stage["weights"] = base64.b64encode(weights.tobytes()).decode("ascii")
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_model_exits_cleanly(model_case, data):
    path, original = model_case
    path.write_bytes(_mutate(data, original))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["classify", "--model", str(path), "--text", "x"])
    if rc == 0:
        assert len(out.getvalue().splitlines()) == 1
    else:
        lines = err.getvalue().splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_unmutated_model_classifies(model_case):
    path, original = model_case
    path.write_bytes(original)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["classify", "--model", str(path), "--text", "x"]) == 0
    assert json.loads(out.getvalue())["id"] == "text"


# --- the loader's n-gram rule ----------------------------------------------

def _split_rule_accepts(grams, sizes):
    """The stored n-gram rule, written with str.split: every string splits at
    single spaces into a number of non-empty tokens in sizes, and none repeats."""
    parts = [g.split(" ") for g in grams]
    return all(len(p) in sizes and "" not in p for p in parts) and len(set(grams)) == len(grams)


def _loader_accepts(grams, ngrams):
    payload = {"ngrams": grams, "doc_freq": [1] * len(grams), "n_docs": 1, "sizes": list(NGRAM_SIZES[ngrams])}
    try:
        _dictionary_from_payload(payload, ngrams)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("ngrams", list(NGRAM_SIZES))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(grams=st.lists(st.text(alphabet="ab \n", max_size=6), min_size=1, max_size=6))
def test_loader_ngram_check_matches_split_rule(ngrams, grams):
    assert _loader_accepts(grams, ngrams) == _split_rule_accepts(grams, NGRAM_SIZES[ngrams])


@pytest.mark.parametrize("ngrams", list(NGRAM_SIZES))
@pytest.mark.parametrize("bad", ["", " a", "a ", "a  b"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_loader_rejects_an_empty_token_at_either_end_of_the_list(ngrams, bad, first):
    good = ["b" if n == 1 else "a b" for n in NGRAM_SIZES[ngrams]]
    assert _loader_accepts(good, ngrams)
    grams = [bad, *good] if first else [*good, bad]
    assert not _split_rule_accepts(grams, NGRAM_SIZES[ngrams])
    assert not _loader_accepts(grams, ngrams)
