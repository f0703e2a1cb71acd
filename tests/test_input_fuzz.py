"""Fuzz the corpus and lexicon readers: with a mutated corpus, `train`,
`classify --input` and `stats` exit 0, or exit 1 with exactly one `error:`
line; with mutated lexicons `train` does the same. No command ever raises."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine.cli import main
from opmine.corpus import save_corpus
from opmine.synthetic import EMPHASIZER_WORDS, NEGATORY_WORDS, generate_corpus

# one value of each JSON type; int and float count as two
TYPED_VALUES = (None, True, 7, 0.5, "s", [], {})
# a lone continuation byte, a truncated lead byte, an invalid byte and an encoded surrogate
NON_UTF8 = (b"\x80", b"\xc3", b"\xff", b"\xed\xa0\x80")
LEXICONS = ("stop", "neg", "emp")


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A corpus, the three lexicons a train reads, and a model for classify."""
    root = tmp_path_factory.mktemp("input-fuzz")
    files = {"corpus": root / "corpus.jsonl"}
    save_corpus(generate_corpus(n_posts=60, seed=3), files["corpus"])
    for name, words in (("stop", ["sugi"]), ("neg", NEGATORY_WORDS), ("emp", EMPHASIZER_WORDS)):
        files[name] = root / f"{name}.txt"
        files[name].write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    files["model"] = root / "model.json"
    assert main(_train_argv(files, files["model"])) == 0
    originals = {name: path.read_bytes() for name, path in files.items()}
    return root, files, originals


def _train_argv(files, out, rule_keys=("neg", "emp")):
    rules = ",".join(f"{key}={files[key]}" for key in rule_keys)
    return [
        "train", str(files["corpus"]), "--out", str(out), "--classifier", "nb", "--metric", "ifrequency",
        "--ngrams", "unigrams+bigrams", "--min-count", "2", "--stem", "--stop-words", str(files["stop"]),
        "--rule-mode", "signed-count", "--rules", rules,
    ]


def _argv(command, files, root, rule_keys=("neg", "emp")):
    return {
        "train": _train_argv(files, root / "trained.json", rule_keys),
        "classify": ["classify", "--model", str(files["model"]), "--input", str(files["corpus"])],
        "stats": ["stats", str(files["corpus"]), "--by", "month", "--out", str(root / "mood.csv")],
    }[command]


def _restore(files, originals):
    for name, path in files.items():
        path.write_bytes(originals[name])


def _assert_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        lines = err.getvalue().splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


def _insert(data, original: bytes, piece: bytes) -> bytes:
    i = data.draw(st.integers(0, len(original)))
    return original[:i] + piece + original[i:]


def _mutate_corpus(data, original: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "drop-key", "swap-type", "swap-record", "non-utf8"]))
    if kind == "truncate":  # by bytes, so a cut may split a UTF-8 character
        return original[: data.draw(st.integers(0, len(original) - 1))]
    if kind == "non-utf8":
        return _insert(data, original, data.draw(st.sampled_from(NON_UTF8)))
    records = [json.loads(line) for line in original.decode("utf-8").splitlines()]
    i = data.draw(st.integers(0, len(records) - 1))
    if kind == "swap-record":
        records[i] = data.draw(st.sampled_from([v for v in TYPED_VALUES if not isinstance(v, dict)]))
    else:
        key = data.draw(st.sampled_from(sorted(records[i])))
        if kind == "drop-key":
            del records[i][key]
        else:
            old = records[i][key]
            records[i][key] = data.draw(st.sampled_from([v for v in TYPED_VALUES if type(v) is not type(old)]))
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


@pytest.mark.parametrize("command", ["train", "classify", "stats"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_corpus_exits_cleanly(case, command, data):
    root, files, originals = case
    _restore(files, originals)
    files["corpus"].write_bytes(_mutate_corpus(data, originals["corpus"]))
    _assert_exits_cleanly(_argv(command, files, root))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_lexicons_exit_cleanly(case, data):
    root, files, originals = case
    _restore(files, originals)
    name = data.draw(st.sampled_from(LEXICONS))
    original = originals[name]
    kind = data.draw(st.sampled_from(["truncate", "non-utf8", "overlap", "drop-key", "other-file"]))
    rule_keys = ("neg", "emp")
    if kind == "truncate":
        files[name].write_bytes(original[: data.draw(st.integers(0, len(original)))])
    elif kind == "non-utf8":
        files[name].write_bytes(_insert(data, original, data.draw(st.sampled_from(NON_UTF8))))
    elif kind == "overlap":  # a word of another lexicon, maybe in another case, as lexicons are case-folded
        other = data.draw(st.sampled_from([n for n in LEXICONS if n != name]))
        word = data.draw(st.sampled_from(originals[other].decode("utf-8").split()))
        word = word.upper() if data.draw(st.booleans()) else word
        files[name].write_bytes(original + word.encode("utf-8") + b"\n")
    elif kind == "drop-key":
        rule_keys = data.draw(st.sampled_from([("neg",), ("emp",), ()]))
    else:  # the path names a file of another type
        files[name].write_bytes(originals[data.draw(st.sampled_from(["corpus", "model"]))])
    _assert_exits_cleanly(_argv("train", files, root, rule_keys))


@pytest.mark.parametrize("command", ["train", "classify", "stats"])
def test_unmutated_inputs_succeed(case, command):
    root, files, originals = case
    _restore(files, originals)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(_argv(command, files, root)) == 0
