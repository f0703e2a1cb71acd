import base64
import contextlib
import errno
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from opmine import cli, pipeline
from opmine.cli import main
from opmine.corpus import load_corpus, save_corpus
from opmine.pipeline import PipelineConfig, classify_post, load_model
from opmine.synthetic import generate_corpus

from conftest import assert_no_child_processes, write_jsonl


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    save_corpus(generate_corpus(n_posts=90, seed=11, shared_fraction=0.0, rule_word_prob=0.0), path)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("model") / "model.json"
    rc = main(
        ["train", str(corpus_file), "--out", str(out), "--metric", "presence",
         "--classifier", "nb", "--min-count", "2"]
    )
    assert rc == 0
    return out


class TestTrain:
    def test_writes_model_and_manifest(self, model_file):
        assert model_file.exists()
        manifest = json.loads(
            model_file.with_name(model_file.name + ".manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["command"] == "train"
        assert manifest["config"] == asdict(PipelineConfig(metric="presence", classifier="nb", min_count=2))
        assert manifest["outputs"] == [str(model_file)]

    def test_rerun_is_byte_identical(self, tmp_path, corpus_file):
        args = ["train", str(corpus_file), "--min-count", "2", "--svm-epochs", "4", "--seed", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_class_fails_with_named_class(self, tmp_path, capsys):
        path = write_jsonl(
            tmp_path / "bad.jsonl",
            [
                '{"id": "a", "text": "x y", "label": "positive"}',
                '{"id": "b", "text": "z w", "label": "negative"}',
            ],
        )
        rc = main(["train", str(path), "--out", str(tmp_path / "m.json"), "--min-count", "1"])
        assert rc != 0
        assert "objective" in capsys.readouterr().err

    def test_rule_mode_without_rules_fails(self, tmp_path, corpus_file, capsys):
        rc = main(
            ["train", str(corpus_file), "--out", str(tmp_path / "m.json"), "--rule-mode", "tag"]
        )
        assert rc != 0
        assert "--rules" in capsys.readouterr().err


class TestClassify:
    def test_single_text(self, model_file, capsys):
        rc = main(["classify", "--model", str(model_file), "--text", "добро"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["label"] in ("positive", "negative", "objective")
        assert "subjectivity" in record["scores"]

    def test_corpus_input_one_record_per_post(self, model_file, corpus_file, capsys):
        rc = main(["classify", "--model", str(model_file), "--input", str(corpus_file)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 90
        assert all("topic" in r and "timestamp" in r for r in records)

    def test_labeled_input_keeps_key_order_and_writes_predicted_label(
        self, model_file, corpus_file, tmp_path, capsys
    ):
        # rotate every gold label, so a copied gold label cannot pass for a prediction
        rotate = {"positive": "negative", "negative": "objective", "objective": "positive"}
        relabeled = tmp_path / "relabeled.jsonl"
        lines = corpus_file.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            record["label"] = rotate[record["label"]]
        write_jsonl(relabeled, [json.dumps(r, ensure_ascii=False) for r in records])
        rc = main(["classify", "--model", str(model_file), "--input", str(relabeled)])
        assert rc == 0
        written = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        model = load_model(model_file)
        gold = {p.id: p.label for p in load_corpus(relabeled)}
        for record in written:
            assert list(record) == ["id", "text", "topic", "timestamp", "label", "scores"]
            assert record["label"] == classify_post(model, record["text"]).label
        assert any(r["label"] != gold[r["id"]] for r in written)

    def test_empty_corpus_ok(self, model_file, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = main(["classify", "--model", str(model_file), "--input", str(empty)])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_corrupt_model_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        rc = main(["classify", "--model", str(bad), "--text", "x"])
        assert rc != 0
        assert "parse" in capsys.readouterr().err

    def test_fingerprint_mismatch_fails(self, model_file, tmp_path, capsys):
        payload = json.loads(model_file.read_text(encoding="utf-8"))
        payload["stages"]["polarity"]["dictionary"]["doc_freq"][0] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["classify", "--model", str(tampered), "--text", "x"])
        assert rc != 0
        assert "fingerprint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ifrequency_model_file(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("ifrequency-model") / "model.json"
    rc = main(
        ["train", str(corpus_file), "--out", str(out), "--metric", "ifrequency",
         "--classifier", "nb", "--min-count", "2"]
    )
    assert rc == 0
    return out


OOV_TEXT = "ззз жжж ййй"  # no word of it is in corpus_file, so its vector comes out empty


@pytest.fixture(scope="module")
def mixed_corpus_file(tmp_path_factory, corpus_file):
    """corpus_file's gold-labeled posts, with an out-of-vocabulary post after
    every ninth one."""
    lines = []
    for i, line in enumerate(corpus_file.read_text(encoding="utf-8").splitlines()):
        lines.append(line)
        if i % 9 == 8:
            lines.append(json.dumps({"id": f"oov{i}", "text": OOV_TEXT, "label": "objective"}, ensure_ascii=False))
    return write_jsonl(tmp_path_factory.mktemp("mixed") / "mixed.jsonl", lines)


@contextlib.contextmanager
def warnings_to_stderr():
    """opmine's log records go to the current stderr, as they do from the CLI
    outside pytest, whose capture handler would keep a forked worker's records
    in the worker."""
    handler = logging.StreamHandler(sys.stderr)
    logging.getLogger("opmine").addHandler(handler)
    try:
        yield
    finally:
        logging.getLogger("opmine").removeHandler(handler)


def force_chunks(monkeypatch, workers, chunk):
    monkeypatch.setattr(pipeline, "_fold_workers", lambda k: workers)
    monkeypatch.setattr(cli, "CLASSIFY_CHUNK", chunk)


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


class TestPooledClassify:
    """classify --input labels chunks of posts in forked workers. Neither the
    worker count nor the chunk size may show in its output. stderr is read with
    capfd, as the workers' warnings reach the caller's file descriptor only."""

    def test_output_does_not_depend_on_workers_or_chunks(
        self, ifrequency_model_file, mixed_corpus_file, monkeypatch, capfd
    ):
        argv = ["classify", "--model", str(ifrequency_model_file), "--input", str(mixed_corpus_file)]
        runs = []
        for workers, chunk in ((1, 2000), (2, 2000), (1, 7), (2, 7)):
            force_chunks(monkeypatch, workers, chunk)
            with warnings_to_stderr():
                assert main(argv) == 0
            runs.append(capfd.readouterr())
        assert [out for out, _ in runs] == [runs[0].out] * 4
        inputs = [json.loads(line) for line in mixed_corpus_file.read_text(encoding="utf-8").splitlines()]
        written = [json.loads(line) for line in runs[0].out.splitlines()]
        assert [r["id"] for r in written] == [r["id"] for r in inputs]
        model = load_model(ifrequency_model_file)
        for record, gold in zip(written, inputs):
            # the predicted label replaces the gold one in place
            assert list(record) == [*gold, "scores"]
            result = classify_post(model, record["text"])
            assert record["label"] == result.label
            assert record["scores"] == {"subjectivity": result.subjectivity_score,
                                        "polarity": result.polarity_score}
        assert {r["label"] for r in written} == {"objective", "positive", "negative"}
        assert {r["label"] for r in inputs} == {"objective", "positive", "negative"}
        assert any(r["label"] != gold["label"] for r, gold in zip(written, inputs))
        # every empty vector is reported, whichever worker met it
        oov = [r["id"] for r in inputs if r["text"] == OOV_TEXT]
        assert len(oov) == 10
        for _, err in runs:
            assert all(f"post {post_id}: zero total" in err for post_id in oov)

    def test_text_line_matches_the_input_line_of_the_same_post(
        self, ifrequency_model_file, mixed_corpus_file, monkeypatch, capfd
    ):
        force_chunks(monkeypatch, 2, 7)
        model = str(ifrequency_model_file)
        assert main(["classify", "--model", model, "--input", str(mixed_corpus_file)]) == 0
        for line in capfd.readouterr().out.splitlines():
            bulk = json.loads(line)
            assert main(["classify", "--model", model, "--text", bulk["text"]]) == 0
            single = json.loads(capfd.readouterr().out)
            assert (single["label"], single["scores"]) == (bulk["label"], bulk["scores"])

    def test_a_worker_that_dies_ends_in_one_error_line(
        self, ifrequency_model_file, mixed_corpus_file, monkeypatch, capfd
    ):
        force_chunks(monkeypatch, 2, 7)
        # the first post of the second chunk, which the second worker labels
        victim = json.loads(mixed_corpus_file.read_text(encoding="utf-8").splitlines()[7])["id"]
        real, caller = cli.classify_post, os.getpid()

        def dies_on_victim(model, text, post_id="?"):
            if post_id == victim:
                if os.getpid() == caller:
                    raise AssertionError("the victim was labeled in the caller, not in a worker")
                os._exit(4)
            return real(model, text, post_id)

        monkeypatch.setattr(cli, "classify_post", dies_on_victim)
        rc = main(["classify", "--model", str(ifrequency_model_file), "--input", str(mixed_corpus_file)])
        out, err = capfd.readouterr()
        assert rc == 1
        assert len(error_lines(err)) == 1 and "worker" in error_lines(err)[0]
        assert len(out.splitlines()) == 7  # the first chunk, written before the second failed
        assert_no_child_processes()

    def test_a_broken_stdout_ends_in_one_error_line(
        self, ifrequency_model_file, mixed_corpus_file, monkeypatch, capfd
    ):
        class BrokenAfterFirstWrite(io.StringIO):
            def write(self, text):
                if self.getvalue():
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")
                return super().write(text)

        force_chunks(monkeypatch, 2, 7)
        stdout = BrokenAfterFirstWrite()
        with contextlib.redirect_stdout(stdout):
            rc = main(["classify", "--model", str(ifrequency_model_file), "--input", str(mixed_corpus_file)])
        _, err = capfd.readouterr()
        assert rc == 1
        assert error_lines(err) == ["error: [Errno 32] Broken pipe"]
        assert len(stdout.getvalue().splitlines()) == 7
        assert_no_child_processes()


DELETE = object()
POLARITY = ("stages", "polarity")


def _unpacked(packed):
    """A stage's packed weights as a list of floats."""
    return np.frombuffer(base64.b64decode(packed), dtype="<f8").tolist()


def _repacked(edit):
    """A value edit of a stage's packed weights: edit maps the list of floats to a new one."""
    return lambda packed: base64.b64encode(np.array(edit(_unpacked(packed)), dtype="<f8").tobytes()).decode()


MALFORMED_MODELS = [
    # (path to the edited value, new value, DELETE or a function of the old value,
    # text the error must name)
    pytest.param(("format_version",), 1, "retrain", id="v1-file"),
    pytest.param(("format_version",), 2, "retrain", id="v2-file"),
    pytest.param(("config", "colour"), "red", "colour", id="unknown-config-key"),
    pytest.param(("config", "seed"), DELETE, "seed", id="missing-config-key"),
    pytest.param(("config", "min_count"), "5", "config", id="bad-config-value"),
    pytest.param(("stages",), DELETE, "stages", id="missing-stages"),
    pytest.param(POLARITY, DELETE, "polarity", id="missing-stage"),
    pytest.param(("stages", "subjectivity", "bias"), DELETE, "bias", id="missing-stage-key"),
    pytest.param((*POLARITY, "dictionary", "ngrams", 0), 7, "dictionary", id="bad-ngram"),
    pytest.param((*POLARITY, "weights"), _repacked(lambda w: w[:-1]), "weights", id="truncated-weights"),
    pytest.param((*POLARITY, "weights"), _repacked(lambda w: [float("nan"), *w[1:]]), "finite",
                 id="nan-weight"),
    # the weights as a JSON list of numbers, as format version 2 stored them
    pytest.param((*POLARITY, "weights"), _unpacked, "numbers", id="string-weight"),
    pytest.param((*POLARITY, "weights"), lambda packed: "!" + packed[1:], "weights", id="invalid-base64"),
    pytest.param(("stages", "subjectivity", "bias"), float("inf"), "finite", id="inf-bias"),
    pytest.param((*POLARITY, "classes"), ["negative", "positive"], "classes", id="swapped-classes"),
    # a packed weight cannot lie beyond the float range; the stage's one JSON number can
    pytest.param((*POLARITY, "bias"), 10**400, "finite", id="weight-beyond-float"),
    pytest.param(("stages", "subjectivity", "bias"), -(10**400), "finite", id="bias-beyond-float"),
    pytest.param((*POLARITY, "class_counts"), [-1, 3], "class_counts", id="negative-count"),
    pytest.param((*POLARITY, "class_counts"), [1, 2, 3], "class_counts", id="three-counts"),
    pytest.param((*POLARITY, "class_counts"), [1.5, 2], "class_counts", id="float-count"),
    pytest.param(("stop_words",), 3, "stop_words", id="int-stop-words"),
    pytest.param((*POLARITY, "stem_vocabulary"), 5, "stem_vocabulary", id="int-stem-vocabulary"),
    pytest.param(("rules",), [1], "rules", id="rules-list"),
    pytest.param(("rules",), {"negatory": ["nibar"]}, "rules", id="rules-without-emphasizer"),
]


@pytest.mark.parametrize("keys, value, hint", MALFORMED_MODELS)
def test_malformed_model_fails_with_one_error_line(model_file, tmp_path, capsys, keys, value, hint):
    payload = json.loads(model_file.read_text(encoding="utf-8"))
    *parents, last = keys
    target = payload
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    elif callable(value):
        target[last] = value(target[last])
    else:
        target[last] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["classify", "--model", str(path), "--input", "/dev/null"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert hint in err[0]


def _assert_one_error_line(capsys, rc, hint):
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert hint in err[0]


@pytest.fixture(scope="module")
def bigram_model_file(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("bigram-model") / "model.json"
    rc = main(
        ["train", str(corpus_file), "--out", str(out), "--metric", "presence",
         "--classifier", "nb", "--min-count", "2", "--ngrams", "unigrams+bigrams"]
    )
    assert rc == 0
    return out


SUBJECTIVITY = ("stages", "subjectivity")
DICTIONARY = (*SUBJECTIVITY, "dictionary")

MISTYPED_MODELS = [
    # ({path to an edited value: new value}, text the error must name); the
    # subjectivity stage, which scores every text, gets a fresh fingerprint
    pytest.param({(*DICTIONARY, "sizes"): ["a"]}, "sizes", id="string-size"),
    pytest.param({(*DICTIONARY, "sizes"): [3]}, "sizes", id="trigram-size"),
    pytest.param({(*DICTIONARY, "sizes"): [1]}, "sizes", id="sizes-without-bigrams"),
    pytest.param({(*DICTIONARY, "sizes"): []}, "sizes", id="no-sizes"),
    pytest.param({(*DICTIONARY, "ngrams", 0): [1, 2]}, "ngrams", id="int-ngram"),
    pytest.param({(*DICTIONARY, "ngrams", 0): []}, "ngrams", id="empty-ngram"),
    pytest.param({(*DICTIONARY, "ngrams", 0): ["a", "b", "c"]}, "ngrams", id="trigram"),
    pytest.param({(*DICTIONARY, "ngrams", 0): "a b c"}, "ngrams", id="joined-trigram"),
    pytest.param({(*DICTIONARY, "ngrams", 0): "a  b"}, "ngrams", id="double-space"),
    pytest.param({(*DICTIONARY, "ngrams", 0): ""}, "ngrams", id="empty-string"),
    pytest.param({(*DICTIONARY, "doc_freq", 0): 1.5}, "doc_freq", id="float-doc-freq"),
    pytest.param({(*DICTIONARY, "doc_freq", 0): True}, "doc_freq", id="bool-doc-freq"),
    pytest.param({(*DICTIONARY, "n_docs"): 1e9}, "n_docs", id="float-n-docs"),
    pytest.param(
        {(*DICTIONARY, "ngrams"): [], (*DICTIONARY, "doc_freq"): [], (*SUBJECTIVITY, "weights"): []},
        "ngrams",
        id="empty-dictionary",
    ),
    pytest.param({("config", "min_count"): 2.5}, "min_count", id="float-min-count"),
    pytest.param({("config", "svm_epochs"): 1.5}, "svm_epochs", id="float-epochs"),
    pytest.param({("config", "svm_lambda"): True}, "svm_lambda", id="bool-lambda"),
    pytest.param({("config", "nb_smoothing"): "1"}, "nb_smoothing", id="string-smoothing"),
    pytest.param({("config", "seed"): "x"}, "seed", id="string-seed"),
    pytest.param({("config", "seed"): -1}, "seed must be non-negative", id="negative-seed"),
    pytest.param({("config", "stemming"): 1}, "stemming", id="int-stemming"),
    pytest.param({(*DICTIONARY, "sizes"): [1.0, 2.0]}, "sizes", id="float-sizes"),
    pytest.param({(*DICTIONARY, "sizes"): [True, 2]}, "sizes", id="bool-size"),
    pytest.param({("tool_version",): None}, "tool_version", id="null-tool-version"),
    pytest.param({("tool_version",): 3}, "tool_version", id="int-tool-version"),
    pytest.param({("tool_version",): [1]}, "tool_version", id="list-tool-version"),
    pytest.param({("tool_version",): {"a": 1}}, "tool_version", id="object-tool-version"),
]


def _tampered_copy(model_path, edits, path):
    """Write model_path with edits applied to path; the subjectivity stage gets
    a fresh fingerprint, so only the edited values can fail."""
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    for keys, value in edits.items():
        *parents, last = keys
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
    stage = payload["stages"]["subjectivity"]
    blob = json.dumps(stage["dictionary"], sort_keys=True, ensure_ascii=False)
    stage["fingerprint"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("edits, hint", MISTYPED_MODELS)
def test_mistyped_model_fails_with_one_error_line(bigram_model_file, tmp_path, capsys, edits, hint):
    path = _tampered_copy(bigram_model_file, edits, tmp_path / "tampered.json")
    _assert_one_error_line(capsys, main(["classify", "--model", str(path), "--text", "добро"]), hint)


def test_n_docs_beyond_float_range_fails_with_one_error_line(corpus_file, tmp_path, capsys):
    # ifrequency divides n_docs by a document frequency, which overflows a float
    model = tmp_path / "model.json"
    rc = main(["train", str(corpus_file), "--out", str(model), "--metric", "ifrequency",
               "--classifier", "nb", "--min-count", "2"])
    assert rc == 0
    capsys.readouterr()
    path = _tampered_copy(model, {(*DICTIONARY, "n_docs"): 10**400}, tmp_path / "tampered.json")
    text = load_corpus(corpus_file).posts[0].text
    _assert_one_error_line(capsys, main(["classify", "--model", str(path), "--text", text]), "n_docs")


@pytest.mark.parametrize(
    "flags, hint",
    [
        pytest.param(["--svm-lambda", "nan"], "svm_lambda", id="nan-lambda"),
        pytest.param(["--svm-lambda", "inf"], "svm_lambda", id="inf-lambda"),
        pytest.param(["--svm-lambda", "0"], "svm_lambda", id="zero-lambda"),
        pytest.param(["--nb-smoothing", "nan"], "nb_smoothing", id="nan-smoothing"),
        pytest.param(["--nb-smoothing", "-1"], "nb_smoothing", id="negative-smoothing"),
        pytest.param(["--svm-epochs", "0"], "svm_epochs", id="zero-epochs"),
        pytest.param(["--classifier", "nb", "--svm-epochs", "0"], "svm_epochs", id="zero-epochs-nb"),
    ],
)
def test_bad_hyperparameter_fails_without_writing_a_model(corpus_file, tmp_path, capsys, flags, hint):
    out = tmp_path / "m.json"
    rc = main(["train", str(corpus_file), "--out", str(out), "--min-count", "2", *flags])
    _assert_one_error_line(capsys, rc, hint)
    assert not out.exists()


def test_non_token_word_list_entry_fails_without_writing_a_model(tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_text("и\ndon't\n", encoding="utf-8")
    out = tmp_path / "m.json"
    # the corpus does not exist: the word list fails before the corpus is read
    rc = main(["train", str(tmp_path / "missing.jsonl"), "--out", str(out), "--stop-words", str(stop)])
    _assert_one_error_line(capsys, rc, "stop.txt line 2: \"don't\" is not one token")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stop.txt"]


def test_repeated_rules_key_fails(corpus_file, tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("nodok\n", encoding="utf-8")
    b.write_text("nibar\n", encoding="utf-8")
    rc = main(
        ["train", str(corpus_file), "--out", str(tmp_path / "m.json"), "--rule-mode", "tag",
         "--rules", f"neg={a},neg={b}"]
    )
    _assert_one_error_line(capsys, rc, "neg")


@pytest.mark.parametrize(
    "flags, hint",
    [
        pytest.param(["--svm-lambda", "1e-320"], "svm_lambda", id="subnormal-lambda"),
        pytest.param(["--classifier", "nb", "--nb-smoothing", "1e308"], "nb_smoothing", id="huge-smoothing"),
    ],
)
@pytest.mark.parametrize("command", ["train", "evaluate", "evaluate-grid"])
def test_non_finite_fit_fails_with_one_error_line(corpus_file, tmp_path, capsys, command, flags, hint):
    out = tmp_path / "m.json"
    argv = {
        "train": ["train", str(corpus_file), "--out", str(out)],
        "evaluate": ["evaluate", str(corpus_file), "--folds", "3"],
        "evaluate-grid": ["evaluate", str(corpus_file), "--folds", "3", "--grid", "table1",
                          "--out", str(tmp_path / "grid")],
    }[command]
    if command == "evaluate-grid" and flags[:2] == ["--classifier", "nb"]:
        flags = flags[2:]  # every table1 cell sets its classifier; its NB cells still overflow
    # a numpy overflow warning would fail the test too: pytest turns RuntimeWarning into an error
    _assert_one_error_line(capsys, main([*argv, "--min-count", "2", *flags]), hint)
    assert not out.exists() and not (tmp_path / "grid").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "evaluate-grid"])
def test_svm_lambda_above_its_bound_fails_with_one_error_line(corpus_file, tmp_path, capsys, command):
    # at 1e300 a fit ran and scored every post ~1e-300, labelling all of them negative
    out = tmp_path / "m.json"
    argv = {
        "train": ["train", str(corpus_file), "--out", str(out)],
        "evaluate": ["evaluate", str(corpus_file), "--folds", "3", "--out", str(out)],
        "evaluate-grid": ["evaluate", str(corpus_file), "--folds", "3", "--grid", "table1",
                          "--out", str(tmp_path / "grid")],
    }[command]
    _assert_one_error_line(capsys, main([*argv, "--min-count", "2", "--svm-lambda", "1e300"]), "svm_lambda")
    assert not out.exists() and not (tmp_path / "grid").exists()


@pytest.mark.parametrize("classifier", ["nb", "svm"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_seed_fails_with_one_error_line(corpus_file, tmp_path, capsys, command, classifier):
    # the SVM failed only after every feature was built, in numpy's words; NB took the seed
    out = tmp_path / "m.json"
    argv = {
        "train": ["train", str(corpus_file), "--out", str(out)],
        "evaluate": ["evaluate", str(corpus_file), "--folds", "3", "--out", str(out)],
    }[command]
    rc = main([*argv, "--min-count", "2", "--classifier", classifier, "--seed", "-1"])
    _assert_one_error_line(capsys, rc, "seed must be non-negative, got -1")
    assert not out.exists()


# each grid's own valid inputs, to which an unused one is added
GRID_INPUTS = {
    "table1": [], "table2": ["--stop-words", "{stop}"], "table3": [], "table4": ["--rules", "neg={neg},emp={emp}"],
}
UNUSED_INPUTS = [
    *(
        pytest.param(["evaluate", "{corpus}", "--folds", "3", "--grid", grid, *GRID_INPUTS[grid], *extra],
                     f"drop {extra[0]}", id=f"{grid}{extra[0]}")
        for grid in GRID_INPUTS
        for extra in (["--stop-words", "{stop}"], ["--rules", "neg={neg},emp={emp}"])
        if extra[0] not in GRID_INPUTS[grid]
    ),
    pytest.param(["train", "{corpus}", "--rules", "neg={neg}"], "--rules needs --rule-mode", id="train--rules"),
    pytest.param(["evaluate", "{corpus}", "--folds", "3", "--rules", "neg={neg},emp={emp}"],
                 "--rules needs --rule-mode", id="evaluate--rules"),
    pytest.param(["stats", "{corpus}", "--by", "topic", "--by-year-month"],
                 "--by-year-month needs --by month", id="stats--by-year-month"),
    # a classifier knob that the fit does not read, rejected before the (missing) corpus is read
    *(
        pytest.param([command, "{missing}", "--classifier", clf, flag, value],
                     f"--classifier {clf} does not read {flag}", id=f"{command}-{clf}{flag}")
        for command, clf, flag, value in [
            ("train", "nb", "--svm-lambda", "5"),
            ("train", "nb", "--svm-epochs", "3"),
            ("train", "nb", "--seed", "9"),
            ("train", "svm", "--nb-smoothing", "0.25"),
            ("evaluate", "nb", "--svm-lambda", "5"),
            ("evaluate", "nb", "--svm-epochs", "3"),
            ("evaluate", "svm", "--nb-smoothing", "0.5"),
        ]
    ),
]


@pytest.mark.parametrize("argv, hint", UNUSED_INPUTS)
def test_an_input_that_nothing_reads_fails_with_one_error_line(corpus_file, tmp_path, capsys, argv, hint):
    # nothing in the run reads the input, so a manifest must not record it as used
    inputs = {"corpus": corpus_file, "stop": tmp_path / "stop.txt", "neg": tmp_path / "neg.txt",
              "emp": tmp_path / "emp.txt"}
    for name, word in (("stop", "и"), ("neg", "nodok"), ("emp", "mnogu")):
        inputs[name].write_text(word + "\n", encoding="utf-8")
    inputs["missing"] = tmp_path / "missing.jsonl"
    rc = main([arg.format(**inputs) for arg in argv] + ["--out", str(tmp_path / "out")])
    _assert_one_error_line(capsys, rc, hint)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emp.txt", "neg.txt", "stop.txt"]


def test_evaluate_nb_accepts_the_seed_that_its_fold_plan_reads(corpus_file, tmp_path):
    out = tmp_path / "nb.json"
    rc = main(["evaluate", str(corpus_file), "--folds", "3", "--min-count", "2", "--classifier", "nb",
               "--seed", "9", "--out", str(out)])
    assert rc == 0 and out.exists()


def test_single_fold_is_rejected(corpus_file, capsys):
    rc = main(["evaluate", str(corpus_file), "--folds", "1"])
    _assert_one_error_line(capsys, rc, "needs k >= 2 folds")


CORPUS_COMMANDS = ["train", "evaluate", "classify", "stats"]


def _corpus_argv(command, path, model_file, tmp_path):
    """A command line of each command that loads the corpus at path."""
    return {
        "train": ["train", str(path), "--out", str(tmp_path / "m.json")],
        "evaluate": ["evaluate", str(path)],
        "classify": ["classify", "--model", str(model_file), "--input", str(path)],
        "stats": ["stats", str(path), "--by", "month", "--out", str(tmp_path / "s.csv")],
    }[command]


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_non_string_timestamp_fails_in_every_command(model_file, tmp_path, capsys, command):
    path = write_jsonl(
        tmp_path / "c.jsonl", ['{"id": "a", "text": "x", "timestamp": 5, "label": "positive"}']
    )
    _assert_one_error_line(capsys, main(_corpus_argv(command, path, model_file, tmp_path)), "timestamp")


DEEP_JSON = "[" * 100_000 + "]" * 100_000

BAD_CORPUS_LINES = [
    # both timestamps parse, but their UTC normal form lies outside years 1..9999
    pytest.param('{"id": "b", "text": "y", "timestamp": "9999-12-31T23:59:59-23:59"}',
                 "line 2: bad timestamp", id="after-year-9999"),
    pytest.param('{"id": "b", "text": "y", "timestamp": "0001-01-01T00:00:00+01:00"}',
                 "line 2: bad timestamp", id="before-year-1"),
    pytest.param(DEEP_JSON, "line 2: malformed JSON", id="nested-too-deeply"),
]


@pytest.mark.parametrize("line, hint", BAD_CORPUS_LINES)
@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_bad_corpus_line_fails_in_every_command(model_file, tmp_path, capsys, command, line, hint):
    path = write_jsonl(tmp_path / "c.jsonl", ['{"id": "a", "text": "x", "label": "positive"}', line])
    _assert_one_error_line(capsys, main(_corpus_argv(command, path, model_file, tmp_path)), hint)


def test_deeply_nested_model_file_fails_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    rc = main(["classify", "--model", str(path), "--text", "x"])
    _assert_one_error_line(capsys, rc, "cannot parse model file")


class TestEvaluate:
    def test_single_config_to_stdout(self, corpus_file, capsys):
        rc = main(
            ["evaluate", str(corpus_file), "--classifier", "nb", "--metric", "count",
             "--min-count", "2", "--folds", "3"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 3
        assert 0.0 <= report["end_to_end_accuracy"] <= 1.0

    def test_single_config_to_file_with_manifest(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["evaluate", str(corpus_file), "--classifier", "nb", "--metric", "presence",
             "--min-count", "2", "--folds", "3", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        assert out.with_name(out.name + ".manifest.json").exists()

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--metric", "presence"], "--metric"),
            (["--classifier", "nb"], "--classifier"),
            (["--ngrams", "bigrams"], "--ngrams"),
            (["--rule-mode", "tag"], "--rule-mode"),
            (["--stem"], "--stem"),
        ],
    )
    def test_grid_rejects_a_flag_that_every_cell_sets(self, corpus_file, tmp_path, capsys, flags, flag):
        # table4, as --rule-mode needs --rules
        neg, emp = tmp_path / "neg.txt", tmp_path / "emp.txt"
        neg.write_text("nodok\n", encoding="utf-8")
        emp.write_text("mnogu\n", encoding="utf-8")
        out = tmp_path / "grid"
        rc = main(
            ["evaluate", str(corpus_file), "--grid", "table4", "--folds", "3", "--out", str(out),
             "--rules", f"neg={neg},emp={emp}", *flags]
        )
        _assert_one_error_line(capsys, rc, f"--grid table4 sets {flag} in every cell")
        assert not out.exists()

    def test_grid_table2_requires_stop_words(self, corpus_file, capsys):
        rc = main(["evaluate", str(corpus_file), "--grid", "table2", "--folds", "3"])
        assert rc != 0
        assert "stop-words" in capsys.readouterr().err

    def test_grid_table4_requires_both_lexicons(self, corpus_file, tmp_path, capsys):
        neg = tmp_path / "neg.txt"
        neg.write_text("nodok\n", encoding="utf-8")
        rc = main(
            ["evaluate", str(corpus_file), "--grid", "table4", "--folds", "3",
             "--rules", f"neg={neg}"]
        )
        assert rc != 0
        assert "emp=" in capsys.readouterr().err

    # sha256 of each grid report of scripts/run_grid_demo.py --n-posts 90, recorded
    # with Python 3.11.7 and numpy 2.4.6. The reports hold count ratios, confusion
    # matrices and configs, which pin every cell's labels, and the three mean_* floats.
    # pipeline._mean sums those left to right, so the digests also hold on 3.12+,
    # whose builtin sum of floats is compensated
    GRID_DEMO_DIGESTS = {
        "table1": "fb619c960a0cbb6f01eb684a2073cbfc3d3b847edfaa7058b8043c8317a462f9",
        "table2": "90aea3c1933da040fe3ea98127cc8a6f4c6bb663975ed821dfa177a87dc61958",
        "table3": "6ea452a2de28c88145ae5c06cb566e403b3f5232afd6494ea29e3db1f28bbd65",
        "table4": "0b47df705f78d117d119e5618914ec45bea18054bba75afb8a73795d609b6a1e",
    }

    def test_grid_demo_reports_match_their_recorded_digests(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_grid_demo.py"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__)))
        done = subprocess.run(
            [sys.executable, str(script), "--n-posts", "90", "--grids", *self.GRID_DEMO_DIGESTS,
             "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        digests = {
            table: hashlib.sha256((tmp_path / table / f"grid_{table}.json").read_bytes()).hexdigest()
            for table in self.GRID_DEMO_DIGESTS
        }
        assert digests == self.GRID_DEMO_DIGESTS


class TestStats:
    @pytest.fixture()
    def classified_file(self, model_file, corpus_file, tmp_path, capsys):
        rc = main(["classify", "--model", str(model_file), "--input", str(corpus_file)])
        assert rc == 0
        path = tmp_path / "classified.jsonl"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        return path

    def test_topic_csv(self, classified_file, tmp_path):
        out = tmp_path / "mood.csv"
        rc = main(["stats", str(classified_file), "--by", "topic", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "key,positive,negative,mood"
        assert len(lines) > 1

    def test_month_json_is_valid_json(self, classified_file, tmp_path):
        out = tmp_path / "mood.json"
        rc = main(
            ["stats", str(classified_file), "--by", "month", "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert all(set(row) == {"key", "positive", "negative", "mood"} for row in payload)

    def test_missing_attribute_warns_and_emits_empty(self, tmp_path, capsys):
        path = write_jsonl(
            tmp_path / "no-ts.jsonl",
            ['{"id": "a", "text": "x", "label": "positive"}'],
        )
        out = tmp_path / "mood.csv"
        rc = main(["stats", str(path), "--by", "month", "--out", str(out)])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8").splitlines() == ["key,positive,negative,mood"]

    @pytest.mark.parametrize("by, attr", [("topic", "topic"), ("month", "timestamp")])
    def test_classified_file_without_the_attribute_emits_header_only(
        self, classified_file, tmp_path, capsys, by, attr
    ):
        records = [json.loads(line) for line in classified_file.read_text(encoding="utf-8").splitlines()]
        assert all(record[attr] is not None for record in records)
        path = write_jsonl(
            tmp_path / "stripped.jsonl",
            [json.dumps({k: v for k, v in record.items() if k != attr}) for record in records],
        )
        out = tmp_path / "mood.csv"
        rc = main(["stats", str(path), "--by", by, "--out", str(out)])
        assert rc == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warnings == [f"warning: no post carries a {attr}; emitting an empty table"]
        assert out.read_text(encoding="utf-8").splitlines() == ["key,positive,negative,mood"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "opmine" in capsys.readouterr().out
