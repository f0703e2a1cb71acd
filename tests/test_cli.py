import json

import pytest

from opmine.cli import main
from opmine.corpus import load_corpus, save_corpus
from opmine.pipeline import classify_post, load_model
from opmine.synthetic import generate_corpus

from conftest import write_jsonl


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
         "--classifier", "nb", "--min-count", "2", "--seed", "5"]
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
        assert manifest["config"]["seed"] == 5
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


DELETE = object()
POLARITY = ("stages", "polarity")

MALFORMED_MODELS = [
    # (path to the edited value, new value or DELETE, text the error must name)
    pytest.param(("format_version",), 1, "retrain", id="v1-file"),
    pytest.param(("config", "colour"), "red", "colour", id="unknown-config-key"),
    pytest.param(("config", "seed"), DELETE, "seed", id="missing-config-key"),
    pytest.param(("config", "min_count"), "5", "config", id="bad-config-value"),
    pytest.param(("stages",), DELETE, "stages", id="missing-stages"),
    pytest.param(POLARITY, DELETE, "polarity", id="missing-stage"),
    pytest.param(("stages", "subjectivity", "bias"), DELETE, "bias", id="missing-stage-key"),
    pytest.param((*POLARITY, "dictionary", "ngrams", 0), 7, "dictionary", id="bad-ngram"),
    pytest.param((*POLARITY, "weights", -1), DELETE, "weights", id="truncated-weights"),
    pytest.param((*POLARITY, "weights", 0), float("nan"), "finite", id="nan-weight"),
    pytest.param((*POLARITY, "weights", 0), "0.5", "numbers", id="string-weight"),
    pytest.param(("stages", "subjectivity", "bias"), float("inf"), "finite", id="inf-bias"),
    pytest.param((*POLARITY, "classes"), ["negative", "positive"], "classes", id="swapped-classes"),
    pytest.param((*POLARITY, "weights", 0), 10**400, "finite", id="weight-beyond-float"),
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
    # a numpy overflow warning would fail the test too: pytest turns RuntimeWarning into an error
    _assert_one_error_line(capsys, main([*argv, "--min-count", "2", *flags]), hint)
    assert not out.exists() and not (tmp_path / "grid").exists()


def test_single_fold_is_rejected(corpus_file, capsys):
    rc = main(["evaluate", str(corpus_file), "--folds", "1"])
    _assert_one_error_line(capsys, rc, "needs k >= 2 folds")


@pytest.mark.parametrize("command", ["train", "evaluate", "classify", "stats"])
def test_non_string_timestamp_fails_in_every_command(model_file, tmp_path, capsys, command):
    path = write_jsonl(
        tmp_path / "c.jsonl", ['{"id": "a", "text": "x", "timestamp": 5, "label": "positive"}']
    )
    argv = {
        "train": ["train", str(path), "--out", str(tmp_path / "m.json")],
        "evaluate": ["evaluate", str(path)],
        "classify": ["classify", "--model", str(model_file), "--input", str(path)],
        "stats": ["stats", str(path), "--by", "month", "--out", str(tmp_path / "s.csv")],
    }[command]
    _assert_one_error_line(capsys, main(argv), "timestamp")


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "opmine" in capsys.readouterr().out
