"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they pass).
"""

import json
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from opmine.classify import (
    predict_nb,
    predict_svm,
    train_nb,
    train_svm,
)
from opmine.cli import main
from opmine.corpus import Corpus, Post, save_corpus, split_folds
from opmine.features import (
    RuleLexicons,
    build_dictionary,
    compute_metric,
    extract_counts,
)
from opmine.pipeline import (
    PipelineConfig,
    aggregate_report,
    cross_validate,
    evaluate_fold,
)
from opmine.preprocess import build_suffix_trie, stem, tokenize
from opmine.stats import MoodRow, mood_by_topic
from opmine.synthetic import generate_corpus

from conftest import make_separable_2d, successor_variety
from svm_oracle import svm_objective, svm_objective_gradient
from synthetic_helpers import shuffle_labels
from test_classify import brute_force_nb_score
from test_features import brute_force_counts, brute_force_metric
from test_preprocess import brute_force_variety

HEADLINE_CFG = PipelineConfig(metric="ifrequency", classifier="svm", min_count=5, seed=0)


def _report(criterion, message):
    print(f"[acceptance] criterion {criterion}: PASS — {message}")


def test_criterion_1_metric_oracles():
    started = time.perf_counter()
    rng = random.Random(101)
    pool = [f"w{i}" for i in range(30)]
    posts = [[rng.choice(pool) for _ in range(rng.randint(0, 15))] for _ in range(200)]
    dictionary = build_dictionary(
        [p for p in posts if p] or [["w0"]], sizes=(1, 2), min_count=2
    )
    checked = 0
    for tokens in posts:
        counts = extract_counts(tokens, dictionary)
        assert counts == brute_force_counts(tokens, dictionary)
        for metric in ("presence", "count"):
            assert compute_metric(metric, counts, dictionary) == brute_force_metric(
                metric, counts, dictionary
            )
        if sum(counts.values()) != 0:
            for metric in ("frequency", "ifrequency"):
                got = compute_metric(metric, counts, dictionary)
                want = brute_force_metric(metric, counts, dictionary)
                assert got.keys() == want.keys()
                for i in got:
                    assert abs(got[i] - want[i]) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 200
    assert elapsed < 5.0
    _report(1, f"four metrics match brute-force recount on 200 posts in {elapsed:.2f}s")


def test_criterion_2_nb_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    m = 5
    train_vecs = [
        {0: 2.0, 1: 1.0},
        {2: 3.0},
        {1: 1.0, 3: 2.0},
        {0: 1.0, 4: 1.5},
    ]
    labels = ["pos", "pos", "neg", "neg"]
    model = train_nb(train_vecs, labels, smoothing=1.0, vocab_size=m, classes=("pos", "neg"))
    for _ in range(100):
        raw = rng.uniform(0, 4, size=m) * (rng.random(m) < 0.7)
        x = {i: float(v) for i, v in enumerate(raw) if v}
        want = brute_force_nb_score(train_vecs, labels, ("pos", "neg"), 1.0, m, x)
        got = predict_nb(model, x)
        assert abs(got.score - want) <= 1e-9
        if want != 0:
            assert got.label == ("pos" if want > 0 else "neg")
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"posterior scores match exhaustive Bayes rule on 100 queries in {elapsed:.2f}s")


def test_criterion_3_svm_properties():
    started = time.perf_counter()
    vectors, labels, w_true = make_separable_2d(n=60, seed=5, margin=0.5)
    for v, y in zip(vectors, labels):  # exhaustive separability check first
        assert y * (w_true[0] * v[0] + w_true[1] * v[1]) >= 0.5
    lam = 0.1
    model = train_svm(vectors, labels, lambda_=lam, epochs=64, seed=3)

    train_acc = sum(
        predict_svm(model, v).label == y for v, y in zip(vectors, labels)
    ) / len(labels)
    assert train_acc == 1.0

    obj = svm_objective(model.weights, model.bias, vectors, labels, lam)
    obj_init = svm_objective(np.zeros(2), 0.0, vectors, labels, lam)
    assert obj_init == pytest.approx(1.0)
    assert obj <= 1.0
    assert obj <= obj_init

    grad_w, grad_b = svm_objective_gradient(model.weights, model.bias, vectors, labels, lam)
    h = 1e-6
    margins = np.array(
        [
            y * (sum(model.weights[i] * val for i, val in v.items()) + model.bias)
            for v, y in zip(vectors, labels)
        ]
    )
    assert np.min(np.abs(1 - margins)) > 50 * h  # objective differentiable near this point
    rng = np.random.default_rng(0)
    for coord in rng.integers(0, 3, size=20):
        if coord < 2:
            wp, wm = model.weights.copy(), model.weights.copy()
            wp[coord] += h
            wm[coord] -= h
            fd = (
                svm_objective(wp, model.bias, vectors, labels, lam)
                - svm_objective(wm, model.bias, vectors, labels, lam)
            ) / (2 * h)
            analytic = grad_w[coord]
        else:
            fd = (
                svm_objective(model.weights, model.bias + h, vectors, labels, lam)
                - svm_objective(model.weights, model.bias - h, vectors, labels, lam)
            ) / (2 * h)
            analytic = grad_b
        assert abs(fd - analytic) <= 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        3,
        f"training accuracy 1.0, objective {obj:.3f} <= 1.0, subgradient matches "
        f"finite differences in {elapsed:.2f}s",
    )


def test_criterion_4_end_to_end_synthetic(synth300):
    started = time.perf_counter()
    report = cross_validate(synth300, HEADLINE_CFG, k=10)
    assert report.end_to_end_accuracy >= 0.90

    null_accuracies = []
    for i in range(20):
        shuffled = shuffle_labels(synth300, seed=1000 + i)
        null_accuracies.append(
            cross_validate(shuffled, HEADLINE_CFG, k=10).end_to_end_accuracy
        )
    null_mean = sum(null_accuracies) / len(null_accuracies)
    assert abs(null_mean - 1 / 3) <= 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        4,
        f"e2e accuracy {report.end_to_end_accuracy:.3f} >= 0.90, permutation-null mean "
        f"{null_mean:.3f} within 1/3±0.1, in {elapsed:.1f}s",
    )


def test_criterion_5_rule_bigram_semantics(synth300):
    neg = RuleLexicons(negatory=frozenset({"not"}))
    emp = RuleLexicons(emphasizer=frozenset({"very"}))
    d = build_dictionary([["good", "good"]], sizes=(1,), min_count=1)
    good = d.entries["good"]

    # "not good" is considered -1 occurrence of "good"
    assert extract_counts(["not", "good"], d, neg, "signed-count") == {good: -1}
    # an emphasized occurrence counts as two
    assert extract_counts(["very", "good"], d, emp, "signed-count") == {good: 2}
    assert extract_counts(["very", "good", "good"], d, emp, "signed-count") == {good: 3}
    # -1 + 1 cancels to zero: entry absent
    assert extract_counts(["not", "good", "good"], d, neg, "signed-count") == {}
    # tag mode merges the pair into one unigram
    d_tag = build_dictionary([["NEG_good"]], sizes=(1,), min_count=1)
    assert extract_counts(["not", "good"], d_tag, neg, "tag") == {d_tag.entries["NEG_good"]: 1}

    # signed-count with empty lexicons is bit-identical to off mode corpus-wide
    empty = RuleLexicons()
    token_seqs = [tokenize(p.text) for p in synth300]
    dictionary = build_dictionary(token_seqs, sizes=(1,), min_count=5)
    for tokens in token_seqs:
        off = extract_counts(tokens, dictionary)
        signed = extract_counts(tokens, dictionary, empty, "signed-count")
        assert off == signed
        for metric in ("presence", "count", "frequency", "ifrequency"):
            assert (
                compute_metric(metric, off, dictionary)
                == compute_metric(metric, signed, dictionary)
            )
    cfg_off = replace(HEADLINE_CFG, rule_mode="off")
    cfg_signed = replace(HEADLINE_CFG, rule_mode="signed-count")
    report_off = cross_validate(synth300, cfg_off, k=10)
    report_signed = cross_validate(synth300, cfg_signed, k=10, rules=empty)
    assert report_off == report_signed
    _report(5, "signed-count transforms exact; empty lexicons reproduce off mode bit-for-bit")


def test_criterion_6_stemmer_oracle():
    rng = random.Random(606)
    for _ in range(100):
        vocab = set()
        while len(vocab) < 20:
            vocab.add("".join(rng.choice("abcde") for _ in range(rng.randint(2, 8))))
        trie = build_suffix_trie(vocab)
        for word in vocab:
            for i in range(len(word) + 1):
                assert successor_variety(trie, word, i) == brute_force_variety(vocab, word[:i])
            s = stem(trie, word)
            assert word.startswith(s)
            assert len(s) >= 2
    _report(6, "successor variety matches brute-force scans on 100 vocabularies; stems bounded")


def test_criterion_7_no_leakage_audit(synth300):
    report = cross_validate(synth300, HEADLINE_CFG, k=10)
    plan = split_folds(synth300, 10, HEADLINE_CFG.seed, stratified=True)
    labeled = synth300.labeled()
    rebuilt = []
    for fold in range(10):
        test_posts = [p for p in labeled if plan[p.id] == fold]
        test_ids = {p.id for p in test_posts}
        universe = Corpus(posts=tuple(p for p in synth300 if p.id not in test_ids))
        rebuilt.append(evaluate_fold(universe, test_posts, HEADLINE_CFG))
    assert aggregate_report(rebuilt) == report
    _report(7, "deleting test posts from the universe reproduces every fold bit-identically")


def test_criterion_8_grid_shapes(synth300, tmp_path, capsys):
    corpus_path = tmp_path / "synthetic.jsonl"
    save_corpus(synth300, corpus_path)
    neg_path = tmp_path / "negatory.txt"
    emp_path = tmp_path / "emphasizers.txt"
    neg_path.write_text("nodok\nnibar\n", encoding="utf-8")
    emp_path.write_text("vemos\nsilno\n", encoding="utf-8")

    out1 = tmp_path / "grid1"
    assert main(["evaluate", str(corpus_path), "--grid", "table1", "--out", str(out1)]) == 0
    grid1 = json.loads((out1 / "grid_table1.json").read_text(encoding="utf-8"))
    cells = {(c["row"], c["classifier"]) for c in grid1["cells"]}
    assert len(grid1["cells"]) == 8
    assert cells == {
        (row, clf)
        for row in ("Presence", "Count", "Frequency", "IFrequency")
        for clf in ("svm", "nb")
    }

    small = tmp_path / "small.jsonl"
    save_corpus(generate_corpus(n_posts=90, seed=11), small)
    out3 = tmp_path / "grid3"
    assert main(
        ["evaluate", str(small), "--grid", "table3", "--folds", "3", "--min-count", "2",
         "--out", str(out3)]
    ) == 0
    grid3 = json.loads((out3 / "grid_table3.json").read_text(encoding="utf-8"))
    rows3 = [c["row"] for c in grid3["cells"] if c["block"] == "Presence" and c["classifier"] == "svm"]
    assert rows3 == ["Unigrams only", "Bigrams only", "Unigrams bigrams"]
    assert len(grid3["cells"]) == 12

    out4 = tmp_path / "grid4"
    assert main(
        ["evaluate", str(small), "--grid", "table4", "--folds", "3", "--min-count", "2",
         "--rules", f"neg={neg_path},emp={emp_path}", "--out", str(out4)]
    ) == 0
    grid4 = json.loads((out4 / "grid_table4.json").read_text(encoding="utf-8"))
    rows4 = [c["row"] for c in grid4["cells"] if c["block"] == "IFrequency" and c["classifier"] == "nb"]
    assert rows4 == ["Unigram", "Negations only", "Emphasizers only", "Both"]
    assert len(grid4["cells"]) == 16
    capsys.readouterr()
    _report(8, "table1 is 4x2; table3 and table4 emit the required row structures")


def test_criterion_9_mood_exactness():
    def post(i, topic):
        return Post(id=f"p{i}", text="t", topic=topic)

    pairs = (
        [(post(i, "food"), "positive") for i in range(3)]
        + [(post(3, "food"), "negative")]
        + [(post(4, "news"), "objective"), (post(5, "news"), "objective")]
        + [(post(6, "sport"), "negative"), (post(7, "sport"), "negative")]
    )
    table = mood_by_topic(pairs)
    assert table.rows["food"] == MoodRow(positive=3, negative=1)
    assert table.rows["food"].mood == 3 / 4
    assert table.rows["news"].mood is None  # p + n = 0 stays undefined
    assert table.rows["sport"].mood == 0.0

    swap = {"positive": "negative", "negative": "positive"}
    mirror = mood_by_topic([(p, swap.get(lab, lab)) for p, lab in pairs])
    for key, row in table.rows.items():
        if row.mood is None:
            assert mirror.rows[key].mood is None
        else:
            assert mirror.rows[key].mood == 1 - row.mood
    _report(9, "mood values exact, undefined case preserved, relabel symmetry holds")
