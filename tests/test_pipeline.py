import base64
import contextlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine import classify, pipeline
from opmine.classify import SVMModel, predict_nb, predict_svm
from opmine.corpus import GOLD_LABELS, Corpus, CorpusError, Post, save_corpus, split_folds
from opmine.features import METRICS, FeatureDictionary, RuleLexicons, metric_items
from opmine.pipeline import (
    CLASSIFIERS,
    GRID_NAMES,
    STAGE_CLASSES,
    SVM_LAMBDA_MAX,
    ModelFormatError,
    PipelineConfig,
    StageModel,
    _classifier_vector,
    _predict_stage,
    _score,
    aggregate_report,
    classify_post,
    cross_validate,
    cross_validate_grid,
    evaluate_fold,
    grid_cells,
    load_model,
    model_to_json,
    save_model,
    train_two_stage,
)
from opmine.preprocess import stem_tokens, tokenize
from opmine.synthetic import generate_corpus

import metric_oracle
from conftest import assert_no_child_processes
from svm_oracle import train_svm_dense
from synthetic_helpers import rule_lexicons


def tiny_corpus():
    return Corpus(
        posts=(
            Post(id="a", text="добро супер одлично", label="positive"),
            Post(id="b", text="лошо грозно ужасно", label="negative"),
            Post(id="c", text="факт вест извештај", label="objective"),
        )
    )


NB_CFG = PipelineConfig(metric="count", classifier="nb", min_count=1)


class TestConfig:
    def test_rejects_unknown_values(self):
        for bad in (
            {"metric": "tfidf"},
            {"classifier": "tree"},
            {"ngrams": "trigrams"},
            {"rule_mode": "on"},
            {"rule_scope": "none"},
            {"min_count": 0},
        ):
            with pytest.raises(ValueError):
                PipelineConfig(**bad)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("min_count", 2.5),
            ("min_count", True),
            ("svm_epochs", 1.5),
            ("seed", "x"),
            ("seed", 1.0),
            ("nb_smoothing", "1"),
            ("nb_smoothing", True),
            ("svm_lambda", True),
            ("stop_words", 1),
            ("stemming", "yes"),
            ("ngrams", ["unigrams"]),
        ],
    )
    def test_rejects_wrong_types(self, name, value):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})

    def test_svm_lambda_bound_is_inclusive(self):
        assert PipelineConfig(svm_lambda=SVM_LAMBDA_MAX).svm_lambda == SVM_LAMBDA_MAX
        with pytest.raises(ValueError, match="svm_lambda must be at most"):
            PipelineConfig(svm_lambda=math.nextafter(SVM_LAMBDA_MAX, math.inf))

    def test_rejects_negative_seed(self):
        assert PipelineConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            PipelineConfig(seed=-1)

    def test_dict_round_trip(self):
        cfg = PipelineConfig(metric="presence", classifier="nb", seed=9)
        assert PipelineConfig(**asdict(cfg)) == cfg


class TestTrainTwoStage:
    def test_stage_training_subsets(self):
        model = train_two_stage(tiny_corpus(), NB_CFG)
        assert model.subjectivity.dictionary.n_docs == 3
        assert model.polarity.dictionary.n_docs == 2  # positive + negative posts only

    def test_missing_class_named(self):
        corpus = Corpus(posts=tiny_corpus().posts[:2])
        with pytest.raises(ValueError, match="objective"):
            train_two_stage(corpus, NB_CFG)

    def test_same_seed_identical_serialized_models(self, separable_corpus):
        cfg = PipelineConfig(metric="ifrequency", classifier="svm", min_count=2, svm_epochs=4)
        a = model_to_json(train_two_stage(separable_corpus, cfg))
        b = model_to_json(train_two_stage(separable_corpus, cfg))
        assert a == b

    def test_unlabeled_posts_ignored_in_training(self):
        with_extra = Corpus(posts=tiny_corpus().posts + (Post(id="u", text="добро добро"),))
        a = model_to_json(train_two_stage(tiny_corpus(), NB_CFG))
        b = model_to_json(train_two_stage(with_extra, NB_CFG))
        assert a == b

    def test_rule_mode_requires_lexicons(self):
        cfg = PipelineConfig(metric="presence", classifier="nb", rule_mode="tag", min_count=1)
        with pytest.raises(ValueError, match="lexicon"):
            train_two_stage(tiny_corpus(), cfg)

    def test_stop_flag_requires_list(self):
        cfg = PipelineConfig(metric="count", classifier="nb", stop_words=True, min_count=1)
        with pytest.raises(ValueError, match="stop"):
            train_two_stage(tiny_corpus(), cfg)

    def test_nb_accepts_signed_counts_via_clamping(self, separable_corpus):
        cfg = PipelineConfig(
            metric="count", classifier="nb", rule_mode="signed-count", min_count=2
        )
        model = train_two_stage(separable_corpus, cfg, rules=rule_lexicons())
        result = classify_post(model, separable_corpus.posts[0].text)
        assert result.label in ("positive", "negative", "objective")

    def test_stemming_leaves_every_rule_word_to_the_rule_walk(self, synth300, tmp_path):
        # the quick-start corpus: stemmed first, nodok became "no" (and silno "si" in
        # polarity), so the walk missed them and the stages kept 38 and 10 tagged n-grams
        cfg = PipelineConfig(rule_mode="tag", stemming=True, min_count=2)
        model = train_two_stage(synth300, cfg, rules=rule_lexicons())
        path = tmp_path / "m.json"
        save_model(model, path)
        for trained in (model, load_model(path)):
            stages = (trained.subjectivity, trained.polarity)
            tagged = [sum(g.startswith(("NEG_", "EMP_")) for g in s.dictionary.entries) for s in stages]
            assert tagged == [51, 32]
            words = sorted(trained.rules.negatory | trained.rules.emphasizer)
            for stage in stages:
                assert stem_tokens(stage.stem_trie, words) == words

    def test_stop_list_may_not_hold_a_rule_word(self, separable_corpus):
        cfg = PipelineConfig(classifier="nb", rule_mode="tag", rule_scope="negation-only", stop_words=True)
        with pytest.raises(ValueError, match=r"\['nibar'\]"):
            train_two_stage(separable_corpus, cfg, frozenset({"nibar", "и"}), rule_lexicons())
        # outside the rule scope, the word is no rule word
        train_two_stage(separable_corpus, cfg, frozenset({"vemos"}), rule_lexicons())


class TestClassifyPost:
    def test_objective_short_circuits_polarity(self):
        model = train_two_stage(tiny_corpus(), NB_CFG)
        result = classify_post(model, "факт вест извештај")
        assert result.label == "objective"
        assert result.polarity_score is None

    def test_subjective_post_gets_polarity(self):
        model = train_two_stage(tiny_corpus(), NB_CFG)
        result = classify_post(model, "добро супер одлично")
        assert result.label == "positive"
        assert result.polarity_score is not None
        assert result.subjectivity_score != 0

    def test_empty_text_is_deterministic(self):
        model = train_two_stage(tiny_corpus(), NB_CFG)
        first = classify_post(model, "")
        again = classify_post(model, "")
        assert first == again
        assert first.label in ("positive", "negative", "objective")


class TestCrossValidate:
    def test_separable_corpus_is_perfect(self, separable_corpus):
        cfg = PipelineConfig(metric="ifrequency", classifier="svm", min_count=2)
        report = cross_validate(separable_corpus, cfg, k=5)
        assert report.end_to_end_accuracy == 1.0
        assert report.subjectivity_accuracy == 1.0
        assert report.polarity_accuracy == 1.0

    def test_fold_error_identifies_fold(self):
        posts = [
            Post(id=f"s{i}", text=f"w{i} w{i+1} w{i+2}", label="positive" if i % 2 else "negative")
            for i in range(8)
        ]
        posts.append(Post(id="only-objective", text="факт вест", label="objective"))
        cfg = PipelineConfig(metric="count", classifier="nb", min_count=1)
        with pytest.raises(ValueError, match=r"fold \d"):
            cross_validate(Corpus(posts=tuple(posts)), cfg, k=2)

    def test_empty_stratified_folds_name_class_sizes(self):
        # every class restarts the round-robin at fold 0, so 2 posts per class
        # fill folds 0 and 1 only
        posts = tuple(
            Post(id=f"p{i}", text=f"w{i} x", label=label)
            for i, label in enumerate(["positive", "negative", "objective"] * 2)
        )
        with pytest.raises(CorpusError, match=r"2, 3, 4 .*negative=2, objective=2, positive=2"):
            cross_validate(Corpus(posts=posts), NB_CFG, k=5)

    def test_end_to_end_bounded_by_subjectivity_per_fold(self):
        noisy = generate_corpus(n_posts=120, seed=23, shared_fraction=0.6)
        cfg = PipelineConfig(metric="presence", classifier="nb", min_count=2)
        report = cross_validate(noisy, cfg, k=4)
        for e2e, subj in zip(report.fold_end_to_end, report.fold_subjectivity):
            assert e2e <= subj

    def test_confusion_matrix_consistency(self):
        noisy = generate_corpus(n_posts=120, seed=23, shared_fraction=0.6)
        cfg = PipelineConfig(metric="frequency", classifier="nb", min_count=2)
        report = cross_validate(noisy, cfg, k=4)
        trace = sum(report.confusion[lab][lab] for lab in report.confusion)
        total = sum(sum(row.values()) for row in report.confusion.values())
        assert total == len(noisy.labeled()) == report.n_posts
        assert report.end_to_end_accuracy == trace / total
        for lab, row in report.confusion.items():
            assert sum(row.values()) == sum(1 for p in noisy.labeled() if p.label == lab)

    def test_grid_reproducibility(self, separable_corpus):
        cfg = PipelineConfig(metric="presence", classifier="svm", min_count=2, svm_epochs=4)
        assert cross_validate(separable_corpus, cfg, k=3) == cross_validate(
            separable_corpus, cfg, k=3
        )


def grid_case():
    """A seeded 90-post corpus, a stop list without rule words, both lexicons
    and the 44 cells of table1-4."""
    corpus = generate_corpus(n_posts=90, seed=5, vocab_size=20, rule_word_prob=0.1)
    rules = rule_lexicons()
    freq = Counter(t for p in corpus for t in tokenize(p.text))
    stop = frozenset([w for w, _ in freq.most_common() if w not in rules.negatory | rules.emphasizer][:3])
    cells = [cell for table in GRID_NAMES for cell in grid_cells(table, PipelineConfig(svm_epochs=3, seed=5))]
    return corpus, stop, rules, cells


class TestCrossValidateGrid:
    """One driver call shares each fold's features between configs with one
    feature key; that sharing must never change a report."""

    def test_sharing_never_changes_a_report(self):
        corpus, stop, rules, cells = grid_case()
        twin = next(
            c for c in cells
            if (c.table, c.block, c.row, c.classifier) == ("table3", "IFrequency", "Unigrams bigrams", "nb")
        )
        # min_count is the one feature-key field no table varies
        variant = replace(twin.config, min_count=1)
        configs = [cell.config for cell in cells] + [variant]
        reports = cross_validate_grid(corpus, configs, k=3, stop_list=stop, rules=rules)
        assert len(reports) == len(configs) == 45
        for config, report in zip(configs, reports):
            assert report == cross_validate(corpus, config, k=3, stop_list=stop, rules=rules), config
        assert reports[-1] != reports[cells.index(twin)]

    def test_each_post_is_counted_once_per_key_and_vectorized_once_per_metric(self, monkeypatch):
        corpus, stop, rules, cells = grid_case()
        configs = [cell.config for cell in cells if cell.table == "table1"]
        # one feature key, 4 metrics, 2 classifiers
        assert len(configs) == 8 and len({c.metric for c in configs}) == 4
        calls = count_calls(monkeypatch, "extract_counts", "metric_items")
        force_workers(monkeypatch, 1)
        k = 3
        cross_validate_grid(corpus, configs, k=k, stop_list=stop, rules=rules)
        labeled = corpus.labeled()
        polar = sum(p.label != "objective" for p in labeled)
        # per (fold, stage, post): every post is held out in one fold and both
        # stages count it there; it trains stage 1 in the other k - 1 folds,
        # and stage 2 as well when it is polar
        assert calls["extract_counts"] == 2 * len(labeled) + (k - 1) * (len(labeled) + polar)
        assert calls["metric_items"] == 4 * calls["extract_counts"]

    def test_svm_cells_of_a_key_share_one_fit_pass(self, monkeypatch):
        corpus, stop, rules, cells = grid_case()
        configs = [cell.config for cell in cells if cell.table == "table1"]
        calls = count_calls(monkeypatch, "train_svm", "train_svm_pair")
        force_workers(monkeypatch, 1)
        k = 3
        cross_validate_grid(corpus, configs, k=k, stop_list=stop, rules=rules)
        # 4 SVM cells in 2 pairs (presence with count, frequency with ifrequency), per stage and fold
        assert calls == {"train_svm_pair": 2 * 2 * k}
        calls.clear()
        train_two_stage(corpus, configs[1], stop_list=stop, rules=rules)
        assert calls == {"train_svm": 2}
        # one key, two lambdas: the two cells at 0.01 make a pair, the cell at 0.1 is fitted alone
        odd = [
            PipelineConfig(metric=m, svm_lambda=lam, svm_epochs=3, seed=5)
            for m, lam in (("presence", 0.01), ("count", 0.1), ("frequency", 0.01))
        ]
        calls.clear()
        reports = cross_validate_grid(corpus, odd, k=k)
        assert calls == {"train_svm_pair": 2 * k, "train_svm": 2 * k}
        assert reports == [cross_validate(corpus, config, k=k) for config in odd]

    def test_svm_cells_whose_indices_differ_are_fitted_alone(self, monkeypatch):
        # "zz" is in every post, so its idf is 0 and ifrequency drops it while presence keeps it
        corpus = Corpus(posts=tuple(replace(p, text=p.text + " zz") for p in generate_corpus(n_posts=90, seed=5)))
        configs = [PipelineConfig(metric=m, min_count=2, svm_epochs=3) for m in ("presence", "ifrequency")]
        calls = count_calls(monkeypatch, "train_svm", module=classify)
        force_workers(monkeypatch, 1)
        reports = cross_validate_grid(corpus, configs, k=3)
        # the pair trainer fits each of its two sets alone, per stage and fold
        assert calls == {"train_svm": 2 * 2 * 3}
        assert reports == [cross_validate(corpus, config, k=3) for config in configs]

    def test_a_non_finite_partner_fails_its_stage(self, monkeypatch):
        def poisoned(*args, _real=pipeline.train_svm_pair, **kwargs):
            first, second = _real(*args, **kwargs)
            return first, replace(second, bias=math.nan)

        monkeypatch.setattr(pipeline, "train_svm_pair", poisoned)
        posts = generate_corpus(n_posts=60, seed=3).labeled()
        configs = [PipelineConfig(metric=m, min_count=2, svm_epochs=3) for m in ("presence", "count")]
        stage_posts, labels = pipeline._stage_rows(posts)["subjectivity"]
        tokens = pipeline._base_token_table(posts, configs, None)
        with pytest.raises(ValueError, match="stage 'subjectivity'.*non-finite"):
            pipeline._stage_fits("subjectivity", stage_posts, labels, configs, [None, None], tokens, ())

    def test_each_feature_key_builds_one_dictionary_per_stage_and_fold(self, monkeypatch):
        corpus, stop, rules, cells = grid_case()
        configs = [cell.config for cell in cells if cell.table == "table3"]
        keys = [c.ngrams for c in configs]
        # 3 feature keys, interleaved in config order
        assert len(set(keys)) == 3 and keys != sorted(keys, key=keys.index)
        calls = count_calls(monkeypatch, "build_dictionary")
        force_workers(monkeypatch, 1)
        k = 3
        cross_validate_grid(corpus, configs, k=k, stop_list=stop, rules=rules)
        assert calls == {"build_dictionary": 3 * 2 * k}

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, separable_corpus, k):
        with pytest.raises(ValueError, match="k >= 2 folds"):
            cross_validate(separable_corpus, NB_CFG, k=k)

    def test_configs_must_share_a_seed(self, separable_corpus):
        with pytest.raises(ValueError, match="one seed"):
            cross_validate_grid(separable_corpus, [NB_CFG, replace(NB_CFG, seed=1)], k=3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_fit_rejected(self, monkeypatch, separable_corpus, workers):
        # both stages overflow; the first stage's error is the one raised
        cfg = PipelineConfig(metric="count", classifier="svm", min_count=2, svm_lambda=1e-320)
        force_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match="stage 'subjectivity'.*non-finite.*svm_lambda=1e-320"):
            train_two_stage(separable_corpus, cfg)
        assert_no_child_processes()

    def test_empty_config_list_rejected(self, separable_corpus):
        with pytest.raises(ValueError, match="no configs to cross-validate"):
            cross_validate_grid(separable_corpus, [], k=3)


def count_calls(monkeypatch, *names, module=pipeline):
    """Count the calls, from within module, of the functions it has under these names."""
    calls = Counter()
    for name in names:

        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def force_workers(monkeypatch, n):
    monkeypatch.setattr(pipeline, "_fold_workers", lambda k: n)


def single_post_corpus(singles):
    """Labeled posts of a seeded corpus, keeping only the first post of each
    class in singles."""
    seen = set()
    posts = []
    for post in generate_corpus(n_posts=60, seed=3):
        if post.label in singles:
            if post.label in seen:
                continue
            seen.add(post.label)
        posts.append(post)
    return Corpus(posts=tuple(posts))


class TestPooledFolds:
    """Folds run in forked workers or in-process; the worker count must never
    show in a report or in which error is raised."""

    def test_worker_count_never_changes_a_report(self, monkeypatch):
        corpus, stop, rules, cells = grid_case()
        configs = [cell.config for cell in cells]
        runs = []
        for n in (1, 2):
            force_workers(monkeypatch, n)
            runs.append(cross_validate_grid(corpus, configs, k=3, stop_list=stop, rules=rules))
        assert len(runs[0]) == 44
        assert runs[0] == runs[1]
        assert_no_child_processes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_class_missing_from_one_fold_names_that_fold(self, monkeypatch, workers):
        corpus = single_post_corpus({"positive"})
        single = next(p.id for p in corpus if p.label == "positive")

        def fold_of_single(seed):
            return split_folds(corpus, 4, seed, stratified=False)[single]

        # not fold 0, which a pool also starts first
        seed = next(s for s in range(100) if fold_of_single(s) > 0)
        fold = fold_of_single(seed)
        force_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match=rf"^fold {fold}: no training posts labeled 'positive'$"):
            cross_validate(corpus, replace(NB_CFG, seed=seed), k=4, stratified=False)
        assert_no_child_processes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failing_fold_is_reported(self, monkeypatch, workers):
        corpus = single_post_corpus({"positive", "negative"})
        ids = {p.label: p.id for p in corpus if p.label != "objective"}

        def folds(seed):
            plan = split_folds(corpus, 4, seed, stratified=False)
            return plan[ids["positive"]], plan[ids["negative"]]

        seed = next(s for s in range(100) if 0 < min(folds(s)) != max(folds(s)))
        low, label = min(zip(folds(seed), ("positive", "negative")))
        force_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match=rf"^fold {low}: no training posts labeled '{label}'$"):
            cross_validate(corpus, replace(NB_CFG, seed=seed), k=4, stratified=False)
        assert_no_child_processes()

    def test_workers_follow_usable_cpus_and_folds(self, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [pipeline._fold_workers(k) for k in (2, 3, 10)] == [2, 3, 3]
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0})
        assert pipeline._fold_workers(10) == 1

    def test_no_fork_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pipeline.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert pipeline._fold_workers(10) == 1

    def test_daemonic_caller_runs_in_process(self, monkeypatch, separable_corpus):
        # two usable CPUs, so only the daemon check keeps the child from
        # starting a pool, which daemonic processes may not do
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1})
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def child():
            try:
                results.put(("ok", pipeline._fold_workers(3), cross_validate(separable_corpus, NB_CFG, k=3)))
            except Exception as exc:  # report it to the parent instead of dying silently
                results.put(("error", repr(exc), None))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        outcome = results.get(timeout=60)
        proc.join(timeout=60)
        assert outcome == ("ok", 1, cross_validate(separable_corpus, NB_CFG, k=3))
        assert proc.exitcode == 0


def pooled_train_case(clf):
    """grid_case's corpus, stop list and lexicons, with a config that uses all
    three and the stemming trie, on unigrams+bigrams."""
    corpus, stop, rules, _ = grid_case()
    cfg = PipelineConfig(
        metric="ifrequency",
        classifier=clf,
        ngrams="unigrams+bigrams",
        rule_mode="signed-count",
        stop_words=True,
        stemming=True,
        min_count=2,
        svm_epochs=3,
        seed=5,
    )
    return corpus, cfg, stop, rules


class TestPooledTrain:
    """The two stages train in forked workers or in-process; the worker count
    must never show in a model's bytes or in which error is raised."""

    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_worker_count_never_changes_a_model(self, monkeypatch, clf):
        corpus, cfg, stop, rules = pooled_train_case(clf)
        models = []
        for n in (2, 1):
            force_workers(monkeypatch, n)
            models.append(train_two_stage(corpus, cfg, stop_list=stop, rules=rules))
        assert models[0].polarity.stem_trie is not None and models[0].stop_list == stop
        assert model_to_json(models[0]) == model_to_json(models[1])
        assert_no_child_processes()

    def test_daemonic_caller_trains_in_process(self, monkeypatch):
        # two usable CPUs, so only the daemon check keeps the child from
        # starting a pool, which daemonic processes may not do
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1})
        corpus, cfg, stop, rules = pooled_train_case("svm")
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def child():
            try:
                model = train_two_stage(corpus, cfg, stop_list=stop, rules=rules)
                results.put(("ok", pipeline._fold_workers(2), model_to_json(model)))
            except Exception as exc:  # report it to the parent instead of dying silently
                results.put(("error", repr(exc), None))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        outcome = results.get(timeout=60)
        proc.join(timeout=60)
        expected = model_to_json(train_two_stage(corpus, cfg, stop_list=stop, rules=rules))
        assert outcome == ("ok", 1, expected)
        assert proc.exitcode == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
    @pytest.mark.parametrize(
        "command",
        [
            ["train", "{corpus}", "--out", "{tmp}/m.json", "--min-count", "2", "--svm-epochs", "2"],
            ["evaluate", "{corpus}", "--grid", "table1", "--folds", "3", "--svm-epochs", "2", "--out", "{tmp}/r"],
            ["classify", "--model", "{tmp}/model.json", "--input", "{corpus}"],
        ],
        ids=["train", "evaluate-grid", "classify-input"],
    )
    def test_the_import_and_every_fork_of_train_run_on_one_os_thread(self, tmp_path, command):
        # numpy's BLAS pool would be a second thread; opmine caps it before numpy is imported
        corpus = generate_corpus(n_posts=60, seed=3)
        save_corpus(corpus, tmp_path / "corpus.jsonl")
        save_model(train_two_stage(corpus, PipelineConfig(min_count=2, svm_epochs=2)), tmp_path / "model.json")
        argv = [a.format(corpus=tmp_path / "corpus.jsonl", tmp=tmp_path) for a in command]
        script = textwrap.dedent("""
            import contextlib, json, os, sys
            import opmine.cli
            threads = [len(os.listdir("/proc/self/task"))]
            from opmine import cli, pipeline
            pipeline._fold_workers = lambda k: min(k, 2)  # fork on one CPU too
            cli.CLASSIFY_CHUNK = 20  # so that classify's 60 posts make 3 worker calls
            real_fork = os.fork
            def fork():
                threads.append(len(os.listdir("/proc/self/task")))
                return real_fork()
            os.fork = fork
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(json.loads(sys.argv[1]))
            print(json.dumps([rc, threads]))
        """)
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pipeline.__file__))  # this opmine's src/
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # the import, then one fork per worker: two stages, or two of the folds' or chunks' workers
        assert json.loads(done.stdout) == [0, [1, 1, 1]]


def square_or_die(i, caller=os.getpid()):
    if i == 1:
        if os.getpid() == caller:
            raise AssertionError("call 1 ran in the caller, not in a worker")
        os._exit(3)
    return i * i


def sleep_after_first(i):
    if i > 0:
        time.sleep(60)
    return i


class TestForkMap:
    """_fork_map forks its own workers: results and the lowest failing call come
    back in call order, and no worker or thread outlives the call."""

    def test_a_worker_that_exits_raises_instead_of_hanging(self, monkeypatch):
        force_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="result 1"):
            list(pipeline._fork_map(square_or_die, [(i,) for i in range(4)]))
        assert_no_child_processes()

    def test_the_lowest_failing_call_raises_even_when_a_later_one_fails_first(self, monkeypatch, tmp_path):
        # with 2 workers, call 3 runs in worker 1 and call 4 in worker 0
        failed = tmp_path / "call-4-failed"

        def job(i):
            if i == 3:
                deadline = time.monotonic() + 30
                while not failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise ValueError(f"call 3 (after call 4: {failed.exists()})")
            if i == 4:
                failed.touch()
                raise KeyError("call 4")
            return i

        force_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match=r"^call 3 \(after call 4: True\)$"):
            list(pipeline._fork_map(job, [(i,) for i in range(6)]))
        assert_no_child_processes()

    def test_breaking_out_after_the_first_result_leaves_no_child(self, monkeypatch):
        force_workers(monkeypatch, 2)
        start = time.monotonic()
        with contextlib.closing(pipeline._fork_map(sleep_after_first, [(i,) for i in range(4)])) as results:
            for result in results:
                assert result == 0
                break
        assert_no_child_processes()
        assert time.monotonic() - start < 30  # the sleeping workers were killed

    def test_results_in_call_order_and_no_thread_started(self, monkeypatch):
        force_workers(monkeypatch, 2)
        before = threading.active_count()
        seen = []
        for result in pipeline._fork_map(pow, [(i, 2) for i in range(7)]):
            seen.append((result, threading.active_count()))
        assert seen == [(i * i, before) for i in range(7)]
        assert threading.active_count() == before
        assert_no_child_processes()


def test_fold_means_are_summed_left_to_right():
    # ten 30-post folds; from 3.12 on, the builtin sum of floats is compensated and
    # gives 0.9199999999999999, so a report's bytes would depend on the interpreter
    evals = []
    for correct in (29, 28, 26, 29, 27, 28, 25, 29, 28, 27):
        confusion = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
        confusion["positive"].update(positive=correct, objective=30 - correct)
        evals.append(pipeline.FoldEval(pol_correct=correct, pol_total=30, confusion=confusion))
    report = aggregate_report(evals)
    means = (report.mean_subjectivity, report.mean_polarity, report.mean_end_to_end)
    assert means == (0.9200000000000002,) * 3


class TestNoLeakage:
    def test_deleting_test_posts_from_universe_changes_nothing(self):
        corpus = generate_corpus(n_posts=90, seed=31, shared_fraction=0.3)
        stop = frozenset({"vemos", "silno"})
        cfg = PipelineConfig(
            metric="ifrequency",
            classifier="svm",
            min_count=2,
            stop_words=True,
            stemming=True,
            svm_epochs=5,
            seed=4,
        )
        k = 3
        report = cross_validate(corpus, cfg, k=k, stop_list=stop)
        plan = split_folds(corpus, k, cfg.seed, stratified=True)
        labeled = corpus.labeled()
        rebuilt = []
        for fold in range(k):
            test_posts = [p for p in labeled if plan[p.id] == fold]
            test_ids = {p.id for p in test_posts}
            universe = Corpus(posts=tuple(p for p in corpus if p.id not in test_ids))
            rebuilt.append(evaluate_fold(universe, test_posts, cfg, stop_list=stop))
        assert aggregate_report(rebuilt) == report

    def test_fold_dictionaries_contain_only_training_ngrams(self):
        corpus = generate_corpus(n_posts=60, seed=41)
        cfg = PipelineConfig(metric="presence", classifier="nb", min_count=1)
        plan = split_folds(corpus, 3, cfg.seed, stratified=True)
        labeled = corpus.labeled()
        for fold in range(3):
            train_posts = tuple(p for p in labeled if plan[p.id] != fold)
            model = train_two_stage(Corpus(posts=train_posts), cfg)
            subj_vocab = {t for p in train_posts for t in tokenize(p.text)}
            pol_vocab = {
                t
                for p in train_posts
                if p.label in ("positive", "negative")
                for t in tokenize(p.text)
            }
            assert all(set(g.split(" ")) <= subj_vocab for g in model.subjectivity.dictionary.entries)
            assert all(set(g.split(" ")) <= pol_vocab for g in model.polarity.dictionary.entries)


def classify_post_confusions(corpus, cfg, rules=None, k=3, extra=()):
    """Per fold of corpus: the confusion matrix of evaluate_fold, and the one of
    train_two_stage + classify_post on the same split; extra posts join every
    held-out set."""
    plan = split_folds(corpus, k, cfg.seed, stratified=True)
    labeled = corpus.labeled()
    for fold in range(k):
        train = Corpus(posts=tuple(p for p in labeled if plan[p.id] != fold))
        test = [*(p for p in labeled if plan[p.id] == fold), *extra]
        model = train_two_stage(train, cfg, rules=rules)
        want = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
        for post in test:
            want[post.label][classify_post(model, post.text, post.id).label] += 1
        yield evaluate_fold(train, test, cfg, rules=rules).confusion, want


class TestOneVectorRule:
    """Fit, cross-validation and classify build every vector by one rule, so a
    fold's confusion matrix is the one its trained model gives on the held-out posts."""

    @pytest.mark.parametrize("clf", ["nb", "svm"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_fold_confusion_equals_classify_post(self, monkeypatch, metric, clf):
        force_workers(monkeypatch, 1)
        corpus = generate_corpus(n_posts=120, seed=13)
        cfg = PipelineConfig(
            metric=metric, classifier=clf, rule_mode="signed-count", min_count=2, svm_epochs=5
        )
        for got, want in classify_post_confusions(corpus, cfg, rules=rule_lexicons()):
            assert got == want

    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_post_without_dictionary_ngrams_gets_the_empty_vector(self, monkeypatch, caplog, clf):
        force_workers(monkeypatch, 1)
        corpus = generate_corpus(n_posts=120, seed=13)
        cfg = PipelineConfig(metric="frequency", classifier=clf, min_count=2, svm_epochs=5)
        unseen = Post(id="unseen", text="qqqq zzzz", label="negative")
        for got, want in classify_post_confusions(corpus, cfg, extra=[unseen]):
            assert got == want
        assert "post unseen: zero total in-dictionary count" in caplog.text

    def test_stage_fits_labels_each_held_out_post_as_predict_stage_does(self):
        corpus, stop, rules, cells = grid_case()
        configs = [cell.config for cell in cells if cell.table in ("table1", "table2", "table4")]
        scoped = [pipeline._checked_rules(c, stop, rules) for c in configs]
        labeled = corpus.labeled()
        tokens = pipeline._base_token_table(labeled, configs, stop)
        plan = split_folds(corpus, k=3, seed=0)
        # every fold, so that each post is held out once
        for fold in range(3):
            train = [p for p in labeled if plan[p.id] != fold]
            test = [p for p in labeled if plan[p.id] == fold]
            fits = {
                name: pipeline._stage_fits(name, posts, labels, configs, scoped, tokens, test)
                for name, (posts, labels) in pipeline._stage_rows(train).items()
            }
            for name, stage_fits in fits.items():
                for config, config_rules, (stage, got) in zip(configs, scoped, stage_fits):
                    base = tokens[config.stop_words]
                    want = [_predict_stage(stage, base[p.text], config, config_rules, p.id)[0] for p in test]
                    assert got == want, (fold, name, config)
            # the polarity stage labels the posts that stage 1 calls objective as well
            assert any("objective" in labels for _, labels in fits["subjectivity"])

    @settings(max_examples=400, deadline=None)
    @given(
        # signed counts with zero entries, whose totals are often zero
        counts=st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=8),
        doc_freq=st.lists(st.integers(1, 5), min_size=8, max_size=8),
        extra_docs=st.integers(0, 2),  # 0: the most frequent n-gram's idf is 0
        weights=st.lists(st.floats(-4, 4, allow_nan=False), min_size=8, max_size=8),
        bias=st.floats(-2, 2, allow_nan=False),
        metric=st.sampled_from(METRICS),
        clf=st.sampled_from(CLASSIFIERS),
    )
    def test_fit_vector_and_score_equal_the_dict_chain_bit_for_bit(
        self, counts, doc_freq, extra_docs, weights, bias, metric, clf
    ):
        dictionary = FeatureDictionary(
            entries={f"w{i}": i for i in range(8)},
            doc_freq=tuple(doc_freq),
            n_docs=max(doc_freq) + extra_docs,
            ngram_sizes=(1,),
        )
        cfg = PipelineConfig(metric=metric, classifier=clf)
        items = metric_items(metric, counts, dictionary)
        want = metric_oracle.classifier_vector(metric_oracle.metric_vector(metric, counts, dictionary), clf)
        got = _classifier_vector(items if items is None else dict(items), cfg, "p")
        assert [(i, v.hex()) for i, v in got.items()] == [(i, v.hex()) for i, v in want.items()]
        stage = StageModel(
            classes=("a", "b"), dictionary=dictionary, weights=np.array(weights), bias=bias, class_counts=(1, 1)
        )
        _, score = _score(stage, items, cfg, "p")
        assert score.hex() == metric_oracle.score(bias, weights, want).hex()


class TestGrids:
    def test_table1_shape(self):
        cells = grid_cells("table1", PipelineConfig())
        assert len(cells) == 8
        assert {c.row for c in cells} == {"Presence", "Count", "Frequency", "IFrequency"}
        assert {c.classifier for c in cells} == {"svm", "nb"}
        assert all(not c.config.stop_words and not c.config.stemming for c in cells)

    def test_table2_enables_preprocessing(self):
        cells = grid_cells("table2", PipelineConfig())
        assert len(cells) == 8
        assert all(c.config.stop_words and c.config.stemming for c in cells)

    def test_table3_rows(self):
        cells = grid_cells("table3", PipelineConfig())
        assert len(cells) == 12
        assert {c.block for c in cells} == {"Presence", "IFrequency"}
        rows = [c.row for c in cells if c.block == "Presence" and c.classifier == "svm"]
        assert rows == ["Unigrams only", "Bigrams only", "Unigrams bigrams"]

    def test_table4_rows_and_rule_modes(self):
        cells = grid_cells("table4", PipelineConfig())
        assert len(cells) == 16
        rows = [c.row for c in cells if c.block == "Presence" and c.classifier == "svm"]
        assert rows == ["Unigram", "Negations only", "Emphasizers only", "Both"]
        for c in cells:
            if c.row == "Unigram":
                assert c.config.rule_mode == "off"
            elif c.block == "Presence":
                assert c.config.rule_mode == "tag"
            else:
                assert c.config.rule_mode == "signed-count"
        scopes = {c.row: c.config.rule_scope for c in cells if c.block == "IFrequency"}
        assert scopes["Negations only"] == "negation-only"
        assert scopes["Emphasizers only"] == "emphasis-only"
        assert scopes["Both"] == "both"

    def test_unknown_grid(self):
        with pytest.raises(ValueError, match="table9"):
            grid_cells("table9", PipelineConfig())


def record_fits(monkeypatch, name):
    """Wrap pipeline.<name> so each fitted model is kept with the vectors it saw."""
    fits = []
    fit = getattr(pipeline, name)

    def recording(vectors, labels, *args, **kwargs):
        model = fit(vectors, labels, *args, **kwargs)
        fits.append((vectors, model))
        return model

    monkeypatch.setattr(pipeline, name, recording)
    return fits


class TestLinearStages:
    """A stage's `bias + weights . x` is its fitted classifier's score, bit for bit."""

    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_stage_scores_equal_classifier_predictions(self, monkeypatch, clf):
        fits = record_fits(monkeypatch, f"train_{clf}")
        force_workers(monkeypatch, 1)  # the fits are recorded in this process
        corpus = generate_corpus(n_posts=90, seed=31, shared_fraction=0.3)
        cfg = PipelineConfig(
            metric="ifrequency",
            classifier=clf,
            rule_mode="signed-count",
            stemming=True,
            min_count=2,
            svm_epochs=5,
        )
        model = train_two_stage(corpus, cfg, rules=rule_lexicons())
        labeled = corpus.labeled()
        stage_posts = (labeled, [p for p in labeled if p.label in ("positive", "negative")])
        stages = (model.subjectivity, model.polarity)
        assert len(fits) == 2
        for stage, posts, (vectors, fitted) in zip(stages, stage_posts, fits):
            assert len(posts) == len(vectors)
            for post, vec in zip(posts, vectors):
                label, score = _predict_stage(stage, tokenize(post.text), cfg, model.rules, post.id)
                if clf == "nb":
                    pred = predict_nb(fitted, vec)
                    expected = pred.label
                else:
                    pred = predict_svm(fitted, vec)
                    expected = stage.classes[0] if pred.label == 1 else stage.classes[1]
                assert score == pred.score
                assert label == expected

    def test_nb_zero_score_tie_matches_predict_nb(self, monkeypatch):
        fits = record_fits(monkeypatch, "train_nb")
        force_workers(monkeypatch, 1)  # the fits are recorded in this process
        cfg = PipelineConfig(metric="presence", classifier="nb", min_count=2)
        model = train_two_stage(generate_corpus(n_posts=60, seed=5), cfg)
        _, fitted = fits[1]
        assert fitted.class_counts["positive"] == fitted.class_counts["negative"]
        label, score = _predict_stage(model.polarity, ["unseen"], cfg, None)
        pred = predict_nb(fitted, {})
        assert score == pred.score == 0.0
        assert label == pred.label == "negative"

    @pytest.mark.parametrize("counts", [(4, 4), (5, 3), (3, 5)])
    @pytest.mark.parametrize("stage_name", list(STAGE_CLASSES))
    def test_zero_score_tie_matches_predict_svm(self, separable_corpus, stage_name, counts):
        cfg = PipelineConfig(metric="count", classifier="svm", min_count=2, svm_epochs=1)
        model = train_two_stage(separable_corpus, cfg)
        stage = getattr(model, stage_name)
        tied = replace(stage, weights=np.zeros_like(stage.weights), bias=0.0, class_counts=counts)
        svm = SVMModel(
            weights=tied.weights,
            bias=0.0,
            n_pos=counts[0],
            n_neg=counts[1],
        )
        text = separable_corpus.posts[0].text
        label, score = _predict_stage(tied, tokenize(text), cfg, None)
        pred = predict_svm(svm, {})
        assert score == pred.score == 0.0
        assert label == (tied.classes[0] if pred.label == 1 else tied.classes[1])


class TestSVMMatchesDenseOracle:
    @pytest.mark.parametrize("metric", METRICS)
    def test_two_stage_labels_and_scores(self, monkeypatch, synth300, metric):
        cfg = PipelineConfig(metric=metric, classifier="svm")
        model = train_two_stage(synth300, cfg)
        monkeypatch.setattr(pipeline, "train_svm", train_svm_dense)
        oracle = train_two_stage(synth300, cfg)
        for post in synth300.posts:
            got, want = classify_post(model, post.text), classify_post(oracle, post.text)
            assert got.label == want.label
            assert got.subjectivity_score == pytest.approx(want.subjectivity_score, rel=1e-9, abs=1e-9)
            if want.polarity_score is None:
                assert got.polarity_score is None
            else:
                assert got.polarity_score == pytest.approx(want.polarity_score, rel=1e-9, abs=1e-9)


class TestModelSerialization:
    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_v3_stage_layout(self, separable_corpus, clf):
        cfg = PipelineConfig(metric="count", classifier=clf, min_count=2, svm_epochs=2)
        model = train_two_stage(separable_corpus, cfg)
        text = model_to_json(model)
        assert text.count("\n") == 1  # one line: no indent
        payload = json.loads(text)
        assert payload["format_version"] == 3
        for name, stage in payload["stages"].items():
            assert set(stage) == {
                "classes",
                "dictionary",
                "fingerprint",
                "stem_vocabulary",
                "weights",
                "bias",
                "class_counts",
            }
            assert stage["classes"] == list(STAGE_CLASSES[name])
            dictionary = getattr(model, name).dictionary
            assert stage["dictionary"]["ngrams"] == list(dictionary.entries)
            packed = base64.b64decode(stage["weights"], validate=True)
            assert packed == getattr(model, name).weights.astype("<f8").tobytes()
            assert len(packed) == 8 * len(stage["dictionary"]["ngrams"])

    def test_save_next_to_directory_named_like_old_temp_file(self, tmp_path, separable_corpus):
        model = train_two_stage(separable_corpus, NB_CFG)
        (tmp_path / "model.json.tmp").mkdir()
        save_model(model, tmp_path / "model.json")
        assert model_to_json(load_model(tmp_path / "model.json")) == model_to_json(model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.json.tmp"]

    def test_round_trip_preserves_predictions(self, tmp_path, separable_corpus):
        stop = frozenset({"rama"})
        cfg = PipelineConfig(
            metric="ifrequency",
            classifier="svm",
            min_count=2,
            stop_words=True,
            stemming=True,
            rule_mode="tag",
            svm_epochs=4,
        )
        model = train_two_stage(separable_corpus, cfg, stop_list=stop, rules=rule_lexicons())
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert model_to_json(loaded) == model_to_json(model)
        for post in separable_corpus.posts[:10]:
            assert classify_post(loaded, post.text) == classify_post(model, post.text)

    def test_empty_stop_list_round_trip(self, tmp_path, separable_corpus):
        cfg = PipelineConfig(metric="count", classifier="nb", min_count=2, stop_words=True)
        model = train_two_stage(separable_corpus, cfg, stop_list=frozenset())
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        text = separable_corpus.posts[0].text
        assert classify_post(loaded, text) == classify_post(model, text)

    def test_nb_round_trip(self, tmp_path, separable_corpus):
        cfg = PipelineConfig(metric="presence", classifier="nb", min_count=2)
        model = train_two_stage(separable_corpus, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for post in separable_corpus.posts[:10]:
            assert classify_post(loaded, post.text) == classify_post(model, post.text)

    def test_fingerprint_guards_dictionary_drift(self, tmp_path, separable_corpus):
        cfg = PipelineConfig(metric="count", classifier="nb", min_count=2)
        model = train_two_stage(separable_corpus, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["stages"]["subjectivity"]["dictionary"]["doc_freq"][0] += 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="fingerprint"):
            load_model(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="parse"):
            load_model(path)


@pytest.fixture(scope="module")
def lexicon_model_payload(tmp_path_factory):
    """A saved SVM model that uses stop words, stemming and both rule lexicons."""
    cfg = PipelineConfig(
        metric="count", min_count=2, stop_words=True, stemming=True, rule_mode="tag", svm_epochs=1
    )
    corpus = generate_corpus(n_posts=60, seed=11, shared_fraction=0.0)
    model = train_two_stage(corpus, cfg, stop_list=frozenset({"vuruzene"}), rules=rule_lexicons())
    path = tmp_path_factory.mktemp("lexicon") / "model.json"
    save_model(model, path)
    return path.read_text(encoding="utf-8")


MALFORMED_LEXICONS = [
    # (path to the edited value, new value, text the error must name)
    pytest.param(("stop_words",), 3, "stop_words", id="int-stop-words"),
    pytest.param(("stop_words",), ["vemos", 1], "stop_words", id="non-string-stop-word"),
    pytest.param(("stop_words",), None, "stop_words", id="stop-words-missing-for-config"),
    pytest.param(("stop_words",), ["vemos", "ne e"], "stop_words.*'ne e'", id="non-token-stop-word"),
    pytest.param(("stages", "polarity", "stem_vocabulary"), 5, "stem_vocabulary", id="int-stems"),
    pytest.param(("stages", "polarity", "stem_vocabulary"), [], "stem_vocabulary", id="no-stems"),
    pytest.param(("stages", "polarity", "stem_vocabulary"), None, "stem_vocabulary", id="null-stems"),
    pytest.param(("rules",), [1], "rules", id="rules-list"),
    pytest.param(("rules",), {"negatory": ["nibar"]}, "emphasizer", id="rules-missing-emphasizer"),
    pytest.param(("rules", "negatory"), "nibar", "negatory", id="rules-string"),
    pytest.param(("rules", "emphasizer"), ["nibar"], "both", id="rules-overlap"),
    pytest.param(("rules",), None, "rules", id="rules-missing-for-config"),
    pytest.param(("stop_words",), ["nibar"], r"\['nibar'\]", id="stop-word-in-rules"),
    pytest.param(("config", "rule_mode"), "off", "rules", id="rules-without-rule-mode"),
    # the fixture stores both lexicons, so the emphasizer words lie outside this scope
    pytest.param(("config", "rule_scope"), "negation-only", "rule_scope", id="lexicon-outside-scope"),
]


@pytest.mark.parametrize("keys, value, hint", MALFORMED_LEXICONS)
def test_malformed_lexicon_raises_model_format_error(lexicon_model_payload, tmp_path, keys, value, hint):
    payload = json.loads(lexicon_model_payload)
    *parents, last = keys
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=hint):
        load_model(path)


ROUND_TRIP_SHAPES = [
    # PipelineConfig fields off their defaults. Together they cover both classifiers,
    # every rule mode, every rule scope under a rule mode, stop words and stemming on
    # and off, and every ngrams value
    pytest.param({"classifier": "nb", "metric": "presence"}, id="nb-off-unigrams"),
    pytest.param(
        {"metric": "count", "rule_mode": "tag", "stop_words": True, "stemming": True},
        id="svm-tag-both-stop-stem",
    ),
    pytest.param(
        {"metric": "count", "ngrams": "bigrams", "rule_mode": "tag", "rule_scope": "negation-only",
         "stemming": True},
        id="svm-tag-negation-bigrams-stem",
    ),
    pytest.param(
        {"classifier": "nb", "ngrams": "unigrams+bigrams", "rule_mode": "signed-count",
         "rule_scope": "emphasis-only", "stop_words": True},
        id="nb-signed-emphasis-unigrams+bigrams-stop",
    ),
    pytest.param(
        {"metric": "frequency", "rule_mode": "signed-count", "stop_words": True, "stemming": True},
        id="svm-signed-both-stop-stem",
    ),
]


@pytest.fixture(scope="module")
def round_trip_corpus():
    return generate_corpus(n_posts=60, seed=11, shared_fraction=0.0)


@pytest.mark.parametrize("overrides", ROUND_TRIP_SHAPES)
def test_model_shape_loads_unchanged(round_trip_corpus, tmp_path, overrides):
    cfg = PipelineConfig(min_count=2, svm_epochs=2, **overrides)
    model = train_two_stage(
        round_trip_corpus,
        cfg,
        stop_list=frozenset({"vuruzene"}) if cfg.stop_words else None,
        rules=rule_lexicons() if cfg.rule_mode != "off" else None,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    saved = path.read_text(encoding="utf-8")
    loaded = load_model(path)
    assert model_to_json(loaded) == saved
    for post in round_trip_corpus.posts[:8]:
        assert classify_post(loaded, post.text) == classify_post(model, post.text)


@pytest.mark.parametrize(
    "keys, value, hint",
    [
        # a packed weight cannot lie beyond the float range; the stage's one JSON number can
        pytest.param(("stages", "polarity", "bias"), 10**400, "finite", id="weight-beyond-float"),
        pytest.param(("stages", "subjectivity", "bias"), -(10**400), "finite", id="bias-beyond-float"),
        pytest.param(("config", "svm_lambda"), float("nan"), "svm_lambda", id="nan-lambda"),
        pytest.param(("config", "nb_smoothing"), 0.0, "nb_smoothing", id="zero-smoothing"),
        pytest.param(("config", "svm_epochs"), 0, "svm_epochs", id="zero-epochs"),
    ],
)
def test_out_of_range_value_raises_model_format_error(lexicon_model_payload, tmp_path, keys, value, hint):
    payload = json.loads(lexicon_model_payload)
    *parents, last = keys
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=hint):
        load_model(path)
