"""Two-stage classification pipeline and the cross-validated experiment grid.

Stage 1 separates objective from subjective posts; stage 2 assigns positive or
negative to the subjective ones. Each stage owns its dictionary, stemming trie
and classifier, all built from training posts only.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import multiprocessing
import os
import pickle
import signal
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, reduce
from itertools import repeat, starmap
from operator import add
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .classify import SVMModel, decide, train_nb, train_svm, train_svm_pair
from .corpus import (
    GOLD_LABELS,
    LABEL_NEGATIVE,
    LABEL_OBJECTIVE,
    LABEL_POSITIVE,
    Corpus,
    CorpusError,
    Post,
    split_folds,
)
from .features import (
    METRICS,
    NGRAM_SEP,
    NGRAM_SIZES,
    RULE_MODE_OFF,
    RULE_MODE_SIGNED,
    RULE_MODE_TAG,
    RULE_MODES,
    FeatureDictionary,
    RuleLexicons,
    build_dictionary,
    count_ngrams,
    extract_counts,
    metric_items,
    post_ngrams,
    rule_adjusted_tokens,
)
from .ioutil import atomic_write_text
from .preprocess import SuffixTrie, build_suffix_trie, is_token, remove_stop_words, stem_tokens, tokenize

logger = logging.getLogger(__name__)

CLASSIFIER_NB = "nb"
CLASSIFIER_SVM = "svm"
CLASSIFIERS = (CLASSIFIER_NB, CLASSIFIER_SVM)

RULE_SCOPE_NEGATION = "negation-only"
RULE_SCOPE_EMPHASIS = "emphasis-only"
RULE_SCOPE_BOTH = "both"
RULE_SCOPES = (RULE_SCOPE_NEGATION, RULE_SCOPE_EMPHASIS, RULE_SCOPE_BOTH)

LABEL_SUBJECTIVE = "subjective"

STAGE_SUBJECTIVITY = "subjectivity"
STAGE_POLARITY = "polarity"
STAGE_CLASSES = {
    STAGE_SUBJECTIVITY: (LABEL_SUBJECTIVE, LABEL_OBJECTIVE),
    STAGE_POLARITY: (LABEL_POSITIVE, LABEL_NEGATIVE),
}


# the types a PipelineConfig field of each annotation accepts
_FIELD_TYPES = {"str": (str,), "bool": (bool,), "int": (int,), "float": (int, float)}

# The largest svm_lambda. The minimiser of the SVM objective has ||w|| <= sqrt(2/lambda),
# because w = 0 already reaches an objective of at most 1; at lambda = 1000 a post
# needs a feature norm above ~22 for a margin of 1. Beyond that the fit only
# shrinks every score towards zero (at 1e300 the scores are ~1e-300).
SVM_LAMBDA_MAX = 1000.0


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a trained pipeline besides the corpus itself."""

    metric: str = "ifrequency"
    classifier: str = CLASSIFIER_SVM
    ngrams: str = "unigrams"
    rule_mode: str = RULE_MODE_OFF
    rule_scope: str = RULE_SCOPE_BOTH
    stop_words: bool = False
    stemming: bool = False
    min_count: int = 5
    nb_smoothing: float = 1.0
    svm_lambda: float = 0.01
    svm_epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # type(), not isinstance(): a bool is an int but no count or knob
            if type(value) not in _FIELD_TYPES[f.type]:
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.ngrams not in NGRAM_SIZES:
            raise ValueError(f"unknown ngrams setting {self.ngrams!r}")
        if self.rule_mode not in RULE_MODES:
            raise ValueError(f"unknown rule_mode {self.rule_mode!r}")
        if self.rule_scope not in RULE_SCOPES:
            raise ValueError(f"unknown rule_scope {self.rule_scope!r}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be positive, got {self.min_count}")
        for name in ("nb_smoothing", "svm_lambda"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.svm_lambda > SVM_LAMBDA_MAX:
            raise ValueError(f"svm_lambda must be at most {SVM_LAMBDA_MAX:g}, got {self.svm_lambda}")
        if self.svm_epochs < 1:
            raise ValueError(f"svm_epochs must be positive, got {self.svm_epochs}")
        if self.seed < 0:  # numpy's generator takes no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class StageModel:
    """One trained stage: its classes, dictionary, optional trie, and the linear
    scorer ``bias + weights . x`` that either classifier reduces to; ``decide``
    turns a score into one of the classes."""

    classes: tuple[str, str]  # (positive-role label, negative-role label)
    dictionary: FeatureDictionary
    weights: np.ndarray
    bias: float
    class_counts: tuple[int, int]  # training posts per class, in classes order
    stem_trie: Optional[SuffixTrie] = None

    @cached_property
    def weight_list(self) -> list[float]:
        """The weights as floats, which the scorer indexes faster than the array."""
        return self.weights.tolist()


@dataclass(frozen=True)
class TwoStageModel:
    config: PipelineConfig
    subjectivity: StageModel
    polarity: StageModel
    stop_list: Optional[frozenset[str]] = None
    rules: Optional[RuleLexicons] = None  # already narrowed to config.rule_scope


@dataclass(frozen=True)
class PostClassification:
    label: str  # objective | positive | negative
    subjectivity_score: float
    polarity_score: Optional[float]  # None when stage 1 said objective


def _base_tokens(text: str, config: PipelineConfig, stop_list: Optional[frozenset[str]]) -> list[str]:
    tokens = tokenize(text)
    if config.stop_words:
        assert stop_list is not None
        tokens = remove_stop_words(tokens, stop_list)
    return tokens


def _classifier_vector(
    raw: Optional[dict[int, float]], config: PipelineConfig, post_id: str
) -> dict[int, float]:
    """The one rule from a metric vector (a dict of ``metric_items``) to the
    vector a stage fits, and ``_score`` scores: a zero total count (None) gives
    the empty vector (logged), and NB keeps only the positive values, as its
    event model cannot take others (the SVM consumes signed values as-is)."""
    if raw is None:
        logger.warning(
            "post %s: zero total in-dictionary count under metric %r; using empty vector",
            post_id,
            config.metric,
        )
        return {}
    if config.classifier == CLASSIFIER_NB:
        return {i: v for i, v in raw.items() if v > 0}
    return raw


def vectorize(
    tokens: Sequence[str],
    dictionary: FeatureDictionary,
    config: PipelineConfig,
    rules: Optional[RuleLexicons],
    post_id: str = "?",
) -> dict[int, float]:
    """Counts step, then metric step, for one post's (stemmed) tokens."""
    counts = extract_counts(tokens, dictionary, rules, config.rule_mode)
    items = metric_items(config.metric, counts, dictionary)
    return _classifier_vector(items if items is None else dict(items), config, post_id)


def _stage_rows(posts: Sequence[Post]) -> dict[str, tuple[Sequence[Post], list[str]]]:
    """Each stage's training posts and their labels.

    Stage 1 sees every post with positive/negative collapsed to "subjective";
    stage 2 sees only the positive/negative posts.
    """
    polar = [p for p in posts if p.label != LABEL_OBJECTIVE]
    subjectivity = [LABEL_OBJECTIVE if p.label == LABEL_OBJECTIVE else LABEL_SUBJECTIVE for p in posts]
    return {
        STAGE_SUBJECTIVITY: (posts, subjectivity),
        STAGE_POLARITY: (polar, [p.label for p in polar]),
    }


# the PipelineConfig fields that each classifier's fit reads
CLASSIFIER_FIELDS = {CLASSIFIER_NB: ("nb_smoothing",), CLASSIFIER_SVM: ("svm_lambda", "svm_epochs", "seed")}
# PipelineConfig fields read only by the metric, the fit or the fold plan; the
# other fields form the feature key of the configs that share a stage's features
_FIT_FIELDS = frozenset({"metric", "classifier"}).union(*CLASSIFIER_FIELDS.values())


def _stage_fits(
    name: str,
    train_posts: Sequence[Post],
    labels: list[str],
    configs: Sequence[PipelineConfig],
    scoped: Sequence[Optional[RuleLexicons]],
    tokens: dict[bool, dict[str, list[str]]],
    test_posts: Sequence[Post],
) -> list[tuple[StageModel, list[str]]]:
    """One stage of each config, in config order: the stage fitted on
    train_posts and their labels, and the label it gives each of test_posts.

    tokens maps each stop-word setting to post text -> base tokens. The configs
    are fitted one feature key at a time: they share the trie and dictionary
    built from train_posts, and each post is counted once per key and its
    metric items computed once per metric that configs of that key use, so no
    counts are kept. A key's SVM configs with equal (svm_lambda, svm_epochs,
    seed) are fitted two at a time, in config order, by train_svm_pair, and an
    odd last one by train_svm. Each fit, NB or SVM, reduces to the linear
    scorer of a StageModel. A fit that overflowed to non-finite weights or bias
    raises ValueError.
    """
    keys = [tuple(getattr(c, f.name) for f in fields(c) if f.name not in _FIT_FIELDS) for c in configs]
    n = len(train_posts)
    positive, negative = classes = STAGE_CLASSES[name]
    signs = [1 if lab == positive else -1 for lab in labels]
    fits: list = [None] * len(configs)
    for key in dict.fromkeys(keys):
        members = {pos: c for pos, (k, c) in enumerate(zip(keys, configs)) if k == key}
        first = next(iter(members))
        config, rules = configs[first], scoped[first]
        base = tokens[config.stop_words]
        # the training posts' base tokens, then the held-out posts'
        seqs = [base[p.text] for p in (*train_posts, *test_posts)]
        trie: Optional[SuffixTrie] = None
        if config.stemming:
            kept = rules.words if rules else frozenset()  # the rule walk below must see every rule word
            trie = build_suffix_trie({t for seq in seqs[:n] for t in seq}, kept=kept)
            seqs = [stem_tokens(trie, seq) for seq in seqs]
        dictionary = build_dictionary(
            [rule_adjusted_tokens(seq, rules, config.rule_mode) for seq in seqs[:n]],
            NGRAM_SIZES[config.ngrams],
            config.min_count,
        )
        raw: dict[str, list] = {c.metric: [] for c in members.values()}
        for k, seq in enumerate(seqs):
            counts = extract_counts(seq, dictionary, rules, config.rule_mode)
            for metric, column in raw.items():
                items = metric_items(metric, counts, dictionary)
                # a training post's dict is shared by the metric's SVM configs
                column.append(dict(items) if items is not None and k < n else items)
        vectors = {
            pos: [_classifier_vector(v, c, p.id) for v, p in zip(raw[c.metric], train_posts)]
            for pos, c in members.items()
        }
        groups: dict[tuple, list[int]] = {}
        for pos, c in members.items():
            if c.classifier == CLASSIFIER_SVM:
                groups.setdefault((c.svm_lambda, c.svm_epochs, c.seed), []).append(pos)
        svms: dict[int, SVMModel] = {}
        with np.errstate(all="ignore"):  # an overflow is an error below, not a warning
            for (lambda_, epochs, seed), group in groups.items():
                args = signs, lambda_, epochs, seed, len(dictionary)
                for i, j in zip(group[::2], group[1::2]):
                    svms[i], svms[j] = train_svm_pair(vectors[i], vectors[j], *args)
                if len(group) % 2:
                    svms[group[-1]] = train_svm(vectors[group[-1]], *args)
            for pos, c in members.items():
                if c.classifier == CLASSIFIER_NB:
                    # the log-posterior margin is linear in x (see predict_nb)
                    nb = train_nb(vectors[pos], labels, c.nb_smoothing, len(dictionary), classes)
                    weights = nb.feature_log_likelihood[positive] - nb.feature_log_likelihood[negative]
                    bias = nb.class_log_prior[positive] - nb.class_log_prior[negative]
                    counts = (nb.class_counts[positive], nb.class_counts[negative])
                else:
                    svm = svms[pos]
                    weights, bias, counts = svm.weights, svm.bias, (svm.n_pos, svm.n_neg)
                if not (np.isfinite(weights).all() and math.isfinite(bias)):
                    knob = CLASSIFIER_FIELDS[c.classifier][0]
                    raise ValueError(
                        f"stage {name!r}: the {c.classifier} fit gave non-finite weights or bias "
                        f"({knob}={getattr(c, knob)})"
                    )
                stage = StageModel(
                    classes=classes,
                    dictionary=dictionary,
                    weights=weights,
                    bias=bias,
                    class_counts=counts,
                    stem_trie=trie,
                )
                fits[pos] = stage, [
                    _score(stage, items, c, p.id)[0] for items, p in zip(raw[c.metric][n:], test_posts)
                ]
    return fits


def _train_stage(
    name: str,
    posts: Sequence[Post],
    labels: list[str],
    config: PipelineConfig,
    stop_list: Optional[frozenset[str]],
    rules: Optional[RuleLexicons],
) -> StageModel:
    """One stage of train_two_stage: the one-config case of _stage_fits."""
    tokens = _base_token_table(posts, [config], stop_list)
    ((stage, _),) = _stage_fits(name, posts, labels, [config], [rules], tokens, ())
    return stage


def _checked_rules(
    config: PipelineConfig, stop_list: Optional[frozenset[str]], rules: Optional[RuleLexicons]
) -> Optional[RuleLexicons]:
    """Check that the config's stop list and lexicons were given, and that the
    stop list removes none of the rule words; return the lexicons narrowed to
    its rule scope, or None when rules are off."""
    if config.stop_words and stop_list is None:
        raise ValueError("config enables stop_words but no stop list was provided")
    if config.rule_mode == RULE_MODE_OFF:
        return None
    if rules is None:
        raise ValueError(f"config sets rule_mode={config.rule_mode!r} but no rule lexicons were provided")
    if config.rule_scope == RULE_SCOPE_NEGATION:
        rules = RuleLexicons(negatory=rules.negatory, emphasizer=frozenset())
    elif config.rule_scope == RULE_SCOPE_EMPHASIS:
        rules = RuleLexicons(negatory=frozenset(), emphasizer=rules.emphasizer)
    removed = sorted(stop_list & rules.words) if config.stop_words else []
    if removed:
        raise ValueError(f"the stop list holds rule words {removed}, which no rule would then see")
    return rules


def _require_labels(posts: Sequence[Post], where: str = "") -> None:
    for gold in GOLD_LABELS:
        if not any(p.label == gold for p in posts):
            raise ValueError(f"{where}no training posts labeled {gold!r}")


def train_two_stage(
    corpus: Corpus,
    config: PipelineConfig,
    stop_list: Optional[frozenset[str]] = None,
    rules: Optional[RuleLexicons] = None,
) -> TwoStageModel:
    """Train both stages from the corpus's labeled posts.

    Dictionaries, tries and classifiers are functions of this corpus alone.
    """
    rules = _checked_rules(config, stop_list, rules)
    labeled = corpus.labeled()
    _require_labels(labeled)
    # the stages share nothing but their inputs, so each may run in its own worker
    subjectivity, polarity = _fork_map(_train_stage, [
        (name, posts, labels, config, stop_list, rules)
        for name, (posts, labels) in _stage_rows(labeled).items()
    ])
    return TwoStageModel(
        config=config,
        subjectivity=subjectivity,
        polarity=polarity,
        stop_list=stop_list if config.stop_words else None,
        rules=rules,
    )


def _score(
    stage: StageModel, items: Optional[list[tuple[int, float]]], config: PipelineConfig, post_id: str
) -> tuple[str, float]:
    """Score step: the stage's label and score for a post's ``metric_items``,
    under the rule of ``_classifier_vector``."""
    if items is None:
        items = _classifier_vector(None, config, post_id).items()  # empty, and logged
    # accumulate in counts order, as predict_nb/predict_svm do over the vector,
    # so the scores are bit-identical to theirs (a numpy dot would reorder the sum)
    score = stage.bias
    weights, signed = stage.weight_list, config.classifier != CLASSIFIER_NB
    for idx, val in items:
        if val > 0 or signed:
            score += val * weights[idx]
    return decide(score, stage.classes, stage.class_counts), score


def _predict_stage(
    stage: StageModel,
    tokens: Sequence[str],
    config: PipelineConfig,
    rules: Optional[RuleLexicons],
    post_id: str = "?",
    grams: Optional[tuple[list, Optional[list[int]]]] = None,
) -> tuple[str, float]:
    """Label and score of one post by one stage; grams, when given, are the
    ``post_ngrams`` of tokens, which a stage without a trie sees unchanged."""
    if grams is None:
        stage_tokens = stem_tokens(stage.stem_trie, tokens) if stage.stem_trie else tokens
        grams = post_ngrams(stage_tokens, stage.dictionary.ngram_sizes, rules, config.rule_mode)
    items = metric_items(config.metric, count_ngrams(*grams, stage.dictionary), stage.dictionary)
    return _score(stage, items, config, post_id)


def classify_post(model: TwoStageModel, text: str, post_id: str = "?") -> PostClassification:
    """Stage 1 decides objective vs subjective; stage 2 runs only on subjective posts."""
    config = model.config
    tokens = _base_tokens(text, config, model.stop_list)
    grams = None
    if not config.stemming:
        # both stages see the same tokens and n-gram sizes: build the n-grams once
        grams = post_ngrams(tokens, NGRAM_SIZES[config.ngrams], model.rules, config.rule_mode)
    subj_label, subj_score = _predict_stage(
        model.subjectivity, tokens, config, model.rules, post_id, grams
    )
    if subj_label == LABEL_OBJECTIVE:
        return PostClassification(
            label=LABEL_OBJECTIVE, subjectivity_score=subj_score, polarity_score=None
        )
    pol_label, pol_score = _predict_stage(model.polarity, tokens, config, model.rules, post_id, grams)
    return PostClassification(
        label=pol_label, subjectivity_score=subj_score, polarity_score=pol_score
    )


@dataclass(frozen=True)
class FoldEval:
    """Raw per-fold tallies, pooled by aggregate_report. Polarity is tallied apart
    from the confusion matrix, as it also scores gold-subjective posts stage 1 missed."""

    pol_correct: int
    pol_total: int
    confusion: dict[str, dict[str, int]] = field(hash=False)


def _confusion_tallies(confusion: dict[str, dict[str, int]]) -> tuple[int, int, int]:
    """Subjectivity-correct, end-to-end-correct and all posts of a confusion matrix."""
    cells = [(gold, pred, n) for gold, row in confusion.items() for pred, n in row.items()]
    subj = sum(n for gold, pred, n in cells if (gold == LABEL_OBJECTIVE) == (pred == LABEL_OBJECTIVE))
    return subj, sum(n for gold, pred, n in cells if gold == pred), sum(n for *_, n in cells)


@dataclass(frozen=True)
class EvaluationReport:
    """Pooled accuracies come from the summed fold tallies (subjectivity and
    end-to-end from the summed confusion matrix); the mean_* fields average the
    per-fold accuracies instead. With equal fold sizes the two coincide."""

    k: int
    fold_subjectivity: tuple[float, ...]
    fold_polarity: tuple[Optional[float], ...]
    fold_end_to_end: tuple[float, ...]
    subjectivity_accuracy: float
    polarity_accuracy: float
    end_to_end_accuracy: float
    mean_subjectivity: float
    mean_polarity: Optional[float]
    mean_end_to_end: float
    confusion: dict[str, dict[str, int]] = field(hash=False)
    n_posts: int = 0


def _mean(values: Sequence[float]) -> float:
    """The mean, summed left to right: from Python 3.12 on, the builtin sum of
    floats is compensated and may differ in the last bit."""
    return reduce(add, values, 0.0) / len(values)


def aggregate_report(fold_evals: Sequence[FoldEval]) -> EvaluationReport:
    """Pool fold tallies into one report; aggregate accuracies are micro-averaged
    so end-to-end accuracy equals the confusion-matrix trace over total posts."""
    confusion = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
    for ev in fold_evals:
        for g in GOLD_LABELS:
            for p in GOLD_LABELS:
                confusion[g][p] += ev.confusion[g][p]
    subj_correct, e2e_correct, n_posts = _confusion_tallies(confusion)
    pol_total = sum(ev.pol_total for ev in fold_evals)
    folds = [_confusion_tallies(ev.confusion) for ev in fold_evals]
    fold_subj = tuple(subj / n for subj, _, n in folds)
    fold_pol = tuple(ev.pol_correct / ev.pol_total if ev.pol_total else None for ev in fold_evals)
    fold_e2e = tuple(e2e / n for _, e2e, n in folds)
    pol_defined = [a for a in fold_pol if a is not None]
    return EvaluationReport(
        k=len(fold_evals),
        fold_subjectivity=fold_subj,
        fold_polarity=fold_pol,
        fold_end_to_end=fold_e2e,
        subjectivity_accuracy=subj_correct / n_posts,
        polarity_accuracy=sum(ev.pol_correct for ev in fold_evals) / pol_total if pol_total else 0.0,
        end_to_end_accuracy=e2e_correct / n_posts,
        mean_subjectivity=_mean(fold_subj),
        mean_polarity=_mean(pol_defined) if pol_defined else None,
        mean_end_to_end=_mean(fold_e2e),
        confusion=confusion,
        n_posts=n_posts,
    )


def _evaluate_configs(
    train_posts: Sequence[Post],
    test_posts: Sequence[Post],
    configs: Sequence[PipelineConfig],
    scoped: Sequence[Optional[RuleLexicons]],
    tokens: dict[bool, dict[str, list[str]]],
) -> list[FoldEval]:
    """One fold of every config: the tally of the labels each stage, fitted on
    the labeled train_posts, gives test_posts.

    tokens maps each stop-word setting to post text -> base tokens (see
    _stage_fits, which fits one stage of every config). Polarity-stage
    accuracy is measured against gold-subjective posts directly (not stage-1
    survivors); end-to-end counts the final three-way label.
    """
    stage_fits = [
        _stage_fits(name, posts, labels, configs, scoped, tokens, test_posts)
        for name, (posts, labels) in _stage_rows(train_posts).items()
    ]
    evals = []
    for (_, subjectivity), (_, polarity) in zip(*stage_fits):
        confusion = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
        for post, subj, pol in zip(test_posts, subjectivity, polarity):
            final = pol if subj != LABEL_OBJECTIVE else subj
            confusion[post.label][final] += 1
        # stage 2 is scored on every gold-subjective post, also on one stage 1 missed
        polar = [pol == p.label for p, pol in zip(test_posts, polarity) if p.label != LABEL_OBJECTIVE]
        evals.append(FoldEval(pol_correct=sum(polar), pol_total=len(polar), confusion=confusion))
    return evals


def _base_token_table(
    posts: Sequence[Post], configs: Sequence[PipelineConfig], stop_list: Optional[frozenset[str]]
) -> dict[bool, dict[str, list[str]]]:
    """Base tokens of every post text, once per stop-word setting the configs use."""
    return {
        config.stop_words: {p.text: _base_tokens(p.text, config, stop_list) for p in posts}
        for config in {c.stop_words: c for c in configs}.values()
    }


def evaluate_fold(
    train_corpus: Corpus,
    test_posts: Sequence[Post],
    config: PipelineConfig,
    stop_list: Optional[frozenset[str]] = None,
    rules: Optional[RuleLexicons] = None,
) -> FoldEval:
    """Train on train_corpus's labeled posts and evaluate on the held-out posts:
    one fold of cross_validate_grid for one config."""
    scoped = _checked_rules(config, stop_list, rules)
    train_posts = train_corpus.labeled()
    _require_labels(train_posts)
    tokens = _base_token_table([*train_posts, *test_posts], [config], stop_list)
    return _evaluate_configs(train_posts, test_posts, [config], [scoped], tokens)[0]


def _fold_workers(k: int) -> int:
    """Forked workers for k jobs (folds or stages): one per usable CPU, at most
    k. 1 runs the jobs in-process, as it must without fork or in a daemonic
    process (which may not start children)."""
    if multiprocessing.current_process().daemon or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(k, cpus)


def _fork_map(job: Callable, calls: Sequence[tuple]) -> Iterator:
    """Yield job(*args) for each args of calls, in order; the lowest failing call
    raises. Worker w of n forked ones runs calls w, w+n, ... and pickles each
    result to its own pipe, read in call order, so a pipe holds about one result.
    A dead worker raises ChildProcessError, and no worker outlives the call."""
    n = _fold_workers(len(calls))
    if n <= 1:
        yield from starmap(job, calls)
        return
    sys.stdout.flush()
    sys.stderr.flush()  # or a worker would write the caller's pending output again
    workers, done = [], False  # (pid, read end of its pipe) per worker
    try:
        for w in range(n):
            r, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(r)
                    with os.fdopen(wfd, "wb") as out:
                        for args in calls[w::n]:
                            try:
                                ok, value = True, job(*args)
                            except Exception as exc:
                                ok, value = False, exc
                            pickle.dump((ok, value), out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                            if not ok:
                                break
                finally:
                    try:
                        sys.stdout.flush()
                        sys.stderr.flush()
                    finally:
                        os._exit(0)
            os.close(wfd)  # now only the worker holds it, so its death reads as EOF
            workers.append((pid, os.fdopen(r, "rb")))
        for i in range(len(calls)):
            try:
                ok, value = pickle.load(workers[i % n][1])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"a worker process ended before returning result {i}") from None
            if not ok:
                raise value
            yield value
        done = True
    finally:
        for pid, pipe in workers:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cross_validate_grid(
    corpus: Corpus,
    configs: Sequence[PipelineConfig],
    k: int = 10,
    stop_list: Optional[frozenset[str]] = None,
    rules: Optional[RuleLexicons] = None,
    stratified: bool = True,
) -> list[EvaluationReport]:
    """k-fold cross validation of several configs; one report per config, in order.

    The configs' one shared seed deals the folds once. Every fold rebuilds
    everything from its own training split, and configs with one feature key
    share that split's features. Folds run in up to min(k, usable CPUs) forked
    workers; the reports do not depend on their number.
    """
    if k < 2:
        raise ValueError(f"cross-validation needs k >= 2 folds, got {k}")
    if not configs:
        raise ValueError("no configs to cross-validate: the config list is empty")
    seeds = {config.seed for config in configs}
    if len(seeds) != 1:
        raise ValueError(f"cross-validated configs must share one seed, got {sorted(seeds)}")
    scoped = [_checked_rules(config, stop_list, rules) for config in configs]
    fold_of = split_folds(corpus, k, seeds.pop(), stratified=stratified)
    labeled = corpus.labeled()
    empty = sorted(set(range(k)) - set(fold_of.values()))
    if empty:
        sizes = ", ".join(f"{c}={n}" for c, n in sorted(Counter(p.label for p in labeled).items()))
        folds = ", ".join(map(str, empty))
        raise CorpusError(f"{k} folds leave fold(s) {folds} without test posts (class sizes: {sizes})")
    tokens = _base_token_table(labeled, configs, stop_list)
    calls = []
    for f in range(k):
        train = tuple(p for p in labeled if fold_of[p.id] != f)
        _require_labels(train, f"fold {f}: ")
        calls.append((train, [p for p in labeled if fold_of[p.id] == f], configs, scoped, tokens))
    folds = list(_fork_map(_evaluate_configs, calls))
    return [aggregate_report(evals) for evals in zip(*folds)]


def cross_validate(
    corpus: Corpus,
    config: PipelineConfig,
    k: int = 10,
    stop_list: Optional[frozenset[str]] = None,
    rules: Optional[RuleLexicons] = None,
    stratified: bool = True,
) -> EvaluationReport:
    """k-fold cross validation of one config (see cross_validate_grid)."""
    return cross_validate_grid(corpus, [config], k, stop_list, rules, stratified)[0]


# ---------------------------------------------------------------------------
# Experiment grids mirroring the four result tables
# ---------------------------------------------------------------------------

METRIC_ROW_NAMES = {
    "presence": "Presence",
    "count": "Count",
    "frequency": "Frequency",
    "ifrequency": "IFrequency",
}

NGRAM_ROW_NAMES = {
    "unigrams": "Unigrams only",
    "bigrams": "Bigrams only",
    "unigrams+bigrams": "Unigrams bigrams",
}

GRID_NAMES = ("table1", "table2", "table3", "table4")


@dataclass(frozen=True)
class GridCell:
    table: str
    block: str
    row: str
    classifier: str
    config: PipelineConfig


def grid_cells(table: str, base: PipelineConfig) -> list[GridCell]:
    """Expand a named experiment grid into concrete configs.

    table1: 4 metrics x 2 classifiers, unigrams, no preprocessing.
    table2: the same grid with stop-word removal and stemming enabled.
    table3: {unigrams, bigrams, both} x 2 classifiers for presence and ifrequency.
    table4: rule-bigram rows (baseline/negations/emphasizers/both) x 2 classifiers
            for presence (tag mode) and ifrequency (signed-count mode).
    """
    base = replace(base, ngrams="unigrams", rule_mode=RULE_MODE_OFF, stop_words=False, stemming=False)
    if table in ("table1", "table2"):
        preprocessing = table == "table2"
        rows = [
            ("Accuracy", METRIC_ROW_NAMES[metric],
             {"metric": metric, "stop_words": preprocessing, "stemming": preprocessing})
            for metric in METRICS
        ]
    elif table == "table3":
        rows = [
            (METRIC_ROW_NAMES[metric], NGRAM_ROW_NAMES[ngrams], {"metric": metric, "ngrams": ngrams})
            for metric in ("presence", "ifrequency")
            for ngrams in NGRAM_ROW_NAMES
        ]
    elif table == "table4":
        # tagging suits a presence representation; count-based metrics get the
        # signed occurrence adjustment instead
        rows = [
            (METRIC_ROW_NAMES[metric], row, {"metric": metric, "rule_mode": mode, "rule_scope": scope})
            for metric, block_mode in (("presence", RULE_MODE_TAG), ("ifrequency", RULE_MODE_SIGNED))
            for row, mode, scope in (
                ("Unigram", RULE_MODE_OFF, RULE_SCOPE_BOTH),
                ("Negations only", block_mode, RULE_SCOPE_NEGATION),
                ("Emphasizers only", block_mode, RULE_SCOPE_EMPHASIS),
                ("Both", block_mode, RULE_SCOPE_BOTH),
            )
        ]
    else:
        raise ValueError(f"unknown grid {table!r}; expected one of {GRID_NAMES}")
    return [
        GridCell(table, block, row, clf, replace(base, classifier=clf, **overrides))
        for block, row, overrides in rows
        for clf in CLASSIFIERS
    ]


# ---------------------------------------------------------------------------
# Model serialization: versioned JSON with a dictionary fingerprint
# ---------------------------------------------------------------------------

MODEL_FORMAT = "opmine-two-stage"
MODEL_FORMAT_VERSION = 3

_MODEL_KEYS = {"format", "format_version", "tool_version", "config", "stop_words", "rules", "stages"}
_STAGE_KEYS = {"classes", "dictionary", "fingerprint", "stem_vocabulary", "weights", "bias", "class_counts"}
_DICTIONARY_KEYS = {"ngrams", "doc_freq", "n_docs", "sizes"}
_RULE_KEYS = tuple(f.name for f in fields(RuleLexicons))

# weights are stored as base64 of little-endian float64
_WEIGHT_DTYPE = "<f8"


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or fails validation."""


def dictionary_fingerprint(payload: dict) -> str:
    """sha256 of a stage's stored "dictionary" as canonical JSON."""
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stage_payload(stage: StageModel) -> dict:
    dictionary = {
        "ngrams": list(stage.dictionary.entries),
        "doc_freq": list(stage.dictionary.doc_freq),
        "n_docs": stage.dictionary.n_docs,
        "sizes": list(stage.dictionary.ngram_sizes),
    }
    return {
        "classes": list(stage.classes),
        "dictionary": dictionary,
        "fingerprint": dictionary_fingerprint(dictionary),
        "stem_vocabulary": sorted(stage.stem_trie.vocabulary) if stage.stem_trie else None,
        "weights": base64.b64encode(stage.weights.astype(_WEIGHT_DTYPE).tobytes()).decode("ascii"),
        "bias": stage.bias,
        "class_counts": list(stage.class_counts),
    }


def model_to_json(model: TwoStageModel) -> str:
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "tool_version": __version__,
        "config": asdict(model.config),
        "stop_words": sorted(model.stop_list) if model.stop_list is not None else None,
        "rules": {key: sorted(getattr(model.rules, key)) for key in _RULE_KEYS} if model.rules else None,
        "stages": {name: _stage_payload(getattr(model, name)) for name in STAGE_CLASSES},
    }
    # no indent, so that json's C encoder runs
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def save_model(model: TwoStageModel, path: str | Path) -> None:
    atomic_write_text(Path(path), model_to_json(model))


def _check_keys(what: str, data: object, expected: set[str]) -> None:
    if not isinstance(data, dict):
        raise ModelFormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing, unknown = sorted(expected - data.keys()), sorted(data.keys() - expected)
    if missing or unknown:
        raise ModelFormatError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def _word_list(what: str, value: object, used: bool, lexicon: bool = True) -> Optional[frozenset[str]]:
    """A stored word list: a list of strings when the config uses it, else null.
    Each word of a lexicon (the stop words or rule words, not a stem vocabulary)
    must be one token."""
    if not used:
        if value is not None:
            raise ModelFormatError(f"{what} must be null when the config does not use it")
        return None
    if not (isinstance(value, list) and all(isinstance(word, str) for word in value)):
        raise ModelFormatError(f"{what} must be a list of strings")
    for word in value if lexicon else ():
        if not is_token(word):
            raise ModelFormatError(f"{what}: {word!r} is not one token")
    return frozenset(value)


def _dictionary_from_payload(payload: dict, ngrams: str) -> FeatureDictionary:
    """Rebuild a stored dictionary; its n-gram sizes must be those of the config."""
    sizes = NGRAM_SIZES[ngrams]
    # type(), not ==: 1.0 and true equal 1 but would change the fingerprint
    if payload["sizes"] != list(sizes) or {type(n) for n in payload["sizes"]} != {int}:
        raise ValueError(f"sizes must be {list(sizes)} for ngrams={ngrams!r}, got {payload['sizes']!r}")
    grams, doc_freq, n_docs = payload["ngrams"], payload["doc_freq"], payload["n_docs"]
    if not (isinstance(grams, list) and grams and set(map(type, grams)) == {str}):
        raise ValueError("ngrams must be a non-empty list of strings")
    # a token is empty where two separators meet or one ends the n-gram; joined,
    # with a separator at each end, every such place is two separators meeting
    seps = set(map(str.count, grams, repeat(NGRAM_SEP)))
    if not seps <= {n - 1 for n in sizes} or 2 * NGRAM_SEP in NGRAM_SEP.join(["", *grams, ""]):
        raise ValueError(f"ngrams must be {sizes} non-empty tokens joined by single spaces")
    # type(), not isinstance(): a bool is an int but no count
    if not (isinstance(doc_freq, list) and set(map(type, [*doc_freq, n_docs])) == {int}):
        raise ValueError("doc_freq and n_docs must be integers")
    try:
        float(n_docs)  # ifrequency divides it as a float
    except OverflowError:
        raise ValueError("n_docs must convert to a finite float") from None
    # a repeated n-gram leaves fewer entries than doc_freq values, which FeatureDictionary rejects
    return FeatureDictionary(dict(zip(grams, range(len(grams)))), tuple(doc_freq), n_docs, sizes)


def _stage_from_payload(
    name: str, payload: object, config: PipelineConfig, rules: Optional[RuleLexicons]
) -> StageModel:
    """Rebuild one stage, rejecting anything the scorer could trip over later."""
    where = f"stage {name!r}"
    _check_keys(where, payload, _STAGE_KEYS)
    _check_keys(f"{where} dictionary", payload["dictionary"], _DICTIONARY_KEYS)
    try:
        dictionary = _dictionary_from_payload(payload["dictionary"], config.ngrams)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{where} dictionary: {exc}") from exc
    # after the checks above, the payload is exactly what _stage_payload writes
    actual = dictionary_fingerprint(payload["dictionary"])
    if actual != payload["fingerprint"]:
        raise ModelFormatError(
            f"{where}: dictionary fingerprint mismatch "
            f"(stored {str(payload['fingerprint'])[:12]}..., computed {actual[:12]}...)"
        )
    classes = STAGE_CLASSES[name]
    if payload["classes"] != list(classes):
        raise ModelFormatError(f"{where}: classes must be {list(classes)}, got {payload['classes']!r}")
    m = len(dictionary)
    try:
        weights = np.frombuffer(base64.b64decode(payload["weights"], validate=True), dtype=_WEIGHT_DTYPE)
        if len(weights) != m:
            raise ValueError
    except (TypeError, ValueError):  # not a str, non-ASCII, not base64 (binascii.Error) or not m float64s
        raise ModelFormatError(
            f"{where}: weights must be base64 of {m} little-endian float64 numbers, one per n-gram"
        ) from None
    bias = payload["bias"]
    # type(), not isinstance(): a bool is an int but no bias
    if type(bias) not in (int, float):
        raise ModelFormatError(f"{where}: weights and bias must be numbers")
    try:
        bias = float(bias)
    except OverflowError:  # an integer literal beyond the float range
        bias = math.inf
    if not (math.isfinite(bias) and np.isfinite(weights).all()):
        raise ModelFormatError(f"{where}: weights and bias must be finite")
    counts = payload["class_counts"]
    if not (
        isinstance(counts, list) and len(counts) == 2 and all(type(n) is int and n >= 0 for n in counts)
    ):
        raise ModelFormatError(f"{where}: class_counts must be two non-negative integers, got {counts!r}")
    stems = _word_list(f"{where} stem_vocabulary", payload["stem_vocabulary"], config.stemming, lexicon=False)
    if config.stemming and not stems:
        raise ModelFormatError(f"{where} stem_vocabulary must not be empty")
    trie = build_suffix_trie(stems, kept=rules.words if rules else frozenset()) if config.stemming else None
    return StageModel(
        classes=classes,
        dictionary=dictionary,
        weights=weights,
        bias=bias,
        class_counts=(counts[0], counts[1]),
        stem_trie=trie,
    )


def load_model(path: str | Path) -> TwoStageModel:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    # ValueError: not JSON, not UTF-8 or an integer too long to convert;
    # RecursionError: JSON nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} model file")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path} has model format version {version!r}, but this opmine reads only "
            f"version {MODEL_FORMAT_VERSION}; retrain the model with 'opmine train'"
        )
    _check_keys("model", payload, _MODEL_KEYS)
    if not isinstance(payload["tool_version"], str):
        raise ModelFormatError(f"tool_version must be a string, got {payload['tool_version']!r}")
    _check_keys("config", payload["config"], {f.name for f in fields(PipelineConfig)})
    try:
        config = PipelineConfig(**payload["config"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"config: {exc}") from exc
    _check_keys("stages", payload["stages"], set(STAGE_CLASSES))
    stop_list = _word_list("stop_words", payload["stop_words"], used=config.stop_words)
    rules = None
    if config.rule_mode == RULE_MODE_OFF:
        _word_list("rules", payload["rules"], used=False)
    else:
        _check_keys("rules", payload["rules"], set(_RULE_KEYS))
        words = {key: _word_list(f"rules {key}", payload["rules"][key], used=True) for key in _RULE_KEYS}
        try:
            stored = RuleLexicons(**words)
            rules = _checked_rules(config, stop_list, stored)
        except ValueError as exc:
            raise ModelFormatError(f"rules: {exc}") from exc
        # model_to_json stores the lexicons narrowed as _checked_rules narrows them
        if rules != stored:
            raise ModelFormatError(f"rules: each lexicon outside rule_scope={config.rule_scope!r} must be []")
    # the stage names are TwoStageModel's field names
    stages = {
        name: _stage_from_payload(name, payload["stages"][name], config, rules) for name in STAGE_CLASSES
    }
    return TwoStageModel(config=config, stop_list=stop_list, rules=rules, **stages)
