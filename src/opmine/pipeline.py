"""Two-stage classification pipeline and the cross-validated experiment grid.

Stage 1 separates objective from subjective posts; stage 2 assigns positive or
negative to the subjective ones. Each stage owns its dictionary, stemming trie
and classifier, all built from training posts only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .classify import decide, train_nb, train_svm
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
    NGRAM_SIZES,
    RULE_MODE_OFF,
    RULE_MODE_SIGNED,
    RULE_MODE_TAG,
    RULE_MODES,
    FeatureDictionary,
    FeatureVector,
    RuleLexicons,
    ZeroTotalCountError,
    build_dictionary,
    compute_metric,
    extract_counts,
    rule_adjusted_tokens,
)
from .ioutil import atomic_write_text
from .preprocess import StopList, SuffixTrie, build_suffix_trie, remove_stop_words, stem_tokens, tokenize

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
        if self.svm_epochs < 1:
            raise ValueError(f"svm_epochs must be positive, got {self.svm_epochs}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(**data)


@dataclass(frozen=True)
class StageModel:
    """One trained stage: its classes, dictionary, optional trie, and the linear
    scorer ``bias + weights . x`` that either classifier reduces to; ``decide``
    turns a score into one of the classes."""

    name: str
    classes: tuple[str, str]  # (positive-role label, negative-role label)
    dictionary: FeatureDictionary
    weights: np.ndarray
    bias: float
    class_counts: tuple[int, int]  # training posts per class, in classes order
    stem_trie: Optional[SuffixTrie] = None


@dataclass(frozen=True)
class TwoStageModel:
    config: PipelineConfig
    subjectivity: StageModel
    polarity: StageModel
    stop_list: Optional[StopList] = None
    rules: Optional[RuleLexicons] = None  # already narrowed to config.rule_scope


@dataclass(frozen=True)
class PostClassification:
    label: str  # objective | positive | negative
    subjectivity_score: float
    polarity_score: Optional[float]  # None when stage 1 said objective


def _base_tokens(text: str, config: PipelineConfig, stop_list: Optional[StopList]) -> list[str]:
    tokens = tokenize(text)
    if config.stop_words:
        assert stop_list is not None
        tokens = remove_stop_words(tokens, stop_list)
    return tokens


def _metric_vector(
    counts: dict[int, int], dictionary: FeatureDictionary, config: PipelineConfig, post_id: str
) -> FeatureVector:
    """Metric step: counts -> metric vector, with the two pipeline-level fallbacks.

    A zero total count under frequency metrics maps to an empty vector (logged);
    negative values are dropped for NB, whose event model cannot take them (the
    SVM consumes signed values as-is).
    """
    try:
        vec = compute_metric(config.metric, counts, dictionary)
    except ZeroTotalCountError:
        logger.warning(
            "post %s: zero total in-dictionary count under metric %r; using empty vector",
            post_id,
            config.metric,
        )
        vec = FeatureVector(values={}, metric=config.metric)
    if config.classifier == CLASSIFIER_NB:
        vec = FeatureVector(
            values={i: v for i, v in vec.values.items() if v > 0}, metric=vec.metric
        )
    return vec


def vectorize(
    tokens: Sequence[str],
    dictionary: FeatureDictionary,
    config: PipelineConfig,
    rules: Optional[RuleLexicons],
    post_id: str = "?",
) -> FeatureVector:
    """Counts step, then metric step, for one post's (stemmed) tokens."""
    counts = extract_counts(tokens, dictionary, rules, config.rule_mode)
    return _metric_vector(counts, dictionary, config, post_id)


def _stage_rows(posts: Sequence[Post]) -> dict[str, tuple[Sequence[int], list[str]]]:
    """Each stage's training posts, as indices into posts, and their labels.

    Stage 1 sees every post with positive/negative collapsed to "subjective";
    stage 2 sees only the positive/negative posts.
    """
    polar = [i for i, p in enumerate(posts) if p.label != LABEL_OBJECTIVE]
    subjectivity = [LABEL_OBJECTIVE if p.label == LABEL_OBJECTIVE else LABEL_SUBJECTIVE for p in posts]
    return {
        STAGE_SUBJECTIVITY: (range(len(posts)), subjectivity),
        STAGE_POLARITY: (polar, [posts[i].label for i in polar]),
    }


def _stage_features(
    token_seqs: list[list[str]], config: PipelineConfig, rules: Optional[RuleLexicons]
) -> tuple[Optional[SuffixTrie], FeatureDictionary, list[list[str]]]:
    """Features step: the trie and dictionary built from a stage's training
    posts (their base tokens), and those tokens stemmed."""
    trie: Optional[SuffixTrie] = None
    if config.stemming:
        trie = build_suffix_trie({t for seq in token_seqs for t in seq})
        token_seqs = [stem_tokens(trie, seq) for seq in token_seqs]
    dict_streams = [rule_adjusted_tokens(seq, rules, config.rule_mode) for seq in token_seqs]
    dictionary = build_dictionary(dict_streams, NGRAM_SIZES[config.ngrams], config.min_count)
    return trie, dictionary, token_seqs


def _fit_stage(
    name: str,
    trie: Optional[SuffixTrie],
    dictionary: FeatureDictionary,
    vectors: list[FeatureVector],
    labels: list[str],
    config: PipelineConfig,
) -> StageModel:
    """Fit step: NB or SVM on the metric vectors, reduced to one linear scorer.

    A fit that overflowed to non-finite weights or bias raises ValueError.
    """
    classes = STAGE_CLASSES[name]
    with np.errstate(all="ignore"):  # an overflow is an error below, not a warning
        if config.classifier == CLASSIFIER_NB:
            # the log-posterior margin is linear in x (see predict_nb)
            nb = train_nb(
                vectors,
                labels,
                smoothing=config.nb_smoothing,
                vocab_size=len(dictionary),
                classes=classes,
            )
            pos, neg = classes
            weights = nb.feature_log_likelihood[pos] - nb.feature_log_likelihood[neg]
            bias = nb.class_log_prior[pos] - nb.class_log_prior[neg]
            counts = (nb.class_counts[pos], nb.class_counts[neg])
        else:
            signs = [1 if lab == classes[0] else -1 for lab in labels]
            svm = train_svm(
                vectors,
                signs,
                lambda_=config.svm_lambda,
                epochs=config.svm_epochs,
                seed=config.seed,
                vocab_size=len(dictionary),
            )
            weights, bias, counts = svm.weights, svm.bias, (svm.n_pos, svm.n_neg)
    if not (np.isfinite(weights).all() and math.isfinite(bias)):
        knob = "nb_smoothing" if config.classifier == CLASSIFIER_NB else "svm_lambda"
        raise ValueError(
            f"stage {name!r}: the {config.classifier} fit gave non-finite weights or bias "
            f"({knob}={getattr(config, knob)})"
        )
    return StageModel(
        name=name,
        classes=classes,
        dictionary=dictionary,
        weights=weights,
        bias=bias,
        class_counts=counts,
        stem_trie=trie,
    )


def _train_stage(
    name: str,
    posts: list[Post],
    labels: list[str],
    config: PipelineConfig,
    stop_list: Optional[StopList],
    rules: Optional[RuleLexicons],
) -> StageModel:
    token_seqs = [_base_tokens(p.text, config, stop_list) for p in posts]
    trie, dictionary, token_seqs = _stage_features(token_seqs, config, rules)
    vectors = [
        vectorize(seq, dictionary, config, rules, post_id=p.id)
        for seq, p in zip(token_seqs, posts)
    ]
    return _fit_stage(name, trie, dictionary, vectors, labels, config)


def _checked_rules(
    config: PipelineConfig, stop_list: Optional[StopList], rules: Optional[RuleLexicons]
) -> Optional[RuleLexicons]:
    """Check that the config's stop list and lexicons were given; return the
    lexicons narrowed to its rule scope, or None when rules are off."""
    if config.stop_words and stop_list is None:
        raise ValueError("config enables stop_words but no stop list was provided")
    if config.rule_mode == RULE_MODE_OFF:
        return None
    if rules is None:
        raise ValueError(f"config sets rule_mode={config.rule_mode!r} but no rule lexicons were provided")
    if config.rule_scope == RULE_SCOPE_NEGATION:
        return RuleLexicons(negatory=rules.negatory, emphasizer=frozenset())
    if config.rule_scope == RULE_SCOPE_EMPHASIS:
        return RuleLexicons(negatory=frozenset(), emphasizer=rules.emphasizer)
    return rules


def _require_labels(posts: Sequence[Post], where: str = "") -> None:
    for gold in GOLD_LABELS:
        if not any(p.label == gold for p in posts):
            raise ValueError(f"{where}no training posts labeled {gold!r}")


def train_two_stage(
    corpus: Corpus,
    config: PipelineConfig,
    stop_list: Optional[StopList] = None,
    rules: Optional[RuleLexicons] = None,
) -> TwoStageModel:
    """Train both stages from the corpus's labeled posts.

    Dictionaries, tries and classifiers are functions of this corpus alone.
    """
    rules = _checked_rules(config, stop_list, rules)
    labeled = corpus.labeled()
    _require_labels(labeled)
    # one stage at a time, so the first stage's vectors are freed before the second's
    stages = {
        name: _train_stage(name, [labeled[i] for i in rows], labels, config, stop_list, rules)
        for name, (rows, labels) in _stage_rows(labeled).items()
    }
    return TwoStageModel(
        config=config,
        subjectivity=stages[STAGE_SUBJECTIVITY],
        polarity=stages[STAGE_POLARITY],
        stop_list=stop_list if config.stop_words else None,
        rules=rules,
    )


def _score(stage: StageModel, vec: FeatureVector) -> tuple[str, float]:
    """Score step: the stage's label and score for one metric vector."""
    # accumulate in the vector's order, as predict_nb/predict_svm do, so the
    # scores are bit-identical to theirs (a numpy dot would reorder the sum)
    score = stage.bias
    weights = stage.weights
    for idx, val in vec.values.items():
        score += val * weights[idx]
    return decide(score, stage.classes, stage.class_counts), score


def _predict_stage(
    stage: StageModel,
    tokens: Sequence[str],
    config: PipelineConfig,
    rules: Optional[RuleLexicons],
    post_id: str = "?",
) -> tuple[str, float]:
    stage_tokens = stem_tokens(stage.stem_trie, tokens) if stage.stem_trie else tokens
    return _score(stage, vectorize(stage_tokens, stage.dictionary, config, rules, post_id))


def classify_post(model: TwoStageModel, text: str, post_id: str = "?") -> PostClassification:
    """Stage 1 decides objective vs subjective; stage 2 runs only on subjective posts."""
    tokens = _base_tokens(text, model.config, model.stop_list)
    subj_label, subj_score = _predict_stage(
        model.subjectivity, tokens, model.config, model.rules, post_id
    )
    if subj_label == LABEL_OBJECTIVE:
        return PostClassification(
            label=LABEL_OBJECTIVE, subjectivity_score=subj_score, polarity_score=None
        )
    pol_label, pol_score = _predict_stage(model.polarity, tokens, model.config, model.rules, post_id)
    return PostClassification(
        label=pol_label, subjectivity_score=subj_score, polarity_score=pol_score
    )


def accuracy(predicted: Sequence[str], gold: Sequence[str]) -> float:
    """Fraction of exact matches between two equal-length non-empty label lists."""
    if len(predicted) != len(gold):
        raise ValueError(f"length mismatch: {len(predicted)} predictions vs {len(gold)} gold labels")
    if not gold:
        raise ValueError("cannot compute accuracy of empty lists")
    return sum(p == g for p, g in zip(predicted, gold)) / len(gold)


@dataclass(frozen=True)
class FoldEval:
    """Raw per-fold tallies; aggregation happens in aggregate_report."""

    subj_correct: int
    subj_total: int
    pol_correct: int
    pol_total: int
    e2e_correct: int
    e2e_total: int
    confusion: dict[str, dict[str, int]] = field(hash=False)


@dataclass(frozen=True)
class EvaluationReport:
    """Pooled accuracies come from summed fold tallies (so the end-to-end one
    equals confusion trace / total posts); the mean_* fields average the
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationReport":
        # JSON turns the per-fold tuples into lists
        return cls(**{k: tuple(v) if k.startswith("fold_") else v for k, v in data.items()})


def aggregate_report(fold_evals: Sequence[FoldEval], k: int) -> EvaluationReport:
    """Pool fold tallies into one report; aggregate accuracies are micro-averaged
    so end-to-end accuracy equals the confusion-matrix trace over total posts."""
    confusion = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
    for ev in fold_evals:
        for g in GOLD_LABELS:
            for p in GOLD_LABELS:
                confusion[g][p] += ev.confusion[g][p]
    subj_total = sum(ev.subj_total for ev in fold_evals)
    pol_total = sum(ev.pol_total for ev in fold_evals)
    e2e_total = sum(ev.e2e_total for ev in fold_evals)
    fold_subj = tuple(ev.subj_correct / ev.subj_total for ev in fold_evals)
    fold_pol = tuple(
        (ev.pol_correct / ev.pol_total) if ev.pol_total else None for ev in fold_evals
    )
    fold_e2e = tuple(ev.e2e_correct / ev.e2e_total for ev in fold_evals)
    pol_defined = [a for a in fold_pol if a is not None]
    return EvaluationReport(
        k=k,
        fold_subjectivity=fold_subj,
        fold_polarity=fold_pol,
        fold_end_to_end=fold_e2e,
        subjectivity_accuracy=sum(ev.subj_correct for ev in fold_evals) / subj_total,
        polarity_accuracy=sum(ev.pol_correct for ev in fold_evals) / pol_total if pol_total else 0.0,
        end_to_end_accuracy=sum(ev.e2e_correct for ev in fold_evals) / e2e_total,
        mean_subjectivity=sum(fold_subj) / len(fold_subj),
        mean_polarity=sum(pol_defined) / len(pol_defined) if pol_defined else None,
        mean_end_to_end=sum(fold_e2e) / len(fold_e2e),
        confusion=confusion,
        n_posts=e2e_total,
    )


# PipelineConfig fields read only by the metric, the fit or the fold plan; the
# other fields form the feature key of the configs that share a fold's features
_FIT_FIELDS = frozenset({"metric", "classifier", "nb_smoothing", "svm_lambda", "svm_epochs", "seed"})


class _FoldStage(NamedTuple):
    """One stage's features in one fold, shared by the configs of one feature key."""

    trie: Optional[SuffixTrie]
    dictionary: FeatureDictionary
    counts: list[dict[int, int]]  # of the stage's training posts, in row order
    held_out: list[dict[int, int]]  # of every held-out post


def _evaluate_configs(
    train_posts: Sequence[Post],
    test_posts: Sequence[Post],
    configs: Sequence[PipelineConfig],
    scoped: Sequence[Optional[RuleLexicons]],
    tokens: dict[bool, dict[str, list[str]]],
) -> list[FoldEval]:
    """One fold of every config: train on the labeled train_posts, score test_posts.

    tokens maps each stop-word setting to post text -> base tokens. Configs with
    one feature key share the fold's features, which are dropped on return; the
    metric, the fit and the scoring run per config. Polarity-stage accuracy is
    measured against gold-subjective posts directly (not stage-1 survivors);
    end-to-end counts the final three-way label.
    """
    rows = _stage_rows(train_posts)
    shared: dict[tuple, dict[str, _FoldStage]] = {}
    evals = []
    for config, rules in zip(configs, scoped):
        key = tuple(getattr(config, f.name) for f in fields(config) if f.name not in _FIT_FIELDS)
        if key not in shared:
            base = tokens[config.stop_words]
            shared[key] = {}
            for name, (stage_rows, _) in rows.items():
                trie, dictionary, seqs = _stage_features(
                    [base[train_posts[i].text] for i in stage_rows], config, rules
                )
                tests = [base[p.text] for p in test_posts]
                if trie is not None:
                    tests = [stem_tokens(trie, seq) for seq in tests]
                shared[key][name] = _FoldStage(
                    trie,
                    dictionary,
                    counts=[extract_counts(seq, dictionary, rules, config.rule_mode) for seq in seqs],
                    held_out=[extract_counts(seq, dictionary, rules, config.rule_mode) for seq in tests],
                )
        features = shared[key]
        stages = {}
        for name, f in features.items():
            stage_rows, labels = rows[name]
            vectors = [
                _metric_vector(counts, f.dictionary, config, train_posts[i].id)
                for counts, i in zip(f.counts, stage_rows)
            ]
            stages[name] = _fit_stage(name, f.trie, f.dictionary, vectors, labels, config)

        def label_of(name: str, i: int) -> str:
            stage = stages[name]
            vec = _metric_vector(features[name].held_out[i], stage.dictionary, config, test_posts[i].id)
            return _score(stage, vec)[0]

        subj_correct = pol_correct = pol_total = e2e_correct = 0
        confusion = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
        for i, post in enumerate(test_posts):
            final = label_of(STAGE_SUBJECTIVITY, i)
            if final != LABEL_OBJECTIVE:
                final = label_of(STAGE_POLARITY, i)
            subj_correct += (final == LABEL_OBJECTIVE) == (post.label == LABEL_OBJECTIVE)
            if post.label != LABEL_OBJECTIVE:
                # stage 2 is scored on every gold-subjective post, also on one stage 1 missed
                pol_label = final if final != LABEL_OBJECTIVE else label_of(STAGE_POLARITY, i)
                pol_total += 1
                pol_correct += pol_label == post.label
            e2e_correct += final == post.label
            confusion[post.label][final] += 1
        evals.append(FoldEval(
            subj_correct=subj_correct,
            subj_total=len(test_posts),
            pol_correct=pol_correct,
            pol_total=pol_total,
            e2e_correct=e2e_correct,
            e2e_total=len(test_posts),
            confusion=confusion,
        ))
    return evals


def _base_token_table(
    posts: Sequence[Post], configs: Sequence[PipelineConfig], stop_list: Optional[StopList]
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
    stop_list: Optional[StopList] = None,
    rules: Optional[RuleLexicons] = None,
) -> FoldEval:
    """Train on train_corpus's labeled posts and evaluate on the held-out posts:
    one fold of cross_validate_grid for one config."""
    scoped = _checked_rules(config, stop_list, rules)
    train_posts = train_corpus.labeled()
    _require_labels(train_posts)
    tokens = _base_token_table([*train_posts, *test_posts], [config], stop_list)
    return _evaluate_configs(train_posts, test_posts, [config], [scoped], tokens)[0]


def cross_validate_grid(
    corpus: Corpus,
    configs: Sequence[PipelineConfig],
    k: int = 10,
    stop_list: Optional[StopList] = None,
    rules: Optional[RuleLexicons] = None,
    stratified: bool = True,
) -> list[EvaluationReport]:
    """k-fold cross validation of several configs; one report per config, in order.

    The configs' one shared seed deals the folds once. Folds are the outer
    loop, every fold rebuilds everything from its own training split, and
    configs with one feature key share that split's features.
    """
    if k < 2:
        raise ValueError(f"cross-validation needs k >= 2 folds, got {k}")
    seeds = {config.seed for config in configs}
    if len(seeds) != 1:
        raise ValueError(f"cross-validated configs must share one seed, got {sorted(seeds)}")
    scoped = [_checked_rules(config, stop_list, rules) for config in configs]
    plan = split_folds(corpus, k, seeds.pop(), stratified=stratified)
    labeled = corpus.labeled()
    empty = sorted(set(range(k)) - set(plan.assignment.values()))
    if empty:
        sizes = ", ".join(f"{c}={n}" for c, n in sorted(Counter(p.label for p in labeled).items()))
        folds = ", ".join(map(str, empty))
        raise CorpusError(f"{k} folds leave fold(s) {folds} without test posts (class sizes: {sizes})")
    tokens = _base_token_table(labeled, configs, stop_list)
    fold_evals: list[list[FoldEval]] = [[] for _ in configs]
    for fold in range(k):
        train_posts = tuple(p for p in labeled if plan.assignment[p.id] != fold)
        test_posts = [p for p in labeled if plan.assignment[p.id] == fold]
        _require_labels(train_posts, f"fold {fold}: ")
        evals = _evaluate_configs(train_posts, test_posts, configs, scoped, tokens)
        for per_config, ev in zip(fold_evals, evals):
            per_config.append(ev)
    return [aggregate_report(evals, k) for evals in fold_evals]


def cross_validate(
    corpus: Corpus,
    config: PipelineConfig,
    k: int = 10,
    stop_list: Optional[StopList] = None,
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
MODEL_FORMAT_VERSION = 2

_MODEL_KEYS = {"format", "format_version", "tool_version", "config", "stop_words", "rules", "stages"}
_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}
_STAGE_KEYS = {"classes", "dictionary", "fingerprint", "stem_vocabulary", "weights", "bias", "class_counts"}
_DICTIONARY_KEYS = {"ngrams", "doc_freq", "n_docs", "sizes"}


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or fails validation."""


def _dictionary_payload(dictionary: FeatureDictionary) -> dict:
    return {
        "ngrams": [list(g) for g in dictionary.entries],
        "doc_freq": list(dictionary.doc_freq),
        "n_docs": dictionary.n_docs,
        "sizes": list(dictionary.ngram_sizes),
    }


def dictionary_fingerprint(dictionary: FeatureDictionary) -> str:
    blob = json.dumps(_dictionary_payload(dictionary), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stage_payload(stage: StageModel) -> dict:
    return {
        "classes": list(stage.classes),
        "dictionary": _dictionary_payload(stage.dictionary),
        "fingerprint": dictionary_fingerprint(stage.dictionary),
        "stem_vocabulary": sorted(stage.stem_trie.vocabulary) if stage.stem_trie else None,
        "weights": stage.weights.tolist(),
        "bias": stage.bias,
        "class_counts": list(stage.class_counts),
    }


def model_to_json(model: TwoStageModel) -> str:
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "tool_version": __version__,
        "config": model.config.to_dict(),
        "stop_words": sorted(model.stop_list.words) if model.stop_list else None,
        "rules": (
            {
                "negatory": sorted(model.rules.negatory),
                "emphasizer": sorted(model.rules.emphasizer),
            }
            if model.rules
            else None
        ),
        "stages": {
            STAGE_SUBJECTIVITY: _stage_payload(model.subjectivity),
            STAGE_POLARITY: _stage_payload(model.polarity),
        },
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=1) + "\n"


def save_model(model: TwoStageModel, path: str | Path) -> None:
    atomic_write_text(Path(path), model_to_json(model))


def _check_keys(what: str, data: object, expected: set[str]) -> None:
    if not isinstance(data, dict):
        raise ModelFormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing, unknown = sorted(expected - data.keys()), sorted(data.keys() - expected)
    if missing or unknown:
        raise ModelFormatError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def _word_list(what: str, value: object, used: bool) -> Optional[frozenset[str]]:
    """A stored lexicon: a list of strings when the config uses it, else null."""
    if not used:
        if value is not None:
            raise ModelFormatError(f"{what} must be null when the config does not use it")
        return None
    if not (isinstance(value, list) and all(isinstance(word, str) for word in value)):
        raise ModelFormatError(f"{what} must be a list of strings")
    return frozenset(value)


def _dictionary_from_payload(payload: dict) -> FeatureDictionary:
    entries = {tuple(g): i for i, g in enumerate(payload["ngrams"])}
    return FeatureDictionary(
        entries=entries,
        doc_freq=tuple(payload["doc_freq"]),
        n_docs=payload["n_docs"],
        ngram_sizes=tuple(payload["sizes"]),
    )


def _stage_from_payload(name: str, payload: object, config: PipelineConfig) -> StageModel:
    """Rebuild one stage, rejecting anything the scorer could trip over later."""
    where = f"stage {name!r}"
    _check_keys(where, payload, _STAGE_KEYS)
    _check_keys(f"{where} dictionary", payload["dictionary"], _DICTIONARY_KEYS)
    try:
        dictionary = _dictionary_from_payload(payload["dictionary"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{where} dictionary: {exc}") from exc
    actual = dictionary_fingerprint(dictionary)
    if actual != payload["fingerprint"]:
        raise ModelFormatError(
            f"{where}: dictionary fingerprint mismatch "
            f"(stored {str(payload['fingerprint'])[:12]}..., computed {actual[:12]}...)"
        )
    classes = STAGE_CLASSES[name]
    if payload["classes"] != list(classes):
        raise ModelFormatError(f"{where}: classes must be {list(classes)}, got {payload['classes']!r}")
    weights = payload["weights"]
    if not isinstance(weights, list) or len(weights) != len(dictionary):
        raise ModelFormatError(f"{where}: expected a list of {len(dictionary)} weights, one per n-gram")
    values = weights + [payload["bias"]]
    # type(), not isinstance(): a bool is an int but no weight
    if not set(map(type, values)) <= {int, float}:
        raise ModelFormatError(f"{where}: weights and bias must be numbers")
    try:
        values = np.array(values, dtype=np.float64)
        finite = np.isfinite(values).all()
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ModelFormatError(f"{where}: weights and bias must be finite")
    counts = payload["class_counts"]
    if not (
        isinstance(counts, list) and len(counts) == 2 and all(type(n) is int and n >= 0 for n in counts)
    ):
        raise ModelFormatError(f"{where}: class_counts must be two non-negative integers, got {counts!r}")
    stems = _word_list(f"{where} stem_vocabulary", payload["stem_vocabulary"], used=config.stemming)
    if config.stemming and not stems:
        raise ModelFormatError(f"{where} stem_vocabulary must not be empty")
    trie = build_suffix_trie(stems) if config.stemming else None
    return StageModel(
        name=name,
        classes=classes,
        dictionary=dictionary,
        weights=values[:-1],
        bias=float(values[-1]),
        class_counts=(counts[0], counts[1]),
        stem_trie=trie,
    )


def load_model(path: str | Path) -> TwoStageModel:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
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
    _check_keys("config", payload["config"], _CONFIG_KEYS)
    try:
        config = PipelineConfig.from_dict(payload["config"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"config: {exc}") from exc
    _check_keys("stages", payload["stages"], set(STAGE_CLASSES))
    stop_words = _word_list("stop_words", payload["stop_words"], used=config.stop_words)
    stop_list = StopList(words=stop_words) if config.stop_words else None
    rules = None
    if config.rule_mode == RULE_MODE_OFF:
        _word_list("rules", payload["rules"], used=False)
    else:
        _check_keys("rules", payload["rules"], {"negatory", "emphasizer"})
        negatory, emphasizer = (
            _word_list(f"rules {key}", payload["rules"][key], used=True)
            for key in ("negatory", "emphasizer")
        )
        try:
            rules = RuleLexicons(negatory=negatory, emphasizer=emphasizer)
        except ValueError as exc:
            raise ModelFormatError(f"rules: {exc}") from exc
    return TwoStageModel(
        config=config,
        subjectivity=_stage_from_payload(
            STAGE_SUBJECTIVITY, payload["stages"][STAGE_SUBJECTIVITY], config
        ),
        polarity=_stage_from_payload(STAGE_POLARITY, payload["stages"][STAGE_POLARITY], config),
        stop_list=stop_list,
        rules=rules,
    )
