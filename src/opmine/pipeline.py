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
from typing import Optional, Sequence

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


def scoped_rules(rules: Optional[RuleLexicons], scope: str) -> Optional[RuleLexicons]:
    """Narrow the lexicons to the configured rule scope."""
    if rules is None:
        return None
    if scope == RULE_SCOPE_NEGATION:
        return RuleLexicons(negatory=rules.negatory, emphasizer=frozenset())
    if scope == RULE_SCOPE_EMPHASIS:
        return RuleLexicons(negatory=frozenset(), emphasizer=rules.emphasizer)
    return rules


def _base_tokens(text: str, config: PipelineConfig, stop_list: Optional[StopList]) -> list[str]:
    tokens = tokenize(text)
    if config.stop_words:
        assert stop_list is not None
        tokens = remove_stop_words(tokens, stop_list)
    return tokens


def vectorize(
    tokens: Sequence[str],
    dictionary: FeatureDictionary,
    config: PipelineConfig,
    rules: Optional[RuleLexicons],
    post_id: str = "?",
) -> FeatureVector:
    """Counts -> metric vector, with the two pipeline-level fallbacks.

    A zero total count under frequency metrics maps to an empty vector (logged);
    negative values are dropped for NB, whose event model cannot take them (the
    SVM consumes signed values as-is).
    """
    counts = extract_counts(tokens, dictionary, rules, config.rule_mode)
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


def _train_stage(
    name: str,
    classes: tuple[str, str],
    posts: Sequence[Post],
    labels: Sequence[str],
    config: PipelineConfig,
    stop_list: Optional[StopList],
    rules: Optional[RuleLexicons],
) -> StageModel:
    token_seqs = [_base_tokens(p.text, config, stop_list) for p in posts]
    trie: Optional[SuffixTrie] = None
    if config.stemming:
        vocabulary = {t for seq in token_seqs for t in seq}
        trie = build_suffix_trie(vocabulary)
        token_seqs = [stem_tokens(trie, seq) for seq in token_seqs]
    dict_streams = [rule_adjusted_tokens(seq, rules, config.rule_mode) for seq in token_seqs]
    dictionary = build_dictionary(dict_streams, NGRAM_SIZES[config.ngrams], config.min_count)
    vectors = [
        vectorize(seq, dictionary, config, rules, post_id=p.id)
        for seq, p in zip(token_seqs, posts)
    ]
    if config.classifier == CLASSIFIER_NB:
        # the log-posterior margin is linear in x (see predict_nb)
        nb = train_nb(
            vectors,
            list(labels),
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
    return StageModel(
        name=name,
        classes=classes,
        dictionary=dictionary,
        weights=weights,
        bias=bias,
        class_counts=counts,
        stem_trie=trie,
    )


def train_two_stage(
    corpus: Corpus,
    config: PipelineConfig,
    stop_list: Optional[StopList] = None,
    rules: Optional[RuleLexicons] = None,
) -> TwoStageModel:
    """Train both stages from the corpus's labeled posts.

    Stage 1 sees every labeled post with positive/negative collapsed to
    "subjective"; stage 2 sees only the positive/negative posts. Dictionaries,
    tries and classifiers are functions of this corpus alone.
    """
    if config.stop_words and stop_list is None:
        raise ValueError("config enables stop_words but no stop list was provided")
    if config.rule_mode != RULE_MODE_OFF and rules is None:
        raise ValueError(f"config sets rule_mode={config.rule_mode!r} but no rule lexicons were provided")
    rules = scoped_rules(rules, config.rule_scope) if config.rule_mode != RULE_MODE_OFF else None

    labeled = corpus.labeled()
    for gold in GOLD_LABELS:
        if not any(p.label == gold for p in labeled):
            raise ValueError(f"no training posts labeled {gold!r}")

    subj_labels = [
        LABEL_SUBJECTIVE if p.label in (LABEL_POSITIVE, LABEL_NEGATIVE) else LABEL_OBJECTIVE
        for p in labeled
    ]
    subjectivity = _train_stage(
        STAGE_SUBJECTIVITY,
        STAGE_CLASSES[STAGE_SUBJECTIVITY],
        labeled,
        subj_labels,
        config,
        stop_list,
        rules,
    )
    polar_posts = [p for p in labeled if p.label in (LABEL_POSITIVE, LABEL_NEGATIVE)]
    polarity = _train_stage(
        STAGE_POLARITY,
        STAGE_CLASSES[STAGE_POLARITY],
        polar_posts,
        [p.label for p in polar_posts],
        config,
        stop_list,
        rules,
    )
    return TwoStageModel(
        config=config,
        subjectivity=subjectivity,
        polarity=polarity,
        stop_list=stop_list if config.stop_words else None,
        rules=rules,
    )


def _predict_stage(
    stage: StageModel,
    tokens: Sequence[str],
    config: PipelineConfig,
    rules: Optional[RuleLexicons],
    post_id: str = "?",
) -> tuple[str, float]:
    stage_tokens = stem_tokens(stage.stem_trie, list(tokens)) if stage.stem_trie else list(tokens)
    vec = vectorize(stage_tokens, stage.dictionary, config, rules, post_id=post_id)
    # accumulate in the vector's order, as predict_nb/predict_svm do, so the
    # scores are bit-identical to theirs (a numpy dot would reorder the sum)
    score = stage.bias
    weights = stage.weights
    for idx, val in vec.values.items():
        score += val * weights[idx]
    return decide(score, stage.classes, stage.class_counts), score


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


def evaluate_fold(
    train_corpus: Corpus,
    test_posts: Sequence[Post],
    config: PipelineConfig,
    stop_list: Optional[StopList] = None,
    rules: Optional[RuleLexicons] = None,
) -> FoldEval:
    """Train on train_corpus's labeled posts and evaluate on the held-out posts.

    Polarity-stage accuracy is measured against gold-subjective posts directly
    (not stage-1 survivors); end-to-end counts the final three-way label.
    """
    model = train_two_stage(train_corpus, config, stop_list, rules)
    subj_correct = pol_correct = pol_total = e2e_correct = 0
    confusion = {g: {p: 0 for p in GOLD_LABELS} for g in GOLD_LABELS}
    for post in test_posts:
        final = classify_post(model, post.text, post.id).label
        subj_correct += (final == LABEL_OBJECTIVE) == (post.label == LABEL_OBJECTIVE)
        if post.label != LABEL_OBJECTIVE:
            pol_label = final
            if final == LABEL_OBJECTIVE:
                # stage 1 missed a gold-subjective post; stage 2 is scored on it anyway
                tokens = _base_tokens(post.text, config, model.stop_list)
                pol_label, _ = _predict_stage(model.polarity, tokens, config, model.rules, post.id)
            pol_total += 1
            pol_correct += pol_label == post.label
        e2e_correct += final == post.label
        confusion[post.label][final] += 1
    return FoldEval(
        subj_correct=subj_correct,
        subj_total=len(test_posts),
        pol_correct=pol_correct,
        pol_total=pol_total,
        e2e_correct=e2e_correct,
        e2e_total=len(test_posts),
        confusion=confusion,
    )


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


def cross_validate(
    corpus: Corpus,
    config: PipelineConfig,
    k: int = 10,
    stop_list: Optional[StopList] = None,
    rules: Optional[RuleLexicons] = None,
    stratified: bool = True,
) -> EvaluationReport:
    """k-fold cross validation; every fold rebuilds everything from its own training split."""
    plan = split_folds(corpus, k, config.seed, stratified=stratified)
    labeled = corpus.labeled()
    empty = sorted(set(range(k)) - set(plan.assignment.values()))
    if empty:
        sizes = ", ".join(f"{c}={n}" for c, n in sorted(Counter(p.label for p in labeled).items()))
        folds = ", ".join(map(str, empty))
        raise CorpusError(f"{k} folds leave fold(s) {folds} without test posts (class sizes: {sizes})")
    fold_evals: list[FoldEval] = []
    for fold in range(k):
        train_posts = tuple(p for p in labeled if plan.assignment[p.id] != fold)
        test_posts = [p for p in labeled if plan.assignment[p.id] == fold]
        for gold in GOLD_LABELS:
            if not any(p.label == gold for p in train_posts):
                raise ValueError(f"fold {fold}: no training posts labeled {gold!r}")
        fold_evals.append(
            evaluate_fold(Corpus(posts=train_posts), test_posts, config, stop_list, rules)
        )
    return aggregate_report(fold_evals, k)


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
