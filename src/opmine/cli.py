"""Command-line front door: train, evaluate, classify, stats.

Every run that writes files also writes a manifest (config, input paths, seed,
tool version) sufficient to reproduce it; all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .corpus import CorpusError, Post, load_corpus
from .features import METRICS, NGRAM_SIZES, RULE_MODE_OFF, RULE_MODES, RuleLexicons
from .ioutil import atomic_write_text
from .pipeline import (
    CLASSIFIER_NB,
    CLASSIFIER_SVM,
    CLASSIFIERS,
    GRID_NAMES,
    RULE_SCOPE_BOTH,
    RULE_SCOPE_EMPHASIS,
    RULE_SCOPE_NEGATION,
    EvaluationReport,
    GridCell,
    ModelFormatError,
    PipelineConfig,
    _fork_map,
    classify_post,
    cross_validate,
    cross_validate_grid,
    grid_cells,
    load_model,
    save_model,
    train_two_stage,
)
from .preprocess import load_word_list
from .stats import emit_report, mood_by_month, mood_by_topic

CLASSIFY_CHUNK = 2000  # posts per worker call of classify --input, which builds their lines


def _parse_rules_spec(spec: str) -> tuple[RuleLexicons, str, dict]:
    """Parse ``--rules neg=FILE,emp=FILE`` (either key optional, not neither).

    The rule scope follows from which lexicons are given.
    """
    paths: dict[str, str] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad --rules entry {part!r}; expected neg=FILE or emp=FILE")
        key, _, value = part.partition("=")
        if key not in ("neg", "emp"):
            raise ValueError(f"bad --rules key {key!r}; expected 'neg' or 'emp'")
        if key in paths:
            raise ValueError(f"--rules key {key!r} given more than once")
        paths[key] = value
    if not paths:
        raise ValueError("empty --rules specification")
    lexicons = RuleLexicons(
        negatory=load_word_list(paths["neg"]) if "neg" in paths else frozenset(),
        emphasizer=load_word_list(paths["emp"]) if "emp" in paths else frozenset(),
    )
    if "neg" in paths and "emp" in paths:
        scope = RULE_SCOPE_BOTH
    elif "neg" in paths:
        scope = RULE_SCOPE_NEGATION
    else:
        scope = RULE_SCOPE_EMPHASIS
    return lexicons, scope, paths


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    default = PipelineConfig()
    parser.add_argument("--metric", choices=METRICS, default=default.metric)
    parser.add_argument("--classifier", choices=CLASSIFIERS, default=default.classifier)
    parser.add_argument("--ngrams", choices=tuple(NGRAM_SIZES), default=default.ngrams)
    parser.add_argument("--rule-mode", choices=RULE_MODES, default=default.rule_mode)
    parser.add_argument("--rules", metavar="neg=FILE,emp=FILE", help="rule lexicon files")
    parser.add_argument("--stop-words", metavar="FILE", help="stop list; enables stop-word removal")
    parser.add_argument("--stem", action="store_true", help="enable successor-variety stemming")
    parser.add_argument("--min-count", type=int, default=default.min_count, metavar="N")
    parser.add_argument("--seed", type=int, default=default.seed, metavar="N")
    parser.add_argument("--nb-smoothing", type=float, default=default.nb_smoothing, metavar="A")
    parser.add_argument("--svm-lambda", type=float, default=default.svm_lambda, metavar="L")
    parser.add_argument("--svm-epochs", type=int, default=default.svm_epochs, metavar="E")


def _build_inputs(args) -> tuple[PipelineConfig, Optional[frozenset[str]], Optional[RuleLexicons], dict]:
    stop_list = load_word_list(args.stop_words) if args.stop_words else None
    rules = scope = None
    rule_paths: dict = {}
    if args.rules:
        rules, scope, rule_paths = _parse_rules_spec(args.rules)
    if args.rule_mode != RULE_MODE_OFF and rules is None:
        raise ValueError(f"--rule-mode {args.rule_mode} requires --rules")
    config = PipelineConfig(
        metric=args.metric,
        classifier=args.classifier,
        ngrams=args.ngrams,
        rule_mode=args.rule_mode,
        rule_scope=scope or RULE_SCOPE_BOTH,
        stop_words=args.stop_words is not None,
        stemming=args.stem,
        min_count=args.min_count,
        nb_smoothing=args.nb_smoothing,
        svm_lambda=args.svm_lambda,
        svm_epochs=args.svm_epochs,
        seed=args.seed,
    )
    input_paths = {"stop_words": args.stop_words, "rules": rule_paths or None}
    return config, stop_list, rules, input_paths


def _write_manifest(path: Path, command: str, config_info, inputs: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "opmine",
        "tool_version": __version__,
        "command": command,
        "config": config_info,
        "inputs": inputs,
        "outputs": outputs,
    }
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=1) + "\n")


def cmd_train(args) -> int:
    config, stop_list, rules, input_paths = _build_inputs(args)
    # the corpus is not held across save_model, so encoding the model reuses its memory
    model = train_two_stage(load_corpus(args.corpus), config, stop_list, rules)
    out = Path(args.out)
    save_model(model, out)
    input_paths["corpus"] = args.corpus
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "train",
        config.to_dict(),
        input_paths,
        [str(out)],
    )
    print(f"wrote model to {out}", file=sys.stderr)
    return 0


def _render_grid(table: str, results: list[tuple[GridCell, EvaluationReport]]) -> str:
    """Rows = metric/rule variant, columns = classifier; cells show the
    end-to-end three-way accuracy."""
    blocks: dict[str, dict[str, dict[str, float]]] = {}
    for cell, report in results:
        blocks.setdefault(cell.block, {}).setdefault(cell.row, {})[cell.classifier] = (
            report.end_to_end_accuracy
        )
    lines = [f"== {table} =="]
    for block, rows in blocks.items():
        width = max(len(r) for r in rows) + 2
        lines.append(f"{block:<{width}}   SVM     NB")
        for row, by_clf in rows.items():
            lines.append(f"{row:<{width}}  {by_clf[CLASSIFIER_SVM]:.2f}    {by_clf[CLASSIFIER_NB]:.2f}")
        lines.append("")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    config, stop_list, rules, input_paths = _build_inputs(args)
    corpus = load_corpus(args.corpus)
    input_paths["corpus"] = args.corpus
    stratified = not args.no_stratified

    if args.grid:
        if args.grid in ("table2",) and stop_list is None:
            raise ValueError(f"--grid {args.grid} needs --stop-words for its preprocessing rows")
        if args.grid == "table4" and (
            rules is None or not rules.negatory or not rules.emphasizer
        ):
            raise ValueError("--grid table4 needs --rules with both neg= and emp= lexicons")
        cells = grid_cells(args.grid, config)
        reports = cross_validate_grid(
            corpus, [cell.config for cell in cells], k=args.folds, stop_list=stop_list,
            rules=rules, stratified=stratified,
        )
        results = list(zip(cells, reports))
        rendered = _render_grid(args.grid, results)
        payload = {
            "table": args.grid,
            "k": args.folds,
            "cells": [
                {
                    "block": cell.block,
                    "row": cell.row,
                    "classifier": cell.classifier,
                    "config": cell.config.to_dict(),
                    "report": report.to_dict(),
                }
                for cell, report in results
            ],
        }
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            grid_json = out_dir / f"grid_{args.grid}.json"
            grid_txt = out_dir / f"grid_{args.grid}.txt"
            atomic_write_text(grid_json, json.dumps(payload, sort_keys=True, indent=1) + "\n")
            atomic_write_text(grid_txt, rendered + "\n")
            _write_manifest(
                out_dir / "manifest.json",
                "evaluate",
                {"grid": args.grid, "base": config.to_dict(), "k": args.folds,
                 "stratified": stratified},
                input_paths,
                [str(grid_json), str(grid_txt)],
            )
        print(rendered)
        return 0

    report = cross_validate(
        corpus, config, k=args.folds, stop_list=stop_list, rules=rules, stratified=stratified
    )
    text = json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
    if args.out:
        out = Path(args.out)
        atomic_write_text(out, text)
        _write_manifest(
            out.with_name(out.name + ".manifest.json"),
            "evaluate",
            {"config": config.to_dict(), "k": args.folds, "stratified": stratified},
            input_paths,
            [str(out)],
        )
        print(f"wrote report to {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _classified_lines(model, records) -> str:
    """classify's output lines for records, whose predicted label replaces a gold one in place."""
    lines = []
    for record in records:
        result = classify_post(model, record["text"], post_id=record["id"])
        record["label"] = result.label
        record["scores"] = {"subjectivity": result.subjectivity_score, "polarity": result.polarity_score}
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(lines)


def cmd_classify(args) -> int:
    model = load_model(args.model)
    if args.text is not None:
        # a plain record: Post would reject a blank --text
        sys.stdout.write(_classified_lines(model, [{"id": "text", "text": args.text}]))
        return 0
    posts = load_corpus(args.input).posts
    starts = range(0, len(posts), CLASSIFY_CHUNK)
    calls = [(model, map(Post.to_record, posts[i:i + CLASSIFY_CHUNK])) for i in starts]
    with contextlib.closing(_fork_map(_classified_lines, calls)) as lines:
        for chunk in lines:
            sys.stdout.write(chunk)
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.input)
    pairs = [(p, p.label) for p in corpus]
    if args.by == "topic":
        table = mood_by_topic(pairs)
        have_attr = any(p.topic is not None for p in corpus)
    else:
        table = mood_by_month(pairs, by_year=args.by_year_month)
        have_attr = any(p.timestamp is not None for p in corpus)
    if corpus and not have_attr:
        attr = "topic" if args.by == "topic" else "timestamp"
        print(f"warning: no post carries a {attr}; emitting an empty table", file=sys.stderr)
    out = Path(args.out)
    emit_report(table, out, fmt=args.format)
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "stats",
        {"by": args.by, "by_year_month": args.by_year_month, "format": args.format},
        {"classified": args.input},
        [str(out)],
    )
    print(f"wrote {args.format} report to {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmine",
        description="Two-stage opinion mining: objective/positive/negative classification of short posts.",
    )
    parser.add_argument("--version", action="version", version=f"opmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a two-stage model on a labeled corpus")
    p_train.add_argument("corpus", help="JSONL corpus path")
    p_train.add_argument("--out", required=True, help="model output path")
    _add_config_args(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="cross-validate one config or a whole grid")
    p_eval.add_argument("corpus", help="JSONL corpus path")
    p_eval.add_argument("--grid", choices=GRID_NAMES, help="run a named experiment grid")
    p_eval.add_argument("--folds", type=int, default=10, metavar="N")
    p_eval.add_argument("--no-stratified", action="store_true", help="plain instead of stratified folds")
    p_eval.add_argument("--out", help="report file (single config) or directory (grid)")
    _add_config_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cls = sub.add_parser("classify", help="label posts with a trained model")
    p_cls.add_argument("--model", required=True, help="model file from 'train'")
    group = p_cls.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="JSONL corpus to classify")
    group.add_argument("--text", help="classify a single text instead of a corpus")
    p_cls.set_defaults(func=cmd_classify)

    p_stats = sub.add_parser("stats", help="aggregate classified posts into mood tables")
    p_stats.add_argument("input", help="classified JSONL (output of 'classify')")
    p_stats.add_argument("--by", choices=("topic", "month"), required=True)
    p_stats.add_argument("--by-year-month", action="store_true", help="group months within years")
    p_stats.add_argument("--format", choices=("csv", "json"), default="csv")
    p_stats.add_argument("--out", required=True, help="report output path")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
