"""Command-line front door: train, evaluate, classify, stats.

Every run that writes files also writes a manifest (config, input paths, seed,
tool version) sufficient to reproduce it; all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional

from . import __version__
from .corpus import Post, load_corpus
from .features import METRICS, NGRAM_SIZES, RULE_MODE_OFF, RULE_MODES, RuleLexicons
from .ioutil import atomic_write_text
from .pipeline import (
    CLASSIFIER_FIELDS,
    CLASSIFIER_NB,
    CLASSIFIER_SVM,
    CLASSIFIERS,
    GRID_NAMES,
    RULE_SCOPE_BOTH,
    RULE_SCOPE_EMPHASIS,
    RULE_SCOPE_NEGATION,
    EvaluationReport,
    GridCell,
    PipelineConfig,
    _checked_rules,
    _fork_map,
    classify_post,
    cross_validate_grid,
    grid_cells,
    load_model,
    save_model,
    train_two_stage,
)
from .preprocess import load_word_list
from .stats import emit_report, mood_by_month, mood_by_topic

CLASSIFY_CHUNK = 2000  # posts per worker call of classify --input, which builds their lines


def _rule_paths(spec: Optional[str]) -> dict[str, str]:
    """The lexicon paths of ``--rules neg=FILE,emp=FILE`` (either key optional, not neither)."""
    paths: dict[str, str] = {}
    for part in spec.split(",") if spec is not None else ():
        if "=" not in part:
            raise ValueError(f"bad --rules entry {part!r}; expected neg=FILE or emp=FILE")
        key, _, value = part.partition("=")
        if key not in ("neg", "emp"):
            raise ValueError(f"bad --rules key {key!r}; expected 'neg' or 'emp'")
        if key in paths:
            raise ValueError(f"--rules key {key!r} given more than once")
        paths[key] = value
    return paths


# the --rules keys of the lexicons that each rule scope reads; the keys given set the scope
_SCOPE_KEYS = {RULE_SCOPE_BOTH: ("neg", "emp"), RULE_SCOPE_NEGATION: ("neg",), RULE_SCOPE_EMPHASIS: ("emp",)}


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    default = PipelineConfig()
    parser.add_argument("--metric", choices=METRICS, default=default.metric)
    parser.add_argument("--classifier", choices=CLASSIFIERS, default=default.classifier)
    parser.add_argument("--ngrams", choices=tuple(NGRAM_SIZES), default=default.ngrams)
    parser.add_argument("--rule-mode", choices=RULE_MODES, default=default.rule_mode)
    parser.add_argument("--rules", metavar="neg=FILE,emp=FILE", help="rule lexicon files")
    parser.add_argument("--stop-words", metavar="FILE", help="stop list; enables stop-word removal")
    parser.add_argument("--stem", action="store_true", dest="stemming",
                        help="enable successor-variety stemming")
    parser.add_argument("--min-count", type=int, default=default.min_count, metavar="N")
    parser.add_argument("--seed", type=int, default=default.seed, metavar="N")
    parser.add_argument("--nb-smoothing", type=float, default=default.nb_smoothing, metavar="A")
    parser.add_argument("--svm-lambda", type=float, default=default.svm_lambda, metavar="L")
    parser.add_argument("--svm-epochs", type=int, default=default.svm_epochs, metavar="E")


# the options above, each named after the PipelineConfig field it sets, and --rules
_CONFIG_DESTS = {f.name for f in fields(PipelineConfig)} | {"rules"}


def _config(args) -> PipelineConfig:
    keys = set(_rule_paths(args.rules))
    named = {name: getattr(args, name) for name in _CONFIG_DESTS - {"rules", "rule_scope", "stop_words"}}
    return PipelineConfig(
        **named, stop_words=args.stop_words is not None,
        rule_scope=next((scope for scope, k in _SCOPE_KEYS.items() if set(k) == keys), RULE_SCOPE_BOTH),
    )


def _run_configs(args) -> list[PipelineConfig]:
    grid = getattr(args, "grid", None)
    return [cell.config for cell in grid_cells(grid, _config(args))] if grid else [_config(args)]


def _with(args, dest: str, value) -> argparse.Namespace:
    return argparse.Namespace(**{**vars(args), dest: value})


def _reads(args, words: dict[str, frozenset[str]]) -> frozenset:
    """What a run reads: each option outside the configs (stats's --by-year-month
    only with --by month), and of each config it runs every field but the other
    classifier's knobs, the seed only for an SVM fit or evaluate's fold plan,
    the stop list (words of the path given) only where stop_words is set, and
    the rule scope and its lexicons only where rule_mode is not off."""
    own = {k: v for k, v in vars(args).items() if k not in _CONFIG_DESTS}
    if args.command == "stats":
        own = {k: v for k, v in own.items() if k != "by_year_month" or args.by == "month"}
        return frozenset([frozenset(own.items())])
    paths, runs = _rule_paths(args.rules), set()
    for config in _run_configs(args):
        unread = {n for clf, names in CLASSIFIER_FIELDS.items() if clf != config.classifier for n in names}
        if args.command == "evaluate":  # its fold plan reads the seed
            unread.discard("seed")
        read = [(f.name, getattr(config, f.name)) for f in fields(config) if f.name not in unread]
        if config.stop_words:
            read.append(("--stop-words FILE", words.get(args.stop_words)))
        if config.rule_mode == RULE_MODE_OFF:
            read.remove(("rule_scope", config.rule_scope))
        else:
            read += [(f"--rules {k}=FILE", words.get(paths.get(k))) for k in _SCOPE_KEYS[config.rule_scope]]
        runs.add(tuple(read))
    return frozenset([frozenset(own.items()), *runs])


def _is_read(args, action: argparse.Action, words: dict) -> bool:
    return _reads(_with(args, action.dest, action.default), words) != _reads(args, words)


def _unread(args, action: argparse.Action, words: dict) -> str:
    """Why the run does not read the option: the first option with choices
    whose other values would read it."""
    flag = action.option_strings[0]
    for gate in (a for a in args.options if a.choices and getattr(args, a.dest) is not None):
        name, current = gate.option_strings[0], getattr(args, gate.dest)
        values = [v for v in dict.fromkeys([*gate.choices, gate.default])
                  if v != current and _is_read(_with(args, gate.dest, v), action, words)]
        if values == [None]:  # read only without --grid, whose every cell sets it
            return f"{name} {current} sets {flag} in every cell; drop {flag}"
        if values:
            needs = " or ".join(filter(None, values))
            return f"{flag} needs {name} {needs}: {name} {current} does not read {flag}; drop {flag}"
    return f"nothing in this run reads {flag}; drop {flag}"


def _check_reads(args, words: dict) -> None:
    """The one rule, which train, evaluate and stats run before they read a
    corpus: fail on an option set off its default whose reset leaves what the
    run reads unchanged, and on a word list that the run reads but that is not
    given or holds no word."""
    reads = _reads(args, words)
    for action in args.options:
        reset = _with(args, action.dest, action.default)
        if getattr(args, action.dest, action.default) != action.default and _reads(reset, words) == reads:
            raise ValueError(_unread(args, action, words))
    for name, value in (item for read in reads for item in read):
        if name.startswith("--") and not value:
            raise ValueError(f"this run reads {name}, which is not given or holds no word")


def _run_inputs(args) -> tuple[PipelineConfig, Optional[frozenset[str]], Optional[RuleLexicons], dict]:
    """The base config, stop list and lexicons of a train or evaluate run that
    passes _check_reads and whose stop list removes no rule word of its configs,
    and the input paths for its manifest."""
    paths = _rule_paths(args.rules)
    words = {path: load_word_list(path) for path in {args.stop_words, *paths.values()} - {None}}
    _check_reads(args, words)
    stop_list = words.get(args.stop_words)
    rules = RuleLexicons(*(words.get(paths.get(k), frozenset()) for k in ("neg", "emp"))) if paths else None
    for config in _run_configs(args):
        _checked_rules(config, stop_list, rules)
    inputs = {"corpus": args.corpus, "stop_words": args.stop_words, "rules": paths or None}
    return _config(args), stop_list, rules, inputs


def _write_manifest(
    command: str, config_info, inputs: dict, outputs: list[Path], path: Optional[Path] = None
) -> None:
    """Write the run's manifest to path, by default next to its first output."""
    path = path or outputs[0].with_name(outputs[0].name + ".manifest.json")
    manifest = {
        "tool": "opmine",
        "tool_version": __version__,
        "command": command,
        "config": config_info,
        "inputs": inputs,
        "outputs": [str(out) for out in outputs],
    }
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=1) + "\n")


def cmd_train(args) -> int:
    config, stop_list, rules, input_paths = _run_inputs(args)
    # the corpus is not held across save_model, so encoding the model reuses its memory
    model = train_two_stage(load_corpus(args.corpus), config, stop_list, rules)
    out = Path(args.out)
    save_model(model, out)
    _write_manifest("train", asdict(config), input_paths, [out])
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
    config, stop_list, rules, input_paths = _run_inputs(args)
    cells = grid_cells(args.grid, config) if args.grid else []
    stratified = not args.no_stratified
    reports = cross_validate_grid(
        load_corpus(args.corpus), [cell.config for cell in cells] or [config], k=args.folds,
        stop_list=stop_list, rules=rules, stratified=stratified,
    )
    if args.grid:
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
                    "config": asdict(cell.config),
                    "report": asdict(report),
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
            info = {"grid": args.grid, "base": asdict(config), "k": args.folds, "stratified": stratified}
            _write_manifest("evaluate", info, input_paths, [grid_json, grid_txt], out_dir / "manifest.json")
        print(rendered)
        return 0

    text = json.dumps(asdict(reports[0]), sort_keys=True, indent=1) + "\n"
    if args.out:
        out = Path(args.out)
        atomic_write_text(out, text)
        info = {"config": asdict(config), "k": args.folds, "stratified": stratified}
        _write_manifest("evaluate", info, input_paths, [out])
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
    _check_reads(args, {})
    corpus = load_corpus(args.input)
    pairs = [(p, p.label) for p in corpus]
    if args.by == "topic":
        table = mood_by_topic(pairs)
    else:
        table = mood_by_month(pairs, by_year=args.by_year_month)
    # the table has a row for each topic or month that a post carries
    if corpus and not table.rows:
        attr = "topic" if args.by == "topic" else "timestamp"
        print(f"warning: no post carries a {attr}; emitting an empty table", file=sys.stderr)
    out = Path(args.out)
    emit_report(table, out, fmt=args.format)
    info = {"by": args.by, "by_year_month": args.by_year_month, "format": args.format}
    _write_manifest("stats", info, {"classified": args.input}, [out])
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
    p_train.set_defaults(func=cmd_train, options=tuple(p_train._actions))

    p_eval = sub.add_parser("evaluate", help="cross-validate one config or a whole grid")
    p_eval.add_argument("corpus", help="JSONL corpus path")
    p_eval.add_argument("--grid", choices=GRID_NAMES, help="run a named experiment grid")
    p_eval.add_argument("--folds", type=int, default=10, metavar="N")
    p_eval.add_argument("--no-stratified", action="store_true", help="plain instead of stratified folds")
    p_eval.add_argument("--out", help="report file (single config) or directory (grid)")
    _add_config_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate, options=tuple(p_eval._actions))

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
    p_stats.set_defaults(func=cmd_stats, options=tuple(p_stats._actions))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CorpusError and ModelFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
