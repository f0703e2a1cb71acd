"""Every option of every subcommand, walked from build_parser(): set off its
default, it either changes some output byte of its command, or fails with one
`error:` line, writes nothing and fails the same way on a corpus that does not
exist (so the check ran before any input was read). README's CLI reference
names every option."""

import argparse
import json
import re
from pathlib import Path

import pytest

from opmine.cli import build_parser, main
from opmine.corpus import Corpus, save_corpus
from opmine.synthetic import EMPHASIZER_WORDS, NEGATORY_WORDS, generate_corpus

# each command's base command lines; {corpus} is the one read first
BASES = {
    "train": {"train": ["train", "{corpus}", "--out", "{run}/model.json"]},
    "evaluate": {
        "evaluate": ["evaluate", "{corpus}", "--folds", "3", "--out", "{run}/report.json"],
        "evaluate-grid": ["evaluate", "{corpus}", "--folds", "3", "--grid", "table1", "--out", "{run}/grid"],
    },
    "classify": {"classify": ["classify", "--model", "{model}", "--input", "{corpus}"]},
    "stats": {"stats": ["stats", "{corpus}", "--by", "topic", "--out", "{run}/mood.csv"]},
}
# the value of each option that takes one but has no choices: a prepared input, or a
# number that changes some output on the test corpus; a choice option takes its first
# choice that is neither its default nor the base's value
VALUES = {
    "rules": "neg={neg},emp={emp}", "stop_words": "{stop}", "min_count": "12", "seed": "5",
    "nb_smoothing": "0.05", "svm_lambda": "0.5", "svm_epochs": "2", "folds": "2", "out": "{run}/other",
    "input": "{subset}", "text": "rama bapinu nodok",
}


def _options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _case_argv(sub: argparse.ArgumentParser, base: list[str], action: argparse.Action) -> list[str]:
    """The base with the option set off its default, in place of the base's own
    value and of the base's member of its mutually exclusive group."""
    groups = [g._group_actions for g in sub._mutually_exclusive_groups if action in g._group_actions]
    group = groups[0] if groups else [action]
    drop = {flag for a in group for flag in a.option_strings}
    argv, base_value, skip = [], None, False
    for arg, after in zip(base, [*base[1:], None]):
        if arg in drop:  # every option of the bases takes a value
            base_value = after if arg in action.option_strings else base_value
        elif not skip:
            argv.append(arg)
        skip = arg in drop
    if action.nargs == 0:
        return [*argv, action.option_strings[0]]
    if action.choices:
        value = next(c for c in action.choices if c not in (action.default, base_value))
    else:
        value = VALUES[action.dest]
    return [*argv, action.option_strings[0], value]


CASES = [
    pytest.param(command, sub, base, action, id=f"{name}{action.option_strings[0]}")
    for command, sub in _subparsers(build_parser()).items()
    for name, base in BASES[command].items()
    for action in _options(sub)
    if not action.required
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    # a small vocabulary, so that bigrams reach the default min_count
    corpus = generate_corpus(n_posts=60, seed=3, vocab_size=10)
    paths = {name: root / f"{name}.txt" for name in ("neg", "emp", "stop")}
    for name, words in (("neg", NEGATORY_WORDS), ("emp", EMPHASIZER_WORDS), ("stop", ["sugi", "pudubolu"])):
        paths[name].write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    paths["corpus"], paths["subset"] = root / "corpus.jsonl", root / "subset.jsonl"
    save_corpus(corpus, paths["corpus"])
    save_corpus(Corpus(posts=corpus.posts[:20]), paths["subset"])
    paths["model"], paths["missing"] = root / "model.json", root / "missing.jsonl"
    assert main(["train", str(paths["corpus"]), "--out", str(paths["model"])]) == 0
    return paths, {}


def _without_configs(value):
    """A JSON output without the configs it echoes."""
    if isinstance(value, dict):
        return {k: _without_configs(v) for k, v in value.items() if k != "config"}
    return [_without_configs(v) for v in value] if isinstance(value, list) else value


def _run(argv, run_dir: Path, paths, capsys):
    run_dir.mkdir(exist_ok=True)
    rc = main([arg.format(run=run_dir, **paths) for arg in argv])
    out, err = capsys.readouterr()
    files = {
        str(p.relative_to(run_dir)): _without_configs(json.loads(p.read_text(encoding="utf-8")))
        if p.suffix == ".json" else p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }
    return rc, err.splitlines(), (out, files)


@pytest.mark.parametrize("command, sub, base, action", CASES)
def test_every_option_changes_the_output_or_fails_before_reading_input(
    inputs, tmp_path, capsys, command, sub, base, action
):
    paths, base_outputs = inputs
    key = tuple(base)
    if key not in base_outputs:
        rc, err, base_outputs[key] = _run(base, tmp_path / "base", paths, capsys)
        assert rc == 0, err
    argv = _case_argv(sub, base, action)
    rc, err, outputs = _run(argv, tmp_path / "run", paths, capsys)
    if rc == 0:
        assert outputs != base_outputs[key], f"{argv} was accepted but changed no output"
        return
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), err
    assert not any((tmp_path / "run").iterdir())
    missing = [arg.replace("{corpus}", "{missing}") for arg in argv]
    assert _run(missing, tmp_path / "run", paths, capsys)[:2] == (1, err)
    assert not any((tmp_path / "run").iterdir())


def test_the_readme_cli_reference_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    reference = re.search(r"^## CLI reference$(.*?)^## ", readme, re.M | re.S).group(1)
    parser = build_parser()
    flags = {a.option_strings[-1] for p in (parser, *_subparsers(parser).values()) for a in _options(p)}
    assert {flag for flag in flags if not re.search(rf"(?<![\w-]){flag}(?![\w-])", reference)} == set()
