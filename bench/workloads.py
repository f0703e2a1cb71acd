"""The three benchmark workloads: seeded inputs, the commands of one round, output checks.

Every workload drives the public entry point ``opmine.cli.main`` in-process as a
closed loop with one client: each command starts when the previous one returned.
The program sees only the files written by ``setup``.

The seed selects one of ``N_INSTANCES`` recorded input instances
(``instance = seed % N_INSTANCES``). Each instance has a reference output under
``bench/reference/`` that was recorded from the program, so a run checks its
outputs exactly (labels, accuracies, counts) or within ``SCORE_RTOL`` (scores).
"""

from __future__ import annotations

import base64
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import re
import statistics
import time
import zlib
from pathlib import Path

N_INSTANCES = 16

# Scores are compared within this relative tolerance (plus SCORE_ATOL near zero),
# because a faster fit or scorer may reorder floating-point summation.
SCORE_RTOL = 1e-6
SCORE_ATOL = 1e-9

LABEL_CODES = {"objective": "o", "positive": "p", "negative": "n"}

SIZES = {
    "grid": {
        "full": {"posts": 300, "vocab": 50, "folds": 10, "stop_words": 10},
        "tiny": {"posts": 60, "vocab": 20, "folds": 3, "stop_words": 3},
    },
    "train_large": {
        "full": {"posts": 10000, "vocab": 8000, "probes": 100},
        "tiny": {"posts": 300, "vocab": 200, "probes": 20},
    },
    "classify_bulk": {
        "full": {"train_posts": 3000, "query_posts": 12000, "vocab": 2000, "text_calls": 40},
        "tiny": {"train_posts": 300, "query_posts": 300, "vocab": 100, "text_calls": 12},
    },
}

# ---------------------------------------------------------------------------
# Seeded corpus generator
#
# The benchmark owns its generator so that its inputs cannot change when the
# program under test changes. It reproduces opmine.synthetic.generate_corpus
# with its default mixing parameters draw for draw (bench/smoke_check.py
# compares the two while the program still ships that module).
# ---------------------------------------------------------------------------

NEGATORY_WORDS = ("nibar", "nodok")
EMPHASIZER_WORDS = ("silno", "vemos")
_GOLD_LABELS = ("positive", "negative", "objective")
_TOPICS = ("food", "fashion", "economy", "sports", "music")
_CONSONANTS = "bdgklmnprstvz"
_VOWELS = "aeiou"
_SHARED_FRACTION = 0.2
_RULE_WORD_PROB = 0.05
_MIN_LEN, _MAX_LEN = 8, 20


def generate_posts(n_posts: int, seed: int, vocab_size: int) -> list[dict]:
    """Labeled post records; the first k posts of a call do not depend on n_posts."""
    rng = random.Random(seed)
    used = set(NEGATORY_WORDS) | set(EMPHASIZER_WORDS)

    def new_word() -> str:
        while True:
            word = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
            )
            if word not in used:
                used.add(word)
                return word

    n_shared = round(vocab_size * _SHARED_FRACTION)
    shared = [new_word() for _ in range(n_shared)]
    vocab = {label: [new_word() for _ in range(vocab_size - n_shared)] + shared for label in _GOLD_LABELS}
    rule_words = sorted(NEGATORY_WORDS + EMPHASIZER_WORDS)
    posts = []
    for i in range(n_posts):
        label = _GOLD_LABELS[i % len(_GOLD_LABELS)]
        tokens: list[str] = []
        for _ in range(rng.randint(_MIN_LEN, _MAX_LEN)):
            if rng.random() < _RULE_WORD_PROB:
                tokens.append(rng.choice(rule_words))
            tokens.append(rng.choice(vocab[label]))
        text = " ".join(tokens) + rng.choice(["", ".", "!", "?"])
        month, day = rng.randint(1, 12), rng.randint(1, 28)
        hour, minute = rng.randint(0, 23), rng.randint(0, 59)
        posts.append({
            "id": f"p{i:04d}",
            "text": text,
            "topic": rng.choice(_TOPICS),
            "timestamp": f"2009-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:00Z",
            "label": label,
        })
    return posts


def write_jsonl(records: list[dict], path: Path, labeled: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            if not labeled:
                record = {k: v for k, v in record.items() if k != "label"}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_lines(words, path: Path) -> None:
    path.write_text("".join(w + "\n" for w in words), encoding="utf-8")


def frequent_tokens(records: list[dict], n: int) -> list[str]:
    """The corpus's n most frequent tokens (ties by token): the derived stop list."""
    counts = collections.Counter(
        tok for r in records for tok in re.findall(r"[^\W_]+", r["text"].casefold())
    )
    return [tok for tok, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]]


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


class Runner:
    """Calls ``opmine.cli.main`` in this process, one command at a time.

    The program's stderr (including its per-post warnings) goes to a discarded
    stream, so its cost is paid but nothing is printed; stdout goes to the given
    stream or is discarded as well. With a tracer, each timed command is one
    traced operation.
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.devnull = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self.devnull.close()

    def run(self, argv: list[str], stdout=None, timed: bool = True) -> tuple[object, float]:
        """Return (exit code or exception text, wall seconds)."""
        traced = timed and self.tracer is not None
        with contextlib.redirect_stdout(stdout or self.devnull), contextlib.redirect_stderr(self.devnull):
            if traced:
                self.tracer.begin_op(argv[0])
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except Exception as exc:  # the loop goes on; the operation counts as failed
                status = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            if traced:
                self.tracer.end_op(wall)
        return status, wall


def _scores_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= SCORE_ATOL + SCORE_RTOL * max(abs(a), abs(b))


def _read_classified(stream, want: set[int]) -> tuple[list[str], str, dict]:
    """(ids, label codes, {line: (subjectivity, polarity)} for the wanted lines)."""
    ids, codes, scores = [], [], {}
    for line_no, line in enumerate(stream):
        record = json.loads(line)
        ids.append(record["id"])
        codes.append(LABEL_CODES.get(record["label"], "?"))
        if line_no in want:
            scores[line_no] = (record["scores"]["subjectivity"], record["scores"]["polarity"])
    return ids, "".join(codes), scores


class Round:
    """What one round of a workload did: timings, operation count, outputs."""

    def __init__(self, ops: int):
        self.ops = ops
        self.timings: dict[str, float] = {}
        self.text_ms: list[float] = []
        self.outputs: dict | None = None
        self.errors: list[str] = []

    @property
    def round_s(self) -> float:
        return sum(self.timings.values())


# ---------------------------------------------------------------------------
# grid: the paper's experiment loop, 8 cells x k folds x 2 stages of small fits
# ---------------------------------------------------------------------------


class Grid:
    name = "grid"
    op_roots = ("pipeline.cross_validate",)  # one traced operation per grid cell

    def __init__(self, workdir: Path, size: dict):
        self.dir = workdir
        self.size = size

    def setup(self, instance: int, cli) -> dict:
        posts = generate_posts(self.size["posts"], instance, self.size["vocab"])
        write_jsonl(posts, self.dir / "corpus.jsonl")
        write_lines(frequent_tokens(posts, self.size["stop_words"]), self.dir / "stop.txt")
        return {"posts": len(posts), "stop_words": self.size["stop_words"]}

    def run_round(self, runner: Runner) -> Round:
        out = self.dir / "grid_out"
        rnd = Round(ops=8)
        status, wall = runner.run([
            "evaluate", str(self.dir / "corpus.jsonl"), "--grid", "table2",
            "--folds", str(self.size["folds"]), "--stop-words", str(self.dir / "stop.txt"),
            "--out", str(out),
        ])
        rnd.timings["grid_s"] = wall
        if status != 0:
            rnd.errors.append(f"evaluate exited with {status}")
            return rnd
        missing = [n for n in ("grid_table2.txt", "manifest.json") if not (out / n).is_file()]
        if missing:
            rnd.errors.append(f"evaluate did not write {missing}")
            return rnd
        payload = json.loads((out / "grid_table2.json").read_text(encoding="utf-8"))
        rnd.outputs = {"cells": {
            f"{c['block']}|{c['row']}|{c['classifier']}": {
                key: c["report"][key]
                for key in ("fold_subjectivity", "fold_polarity", "fold_end_to_end", "confusion")
            }
            for c in payload["cells"]
        }}
        return rnd

    @staticmethod
    def to_reference(outputs: dict) -> dict:
        return outputs

    @staticmethod
    def compare(outputs: dict, reference: dict) -> tuple[int, list[str]]:
        got, want = outputs["cells"], reference["cells"]
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return len(bad), [f"grid cell {k} differs from the reference" for k in bad]


# ---------------------------------------------------------------------------
# train_large: one train on the 10k-post baseline; the SVM fit dominates
# ---------------------------------------------------------------------------


class TrainLarge:
    name = "train_large"
    op_roots = ()

    def __init__(self, workdir: Path, size: dict):
        self.dir = workdir
        self.size = size

    def setup(self, instance: int, cli) -> dict:
        n, probes = self.size["posts"], self.size["probes"]
        # the probes come from the same call, so they share the training vocabulary
        posts = generate_posts(n + probes, instance, self.size["vocab"])
        write_jsonl(posts[:n], self.dir / "corpus.jsonl")
        write_jsonl(posts[n:], self.dir / "probe.jsonl", labeled=False)
        return {"posts": n, "probe_posts": probes}

    def run_round(self, runner: Runner) -> Round:
        model = self.dir / "model.json"
        rnd = Round(ops=1)
        status, wall = runner.run([
            "train", str(self.dir / "corpus.jsonl"), "--out", str(model),
            "--ngrams", "unigrams+bigrams", "--min-count", "2",
        ])
        rnd.timings["train_s"] = wall
        if status != 0:
            rnd.errors.append(f"train exited with {status}")
            return rnd
        if not model.with_name(model.name + ".manifest.json").is_file():
            rnd.errors.append("train wrote no manifest")
            return rnd
        # untimed check: what the saved model says about the probe posts
        buffer = io.StringIO()
        status, _ = runner.run(
            ["classify", "--model", str(model), "--input", str(self.dir / "probe.jsonl")],
            stdout=buffer, timed=False,
        )
        if status != 0:
            rnd.errors.append(f"probe classify exited with {status}")
            return rnd
        buffer.seek(0)
        _, labels, scores = _read_classified(buffer, set(range(self.size["probes"])))
        rnd.outputs = {
            "probe_labels": labels,
            "probe_scores": [list(scores[i]) for i in sorted(scores)],
            "model_sha256": hashlib.sha256(model.read_bytes()).hexdigest(),
        }
        return rnd

    @staticmethod
    def to_reference(outputs: dict) -> dict:
        # the model bytes may change where summation is reordered; the probes may not
        return {k: v for k, v in outputs.items() if k != "model_sha256"}

    @staticmethod
    def compare(outputs: dict, reference: dict) -> tuple[int, list[str]]:
        if outputs["probe_labels"] != reference["probe_labels"]:
            return 1, ["probe labels differ from the reference"]
        for i, (got, want) in enumerate(zip(outputs["probe_scores"], reference["probe_scores"])):
            if not all(_scores_close(g, w) for g, w in zip(got, want)):
                return 1, [f"probe {i}: scores {got} differ from the reference {want}"]
        return 0, []


# ---------------------------------------------------------------------------
# classify_bulk: read a trained model, label many posts, tabulate moods,
# then answer single-text calls (each loads the model)
# ---------------------------------------------------------------------------


class ClassifyBulk:
    name = "classify_bulk"
    op_roots = ()

    def __init__(self, workdir: Path, size: dict):
        self.dir = workdir
        self.size = size
        n_query, calls = size["query_posts"], size["text_calls"]
        self.text_lines = [i * n_query // calls for i in range(calls)]

    def setup(self, instance: int, cli) -> dict:
        n_train = self.size["train_posts"]
        # one generator call: query posts from another seed would be all out of vocabulary
        posts = generate_posts(n_train + self.size["query_posts"], instance, self.size["vocab"])
        write_jsonl(posts[:n_train], self.dir / "train.jsonl")
        write_jsonl(posts[n_train:], self.dir / "query.jsonl", labeled=False)
        write_lines(NEGATORY_WORDS, self.dir / "neg.txt")
        write_lines(EMPHASIZER_WORDS, self.dir / "emp.txt")
        (self.dir / "texts.json").write_text(
            json.dumps([posts[n_train + i]["text"] for i in self.text_lines]), encoding="utf-8"
        )
        runner = Runner(cli)
        try:
            status, _ = runner.run([
                "train", str(self.dir / "train.jsonl"), "--out", str(self.dir / "model.json"),
                "--classifier", "nb", "--metric", "ifrequency", "--ngrams", "unigrams+bigrams",
                "--min-count", "2", "--rule-mode", "signed-count",
                "--rules", f"neg={self.dir / 'neg.txt'},emp={self.dir / 'emp.txt'}",
            ])
        finally:
            runner.close()
        if status != 0:
            raise RuntimeError(f"setup train exited with {status}")
        return {"train_posts": n_train, "query_posts": self.size["query_posts"],
                "text_calls": len(self.text_lines)}

    def run_round(self, runner: Runner) -> Round:
        model, classified = self.dir / "model.json", self.dir / "classified.jsonl"
        texts = json.loads((self.dir / "texts.json").read_text(encoding="utf-8"))
        rnd = Round(ops=self.size["query_posts"] + 2 + len(texts))
        with open(classified, "w", encoding="utf-8") as handle:
            status, wall = runner.run(
                ["classify", "--model", str(model), "--input", str(self.dir / "query.jsonl")],
                stdout=handle,
            )
        rnd.timings["classify_s"] = wall
        tables = {}
        for by in ("topic", "month"):
            out = self.dir / f"mood_by_{by}.csv"
            status_stats, wall = runner.run(["stats", str(classified), "--by", by, "--out", str(out)])
            rnd.timings[f"stats_{by}_s"] = wall
            tables[f"by_{by}"] = out.read_text(encoding="utf-8") if status_stats == 0 else None
            if status_stats != 0:
                rnd.errors.append(f"stats --by {by} exited with {status_stats}")
        text_results = []
        text_s = 0.0
        for text in texts:
            buffer = io.StringIO()
            status_text, wall = runner.run(["classify", "--model", str(model), "--text", text], stdout=buffer)
            text_s += wall
            rnd.text_ms.append(wall * 1000.0)
            if status_text != 0:
                rnd.errors.append(f"classify --text exited with {status_text}")
                text_results.append(None)
                continue
            record = json.loads(buffer.getvalue())
            text_results.append(
                [LABEL_CODES.get(record["label"], "?"),
                 record["scores"]["subjectivity"], record["scores"]["polarity"]]
            )
        rnd.timings["text_s"] = text_s
        if status != 0:
            rnd.errors.append(f"classify --input exited with {status}")
            return rnd
        with open(classified, encoding="utf-8") as handle:
            ids, labels, scores = _read_classified(handle, set(self.text_lines))
        first = self.size["train_posts"]
        expected_ids = [f"p{first + i:04d}" for i in range(self.size["query_posts"])]
        rnd.outputs = {
            "labels": labels if ids == expected_ids else "",
            **tables,
            "text": text_results,
            "bulk_at_text": [list(scores.get(i, (None, None))) for i in self.text_lines],
        }
        return rnd

    @staticmethod
    def to_reference(outputs: dict) -> dict:
        packed = base64.b64encode(zlib.compress(outputs["labels"].encode("ascii"), 9)).decode("ascii")
        return {"n_posts": len(outputs["labels"]), "labels_zlib_b64": packed,
                "by_topic": outputs["by_topic"], "by_month": outputs["by_month"]}

    def compare(self, outputs: dict, reference: dict) -> tuple[int, list[str]]:
        want = zlib.decompress(base64.b64decode(reference["labels_zlib_b64"])).decode("ascii")
        got = outputs["labels"]
        failed = sum(1 for i in range(len(want)) if i >= len(got) or got[i] != want[i])
        failed += max(0, len(got) - len(want))
        messages = [f"{failed} classified posts differ from the reference"] if failed else []
        for key in ("by_topic", "by_month"):
            if outputs[key] != reference[key]:
                failed += 1
                messages.append(f"mood table {key} differs from the reference")
        for j, (line, result) in enumerate(zip(self.text_lines, outputs["text"])):
            bulk = outputs["bulk_at_text"][j]
            if (result is None or line >= len(want) or result[0] != want[line]
                    or not (_scores_close(result[1], bulk[0]) and _scores_close(result[2], bulk[1]))):
                failed += 1
                messages.append(f"text call {j} (query line {line}) differs from the bulk result")
        return failed, messages


WORKLOADS = {cls.name: cls for cls in (Grid, TrainLarge, ClassifyBulk)}


def make(name: str, workdir: Path, size: str):
    return WORKLOADS[name](workdir, SIZES[name][size])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between the nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
