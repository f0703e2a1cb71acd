"""Labeled post collections: JSONL loading/saving and cross-validation fold plans."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional

from .ioutil import atomic_write_text

LABEL_POSITIVE = "positive"
LABEL_NEGATIVE = "negative"
LABEL_OBJECTIVE = "objective"
LABEL_UNLABELED = "unlabeled"

LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_OBJECTIVE, LABEL_UNLABELED)
GOLD_LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_OBJECTIVE)


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid fold requests."""


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp and normalize it to UTC (naive treated as UTC)."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class Post:
    """One document: text plus optional topic/timestamp metadata and a gold label."""

    id: str
    text: str
    topic: Optional[str] = None
    timestamp: Optional[datetime] = None
    label: str = LABEL_UNLABELED

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise CorpusError(f"post {self.id!r}: text is empty after whitespace trimming")
        if self.label not in LABELS:
            raise CorpusError(f"post {self.id!r}: unknown label {self.label!r}")

    def to_record(self) -> dict:
        record: dict = {"id": self.id, "text": self.text}
        if self.topic is not None:
            record["topic"] = self.topic
        if self.timestamp is not None:
            record["timestamp"] = self.timestamp.isoformat().replace("+00:00", "Z")
        if self.label != LABEL_UNLABELED:
            record["label"] = self.label
        return record


@dataclass(frozen=True)
class Corpus:
    """Ordered collection of posts with pairwise-distinct ids."""

    posts: tuple[Post, ...]

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for pos, post in enumerate(self.posts):
            if post.id in seen:
                raise CorpusError(
                    f"duplicate post id {post.id!r} (posts {seen[post.id]} and {pos})"
                )
            seen[post.id] = pos

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts)

    def __len__(self) -> int:
        return len(self.posts)

    def labeled(self) -> tuple[Post, ...]:
        return tuple(p for p in self.posts if p.label != LABEL_UNLABELED)


def _post_from_record(record: dict, line_no: int) -> Post:
    if not isinstance(record, dict):
        raise CorpusError(f"line {line_no}: expected a JSON object, got {type(record).__name__}")
    for key in ("id", "text"):
        if key not in record:
            raise CorpusError(f"line {line_no}: missing required field {key!r}")
        if not isinstance(record[key], str):
            raise CorpusError(f"line {line_no}: field {key!r} must be a string")
    label = record.get("label", LABEL_UNLABELED)
    topic = record.get("topic")
    if topic is not None and not isinstance(topic, str):
        raise CorpusError(f"line {line_no}: field 'topic' must be a string")
    timestamp = None
    if record.get("timestamp") is not None:
        if not isinstance(record["timestamp"], str):
            raise CorpusError(f"line {line_no}: field 'timestamp' must be a string")
        try:
            timestamp = parse_timestamp(record["timestamp"])
        except (ValueError, TypeError, OverflowError) as exc:  # overflow: UTC leaves years 1..9999
            raise CorpusError(f"line {line_no}: bad timestamp {record['timestamp']!r}: {exc}") from exc
    try:
        return Post(id=record["id"], text=record["text"], topic=topic, timestamp=timestamp, label=label)
    except CorpusError as exc:
        raise CorpusError(f"line {line_no}: {exc}") from exc


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSON-Lines corpus file, validating records in file order.

    Each line is an object with fields ``id``, ``text`` and optional ``topic``,
    ``timestamp`` (ISO-8601), ``label``. A missing label means unlabeled.
    """
    posts: list[Post] = []
    line_of_id: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {line_no}: malformed JSON: {exc.msg}") from exc
            except RecursionError:
                raise CorpusError(f"line {line_no}: malformed JSON: nested too deeply") from None
            post = _post_from_record(record, line_no)
            if post.id in line_of_id:
                raise CorpusError(
                    f"duplicate id {post.id!r} on lines {line_of_id[post.id]} and {line_no}"
                )
            line_of_id[post.id] = line_no
            posts.append(post)
    return Corpus(posts=tuple(posts))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to JSONL, atomically; load_corpus(save_corpus(c)) == c."""
    atomic_write_text(path, "".join(json.dumps(p.to_record(), ensure_ascii=False) + "\n" for p in corpus))


def split_folds(corpus: Corpus, k: int, seed: int, stratified: bool = True) -> dict[str, int]:
    """Deterministically assign labeled posts to folds 0..k-1, as {post id: fold};
    unlabeled posts are excluded.

    Stratified mode deals each class round-robin after a seeded shuffle, so
    per-fold class proportions deviate from global ones by at most one post.
    """
    if k <= 0:
        raise CorpusError(f"k must be positive, got {k}")
    labeled = corpus.labeled()
    if len(labeled) < k:
        raise CorpusError(f"need at least k={k} labeled posts, have {len(labeled)}")
    rng = random.Random(seed)
    assignment: dict[str, int] = {}
    # a plain split deals a single group holding every labeled post
    group_of = (lambda p: p.label) if stratified else (lambda p: "")
    for group in sorted({group_of(p) for p in labeled}):
        ids = sorted(p.id for p in labeled if group_of(p) == group)
        rng.shuffle(ids)
        for i, pid in enumerate(ids):
            assignment[pid] = i % k
    return assignment
