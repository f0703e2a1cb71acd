"""Mood aggregation over classified posts: positive share per topic or per month.

mood = p / (p + n) over the positive and negative posts in a group; objective
posts are counted in neither, and a group with p + n = 0 has undefined mood.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .corpus import LABEL_NEGATIVE, LABEL_POSITIVE, Post
from .ioutil import atomic_write_text


@dataclass(frozen=True)
class MoodRow:
    positive: int
    negative: int

    @property
    def mood(self) -> Optional[float]:
        polar = self.positive + self.negative
        if polar == 0:
            return None
        return self.positive / polar


@dataclass(frozen=True)
class MoodTable:
    rows: dict[str, MoodRow]

    def sorted_items(self) -> list[tuple[str, MoodRow]]:
        """Descending mood, undefined rows last, ties broken by key."""
        return sorted(
            self.rows.items(),
            key=lambda kv: (kv[1].mood is None, -(kv[1].mood or 0.0), kv[0]),
        )


def _tally(keyed: Iterable[tuple[str, str]]) -> MoodTable:
    counts: dict[str, list[int]] = {}
    for key, label in keyed:
        row = counts.setdefault(key, [0, 0])
        if label == LABEL_POSITIVE:
            row[0] += 1
        elif label == LABEL_NEGATIVE:
            row[1] += 1
    return MoodTable(rows={k: MoodRow(positive=p, negative=n) for k, (p, n) in counts.items()})


def mood_by_topic(classified: Iterable[tuple[Post, str]]) -> MoodTable:
    """One row per distinct topic; posts without a topic are excluded."""
    return _tally((post.topic, label) for post, label in classified if post.topic is not None)


def mood_by_month(classified: Iterable[tuple[Post, str]], by_year: bool = False) -> MoodTable:
    """Group by calendar month ("01".."12", year-agnostic) or by "YYYY-MM".

    Posts without timestamps are excluded. Timestamps are already UTC-normalized
    by the corpus loader, so the UTC calendar month is used.
    """
    def key(post: Post) -> str:
        assert post.timestamp is not None
        if by_year:
            return f"{post.timestamp.year:04d}-{post.timestamp.month:02d}"
        return f"{post.timestamp.month:02d}"

    return _tally((key(post), label) for post, label in classified if post.timestamp is not None)


def emit_report(table: MoodTable, path: str | Path, fmt: str = "csv") -> None:
    """Write the table as CSV or JSON (atomically) with the deterministic row ordering."""
    items = table.sorted_items()
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["key", "positive", "negative", "mood"])
        for key, row in items:
            mood = "" if row.mood is None else repr(row.mood)
            writer.writerow([key, row.positive, row.negative, mood])
        text = buffer.getvalue()
    elif fmt == "json":
        payload = [
            {"key": key, "positive": row.positive, "negative": row.negative, "mood": row.mood}
            for key, row in items
        ]
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    atomic_write_text(Path(path), text)

