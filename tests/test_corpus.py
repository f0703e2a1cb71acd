import json
import os
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine.corpus import (
    Corpus,
    CorpusError,
    Post,
    load_corpus,
    parse_timestamp,
    save_corpus,
    split_folds,
)

from conftest import write_jsonl


def test_load_three_valid_lines_in_order(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            '{"id": "a", "text": "добро утро", "label": "positive"}',
            '{"id": "b", "text": "second", "topic": "food"}',
            '{"id": "c", "text": "third", "label": "objective", "timestamp": "2009-05-01T12:00:00Z"}',
        ],
    )
    corpus = load_corpus(path)
    assert [p.id for p in corpus] == ["a", "b", "c"]
    assert corpus.posts[0].label == "positive"
    assert corpus.posts[1].label == "unlabeled"
    assert corpus.posts[1].topic == "food"
    assert corpus.posts[2].timestamp == datetime(2009, 5, 1, 12, tzinfo=timezone.utc)


def test_duplicate_id_names_both_lines(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            '{"id": "p0", "text": "x"}',
            '{"id": "p1", "text": "x"}',
            '{"id": "p2", "text": "x"}',
            '{"id": "p3", "text": "x"}',
            '{"id": "p1", "text": "x"}',
        ],
    )
    with pytest.raises(CorpusError, match=r"'p1'.*lines 2 and 5"):
        load_corpus(path)


def test_unknown_label_named(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", ['{"id": "a", "text": "x", "label": "pozitive"}'])
    with pytest.raises(CorpusError, match="pozitive"):
        load_corpus(path)


def test_malformed_json_names_line(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        ['{"id": "a", "text": "x"}', '{"id": "b", "text": }'],
    )
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_missing_required_field(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", ['{"id": "a"}'])
    with pytest.raises(CorpusError, match="text"):
        load_corpus(path)


@pytest.mark.parametrize("value", ["5", "true", "[2009]", '{"y": 2009}'])
def test_non_string_timestamp_rejected(tmp_path, value):
    path = write_jsonl(tmp_path / "c.jsonl", ['{"id": "a", "text": "x", "timestamp": %s}' % value])
    with pytest.raises(CorpusError, match="line 1.*timestamp"):
        load_corpus(path)


def test_empty_text_rejected():
    with pytest.raises(CorpusError, match="empty"):
        Post(id="a", text="  \t ")


def test_roundtrip(tmp_path, synth300):
    path = tmp_path / "c.jsonl"
    save_corpus(synth300, path)
    assert load_corpus(path) == synth300


UTC = timezone.utc

# Each timestamp spelling and its UTC instant, or None where the corpus rejects
# it; the same on every supported Python. datetime.fromisoformat accepts the
# first six rejected ones from Python 3.11 on, and the next three on every version.
TIMESTAMPS = [
    ("2009-05-01T12:00:00Z", datetime(2009, 5, 1, 12, tzinfo=UTC)),
    ("2009-05-01T14:00:00+02:00", datetime(2009, 5, 1, 12, tzinfo=UTC)),
    ("2009-05-01T12:00:00", datetime(2009, 5, 1, 12, tzinfo=UTC)),
    (" 2009-05-01T12:00:00z\t", datetime(2009, 5, 1, 12, tzinfo=UTC)),
    ("2009-05-01", datetime(2009, 5, 1, tzinfo=UTC)),
    ("2009-05-01 12:30", datetime(2009, 5, 1, 12, 30, tzinfo=UTC)),
    ("2009-05-01T12:30:15.250-01:30", datetime(2009, 5, 1, 14, 0, 15, 250000, tzinfo=UTC)),
    ("2009-05-01T12:30:15.000250+00:00", datetime(2009, 5, 1, 12, 30, 15, 250, tzinfo=UTC)),
    ("2009-05-01+02:00", datetime(2009, 4, 30, 22, tzinfo=UTC)),
    ("20140105", None),
    ("2014-W01-1", None),
    ("2014-01-05T10:00:00,5", None),
    ("2014-01-05T1000", None),
    ("2014-01-05T10:00:00+0100", None),
    ("2014-01-05T10:00:00.12", None),
    ("2014-01-05x10:00", None),
    ("2014-01-05T10", None),
    ("2014-01-05T10:00:00+01:00:30", None),
    ("2014-01-05T10:00+01:60", None),
]


@pytest.mark.parametrize("raw, want", TIMESTAMPS)
def test_timestamp_variants(tmp_path, raw, want):
    path = write_jsonl(tmp_path / "c.jsonl", [json.dumps({"id": "a", "text": "x", "timestamp": raw})])
    if want is None:
        with pytest.raises(CorpusError, match="^line 1: bad timestamp"):
            load_corpus(path)
    else:
        # isoformat, not ==: the result must also carry the UTC offset
        assert parse_timestamp(raw).isoformat() == want.isoformat()
        assert load_corpus(path).posts[0].timestamp == want


def _posts(labels):
    return Corpus(
        posts=tuple(Post(id=f"p{i}", text="t", label=lab) for i, lab in enumerate(labels))
    )


def test_ten_posts_ten_folds_pigeonhole():
    corpus = _posts(["positive"] * 10)
    plan = split_folds(corpus, k=10, seed=1)
    assert sorted(plan.values()) == list(range(10))


def test_exact_stratification():
    corpus = _posts(["positive", "negative", "objective"] * 10)
    plan = split_folds(corpus, k=10, seed=3, stratified=True)
    label_of = {p.id: p.label for p in corpus}
    for fold in range(10):
        labels = [label_of[pid] for pid, f in plan.items() if f == fold]
        assert sorted(labels) == ["negative", "objective", "positive"]


def test_split_deterministic():
    corpus = _posts(["positive", "negative", "objective"] * 7)
    a = split_folds(corpus, k=5, seed=42)
    b = split_folds(corpus, k=5, seed=42)
    assert a == b
    c = split_folds(corpus, k=5, seed=43)
    assert a != c  # overwhelmingly likely for 21 posts


def test_plain_split_matches_recorded_assignment():
    labels = ["positive", "negative", "objective", "positive", "objective", "negative"]
    corpus = _posts(labels * 2)
    plan = split_folds(corpus, k=4, seed=9, stratified=False)
    assert list(plan.items()) == [
        ("p6", 0), ("p4", 1), ("p11", 2), ("p9", 3), ("p0", 0), ("p8", 1),
        ("p1", 2), ("p10", 3), ("p2", 0), ("p3", 1), ("p7", 2), ("p5", 3),
    ]


def test_too_few_labeled_posts():
    corpus = _posts(["positive"] * 3)
    with pytest.raises(CorpusError, match="k=5"):
        split_folds(corpus, k=5, seed=0)


def test_unlabeled_posts_excluded():
    corpus = Corpus(
        posts=(
            Post(id="a", text="t", label="positive"),
            Post(id="b", text="t"),
            Post(id="c", text="t", label="negative"),
        )
    )
    plan = split_folds(corpus, k=2, seed=0)
    assert set(plan) == {"a", "c"}


@settings(max_examples=50, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["positive", "negative", "objective"]), min_size=6, max_size=60),
    k=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
    stratified=st.booleans(),
)
def test_folds_partition_labeled_set(labels, k, seed, stratified):
    corpus = _posts(labels)
    if len(labels) < k:
        return
    plan = split_folds(corpus, k=k, seed=seed, stratified=stratified)
    assert set(plan) == {p.id for p in corpus.labeled()}
    assert all(0 <= f < k for f in plan.values())
    if stratified:
        # at most one post per class deviation from an even split
        for cls in set(labels):
            n_cls = sum(1 for lab in labels if lab == cls)
            per_fold = [
                sum(
                    1
                    for pid, f in plan.items()
                    if f == fold and next(p for p in corpus if p.id == pid).label == cls
                )
                for fold in range(k)
            ]
            assert max(per_fold) - min(per_fold) <= 1
            assert abs(max(per_fold) - n_cls / k) < 1


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(posts=(Post(id="a", text="t"), Post(id="a", text="u")))


def test_save_emits_one_json_object_per_line(tmp_path):
    corpus = _posts(["positive", "negative"])
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["text"] == "t" for line in lines)


def test_failed_save_keeps_existing_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("old\n", encoding="utf-8")
    corpus = Corpus(posts=(Post(id="a", text="fine"), Post(id="b", text="lone surrogate \ud800")))
    with pytest.raises(UnicodeEncodeError):
        save_corpus(corpus, path)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["c.jsonl"]
