import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmine.corpus import Post
from opmine.stats import MoodRow, MoodTable, emit_report, mood_by_month, mood_by_topic


def post(i, topic=None, month=None):
    ts = datetime(2009, month, 15, tzinfo=timezone.utc) if month else None
    return Post(id=f"p{i}", text="t", topic=topic, timestamp=ts)


def test_mood_by_topic_arithmetic():
    pairs = [(post(i, topic="food"), "positive") for i in range(3)]
    pairs.append((post(3, topic="food"), "negative"))
    table = mood_by_topic(pairs)
    assert table.rows["food"] == MoodRow(positive=3, negative=1)
    assert table.rows["food"].mood == 0.75


def test_objective_only_topic_has_undefined_mood():
    table = mood_by_topic([(post(0, topic="news"), "objective")])
    assert table.rows["news"] == MoodRow(positive=0, negative=0)
    assert table.rows["news"].mood is None


def test_all_positive_topic():
    table = mood_by_topic([(post(i, topic="food"), "positive") for i in range(2)])
    assert table.rows["food"].mood == 1.0


def test_posts_without_topic_excluded():
    table = mood_by_topic([(post(0), "positive"), (post(1, topic="x"), "negative")])
    assert set(table.rows) == {"x"}


def test_mood_by_month():
    pairs = [
        (post(0, month=5), "positive"),
        (post(1, month=5), "positive"),
        (post(2, month=5), "negative"),
        (post(3, month=5), "negative"),
        (post(4), "positive"),  # no timestamp: excluded
    ]
    table = mood_by_month(pairs)
    assert set(table.rows) == {"05"}
    assert table.rows["05"].mood == 0.5


def test_mood_by_year_month_key():
    table = mood_by_month([(post(0, month=5), "positive")], by_year=True)
    assert set(table.rows) == {"2009-05"}


def test_empty_input_gives_empty_table():
    assert mood_by_month([]).rows == {}
    assert mood_by_topic([]).rows == {}


def test_row_ordering_contract():
    table = MoodTable(
        rows={
            "low": MoodRow(positive=3, negative=7),
            "high": MoodRow(positive=8, negative=2),
            "undef": MoodRow(positive=0, negative=0),
            "also-high": MoodRow(positive=4, negative=1),
        }
    )
    keys = [k for k, _ in table.sorted_items()]
    assert keys == ["also-high", "high", "low", "undef"]  # 0.8 tie broken by key, undefined last


def test_csv_emission(tmp_path):
    table = MoodTable(
        rows={"food": MoodRow(positive=3, negative=1), "void": MoodRow(positive=0, negative=0)}
    )
    out = tmp_path / "mood.csv"
    emit_report(table, out, fmt="csv")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "key,positive,negative,mood"
    assert lines[1] == "food,3,1,0.75"
    assert lines[2] == "void,0,0,"  # undefined mood is an empty cell


def test_json_round_trip(tmp_path):
    table = MoodTable(
        rows={"a": MoodRow(positive=1, negative=2), "b": MoodRow(positive=0, negative=0)}
    )
    out = tmp_path / "mood.json"
    emit_report(table, out, fmt="json")
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload[0]["mood"] == pytest.approx(1 / 3)
    assert payload[1]["mood"] is None
    rows = {e["key"]: MoodRow(positive=e["positive"], negative=e["negative"]) for e in payload}
    assert MoodTable(rows=rows) == table


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit_report(MoodTable(rows={}), tmp_path / "x", fmt="xml")


labels_strategy = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2", "t3"]),
        st.sampled_from(["positive", "negative", "objective"]),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(labels_strategy)
def test_relabel_symmetry(items):
    pairs = [(post(i, topic=t), lab) for i, (t, lab) in enumerate(items)]
    flipped = [
        (p, {"positive": "negative", "negative": "positive"}.get(lab, lab)) for p, lab in pairs
    ]
    table = mood_by_topic(pairs)
    mirror = mood_by_topic(flipped)
    for key, row in table.rows.items():
        assert mirror.rows[key].positive == row.negative
        if row.mood is not None:
            assert mirror.rows[key].mood == pytest.approx(1 - row.mood, abs=1e-12)
        else:
            assert mirror.rows[key].mood is None


@settings(max_examples=100, deadline=None)
@given(labels_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance(items, rnd):
    pairs = [(post(i, topic=t), lab) for i, (t, lab) in enumerate(items)]
    shuffled = pairs[:]
    rnd.shuffle(shuffled)
    assert mood_by_topic(pairs) == mood_by_topic(shuffled)


@settings(max_examples=100, deadline=None)
@given(labels_strategy)
def test_polar_post_conservation(items):
    pairs = [(post(i, topic=t), lab) for i, (t, lab) in enumerate(items)]
    table = mood_by_topic(pairs)
    polar = sum(1 for _, lab in pairs if lab in ("positive", "negative"))
    assert sum(r.positive + r.negative for r in table.rows.values()) == polar
