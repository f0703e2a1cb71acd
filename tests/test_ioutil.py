import os

import pytest

from opmine.ioutil import atomic_write_text


def test_replaces_content_with_plain_file_mode(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old", encoding="utf-8")
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    atomic_write_text(target, "new ✓")
    assert target.read_text(encoding="utf-8") == "new ✓"
    assert target.stat().st_mode == plain.stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "plain.txt"]


def test_failed_write_keeps_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "lone surrogate \ud800")
    assert target.read_text(encoding="utf-8") == "old"
    assert os.listdir(tmp_path) == ["out.txt"]
