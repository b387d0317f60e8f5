"""Atomic text output: a failed write leaves neither the target nor its
temporary file behind."""

import os

import pytest

from pchn import fileio
from pchn.fileio import atomic_write_text


def test_writes_and_replaces(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write_text(path, "a\n")
    atomic_write_text(path, "b\n")
    assert path.read_text() == "b\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_removes_the_temporary_file(tmp_path, monkeypatch):
    def fail(src, dst):
        assert os.path.exists(src)
        raise OSError("disk full")

    monkeypatch.setattr(fileio.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(tmp_path / "out.csv", "a\n")
    assert os.listdir(tmp_path) == []


def test_unencodable_text_leaves_nothing(tmp_path):
    """The write itself raises, after the temporary file was opened."""
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(tmp_path / "out.csv", "\ud800")
    assert os.listdir(tmp_path) == []
