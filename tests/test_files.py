"""Atomic file writes: a failed write keeps the previous file and leaves no
temporary file behind."""

import os

import numpy as np
import pytest

from graphorder.files import write_text_atomic
from graphorder.tensor import ParameterStore, load_checkpoint, save_checkpoint


def test_writes_and_replaces(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "first\n")
    write_text_atomic(path, "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_encoding_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "kept\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "lone surrogate \ud800\n")
    assert path.read_text(encoding="utf-8") == "kept\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_checkpoint_replace_keeps_previous_file(tmp_path, monkeypatch):
    store = ParameterStore()
    store.add("w", np.array([1.0, 2.0]))
    path = tmp_path / "model.json"
    save_checkpoint(path, store, "adjacency", {"epoch": 1})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    store.get("w")[:] = 5.0
    with pytest.raises(OSError, match="replace refused"):
        save_checkpoint(path, store, "adjacency", {"epoch": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]
    kind, meta, params = load_checkpoint(path)
    assert kind == "adjacency" and meta == {"epoch": 1}
    assert np.array_equal(params["w"], [1.0, 2.0])
