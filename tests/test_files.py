"""Atomic file writes: a failed write keeps the previous file and leaves no
temporary file behind."""

import json
import os

import numpy as np
import pytest

from graphorder.files import write_text_atomic
from graphorder.models import AdjacencyModel, AdjacencyModelConfig, load_model


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
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=3, hidden=2, row_embed=2))
    model.store.get("stop.b")[:] = 1.0
    path = tmp_path / "model.json"
    model.save(path, {"epoch": 1})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    model.store.get("stop.b")[:] = 5.0
    with pytest.raises(OSError, match="replace refused"):
        model.save(path, {"epoch": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]
    assert json.loads(before)["metadata"]["epoch"] == 1
    assert np.array_equal(load_model(path).store.get("stop.b"), [1.0])
