"""The benchmark's tracer wraps program functions by module attribute; a
renamed or moved function would otherwise break ``perfbench/run.py --trace 1``
only when the benchmark runs."""

import importlib
import sys
from pathlib import Path

from graphorder import evaluation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of the program's modules and of their classes."""
    out = {}
    for name, module in sys.modules.items():
        if name != "graphorder" and not name.startswith("graphorder."):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, key, attr] = member
    for key, value in evaluation.STATISTICS.items():
        out["STATISTICS", key] = value
    return out


def test_instrument_finds_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    before = _bindings()
    # entering looks up every wrapped function and fails on a missing one
    with tracing.instrument(tracing.Recorder()):
        wrapped = {key for key, value in _bindings().items() if before.get(key) is not value}
    assert ("graphorder.symmetry", "color_refinement") in wrapped
    assert ("graphorder.graphs", "isomorphic") in wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
