"""The experiment scripts run end to end at tiny sizes and write outputs
that parse."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_community_experiment(tmp_path):
    run_script(
        "community_experiment.py",
        "--train-count", "2", "--test-count", "1", "--n-min", "6", "--n-max", "6",
        "--epochs", "1", "--samples", "2", "--importance-samples", "4",
        "--out-dir", str(tmp_path),
    )
    report = json.loads((tmp_path / "community_report.json").read_text(encoding="utf-8"))
    for side in ("learned", "uniform"):
        assert len(report[side]["elboPerEpoch"]) == 1
        assert len(report[side]["testLogLik"]) == 1
    rows = (tmp_path / "averaged_adjacency.csv").read_text(encoding="utf-8").splitlines()
    matrix = [[float(v) for v in row.split(",")] for row in rows]
    assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)


@pytest.mark.parametrize(
    "name, args, column",
    [
        ("loglik_accuracy.py", ["--graph-count", "2", "--nodes", "4", "--epochs", "1"], "meanAbsError"),
        ("variance_study.py", ["--nodes", "4", "--epochs", "1", "--trials", "2"], "variance"),
    ],
)
def test_csv_scripts(tmp_path, name, args, column):
    out = tmp_path / "out.csv"
    run_script(name, *args, "--sizes", "2,4", "--out", str(out))
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert [int(row["sampleCount"]) for row in rows] == [2, 4]
    assert all(float(row[column]) >= 0.0 for row in rows)
