"""Command-line interface: subcommand outputs, exit codes, config parsing."""

import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from graphorder import cli
from graphorder.cli import main, parse_run_config, resolve_run_config
from graphorder.data import format_graphs, gen_er, load_dataset
from graphorder.errors import InputError, NumericError
from graphorder.models import (
    MULTIPLICITY_MODES,
    AdjacencyModel,
    AdjacencyModelConfig,
    load_model,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig
from graphorder.rng import spawn_rng
from graphorder.training import TrainConfig
from oracles import zero_store


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    return str(path)


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


@pytest.fixture()
def coin_checkpoint(tmp_path):
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=5, fixed_node_count=3))
    zero_store(model.store)
    path = tmp_path / "coin.json"
    model.save(path, {})
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSymmetryCommand:
    def test_k3_json(self, capsys, k3_file):
        code, out, err = run(capsys, ["symmetry", k3_file])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["autCount"] == 6
        assert doc["orbits"] == [[0, 1, 2]]

    def test_order_and_exact_seq(self, capsys, p3_file):
        code, out, _ = run(capsys, ["symmetry", p3_file, "--order", "1,0,2", "--exact-seq"])
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == [1, 0, 2]
        assert doc["sequenceMultiplicityExact"] == 4
        assert doc["sequenceMultiplicityBound"] >= 4

    def test_bad_order_string(self, capsys, p3_file):
        code, _, err = run(capsys, ["symmetry", p3_file, "--order", "1;0;2"])
        assert code == 1 and err.startswith("error:")

    def test_index_out_of_range(self, capsys, k3_file):
        code, _, err = run(capsys, ["symmetry", k3_file, "--index", "4"])
        assert code == 1 and err.startswith("error:")

    def test_out_file(self, tmp_path, capsys, k3_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["symmetry", k3_file, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["autCount"] == 6


class TestConfigParsing:
    def test_comments_and_blanks(self):
        values = parse_run_config("# top\nmodel = adjacency  # inline\n\nseed = 3\n", "config")
        assert values == {"model": "adjacency", "seed": 3}

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="line 1"):
            parse_run_config("modle = adjacency\n", "config")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_run_config("seed = 1\nseed = 2\n", "config")

    def test_missing_equals_rejected(self):
        with pytest.raises(InputError, match="line 2"):
            parse_run_config("seed = 1\nepochs 4\n", "config")

    def test_bad_int_rejected(self):
        with pytest.raises(InputError, match="invalid value"):
            parse_run_config("epochs = soon\n", "config")

    def test_bad_bool_rejected(self):
        with pytest.raises(InputError, match="invalid value"):
            parse_run_config("use_baseline = yes\n", "config")

    def test_resolve_requires_data_or_generator(self):
        with pytest.raises(InputError, match="data"):
            resolve_run_config({"model": "adjacency"})

    def test_resolve_rejects_both_sources(self):
        with pytest.raises(InputError, match="not both"):
            resolve_run_config({"data": "x", "generator": "er", "count": 1, "n": 3, "p": 0.5})

    def test_resolve_rejects_cross_family_keys(self):
        with pytest.raises(InputError, match="row_embed"):
            resolve_run_config({"model": "sequence", "row_embed": 8, "data": "x"})
        with pytest.raises(InputError, match="rounds"):
            resolve_run_config({"model": "adjacency", "rounds": 3, "data": "x"})
        with pytest.raises(InputError, match="layers"):
            resolve_run_config({"posterior": "uniform", "layers": 2, "data": "x"})
        with pytest.raises(InputError, match="p_intra"):
            resolve_run_config(
                {"generator": "er", "count": 1, "n": 3, "p": 0.5, "p_intra": 0.7}
            )

    def test_resolve_validates_ranges_before_work(self):
        with pytest.raises(InputError):
            resolve_run_config({"data": "x", "epochs": 0})
        with pytest.raises(InputError):
            resolve_run_config({"data": "x", "lr_model": -1.0})

    def test_resolve_defaults(self):
        rc = resolve_run_config({"data": "x"})
        assert rc.model_config == AdjacencyModelConfig(seed=0)
        assert rc.posterior_config == PosteriorConfig(max_nodes=20, seed=0)
        assert rc.train == TrainConfig()
        assert rc.out_dir == "run"

    def test_minimal_config_takes_train_defaults_from_train_config(self):
        assert resolve_run_config({"data": "x", "seed": 5}).train == TrainConfig(seed=5)

    def test_seed_threads_into_all_configs(self):
        rc = resolve_run_config({"data": "x", "seed": 9})
        assert rc.model_config.seed == 9
        assert rc.posterior_config.seed == 9
        assert rc.train.seed == 9


class TestConfigSchema:
    def test_owned_keys_are_fields_or_arguments_of_their_owners(self):
        for key, row in cli._KEYS.items():
            for owner in row.owners:
                if dataclasses.is_dataclass(owner):
                    assert key in {f.name for f in dataclasses.fields(owner)}, (key, owner)
                elif owner != cli._RUN:
                    assert key in inspect.signature(owner).parameters, (key, owner)

    def test_every_train_field_but_seed_is_a_key(self):
        fields = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
        assert fields == {key for key, row in cli._KEYS.items() if TrainConfig in row.owners}

    def test_readme_key_list_names_the_table_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme[readme.index("\nKeys: ") :].split("\n\n", 1)[0]
        named = {token.split(" = ")[0] for token in re.findall(r"`([^`]+)`", paragraph)}
        choice_values = {value for options in cli._CHOICES.values() for value in options}
        assert named - choice_values - set(MULTIPLICITY_MODES) == set(cli._KEYS)


def write_config(tmp_path, **overrides):
    values = {
        "model": "adjacency",
        "max_nodes": 6,
        "hidden": 8,
        "row_embed": 4,
        "layers": 1,
        "heads": 2,
        "head_dim": 3,
        "sample_count": 2,
        "epochs": 2,
        "generator": "er",
        "count": 3,
        "n": 4,
        "p": 0.4,
        "out_dir": str(tmp_path / "run"),
        "seed": 7,
    }
    values.update(overrides)
    values = {k: v for k, v in values.items() if v is not None}
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


class TestTrainCommand:
    def test_writes_checkpoints_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, err = run(capsys, ["train", "--config", cfg])
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 2 and lines[0].startswith("epoch 0 elbo ")
        run_dir = tmp_path / "run"
        report_text = (run_dir / "train_report.json").read_text()
        assert report_text.endswith("}\n") and not report_text.endswith("\n\n")
        report = json.loads(report_text)
        assert len(report["epochs"]) == 2
        model = load_model(run_dir / "model.json")
        assert model.kind == "adjacency"
        OrderPosterior.load(run_dir / "posterior.json")

    def test_report_stamp_reproduces_the_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=3)
        code, _, _ = run(capsys, ["train", "--config", cfg, "--set", "p=0.6", "--seed", "11",
                                  "--epochs", "2"])
        assert code == 0
        first = tmp_path / "run"
        stamp = json.loads((first / "train_report.json").read_text())["reproduction"]
        assert {"seed = 11", "epochs = 2", "p = 0.6"} <= set(stamp["settings"])
        assert stamp["numpy"] == np.__version__
        again = tmp_path / "again.cfg"
        again.write_text("\n".join(stamp["settings"]) + "\n")
        second = tmp_path / "again"
        code, _, _ = run(capsys, ["train", "--config", str(again), "--out-dir", str(second)])
        assert code == 0
        for name in ("model.json", "posterior.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_uniform_posterior_skips_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, posterior="uniform", layers=None, heads=None, head_dim=None)
        code, _, _ = run(capsys, ["train", "--config", cfg])
        assert code == 0
        assert not (tmp_path / "run" / "posterior.json").exists()
        assert (tmp_path / "run" / "model.json").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        other = tmp_path / "other"
        code, out, _ = run(
            capsys,
            ["train", "--config", cfg, "--epochs", "1", "--out-dir", str(other), "--set", "p=0.6"],
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1
        assert (other / "model.json").exists()

    def test_periodic_checkpoints(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checkpoint_every=1, epochs=2)
        code, _, _ = run(capsys, ["train", "--config", cfg])
        assert code == 0
        run_dir = tmp_path / "run"
        assert (run_dir / "model_epoch1.json").exists()
        assert (run_dir / "model_epoch2.json").exists()
        assert (run_dir / "posterior_epoch1.json").exists()

    def test_sequence_model_trains(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="sequence", rounds=1, edge_hidden=4, row_embed=None)
        code, _, _ = run(capsys, ["train", "--config", cfg])
        assert code == 0
        assert load_model(tmp_path / "run" / "model.json").kind == "sequence"

    def test_dataset_file_source(self, tmp_path, capsys):
        data = tmp_path / "train_data.txt"
        data.write_text("3 2\n0 1\n1 2\n\n3 3\n0 1\n0 2\n1 2\n")
        cfg = write_config(tmp_path, data=str(data), generator=None, count=None, n=None, p=None)
        code, _, _ = run(capsys, ["train", "--config", cfg])
        assert code == 0

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("data = x\nwidgets = 4\n")
        code, _, err = run(capsys, ["train", "--config", str(path)])
        assert code == 1 and "widgets" in err and err.startswith("error:")

    def test_empty_set_value_rejected_like_config_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        code, out, err = run(capsys, ["train", "--config", cfg, "--set", "out_dir="])
        assert code == 1 and out == ""
        assert err.startswith("error: --set: empty value for key 'out_dir'")
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]

    def test_config_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"\xff\xfemodel = adjacency\n")
        code, out, err = run(capsys, ["train", "--config", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["train", "--config", str(tmp_path / "none.cfg")])
        assert code == 1 and err.startswith("error:")

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "broken.txt"
        data.write_text("3 9\n")
        cfg = write_config(tmp_path, data=str(data), generator=None, count=None, n=None, p=None)
        code, _, err = run(capsys, ["train", "--config", cfg])
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("key, value", [("hidden", -3), ("row_embed", 0), ("max_nodes", 1)])
    def test_nonpositive_size_is_one_error_line(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        code, out, err = run(capsys, ["train", "--config", cfg])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and key in err


class TestSampleCommand:
    def test_samples_parse_and_respect_count(self, tmp_path, capsys, coin_checkpoint):
        out_file = tmp_path / "samples.txt"
        code, out, _ = run(
            capsys,
            ["sample", "--checkpoint", coin_checkpoint, "--count", "5", "--seed", "3",
             "--out", str(out_file)],
        )
        assert code == 0 and out == ""
        ds = load_dataset(out_file)
        assert len(ds) == 5
        assert all(g.n == 3 for g in ds)

    def test_deterministic_given_seed(self, capsys, coin_checkpoint):
        code_a, out_a, _ = run(capsys, ["sample", "--checkpoint", coin_checkpoint,
                                        "--count", "4", "--seed", "9"])
        code_b, out_b, _ = run(capsys, ["sample", "--checkpoint", coin_checkpoint,
                                        "--count", "4", "--seed", "9"])
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_bad_count(self, capsys, coin_checkpoint):
        code, _, err = run(capsys, ["sample", "--checkpoint", coin_checkpoint, "--count", "0"])
        assert code == 1 and err.startswith("error:")

    def test_missing_checkpoint(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["sample", "--checkpoint", str(tmp_path / "no.json"), "--count", "1"]
        )
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "change",
        [
            {"parameters": [1.0, 2.0]},
            {"metadata": "config"},
            {"modelKind": "posterior"},
            {"modelKind": "mystery"},
            {"metadata": {"config": {"max_nodes": 4.5, "fixed_node_count": 3}}},
            {"metadata": {"config": {"max_nodes": 5, "hidden": 0}}},
        ],
    )
    def test_bad_checkpoint_is_one_error_line(self, capsys, tmp_path, coin_checkpoint, change):
        doc = json.loads(open(coin_checkpoint, encoding="utf-8").read())
        doc.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["sample", "--checkpoint", str(path), "--count", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestLoglikCommand:
    def test_fair_coin_uniform_proposal(self, capsys, coin_checkpoint, k3_file):
        code, out, _ = run(
            capsys,
            ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file, "--L", "16"],
        )
        assert code == 0
        doc = json.loads(out)
        (row,) = doc["graphs"]
        assert row["isEstimate"] == pytest.approx(math.log(1 / 8), abs=1e-9)
        assert row["exact"] == pytest.approx(math.log(1 / 8), abs=1e-9)
        assert row["stderr"] == pytest.approx(0.0, abs=1e-12)
        assert row["ess"] == pytest.approx(16, rel=1e-12)
        assert set(row) == {"index", "nodes", "exact", "isEstimate", "stderr", "ess", "L"}
        assert row["L"] == 16
        assert doc["meanIsEstimate"] == pytest.approx(math.log(1 / 8), abs=1e-9)
        assert set(doc) == {"checkpoint", "data", "proposal", "seed", "graphs", "meanIsEstimate"}

    def test_exact_skipped_above_cap(self, capsys, coin_checkpoint, k3_file):
        code, out, _ = run(
            capsys,
            ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file,
             "--L", "4", "--exact-max-n", "2"],
        )
        assert code == 0
        assert json.loads(out)["graphs"][0]["exact"] is None

    def test_learned_proposal_requires_posterior(self, capsys, coin_checkpoint, k3_file):
        code, _, err = run(
            capsys,
            ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file,
             "--proposal", "learned"],
        )
        assert code == 1 and "posterior" in err

    def test_posterior_without_learned_proposal_rejected(self, tmp_path, capsys, coin_checkpoint, k3_file):
        q_path = tmp_path / "posterior.json"
        OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=2, head_dim=3, seed=1)).save(q_path, {})
        code, out, err = run(
            capsys,
            ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file,
             "--posterior", str(q_path), "--L", "4"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_learned_proposal_runs(self, tmp_path, capsys, coin_checkpoint, k3_file):
        q = OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=2, head_dim=3, seed=1))
        q_path = tmp_path / "posterior.json"
        q.save(q_path, {})
        code, out, _ = run(
            capsys,
            ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file,
             "--proposal", "learned", "--posterior", str(q_path), "--L", "32"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["graphs"][0]["isEstimate"] == pytest.approx(math.log(1 / 8), abs=1e-6)

    def test_model_checkpoint_rejected_as_posterior(self, capsys, coin_checkpoint, k3_file):
        code, _, err = run(
            capsys,
            ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file,
             "--proposal", "learned", "--posterior", coin_checkpoint],
        )
        assert code == 1 and err.startswith("error:")

    def test_graph_above_checkpoint_max_nodes_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "small.json"
        AdjacencyModel(AdjacencyModelConfig(max_nodes=4, hidden=4, row_embed=2)).save(path, {})
        graph = tmp_path / "p5.graph"
        graph.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
        code, out, err = run(
            capsys, ["loglik", "--checkpoint", str(path), "--data", str(graph), "--L", "4"]
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_numeric_error_exit_code(self, capsys, monkeypatch, coin_checkpoint, k3_file):
        def boom(*args, **kwargs):
            raise NumericError("non-finite importance ratio")

        monkeypatch.setattr(cli, "importance_estimate", boom)
        code, _, err = run(
            capsys, ["loglik", "--checkpoint", coin_checkpoint, "--data", k3_file]
        )
        assert code == 3 and err.startswith("error:")


class TestMmdCommand:
    def test_identical_sets_zero(self, capsys, tmp_path, k3_file):
        code, out, _ = run(capsys, ["mmd", "--ref", k3_file, "--gen", k3_file])
        assert code == 0
        doc = json.loads(out)
        assert {pair["statistic"] for pair in doc["pairs"]} == {"degree", "clustering", "orbit"}
        assert all(pair["mmd"] == 0.0 and pair["mmdRaw"] == 0.0 for pair in doc["pairs"])

    def test_single_statistic_positive(self, capsys, k3_file, p3_file):
        code, out, _ = run(
            capsys, ["mmd", "--ref", k3_file, "--gen", p3_file, "--stat", "degree"]
        )
        assert code == 0
        (pair,) = json.loads(out)["pairs"]
        assert pair["statistic"] == "degree" and pair["mmd"] > 0
        assert pair["mmdRaw"] == pair["mmd"]

    def test_negative_raw_estimate_is_reported(self, capsys, tmp_path):
        rng = spawn_rng(192, 0)
        ref, gen = tmp_path / "ref.graph", tmp_path / "gen.graph"
        for path in (ref, gen):
            path.write_text(format_graphs(gen_er(3, int(rng.integers(4, 9)), 0.4, rng).graphs))
        code, out, _ = run(capsys, ["mmd", "--ref", str(ref), "--gen", str(gen), "--stat", "degree"])
        assert code == 0
        (pair,) = json.loads(out)["pairs"]
        assert pair["mmdRaw"] < 0 and pair["mmd"] == 0.0

    def test_dataset_not_utf8_is_one_error_line(self, capsys, tmp_path, k3_file):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"\xff\xfe3 0\n")
        code, out, err = run(capsys, ["mmd", "--ref", str(path), "--gen", k3_file])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_sigma_is_usage_error(self, capsys, k3_file):
        code, _, err = run(
            capsys, ["mmd", "--ref", k3_file, "--gen", k3_file, "--sigma", "0"]
        )
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_one_error_line(self, capsys, k3_file, sigma):
        code, out, err = run(
            capsys, ["mmd", "--ref", k3_file, "--gen", k3_file, "--sigma", sigma]
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestAnalyzeOrderCommand:
    def test_uniform_baseline_csv(self, capsys, p3_file):
        code, out, _ = run(
            capsys,
            ["analyze-order", "--uniform", "--graph", p3_file, "--samples", "4000",
             "--seed", "2"],
        )
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().split("\n")]
        avg = np.array(rows)
        assert avg.shape == (3, 3)
        assert np.allclose(np.diag(avg), 0)
        assert abs(avg[0, 1] - 2 / 3) < 3 * math.sqrt((2 / 3) * (1 / 3) / 4000)

    def test_posterior_checkpoint_accepted(self, tmp_path, capsys, p3_file):
        q = OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=2, head_dim=3, seed=4))
        q_path = tmp_path / "posterior.json"
        q.save(q_path, {})
        code, out, _ = run(
            capsys,
            ["analyze-order", "--checkpoint", str(q_path), "--graph", p3_file,
             "--samples", "50"],
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize("change", [{"layers": 1.5}, {"heads": True}])
    def test_non_integer_posterior_config_is_one_error_line(self, tmp_path, capsys, p3_file, change):
        # heads = 1 keeps every parameter shape valid for "heads": true
        q = OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=1, head_dim=3, seed=4))
        doc = q.checkpoint()
        doc["metadata"]["config"].update(change)
        q_path = tmp_path / "posterior.json"
        q_path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(
            capsys,
            ["analyze-order", "--checkpoint", str(q_path), "--graph", p3_file, "--samples", "5"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_requires_some_posterior(self, capsys, p3_file):
        code, _, err = run(capsys, ["analyze-order", "--graph", p3_file])
        assert code == 1 and err.startswith("error:")

    def test_uniform_with_checkpoint_rejected(self, tmp_path, capsys, p3_file):
        q_path = tmp_path / "posterior.json"
        OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=2, head_dim=3, seed=4)).save(q_path, {})
        code, out, err = run(
            capsys,
            ["analyze-order", "--uniform", "--checkpoint", str(q_path), "--graph", p3_file,
             "--samples", "5"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1 and "error:" in err

    def test_unknown_flag_exits_one(self, capsys, k3_file):
        with pytest.raises(SystemExit) as info:
            main(["symmetry", k3_file, "--bogus"])
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sample", "--count", "2"])
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for command in ("symmetry", "train", "sample", "loglik", "mmd", "analyze-order"):
            assert command in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["loglik", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--checkpoint", "--data", "--proposal", "--posterior", "--L",
                     "--exact-max-n", "--seed", "--out"):
            assert flag in out
        assert "--mode" not in out
