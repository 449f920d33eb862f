import json

import numpy as np
import pytest

from mullab import cli
from mullab.arff import LabelSpec, SplitSpec, load_arff, bind_labels, split_dataset
from mullab.ensemble import ensemble_fit, default_ensemble_spec
from mullab.learners import preset
from mullab.metrics import evaluate
from mullab.rng import derive_seed
from mullab.transforms import br_fit

from synth import correlated_dataset, to_arff_text


@pytest.fixture
def data_files(tmp_path):
    train, test = correlated_dataset(123, n_train=60, n_test=0, n_labels=3,
                                     n_features=4)
    arff_path = tmp_path / "synthetic.arff"
    arff_path.write_text(to_arff_text(train), encoding="utf-8")
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("".join(f"L{j}\n" for j in range(3)), encoding="utf-8")
    return arff_path, labels_path


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestInfo:
    def test_prints_statistics(self, data_files, capsys):
        arff_path, labels_path = data_files
        rc = run_cli(["info", "--dataset", arff_path, "--labels", labels_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instances=60" in out
        assert "labels=3" in out
        assert "lcard=" in out and "lden=" in out and "distinct_labelsets=" in out

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.arff"
        bad.write_text("@relation r\n@attribute a string\n@data\nx\n",
                       encoding="utf-8")
        rc = run_cli(["info", "--dataset", bad, "--trailing-labels", "1"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_data_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.arff"
        empty.write_text(
            "@relation r\n@attribute a numeric\n@attribute t {0,1}\n@data\n",
            encoding="utf-8",
        )
        rc = run_cli(["info", "--dataset", empty, "--trailing-labels", "1"])
        assert rc == 2

    def test_missing_file_exits_2(self, tmp_path):
        rc = run_cli(["info", "--dataset", tmp_path / "nope.arff",
                      "--trailing-labels", "1"])
        assert rc == 2


def write_config(tmp_path, arff_path, labels_path, experiments, **extra):
    cfg = {
        "dataset": {"path": str(arff_path), "labels": str(labels_path)},
        "split": {"ratio": 0.67},
        "seed": 5,
        "experiments": experiments,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


EXPERIMENTS = [
    {"name": "br-nb", "transform": "br", "learner": "nb"},
    {"name": "lp-knn", "transform": "lp", "learner": "knn"},
]


class TestBenchmark:
    def test_csv_report(self, data_files, tmp_path, capsys):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, EXPERIMENTS)
        out = tmp_path / "report.csv"
        rc = run_cli(["benchmark", "--config", cfg, "--format", "csv",
                      "--out", out])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == (
            "experiment,accuracy,hamming_loss,one_error,ranking_loss,avg_precision"
        )
        assert lines[1].startswith("br-nb,")
        assert lines[2].startswith("lp-knn,")
        assert lines[3].startswith("AVERAGE,")
        row = lines[1].split(",")
        assert len(row) == 6
        float(row[1])  # six-decimal floats parse

    def test_csv_matches_library_pipeline(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path,
                           [{"name": "br-nb", "transform": "br", "learner": "nb"}])
        out = tmp_path / "report.csv"
        assert run_cli(["benchmark", "--config", cfg, "--format", "csv",
                        "--out", out]) == 0
        got = out.read_text(encoding="utf-8").splitlines()[1].split(",")

        ds = bind_labels(load_arff(arff_path),
                         LabelSpec.from_names(["L0", "L1", "L2"]))
        train, test = split_dataset(ds, SplitSpec(ratio=0.67, seed=5))
        rep = evaluate(br_fit(train, preset("nb")), test, 0.5)
        expected = [rep.accuracy, rep.hamming_loss, rep.one_error,
                    rep.ranking_loss, rep.avg_precision]
        assert [f"{v:.6f}" for v in expected] == got[1:]

    def test_byte_identical_across_worker_counts(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        experiments = EXPERIMENTS + [
            {"name": "ens", "transform": "ensemble", "q": 4, "rule": "mean"}
        ]
        cfg = write_config(tmp_path, arff_path, labels_path, experiments)
        outputs = []
        for workers in (1, 8, 1):
            out = tmp_path / f"report-{len(outputs)}.csv"
            rc = run_cli(["benchmark", "--config", cfg, "--format", "csv",
                          "--workers", workers, "--out", out])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_average_is_mean_of_rows(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, EXPERIMENTS)
        out = tmp_path / "report.json"
        assert run_cli(["benchmark", "--config", cfg, "--format", "json",
                        "--out", out]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["meta"]["seed"] == 5
        for field in ("accuracy", "hamming_loss", "one_error",
                      "ranking_loss", "avg_precision"):
            mean = sum(r[field] for r in payload["rows"]) / len(payload["rows"])
            assert abs(payload["average"][field] - mean) <= 1e-9

    def test_markdown_layout(self, data_files, tmp_path, capsys):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, EXPERIMENTS)
        rc = run_cli(["benchmark", "--config", cfg, "--format", "md"])
        assert rc == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("| Metric |")
        assert "br-nb" in header and "lp-knn" in header and "AVERAGE" in header
        for marker in ("Acc ↑", "HL ↓", "1-Err ↓",
                       "RL ↓", "AvPre ↑"):
            assert marker in out

    def test_failed_experiment_marks_row_and_exits_3(self, data_files,
                                                     tmp_path, capsys):
        arff_path, labels_path = data_files
        experiments = [
            {"name": "good", "transform": "br", "learner": "nb"},
            {"name": "doomed", "transform": "ps", "learner": "nb", "p": 10000},
        ]
        cfg = write_config(tmp_path, arff_path, labels_path, experiments)
        out = tmp_path / "report.csv"
        rc = run_cli(["benchmark", "--config", cfg, "--format", "csv",
                      "--out", out])
        assert rc == 3
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("good,0")
        assert lines[2] == "doomed,,,,,"
        assert "doomed" in capsys.readouterr().err

    def test_unknown_transform_exits_1(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path,
                           [{"transform": "chains"}])
        assert run_cli(["benchmark", "--config", cfg]) == 1

    def test_unknown_member_transform_exits_1(self, data_files, tmp_path,
                                              capsys):
        arff_path, labels_path = data_files
        members = [{"transform": "lp", "learner": "nb"},
                   {"transform": "chains", "learner": "nb"}]
        cfg = write_config(tmp_path, arff_path, labels_path,
                           [{"transform": "ensemble", "members": members}])
        assert run_cli(["benchmark", "--config", cfg]) == 1
        assert "unknown member transform 'chains'" in capsys.readouterr().err

    def test_no_experiments_exits_1(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, [])
        assert run_cli(["benchmark", "--config", cfg]) == 1

    def test_env_seed_fallback(self, data_files, tmp_path, monkeypatch):
        arff_path, labels_path = data_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(arff_path), "labels": str(labels_path)},
            "split": {"ratio": 0.67},
            "experiments": [{"name": "br-nb", "transform": "br", "learner": "nb"}],
        }), encoding="utf-8")
        monkeypatch.setenv("MULLAB_SEED", "5")
        out_env = tmp_path / "env.csv"
        assert run_cli(["benchmark", "--config", cfg_path, "--format", "csv",
                        "--out", out_env]) == 0
        monkeypatch.delenv("MULLAB_SEED")
        out_flag = tmp_path / "flag.csv"
        assert run_cli(["benchmark", "--config", cfg_path, "--format", "csv",
                        "--seed", 5, "--out", out_flag]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()


class TestConfigHash:
    def test_changes_with_semantics_only(self):
        base = {
            "dataset": {"path": "a.arff", "labels": "a.xml"},
            "split": {"ratio": 0.5},
            "experiments": [{"transform": "br", "learner": "nb"}],
            "threshold": 0.5,
            "seed": 1,
        }
        h = cli.config_hash(base)
        assert cli.config_hash({**base, "format": "csv", "workers": 8}) == h
        assert cli.config_hash({**base, "seed": 2}) != h
        assert cli.config_hash({**base, "threshold": 0.4}) != h
        assert cli.config_hash(
            {**base, "experiments": [{"transform": "lp", "learner": "nb"}]}
        ) != h
        assert cli.config_hash({**base, "split": {"ratio": 0.6}}) != h


class TestEvaluate:
    def test_truth_predictions_score_perfectly(self, data_files, tmp_path,
                                               capsys):
        arff_path, labels_path = data_files
        ds = bind_labels(load_arff(arff_path),
                         LabelSpec.from_names(["L0", "L1", "L2"]))
        pred_path = tmp_path / "preds.csv"
        rows = [
            ",".join("1.0" if j in ls else "0.0" for j in range(3))
            for ls in ds.labelsets
        ]
        pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", pred_path,
                      "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["accuracy"] == 1.0
        assert payload["rows"][0]["hamming_loss"] == 0.0
        # rows with no relevant labels can never place one at rank 1
        n_empty = sum(1 for s in ds.labelsets if s.cardinality() == 0)
        assert payload["rows"][0]["one_error"] == n_empty / len(ds)

    def test_prediction_shape_mismatch_exits_2(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("1.0,0.0\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", pred_path])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_prediction_exits_2(self, data_files, tmp_path, capsys,
                                           bad):
        arff_path, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        rows = ["0.5,0.5,0.5"] * 60
        rows[7] = f"0.5,{bad},0.5"
        pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", pred_path])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    def test_single_experiment_matches_library(self, data_files, capsys):
        arff_path, labels_path = data_files
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--split", "0.67", "--seed", 5,
                      "--transform", "br", "--learner", "nb",
                      "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        ds = bind_labels(load_arff(arff_path),
                         LabelSpec.from_names(["L0", "L1", "L2"]))
        train, test = split_dataset(ds, SplitSpec(ratio=0.67, seed=5))
        rep = evaluate(br_fit(train, preset("nb")), test, 0.5)
        assert payload["rows"][0]["accuracy"] == rep.accuracy
        assert payload["rows"][0]["hamming_loss"] == rep.hamming_loss
        assert payload["rows"][0]["ranking_loss"] == rep.ranking_loss

    def test_default_ensemble_matches_library_composition(self, data_files,
                                                          capsys):
        arff_path, labels_path = data_files
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--split", "0.67", "--seed", 5,
                      "--transform", "ensemble", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        ds = bind_labels(load_arff(arff_path),
                         LabelSpec.from_names(["L0", "L1", "L2"]))
        train, test = split_dataset(ds, SplitSpec(ratio=0.67, seed=5))
        spec = default_ensemble_spec(seed=derive_seed(5, 0))
        rep = evaluate(ensemble_fit(train, spec), test, 0.5)
        assert payload["rows"][0]["accuracy"] == rep.accuracy
        assert payload["rows"][0]["hamming_loss"] == rep.hamming_loss

    def test_requires_exactly_one_experiment(self, data_files):
        arff_path, labels_path = data_files
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--split", "0.5"])
        assert rc == 1

    def test_bad_params_json_exits_1(self, data_files):
        arff_path, labels_path = data_files
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--split", "0.5", "--transform", "br",
                      "--params", "{not json"])
        assert rc == 1


def test_usage_error_for_unknown_subcommand():
    assert cli.main(["frobnicate"]) == 1
