import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mullab import cli
from mullab.arff import LabelSpec, SplitSpec, load_arff, bind_labels, split_dataset
from mullab.ensemble import EnsembleSpec, ensemble_fit, default_ensemble_spec
from mullab.core import MLDataset
from mullab.learners import preset
from mullab.metrics import EvaluationReport, evaluate
from mullab.rng import derive_seed
from mullab.transforms import MemberSpec, br_fit

from synth import correlated_dataset, random_dataset, to_arff_text


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

    def test_number_only_float_reads_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.arff"
        bad.write_text("@relation r\n@attribute a numeric\n@attribute t {0,1}\n"
                       "@data\n1.5,0\n1_5,1\n", encoding="utf-8")
        rc = run_cli(["info", "--dataset", bad, "--trailing-labels", "1"])
        assert rc == 2
        assert "line 6: bad numeric value '1_5'" in capsys.readouterr().err

    def test_empty_data_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.arff"
        empty.write_text(
            "@relation r\n@attribute a numeric\n@attribute t {0,1}\n@data\n",
            encoding="utf-8",
        )
        rc = run_cli(["info", "--dataset", empty, "--trailing-labels", "1"])
        assert rc == 2

    def test_malformed_label_xml_exits_2(self, data_files, tmp_path, capsys):
        arff_path, _ = data_files
        bad = tmp_path / "bad.xml"
        bad.write_text('<labels><label name="L0"></labels>', encoding="utf-8")
        assert run_cli(["info", "--dataset", arff_path, "--labels", bad]) == 2
        assert capsys.readouterr().err == (
            f"data error: {bad} line 1, column 27: malformed label XML: "
            f"mismatched tag\n")

    def test_missing_file_exits_2(self, tmp_path):
        rc = run_cli(["info", "--dataset", tmp_path / "nope.arff",
                      "--trailing-labels", "1"])
        assert rc == 2

    def test_unreadable_label_file_exits_2(self, data_files, tmp_path, capsys):
        arff_path, _ = data_files
        missing = tmp_path / "nope.txt"
        assert run_cli(["info", "--dataset", arff_path,
                        "--labels", missing]) == 2
        assert capsys.readouterr().err == (
            f"data error: cannot read label file: [Errno 2] No such file or "
            f"directory: '{missing}'\n")


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
        rep = evaluate(br_fit(train, preset("nb")).predict_scores_many(test.X),
                       test, 0.5)
        expected = [rep.accuracy, rep.hamming_loss, rep.one_error,
                    rep.ranking_loss, rep.avg_precision]
        assert [f"{v:.6f}" for v in expected] == got[1:]

    def test_byte_identical_across_worker_counts(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        experiments = EXPERIMENTS + [
            {"name": "ens", "transform": "ensemble", "q": 4, "rule": "mean"}
        ]
        outputs = []
        for workers in (1, 8, 1):
            cfg = write_config(tmp_path, arff_path, labels_path, experiments,
                               workers=workers)
            out = tmp_path / f"report-{len(outputs)}.csv"
            rc = run_cli(["benchmark", "--config", cfg, "--format", "csv",
                          "--out", out])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_experiments_run_on_the_calling_thread_at_any_workers(
            self, data_files, tmp_path, monkeypatch):
        arff_path, labels_path = data_files
        experiments = EXPERIMENTS + [
            {"name": "ens", "transform": "ensemble", "q": 4, "rule": "mean"}
        ]
        build, threads = cli._build_model, []

        def recording(*args):
            threads.append(threading.get_ident())
            return build(*args)

        monkeypatch.setattr(cli, "_build_model", recording)
        outputs = []
        for workers in (1, 2):
            cfg = write_config(tmp_path, arff_path, labels_path, experiments,
                               workers=workers)
            out = tmp_path / f"report-{len(outputs)}.csv"
            assert run_cli(["benchmark", "--config", cfg, "--format", "csv",
                            "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert threads == [threading.get_ident()] * (2 * len(experiments))
        assert outputs[0] == outputs[1]

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

    def test_a_failed_rows_model_is_freed_before_the_next_experiment(
            self, tmp_path, monkeypatch, capsys):
        # a test cell of 1e200 overflows naive Bayes' log-posterior, so each
        # model fits and then fails in evaluate
        train, test = correlated_dataset(7, n_train=30, n_test=10,
                                         n_labels=3, n_features=2)
        X = test.X.copy()
        X[4, 0] = 1e200
        files = (tmp_path / "train.arff", tmp_path / "test.arff")
        for path, rows in zip(files, (train, MLDataset(test.schema, X, test.Y))):
            path.write_text(to_arff_text(rows), encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {"train": str(files[0]), "test": str(files[1]),
                        "trailing_labels": 3},
            "experiments": [{"transform": "br", "learner": "nb"},
                            {"transform": "lp", "learner": "nb"}]}),
            encoding="utf-8")
        models = []
        build = cli._build_model

        def building(*args, **kwargs):
            # the failed row kept only its message, not the model
            assert all(ref() is None for ref in models)
            model = build(*args, **kwargs)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(cli, "_build_model", building)
        # without the cyclic collector, only reference counts free a model
        gc.disable()
        try:
            assert run_cli(["benchmark", "--config", cfg, "--format", "json",
                            "--out", tmp_path / "report.json"]) == 3
        finally:
            gc.enable()
        assert len(models) == 2
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert [row["error"] for row in rows] == [
            "naive Bayes log-posteriors are not finite numbers; rescale the "
            "features"] * 2
        assert capsys.readouterr().err.count("ERROR: ") == 2

    def test_train_and_test_files_of_two_schemas_exit_2(self, data_files,
                                                        tmp_path, capsys):
        arff_path, _ = data_files
        other = tmp_path / "other.arff"
        other.write_text(arff_path.read_text(encoding="utf-8").replace(
            "@attribute f0 ", "@attribute g0 ", 1), encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {"train": str(arff_path), "test": str(other),
                        "trailing_labels": 3},
            "experiments": [BR]}), encoding="utf-8")
        assert run_cli(["benchmark", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "data error: train and test files disagree on schema\n")

    def test_split_counts_that_miss_the_row_count_exit_2(self, data_files,
                                                         tmp_path, capsys):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, [BR],
                           split={"train": 5, "test": 5})
        assert run_cli(["benchmark", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "data error: split counts 5+5 do not sum to 60 rows\n")

    def test_inline_tree_with_sqrt_subsets_is_the_random_t_preset(
            self, data_files, tmp_path, capsys):
        arff_path, labels_path = data_files
        inline = {"kind": "tree", "criterion": "info_gain",
                  "random_subset_size": "sqrt"}
        cfg = write_config(tmp_path, arff_path, labels_path, [
            {"name": "inline", "transform": "br", "learner": inline},
            {"name": "preset", "transform": "br", "learner": "random-t"}])
        out = tmp_path / "report.csv"
        assert run_cli(["benchmark", "--config", cfg, "--format", "csv",
                        "--out", out]) == 0
        assert capsys.readouterr().err == ""
        inline_row, preset_row = out.read_text().splitlines()[1:3]
        assert inline_row.removeprefix("inline,") == \
            preset_row.removeprefix("preset,")

    def test_inline_tree_without_criterion_is_the_j48_preset(
            self, data_files, tmp_path, capsys):
        arff_path, labels_path = data_files
        reports = []
        for learner in ({"kind": "tree"}, "j48"):
            cfg = write_config(tmp_path, arff_path, labels_path, [
                {"name": "tree", "transform": "rakel", "learner": learner}])
            out = tmp_path / "report.csv"
            assert run_cli(["benchmark", "--config", cfg, "--format", "csv",
                            "--out", out]) == 0
            reports.append(out.read_bytes())
        assert capsys.readouterr().err == ""
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("transform", ["br", "lp"])
    def test_zero_training_rows_fail_the_experiment(self, transform,
                                                    data_files, tmp_path,
                                                    capsys):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path,
                           [{"transform": transform}],
                           split={"train": 0, "test": 60})
        assert run_cli(["benchmark", "--config", cfg, "--format", "csv"]) == 3
        assert ("failed: cannot fit label powerset on an empty dataset"
                in capsys.readouterr().err)

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

    def test_env_seed_is_not_read(self, data_files, tmp_path, monkeypatch):
        # the seed comes from --seed or the config, else it is 0
        arff_path, labels_path = data_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(arff_path), "labels": str(labels_path)},
            "split": {"ratio": 0.67},
            "experiments": [{"name": "br-nb", "transform": "br", "learner": "nb"}],
        }), encoding="utf-8")
        reports = {}
        for name, env, flags in (("env", "5", []), ("none", None, []),
                                 ("flag", None, ["--seed", 5])):
            if env is None:
                monkeypatch.delenv("MULLAB_SEED", raising=False)
            else:
                monkeypatch.setenv("MULLAB_SEED", env)
            reports[name] = tmp_path / f"{name}.csv"
            assert run_cli(["benchmark", "--config", cfg_path, "--format",
                            "csv", "--out", reports[name], *flags]) == 0
        assert reports["env"].read_bytes() == reports["none"].read_bytes()
        assert reports["env"].read_bytes() != reports["flag"].read_bytes()

    @staticmethod
    def _missing_and_nominal_config(tmp_path):
        data = random_dataset(21, n=150, n_labels=4, n_num=4, n_nom=2,
                              missing_rate=0.1)
        arff_path = tmp_path / "missing.arff"
        arff_path.write_text(to_arff_text(data), encoding="utf-8")
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("".join(f"L{j}\n" for j in range(4)),
                               encoding="utf-8")
        return write_config(tmp_path, arff_path, labels_path, [
            {"name": "br-knn", "transform": "br", "learner": "knn"},
            {"name": "lp-nb", "transform": "lp", "learner": "nb"},
            {"name": "rakel-j48", "transform": "rakel", "learner": "j48"},
            {"name": "ps-knn", "transform": "ps", "learner": "knn"},
            {"name": "ens", "transform": "ensemble", "q": 3},
        ])

    def test_report_with_missing_and_nominal_cells_is_pinned(self, tmp_path):
        # it covers mean imputation, the missing category and nominal
        # distances, which the dense benchmark data never reach; re-pinned
        # only for unsmoothed tree leaves
        cfg = self._missing_and_nominal_config(tmp_path)
        out = tmp_path / "report.csv"
        assert run_cli(["benchmark", "--config", cfg, "--format", "csv",
                        "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "111e96d8aca813870aa85208ddd448eaf72865d9b7fdd36da64c068ad4decdd2")

    def test_full_precision_json_is_pinned(self, tmp_path):
        # CSV rounds to 6 decimals; the JSON rows keep every bit, so a
        # changed summation order or tie rule shows here.  The q=3
        # majority-vote ensemble produces tied scores.  ``meta`` holds the
        # wall time and is left out.
        cfg = self._missing_and_nominal_config(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli(["benchmark", "--config", cfg, "--format", "json",
                        "--out", out]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        pinned = json.dumps({"rows": payload["rows"],
                             "average": payload["average"]}, sort_keys=True)
        assert hashlib.sha256(pinned.encode("utf-8")).hexdigest() == (
            "8d7098f8b016505d22e6c14b72e1422ebca2713798babaae24ae1ff22677c842")


def test_default_ensemble_takes_weights_and_replacement():
    spec = cli._parse_spec({"transform": "ensemble", "q": 2,
                            "rule": "weighted_mean", "weights": [1, 3],
                            "with_replacement": True}, 9)
    assert spec.members == default_ensemble_spec(seed=9, q=2).members
    assert (spec.rule, spec.weights, spec.with_replacement, spec.seed) == (
        "weighted_mean", (1, 3), True, 9)
    plain = cli._parse_spec({"transform": "ensemble", "q": 2}, 9)
    assert plain == default_ensemble_spec(seed=9, q=2)


def test_default_ensemble_takes_threshold():
    exp = {"transform": "ensemble", "q": 2, "threshold": 0.9}
    assert cli._parse_spec(exp, 1).threshold == 0.9
    members = {"transform": "ensemble", "threshold": 0.9,
               "members": [{"transform": "ps", "learner": "nb"}]}
    assert cli._parse_spec(members, 1).threshold == 0.9


BR = {"transform": "br", "learner": "nb"}


# (the misspelt key, config fields that set it) for every part of a config
UNKNOWN_KEYS = (
    ("rulee", {"experiments": [{"transform": "ensemble", "q": 2,
                                "rulee": "mean"}]}),
    ("kk", {"experiments": [{"transform": "rakel", "learner": "knn",
                             "kk": 2}]}),
    ("mm", {"experiments": [{"transform": "ensemble",
                             "members": [{"transform": "rakel", "mm": 2}]}]}),
    ("lables", {"dataset": {"path": "x.arff", "lables": "x.xml"}}),
    ("shuffle", {"split": {"ratio": 0.5, "shuffle": True}}),
    ("thresold", {"thresold": 0.9}),
    # options that inline learners do not take, null ones too
    ("distance", {"experiments": [{"transform": "br", "learner": {
        "kind": "knn", "distance": "manhattan"}}]}),
    ("variance_floor", {"experiments": [{"transform": "lp", "learner": {
        "kind": "nb", "variance_floor": None}}]}),
    ("max_depth", {"experiments": [{"transform": "ensemble", "members": [{
        "learner": {"kind": "tree", "max_depth": 3}}]}]}),
)


@pytest.mark.parametrize("key, fields", UNKNOWN_KEYS,
                         ids=[key for key, _ in UNKNOWN_KEYS])
def test_unknown_key_error_names_the_key(key, fields, data_files, tmp_path,
                                         capsys):
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path,
                       **{"experiments": [BR]} | fields)
    assert run_cli(["benchmark", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown key {key!r} in ")
    assert err.count("\n") == 1


# (test id, a key the entry's transform does not take, config fields that
# set it)
UNUSED_KEYS = (
    ("br-m", "m", {"experiments": [{"transform": "br", "m": 3, "p": 9}]}),
    ("lp-k", "k", {"experiments": [{"transform": "lp", "k": 2}]}),
    ("rakel-p", "p", {"experiments": [{"transform": "rakel", "p": 2}]}),
    ("ps-m", "m", {"experiments": [{"transform": "ps", "m": 4}]}),
    ("member-lp-b", "b", {"experiments": [{"transform": "ensemble",
                                            "members": [{"transform": "lp",
                                                         "b": 1}]}]}),
    ("member-name", "name", {"experiments": [{"transform": "ensemble",
                                              "members": [{"name": "x"}]}]}),
    ("members-with-q", "q", {"experiments": [{
        "transform": "ensemble", "q": 7, "members": [{"transform": "lp"}]}]}),
    ("members-with-learner", "learner", {"experiments": [{
        "transform": "ensemble", "learner": "knn",
        "members": [{"transform": "lp"}]}]}),
)


@pytest.mark.parametrize("key, fields", [c[1:] for c in UNUSED_KEYS],
                         ids=[c[0] for c in UNUSED_KEYS])
def test_key_the_transform_does_not_take_is_named(key, fields, data_files,
                                                  tmp_path, capsys):
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, **fields)
    assert run_cli(["benchmark", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown key {key!r} in ")
    assert err.count("\n") == 1


def test_ensemble_members_null_takes_the_default_members():
    spec = cli._parse_spec({"transform": "ensemble", "q": 2,
                            "learner": "knn", "members": None}, 9)
    assert spec == default_ensemble_spec(seed=9, q=2, learner="knn")


@pytest.mark.parametrize("fields", [
    {"experiments": [{"transform": "ps", "p": -1}]},
    {"experiments": [{"transform": "ensemble", "q": 2,
                      "rule": "weighted_mean", "weights": [1, 2, 3]}]},
    {"experiments": [{"transform": "ensemble", "q": 0}]},
    {"experiments": [{"transform": "ensemble", "sample_ratio": 2}]},
    {"experiments": [{"transform": "rakel", "k": "x"}]},
    {"experiments": [{"transform": "rakel", "m": 0}]},
    {"experiments": [{"transform": "ensemble",
                      "members": [{"transform": "rakel", "m": 0}]}]},
    {"experiments": [BR, "br"]},
    {"experiments": {"br": BR}},
    {"experiments": [{"learner": "nb"}]},
    {"experiments": [{"transform": "br", "learner": "bogus"}]},
    {"experiments": [{"transform": "ensemble", "members": ["ps"]}]},
    {"experiments": [{"transform": "ensemble", "members": 3}]},
    {"experiments": [BR], "threshold": "x"},
    {"experiments": [BR], "threshold": 1.5},
    {"experiments": [BR], "threshold": -0.5},
    {"experiments": [{"transform": "ensemble", "q": 2, "threshold": 7.5}]},
    {"experiments": [{"transform": "ensemble", "q": 2, "rule": "mean",
                      "weights": [1, 3]}]},
    {"experiments": [BR], "workers": "x"},
    {"experiments": [BR], "workers": 0},
    {"experiments": [BR], "seed": "x"},
    {"experiments": [BR], "dataset": 5},
    {"experiments": [BR], "split": 5},
    {"experiments": [BR], "split": {"train": 40}},
    {"experiments": [BR], "split": {"ratio": "x"}},
    {"experiments": [BR], "split": {"ratio": 1.5}},
    {"experiments": [BR], "split": {"ratio": 0.75, "train": "x", "test": [1]}},
    {"experiments": [BR], "split": {"ratio": 0.75, "train": 30, "test": 10}},
    {"experiments": [BR | {"name": "a,b"}]},
    {"experiments": [BR | {"name": 5}]},
    {"experiments": [BR | {"name": "x\ny|z"}]},
    {"experiments": [BR | {"name": "a|b"}]},
    {"experiments": [BR | {"name": "a\rb"}]},
    {"experiments": [BR | {"name": "x"}, BR | {"name": "x"}]},
    {"experiments": [{"transform": "ensemble", "q": 2}, BR,
                     {"transform": "ensemble", "q": 3}]},
    {"experiments": [BR],
     "dataset": {"path": "x.arff", "trailing_labels": "x"}},
    {"experiments": [BR],
     "dataset": {"path": "x.arff", "trailing_labels": 3.5}},
    {"experiments": [BR], "format": "xml"},
    {"experiments": [BR], "format": "markdown"},
    {"experiments": [{"transform": "br", "learner": {"kind": "naive_bayes"}}]},
    {"experiments": [BR], "out": 1},
    {"experiments": [BR], "out": True},
    {"experiments": [{"transform": "br", "learner": {"kind": "knn", "k": 2.5}}]},
    {"experiments": [{"transform": "br", "learner": {"kind": "knn", "k": True}}]},
    {"experiments": [{"transform": "br",
                      "learner": {"kind": "tree", "max_depth": "x"}}]},
    {"experiments": [{"transform": "br",
                      "learner": {"kind": "tree", "seed": "x"}}]},
    {"experiments": [{"transform": "br",
                      "learner": {"kind": "tree", "max_depth": -1}}]},
    {"experiments": [{"transform": "br",
                      "learner": {"kind": "tree", "random_subset_size": 0}}]},
    {"experiments": [{"transform": "br",
                      "learner": {"kind": "tree", "random_subset_size": -3}}]},
    {"experiments": [{"transform": "br",
                      "learner": {"kind": "tree", "criterion": "gain_ratio"}}]},
    *({"experiments": [BR]} | fields for _, fields in UNKNOWN_KEYS),
    *(fields for _, _, fields in UNUSED_KEYS),
    b'\xff\xfe{"seed": 1}',  # the bytes of the file: not UTF-8
], ids=["p-negative", "weights-length", "q-zero", "sample-ratio-2", "k-string",
        "m-zero", "member-m-zero", "entry-not-object", "experiments-not-list",
        "no-transform", "unknown-preset", "member-not-object",
        "members-not-list", "threshold-string", "threshold-1.5",
        "threshold-negative", "ensemble-threshold-7.5", "weights-with-mean",
        "workers-string",
        "workers-zero", "seed-string", "dataset-not-object",
        "split-not-object", "split-without-test", "split-ratio-string",
        "split-ratio-1.5", "split-ratio-and-bad-counts",
        "split-ratio-and-counts", "name-comma", "name-int", "name-newline-pipe",
        "name-pipe", "name-carriage-return", "name-duplicate",
        "name-duplicate-derived", "trailing-labels-string", "trailing-labels-3.5",
        "format-xml", "format-markdown", "kind-naive-bayes", "out-int", "out-bool", "knn-k-2.5", "knn-k-true",
        "tree-unknown-max-depth-string", "tree-seed-string",
        "tree-unknown-max-depth-negative",
        "tree-subset-zero", "tree-subset-negative", "tree-criterion-gain-ratio",
        *(f"unknown-key-{key}" for key, _ in UNKNOWN_KEYS),
        *(f"unused-key-{name}" for name, _, _ in UNUSED_KEYS),
        "config-not-utf-8"])
def test_config_mistake_exits_1_before_any_data_is_read(
        fields, data_files, tmp_path, monkeypatch, capsys):
    arff_path, labels_path = data_files
    if isinstance(fields, bytes):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(fields)
    else:
        cfg = write_config(tmp_path, arff_path, labels_path, **fields)
    # a config's own 'out' is the mistake under test; the flag would hide it
    flags = ([] if isinstance(fields, dict) and "out" in fields
             else ["--out", tmp_path / "report.csv"])
    assert_usage_error_before_data(["benchmark", "--config", cfg, *flags],
                                   tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("text, message", [
    ('{"seed": 1', "config {cfg} is not valid JSON: Expecting ',' delimiter: "
                   "line 1 column 11 (char 10)"),
    ("[1]", "config root must be a JSON object"),
], ids=["not-json", "root-not-object"])
def test_config_that_is_no_json_object_exits_1(text, message, tmp_path,
                                               monkeypatch, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    err = assert_usage_error_before_data(
        ["benchmark", "--config", cfg, "--out", tmp_path / "report.csv"],
        tmp_path, monkeypatch, capsys)
    assert err == f"error: {message.format(cfg=cfg)}\n"


@pytest.mark.parametrize("drop, message", [
    ("labels", "dataset needs 'labels' or 'trailing_labels'"),
    ("path", "config needs dataset.path or dataset.train/test"),
    ("split", "config needs a 'split' when dataset is one file"),
])
def test_config_that_leaves_the_data_open_exits_1(drop, message, data_files,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, [BR])
    fields = json.loads(cfg.read_text(encoding="utf-8"))
    (fields if drop == "split" else fields["dataset"]).pop(drop)
    cfg.write_text(json.dumps(fields), encoding="utf-8")

    def no_data(*args):
        raise AssertionError("data read before the config was checked")

    monkeypatch.setattr(cli, "_load_bound", no_data)
    assert run_cli(["benchmark", "--config", cfg,
                    "--out", tmp_path / "report.csv"]) == 1
    assert not (tmp_path / "report.csv").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("experiments, message", [
    ([BR | {"name": "x"}, BR | {"name": "x"}],
     "experiments 0 and 1 are both named 'x'"),
    ([{"transform": "ensemble", "q": 2}, BR, {"transform": "ensemble"}],
     "experiments 0 and 2 are both named 'ensemble'"),
    ([BR, {"transform": "lp"}, {"transform": "br", "learner": "nb"}],
     "experiments 0 and 2 are both named 'br-nb'"),
], ids=["given", "derived-ensemble", "derived-transform-learner"])
def test_duplicate_name_names_both_entries(experiments, message, data_files,
                                           tmp_path, monkeypatch, capsys):
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, experiments)
    err = assert_usage_error_before_data(
        ["benchmark", "--config", cfg, "--out", tmp_path / "report.csv"],
        tmp_path, monkeypatch, capsys)
    assert err == f"error: {message}; give each its own 'name'\n"


def test_negative_trailing_labels_flag_exits_1_before_any_data_is_read(
        data_files, tmp_path, monkeypatch, capsys):
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, [BR])
    assert_usage_error_before_data(
        ["benchmark", "--config", cfg, "--trailing-labels", -1,
         "--out", tmp_path / "report.csv"], tmp_path, monkeypatch, capsys)
    assert_usage_error_before_data(
        ["info", "--dataset", arff_path, "--trailing-labels", -1],
        tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command", ["benchmark", "evaluate"])
@pytest.mark.parametrize("threshold", [2, -1])
def test_threshold_flag_outside_unit_interval_exits_1_before_any_data_is_read(
        command, threshold, data_files, tmp_path, monkeypatch, capsys):
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, [BR])
    err = assert_usage_error_before_data(
        [command, "--config", cfg, "--threshold", threshold,
         "--out", tmp_path / "report.csv"], tmp_path, monkeypatch, capsys)
    assert f"'threshold' must be in [0, 1], not {float(threshold)}" in err


def test_threshold_0_and_1_are_valid(data_files, tmp_path):
    arff_path, labels_path = data_files
    for threshold in (0, 1):
        cfg = write_config(tmp_path, arff_path, labels_path, [BR],
                           threshold=threshold, format="json")
        out = tmp_path / f"report-{threshold}.json"
        assert run_cli(["benchmark", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["meta"]["threshold"] == threshold


def test_weights_with_an_unweighted_rule_are_refused():
    entry = {"transform": "ensemble", "q": 2, "rule": "mean",
             "weights": [1, 3]}
    with pytest.raises(cli.UsageError, match="rule 'mean' takes no weights"):
        cli._parse_spec(entry, 0)


def assert_usage_error_before_data(args, tmp_path, monkeypatch, capsys,
                                   err_start="error: "):
    """Exit 1 with no report and no data read; returns standard error."""
    def no_data(*args):
        raise AssertionError("data read before the config was checked")

    monkeypatch.setattr(cli, "_resolve_data", no_data)
    monkeypatch.setattr(cli, "_load_bound", no_data)
    assert run_cli(args) == 1
    assert not (tmp_path / "report.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(err_start)
    return captured.err


# Numbers that int() or float() read but ARFF does not: '_' between digits,
# Arabic-Indic and fullwidth digits.
@pytest.mark.parametrize("command, flags", [
    ("benchmark", ["--split", "39_1:2_02"]),
    ("evaluate", ["--split", "0.6_6"]),
    ("benchmark", ["--split", "\u0663\u0669\u0661:202"]),
    ("benchmark", ["--seed", "\u0661"]),
    ("evaluate", ["--seed", "1_0"]),
    ("benchmark", ["--threshold", "0.5_0"]),
    ("evaluate", ["--threshold", "\uff10.5"]),
    ("evaluate", ["--trailing-labels", "\u0663"]),
    ("info", ["--trailing-labels", "3_0"]),
], ids=["split-counts-underscore", "split-ratio-underscore",
        "split-arabic-indic", "seed-arabic-indic", "seed-underscore",
        "threshold-underscore", "threshold-fullwidth",
        "trailing-labels-arabic-indic",
        "info-trailing-labels-underscore"])
def test_numbers_only_python_reads_exit_1_before_any_data_is_read(
        command, flags, data_files, tmp_path, monkeypatch, capsys):
    arff_path, labels_path = data_files
    if command == "info":
        args = ["info", "--dataset", arff_path]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {"path": str(arff_path), "labels": str(labels_path)},
            "split": {"ratio": 0.67}, "experiments": [BR]}), encoding="utf-8")
        args = [command, "--config", cfg, "--out", tmp_path / "report.csv"]
    # argparse refuses a flag's type with its usage line; the rest are
    # config errors
    by_argparse = flags[0] != "--split"
    err = assert_usage_error_before_data(
        args + flags, tmp_path, monkeypatch, capsys,
        err_start="usage: " if by_argparse else "error: ")
    last = err.splitlines()[-1]
    if by_argparse:
        assert f"argument {flags[0]}: invalid" in last
    else:
        assert "--split" in last


@pytest.mark.parametrize("command, source", [
    ("benchmark", "flags"), ("evaluate", "flags"), ("info", "flags"),
    ("benchmark", "config"), ("evaluate", "config")])
def test_two_label_sources_exit_1_before_any_data_is_read(
        command, source, data_files, tmp_path, monkeypatch, capsys):
    arff_path, labels_path = data_files
    if command == "info":
        args = ["info", "--dataset", arff_path]
    else:
        both = {"labels": str(labels_path), "trailing_labels": 3}
        cfg = write_config(tmp_path, arff_path, labels_path, [BR], dataset={
            "path": str(arff_path), **(both if source == "config" else {})})
        args = [command, "--config", cfg, "--out", tmp_path / "report.csv"]
    if source == "flags":
        args += ["--labels", labels_path, "--trailing-labels", 3]
    err = assert_usage_error_before_data(args, tmp_path, monkeypatch, capsys)
    assert err == "error: give 'labels' or 'trailing_labels', not both\n"


@pytest.mark.parametrize("config_source", ["labels", "trailing_labels"])
def test_label_flag_replaces_the_configs_other_label_key(
        config_source, data_files, tmp_path):
    # synthetic.arff's last three attributes are the labels L0, L1, L2
    arff_path, labels_path = data_files
    value = str(labels_path) if config_source == "labels" else 3
    cfg = write_config(tmp_path, arff_path, labels_path, [BR], dataset={
        "path": str(arff_path), config_source: value})
    flag = (["--trailing-labels", 3] if config_source == "labels"
            else ["--labels", labels_path])
    reports = []
    for extra in ([], flag):
        out = tmp_path / f"report-{len(reports)}.csv"
        assert run_cli(["benchmark", "--config", cfg, "--format", "csv",
                        "--out", out, *extra]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["benchmark", "evaluate"])
def test_unwritable_out_exits_1(command, data_files, tmp_path, monkeypatch,
                                capsys):
    # a missing directory or a directory: refused before any data is read
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, [BR])

    def no_data(*args):
        raise AssertionError("data read before the report path was checked")

    monkeypatch.setattr(cli, "_resolve_data", no_data)
    before = sorted(tmp_path.rglob("*"))
    for out in (tmp_path / "missing-dir" / "report.md", tmp_path):
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write report {out}: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("fields, params, message", [
    ({}, {"name": "a,b"}, "error: 'name' must not contain ',', '|' or a line "
                          "break, not 'a,b'\n"),
    ({}, {"name": 5}, "error: 'name' must be a string, not 5\n"),
    ({}, {"name": "x\ny|z"}, "error: 'name' must not contain ',', '|' or a "
                             "line break, not 'x\\ny|z'\n"),
    ({"split": {"ratio": 0.75, "train": "x", "test": [1]}}, {},
     "error: give 'ratio' or 'train' and 'test', not both\n"),
    ({}, {"learner": 5}, "error: bad learner spec 5\n"),
    ({}, {"learner": {"kind": "svm"}}, "error: unknown learner kind 'svm'\n"),
    ({}, {"learner": {"kind": ["knn"]}},
     "error: unknown learner kind ['knn']\n"),
    ({}, {"learner": {"kind": "knn", "distance": "manhattan"}},
     "error: unknown key 'distance' in a 'knn' learner; known keys: kind, k\n"),
    ({}, {"name": "AVERAGE"}, "error: 'name' must not be 'AVERAGE', the "
                              "average row\n"),
    ({}, {"name": '"q'}, "error: 'name' must not contain '\"', not '\"q'\n"),
    ({}, {"name": ""}, "error: 'name' must not be empty; leave the key out\n"),
], ids=["name-comma", "name-int", "name-newline-pipe", "split-ratio-and-counts",
        "learner-int", "learner-unknown-kind", "learner-list-kind",
        "learner-deleted-option", "name-average", "name-quote",
        "name-empty"])
def test_evaluate_mistake_names_the_rule(fields, params, message, data_files,
                                         tmp_path, monkeypatch, capsys):
    # --params sets the experiment's keys, as a config entry does
    arff_path, labels_path = data_files
    cfg = write_config(tmp_path, arff_path, labels_path, [BR], **fields)
    err = assert_usage_error_before_data(
        ["evaluate", "--config", cfg, "--transform", "br",
         "--params", json.dumps(params), "--out", tmp_path / "report.csv"],
        tmp_path, monkeypatch, capsys)
    assert err == message


# Inputs that would otherwise be silently ignored: "{arff}" is the data
# file, "{missing}" a file that does not exist.
@pytest.mark.parametrize("command, dataset, split, flags, message", [
    ("benchmark", {"path": "{arff}", "train": "{arff}", "test": "{arff}"},
     {"ratio": 0.67}, [], "give 'path' or 'train' and 'test', not both"),
    ("evaluate", {"path": "{arff}", "train": "{missing}"}, {"ratio": 0.67},
     [], "give 'path' or 'train' and 'test', not both"),
    ("benchmark", {"path": "{missing}", "train": "{arff}", "test": "{arff}"},
     None, [], "give 'path' or 'train' and 'test', not both"),
    ("benchmark", {"train": "{arff}", "test": "{arff}"},
     {"train": 1, "test": 1}, [],
     "give a 'split' with 'path', not 'train' and 'test'"),
    ("evaluate", {"train": "{arff}", "test": "{arff}"}, None,
     ["--split", "1:1"],
     "give a 'split' with 'path', not 'train' and 'test'"),
    ("evaluate", {"path": "{arff}"}, {"ratio": 0.67}, ["--learner", "bogus"],
     "--learner needs --transform"),
    ("evaluate", {"path": "{arff}"}, {"ratio": 0.67},
     ["--params", '{"k":2}'], "--params needs --transform"),
], ids=["path-and-pair", "path-and-missing-train", "missing-path-and-pair",
        "pair-and-split-key", "pair-and-split-flag", "learner-alone",
        "params-alone"])
def test_ignored_input_exits_1_before_any_data_is_read(
        command, dataset, split, flags, message, data_files, tmp_path,
        monkeypatch, capsys):
    arff_path, labels_path = data_files
    files = {"arff": str(arff_path), "missing": str(tmp_path / "no.arff")}
    cfg = write_config(tmp_path, arff_path, labels_path, [BR], split=split,
                       dataset={key: value.format(**files)
                                for key, value in dataset.items()}
                       | {"labels": str(labels_path)})
    err = assert_usage_error_before_data(
        [command, "--config", cfg, "--out", tmp_path / "report.csv", *flags],
        tmp_path, monkeypatch, capsys)
    assert err == f"error: {message}\n"


# An empty value, a value that another input would silently replace and a
# value that nothing reads fail on that value.  "{cfg}" is a config of one br-nb experiment, with
# the config ``fields`` added.  Exit 1 reads no data; exit 2 fails to read
# the empty file name, as for a missing file.
ENSEMBLE_MEAN = {"transform": "ensemble", "q": 2, "rule": "mean"}


@pytest.mark.parametrize("args, fields, code, message", [
    (["evaluate", "--config", "{cfg}", "--transform", "br", "--learner", ""],
     {}, 1, "error: bad experiment {'transform': 'br', 'learner': ''}: "
            "unknown learner preset ''; presets: nb, knn, random-t, reptree, "
            "j48\n"),
    (["evaluate", "--config", "{cfg}", "--transform", "br", "--params", ""],
     {}, 1, "error: --params is not valid JSON: Expecting value: line 1 "
            "column 1 (char 0)\n"),
    (["benchmark", "--config", "{cfg}", "--split", ""], {}, 1,
     "error: bad --split ''\n"),
    (["evaluate", "--config", "{cfg}", "--transform", ""], {}, 1,
     "error: unknown transform ''\n"),
    (["benchmark", "--config", ""], {}, 1, "error: cannot read config : "),
    (["benchmark", "--config", "{cfg}", "--out", ""], {}, 1,
     "error: 'out' must not be empty\n"),
    (["benchmark", "--config", "{cfg}"], {"out": ""}, 1,
     "error: 'out' must not be empty\n"),
    (["benchmark", "--config", "{cfg}"], {"dataset": ""}, 1,
     "error: 'dataset' must be a JSON object, not ''\n"),
    (["benchmark", "--config", "{cfg}"],
     {"experiments": [{"transform": "ensemble", "q": 2, "learner": ""}]}, 1,
     "error: bad experiment {'transform': 'ensemble', 'q': 2, 'learner': ''}"
     ": unknown learner preset ''; presets: nb, knn, random-t, reptree, "
     "j48\n"),
    (["evaluate", "--config", "{cfg}", "--transform", "br", "--learner", "nb",
      "--params", '{"transform": "lp"}'], {}, 1,
     "error: --params and --transform both set 'transform'\n"),
    (["evaluate", "--config", "{cfg}", "--transform", "br", "--learner", "nb",
      "--params", '{"learner": "knn"}'], {}, 1,
     "error: --params and --learner both set 'learner'\n"),
    (["benchmark", "--config", "{cfg}"],
     {"experiments": [ENSEMBLE_MEAN | {"threshold": 0.9}]}, 1,
     f"error: bad experiment {ENSEMBLE_MEAN | {'threshold': 0.9}}: "
     f"rule 'mean' takes no threshold\n"),
    (["benchmark", "--config", "{cfg}", "--dataset", ""], {}, 2,
     "data error: cannot read : "),
    (["benchmark", "--config", "{cfg}", "--labels", ""], {}, 2,
     "data error: cannot read label file: "),
    (["evaluate", "--dataset", "{arff}", "--labels", "{labels}",
      "--predictions", ""], {}, 2, "data error: cannot read predictions : "),
], ids=["learner-empty", "params-empty", "split-empty", "transform-empty",
        "config-empty", "out-empty", "config-out-empty", "config-dataset-empty",
        "ensemble-learner-empty", "params-repeat-transform",
        "params-repeat-learner", "ensemble-mean-threshold", "dataset-empty",
        "labels-empty", "predictions-empty"])
def test_empty_or_replaced_input_fails_on_its_value(
        args, fields, code, message, data_files, tmp_path, monkeypatch,
        capsys):
    arff_path, labels_path = data_files
    files = {"{arff}": arff_path, "{labels}": labels_path,
             "{cfg}": write_config(tmp_path, arff_path, labels_path,
                                   **{"experiments": [BR]} | fields)}
    args = [files.get(arg, arg) for arg in args]
    # an empty 'out' is the mistake under test; the flag would hide it
    if "out" not in fields:
        args[1:1] = ["--out", str(tmp_path / "report.csv")]
    if code == 1:
        err = assert_usage_error_before_data(args, tmp_path, monkeypatch,
                                             capsys)
    else:
        assert run_cli(args) == code
        assert not (tmp_path / "report.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
    assert err.startswith(message)


def test_features_too_large_for_naive_bayes_fail_the_experiment(tmp_path,
                                                                capsys):
    # 1e200 in every 7th row of the second column: the class variances
    # overflow, which must fail the row, not give NaN scores or warnings
    rows = [f"{i % 5}.5,{1e200 if i % 7 == 0 else i / 10},{i % 2},"
            f"{(i // 2) % 2}" for i in range(40)]
    data = tmp_path / "big.arff"
    data.write_text("@relation big\n@attribute a numeric\n@attribute b numeric\n"
                    "@attribute l0 {0,1}\n@attribute l1 {0,1}\n@data\n"
                    + "\n".join(rows) + "\n", encoding="utf-8")
    assert run_cli(["evaluate", "--dataset", data, "--trailing-labels", "2",
                    "--split", "30:10", "--transform", "br",
                    "--learner", "nb"]) == 3
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err.endswith("rescale the features\n")


@pytest.mark.parametrize("params", ["3", "[1]", '"br"'])
def test_params_that_are_no_object_exit_1(params, data_files, capsys):
    arff_path, labels_path = data_files
    rc = run_cli(["evaluate", "--dataset", arff_path, "--labels", labels_path,
                  "--split", "0.5", "--transform", "br", "--params", params])
    assert rc == 1
    assert capsys.readouterr().err == "error: --params must be a JSON object\n"


# Any JSON value, plus experiment entries whose keys are the config's own
# and whose values are mostly valid, so that every parse path is reached.
# Integers stay small because a huge q is a costly request, not a mistake.
_ATOMS = (st.none() | st.booleans() | st.integers(-1, 4) | st.floats()
          | st.sampled_from(["br", "ensemble", "nb", "mean", "chains"]))
_JSON = st.recursive(_ATOMS, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=8)
_VALID = {
    "m": st.integers(1, 3), "k": st.integers(1, 3), "p": st.integers(0, 3),
    "b": st.integers(0, 3), "q": st.integers(1, 3),
    "learner": st.sampled_from(["nb", "knn", "j48"])
    | st.fixed_dictionaries({"kind": st.sampled_from(["knn", "nb", "tree"])}),
    "rule": st.sampled_from(["mean", "majority_vote", "weighted_mean"]),
    "weights": st.lists(st.floats(0, 2), min_size=1, max_size=3),
    "sample_ratio": st.floats(0.1, 1), "with_replacement": st.booleans(),
    "threshold": st.floats(0, 1)}
_ENTRY = st.recursive(_JSON, lambda inner: st.fixed_dictionaries(
    {"transform": st.sampled_from(["br", "lp", "rakel", "ps", "ensemble"])
     | _ATOMS},
    optional={"members": st.lists(inner, min_size=1, max_size=3) | _JSON,
              **{key: valid | valid | valid | _JSON
                 for key, valid in _VALID.items()}}), max_leaves=12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_ENTRY)
def test_parse_spec_gives_a_spec_or_a_usage_error(entry):
    try:
        spec = cli._parse_spec(entry)
    except cli.UsageError:
        return
    assert isinstance(spec, (MemberSpec, EnsembleSpec))


class TestLogging:
    def test_uncovered_rakel_labels_are_logged(self, caplog):
        train, _ = correlated_dataset(5, n_train=30, n_test=0, n_labels=3,
                                      n_features=2)
        exp = {"transform": "rakel", "learner": "nb", "m": 1, "k": 1}
        with caplog.at_level("WARNING", logger="mullab.cli"):
            model = cli._build_model(cli._parse_spec(exp), train,
                                     derive_seed(0, 0))
        assert len(model.uncovered) == 2
        [record] = caplog.records
        assert record.levelname == "WARNING"
        names = [f"L{j}" for j in model.uncovered]
        assert record.getMessage() == (
            f"rakel members cover no subset containing {names}; "
            "those labels score a neutral 0.5")

    def test_uncovered_labels_of_ensemble_members_are_logged(self, caplog):
        train, _ = correlated_dataset(5, n_train=30, n_test=0, n_labels=3,
                                      n_features=2)
        rakel = {"transform": "rakel", "learner": "nb", "m": 1, "k": 1}
        exp = {"transform": "ensemble", "members": [rakel, {"transform": "br"},
                                                    rakel]}
        with caplog.at_level("WARNING", logger="mullab.cli"):
            model = cli._build_model(cli._parse_spec(exp, 3), train, 3)
        assert [len(m.uncovered) for m in model.members] == [2, 0, 2]
        assert [r.levelname for r in caplog.records] == ["WARNING"] * 2
        assert [r.getMessage() for r in caplog.records] == [
            f"ensemble member {k}: rakel members cover no subset containing "
            f"{[f'L{j}' for j in model.members[k].uncovered]}; "
            "those labels score a neutral 0.5" for k in (0, 2)]

    @pytest.mark.parametrize("command", ["benchmark", "evaluate"])
    def test_failed_experiment_is_logged(self, command, data_files, tmp_path,
                                         caplog):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, [
            {"name": "doomed", "transform": "ps", "learner": "nb", "p": 10000}])
        with caplog.at_level("WARNING", logger="mullab.cli"):
            assert run_cli([command, "--config", cfg]) == 3
        [record] = caplog.records
        assert record.levelname == "ERROR"
        assert record.getMessage() == (
            "experiment 'doomed' failed: pruning with p=10000 removed every "
            "row; lower p")

    def test_python_m_cli_prints_level_and_message(self, tmp_path):
        # run as a module, the CLI's logger must still be mullab.cli, which
        # the handler that prints LEVEL: message is attached above
        train, _ = correlated_dataset(5, n_train=30, n_test=0, n_labels=3,
                                      n_features=2)
        data = tmp_path / "data.arff"
        data.write_text(to_arff_text(train), encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {"path": str(data), "trailing_labels": 3},
            "split": {"ratio": 0.67},
            "experiments": [
                {"transform": "rakel", "learner": "nb", "m": 1, "k": 1},
                {"name": "doomed", "transform": "ps", "learner": "nb",
                 "p": 1000}]}), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "mullab.cli", "benchmark", "--config",
             str(cfg), "--out", str(tmp_path / "report.md")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        warning, error = done.stderr.splitlines()
        assert warning.startswith("WARNING: rakel members cover no subset ")
        assert error == ("ERROR: experiment 'doomed' failed: pruning with "
                         "p=1000 removed every row; lower p")


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
        rows = [",".join("1.0" if v else "0.0" for v in y) for y in ds.Y]
        pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", pred_path,
                      "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["accuracy"] == 1.0
        assert payload["rows"][0]["hamming_loss"] == 0.0
        # rows with no relevant labels can never place one at rank 1
        n_empty = int((~ds.Y.any(axis=1)).sum())
        assert payload["rows"][0]["one_error"] == n_empty / len(ds)

    def test_predictions_with_byte_order_mark_score_the_same(
            self, data_files, tmp_path, capsys):
        arff_path, labels_path = data_files
        rows = "".join(f"{i % 2},{i % 3 // 2},0.5\n" for i in range(60))
        payloads = []
        for encoding in ("utf-8", "utf-8-sig"):
            pred_path = tmp_path / f"{encoding}.csv"
            pred_path.write_text(rows, encoding=encoding)
            assert run_cli(["evaluate", "--dataset", arff_path, "--labels",
                            labels_path, "--predictions", pred_path,
                            "--format", "json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out)["rows"])
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_predictions_without_rows_exit_2_with_one_line(
            self, data_files, tmp_path, capsys, text):
        arff_path, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                          labels_path, "--predictions", pred_path])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: predictions file {pred_path} has no rows\n")

    @pytest.mark.parametrize("row, at", [
        ("1,0,0.5 # junk", 0), ("# L0,L1,L2", None)],
        ids=["trailing-text", "whole-line"])
    def test_hash_in_predictions_is_a_data_error(self, data_files, tmp_path,
                                                 capsys, row, at):
        arff_path, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        rows = ["0.5,0.5,0.5"] * 60
        if at is None:
            rows.insert(0, row)  # a comment line would leave 60 rows
        else:
            rows[at] = row
        pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", pred_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: bad predictions file {pred_path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

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

    @pytest.mark.parametrize("bad", ["1.5", "-0.5"])
    def test_prediction_outside_unit_interval_exits_2(self, data_files,
                                                      tmp_path, capsys, bad):
        arff_path, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        rows = ["0.5,0.5,0.5"] * 60
        rows[7] = f"0.5,{bad},0.5"
        pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", pred_path])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: prediction scores must lie in [0, 1]\n")

    def test_unreadable_predictions_exit_2(self, data_files, tmp_path,
                                           capsys):
        arff_path, labels_path = data_files
        missing = tmp_path / "nope.csv"
        rc = run_cli(["evaluate", "--dataset", arff_path, "--labels",
                      labels_path, "--predictions", missing])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read predictions {missing}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_predictions_without_dataset_exit_1(self, data_files, tmp_path,
                                                capsys):
        _, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("0.5,0.5,0.5\n", encoding="utf-8")
        rc = run_cli(["evaluate", "--labels", labels_path,
                      "--predictions", pred_path])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --predictions mode needs --dataset\n")

    @pytest.mark.parametrize("flags, fields, refused", [
        (["--transform", "bogus"], {}, "--transform"),
        (["--learner", "nope"], {}, "--learner"),
        (["--params", '{"m":3}'], {}, "--params"),
        (["--split", "9:9"], {}, "--split"),
        ([], {"experiments": [BR]}, "'experiments'"),
        ([], {"split": {"ratio": 0.5}}, "'split'")],
        ids=["transform", "learner", "params", "split", "config-experiments",
             "config-split"])
    def test_predictions_refuse_the_flags_of_a_model_run(
            self, flags, fields, refused, data_files, tmp_path, monkeypatch,
            capsys):
        # a config key that only a fitted model reads is refused as its
        # flag is
        arff_path, labels_path = data_files
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("0.5,0.5,0.5\n" * 60, encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fields), encoding="utf-8")
        err = assert_usage_error_before_data(
            ["evaluate", "--config", cfg, "--dataset", arff_path,
             "--labels", labels_path, "--predictions", pred_path,
             "--out", tmp_path / "report.csv", *flags],
            tmp_path, monkeypatch, capsys)
        assert err == f"error: {refused} does not apply to --predictions\n"

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
        rep = evaluate(br_fit(train, preset("nb")).predict_scores_many(test.X),
                       test, 0.5)
        assert payload["rows"][0]["accuracy"] == rep.accuracy
        assert payload["rows"][0]["hamming_loss"] == rep.hamming_loss
        assert payload["rows"][0]["ranking_loss"] == rep.ranking_loss
        assert payload["meta"]["n_train"] == len(train)
        assert payload["meta"]["n_test"] == len(test)

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
        rep = evaluate(ensemble_fit(train, spec).predict_scores_many(test.X),
                       test, 0.5)
        assert payload["rows"][0]["accuracy"] == rep.accuracy
        assert payload["rows"][0]["hamming_loss"] == rep.hamming_loss

    @pytest.mark.parametrize("command", ["benchmark", "evaluate"])
    def test_workers_flag_exits_1_before_any_data_is_read(
            self, command, data_files, tmp_path, monkeypatch, capsys):
        arff_path, labels_path = data_files
        cfg = write_config(tmp_path, arff_path, labels_path, [BR])
        err = assert_usage_error_before_data(
            [command, "--config", cfg, "--workers", 2,
             "--out", tmp_path / "report.csv"],
            tmp_path, monkeypatch, capsys, err_start="usage: ")
        assert err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --workers 2")

    def test_workers_config_key_changes_no_byte(self, data_files, tmp_path):
        arff_path, labels_path = data_files
        ensemble = {"transform": "ensemble", "q": 4, "rule": "mean"}
        reports = []
        for extra in ({}, {"workers": 2}):
            cfg = write_config(tmp_path, arff_path, labels_path, [ensemble],
                               **extra)
            out = tmp_path / f"report-{len(reports)}.csv"
            assert run_cli(["evaluate", "--config", cfg, "--format", "csv",
                            "--out", out]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

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


class TestUndefinedRankingMetrics:
    """Every test row has an empty truth set, so ranking loss and average
    precision are undefined: reported as n/a (null in JSON), left out of
    AVERAGE, with the rest of the row intact and exit code 0."""

    @staticmethod
    def _config(tmp_path, fmt):
        train, test = correlated_dataset(123, n_train=60, n_test=20,
                                         n_labels=3, n_features=4)
        empty = MLDataset(test.schema, test.X, np.zeros_like(test.Y))
        paths = {}
        for name, data in (("train", train), ("test", empty)):
            paths[name] = tmp_path / f"{name}.arff"
            paths[name].write_text(to_arff_text(data), encoding="utf-8")
        labels = tmp_path / "labels.txt"
        labels.write_text("L0\nL1\nL2\n", encoding="utf-8")
        cfg = {"dataset": {"train": str(paths["train"]),
                           "test": str(paths["test"]), "labels": str(labels)},
               "seed": 5, "format": fmt, "out": str(tmp_path / "report"),
               "experiments": [BR, {"transform": "lp", "learner": "knn"}]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path, tmp_path / "report"

    def test_csv(self, tmp_path):
        cfg, out = self._config(tmp_path, "csv")
        assert run_cli(["benchmark", "--config", cfg]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[4:] == ["n/a", "n/a"]
            assert all(0.0 <= float(c) <= 1.0 for c in cells[1:4])
        assert lines[3].startswith("AVERAGE,")

    def test_markdown(self, tmp_path):
        cfg, out = self._config(tmp_path, "md")
        assert run_cli(["benchmark", "--config", cfg]) == 0
        rows = {line.split(" | ")[0]: line.split(" | ")[1:]
                for line in out.read_text(encoding="utf-8").splitlines()
                if line.startswith("| ")}
        assert rows["| RL ↓"] == rows["| AvPre ↑"] == ["n/a", "n/a", "n/a |"]
        assert "n/a" not in "".join(rows["| Acc ↑"] + rows["| 1-Err ↓"])

    def test_json(self, tmp_path):
        cfg, out = self._config(tmp_path, "json")
        assert run_cli(["benchmark", "--config", cfg]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        for row in payload["rows"] + [payload["average"]]:
            assert row["ranking_loss"] is None and row["avg_precision"] is None
            assert row["one_error"] == 1.0
        assert [row["n_skipped_ranking"] for row in payload["rows"]] == [20, 20]


def test_average_leaves_undefined_values_out():
    defined = EvaluationReport(0.5, 0.25, 0.5, 0.2, 0.75, 4, 1)
    undefined = EvaluationReport(0.7, 0.15, 1.0, float("nan"), float("nan"), 4, 4)
    reports = [("a", defined), ("b", undefined), ("c", ValueError("boom"))]
    assert cli.render_csv(reports).splitlines()[-1] == (
        "AVERAGE,0.600000,0.200000,0.750000,0.200000,0.750000")
    assert json.loads(cli.render_json(reports, {}))["average"] == {
        "accuracy": 0.6, "hamming_loss": 0.2, "one_error": 0.75,
        "ranking_loss": 0.2, "avg_precision": 0.75}
