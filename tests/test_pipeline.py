"""End-to-end runs over generated data: file round trips, the pre-split
file-pair mode, the preset-grid report shape, and a larger-scale smoke run
of the vectorized k-NN path."""

import json
import time

import numpy as np
import pytest

from mullab import cli
from mullab.arff import LabelSpec, SplitSpec, bind_labels, load_arff, split_dataset
from mullab.learners import preset
from mullab.metrics import evaluate
from mullab.transforms import rakel_fit

from synth import correlated_dataset, to_arff_text


def write_files(tmp_path, dataset, stem="data"):
    arff_path = tmp_path / f"{stem}.arff"
    arff_path.write_text(to_arff_text(dataset), encoding="utf-8")
    labels_path = tmp_path / "labels.xml"
    entries = "\n".join(
        f'  <label name="{name}"></label>' for name in dataset.schema.label_names
    )
    labels_path.write_text(
        '<labels xmlns="http://mulan.sourceforge.net/labels">\n'
        f"{entries}\n</labels>\n",
        encoding="utf-8",
    )
    return arff_path, labels_path


def test_arff_round_trip_preserves_dataset(tmp_path):
    train, _ = correlated_dataset(31, n_train=40, n_test=0, n_labels=4,
                                  n_features=5)
    arff_path, labels_path = write_files(tmp_path, train)
    reloaded = bind_labels(
        load_arff(arff_path),
        LabelSpec.from_names([f"L{j}" for j in range(4)]),
    )
    assert reloaded.schema.label_names == train.schema.label_names
    assert len(reloaded) == len(train)
    assert np.array_equal(reloaded.Y, train.Y)
    assert reloaded.X[0] == pytest.approx(train.X[0])


def test_pre_split_file_pair(tmp_path):
    train, test = correlated_dataset(32, n_train=50, n_test=20, n_labels=3,
                                     n_features=4)
    train_path, labels_path = write_files(tmp_path, train, "tr")
    test_path, _ = write_files(tmp_path, test, "te")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "dataset": {"train": str(train_path), "test": str(test_path),
                    "labels": str(labels_path)},
        "seed": 3,
        "experiments": [{"name": "br-nb", "transform": "br", "learner": "nb"}],
    }), encoding="utf-8")
    out = tmp_path / "rep.json"
    assert cli.main(["benchmark", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["meta"]["n_train"] == 50
    assert payload["meta"]["n_test"] == 20


def test_preset_grid_report_shape(tmp_path):
    train, _ = correlated_dataset(33, n_train=80, n_test=0, n_labels=3,
                                  n_features=4)
    arff_path, labels_path = write_files(tmp_path, train)
    experiments = [
        {"name": f"rakel-{name}", "transform": "rakel", "learner": name,
         "m": 4, "k": 2}
        for name in ("nb", "knn", "random-t", "reptree", "j48")
    ]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "dataset": {"path": str(arff_path), "labels": str(labels_path)},
        "split": {"ratio": 0.7},
        "seed": 11,
        "experiments": experiments,
    }), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert cli.main(["benchmark", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 7  # header + five experiments + AVERAGE
    assert lines[-1].startswith("AVERAGE,")
    averages = [float(v) for v in lines[-1].split(",")[1:]]
    per_metric = list(zip(*(
        [float(v) for v in line.split(",")[1:]] for line in lines[1:6]
    )))
    for avg, column in zip(averages, per_metric):
        assert avg == pytest.approx(sum(column) / 5, abs=1e-6)


def test_larger_scale_rakel_knn_smoke():
    # exercise the batched distance path at a few hundred rows
    train, test = correlated_dataset(34, n_train=600, n_test=200, n_labels=6,
                                     n_features=30)
    started = time.monotonic()
    model = rakel_fit(train, preset("knn"), k=3, seed=1)
    rep = evaluate(model.predict_scores_many(test.X), test)
    elapsed = time.monotonic() - started
    assert len(model.members) == 12
    assert rep.hamming_loss < 0.5
    assert rep.accuracy > 0.2
    assert elapsed < 120.0
