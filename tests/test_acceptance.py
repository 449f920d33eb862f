"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them; -v shows the same via test names).

Criteria 1 and 4 exercise the public Scene/Yeast/Emotions benchmark files
and skip with instructions when those files are not installed (see the
README section "Benchmark datasets").
"""

import json
import time

import numpy as np
import pytest

from mullab.arff import (
    LabelSpec,
    SplitSpec,
    bind_labels,
    load_arff,
    parse_arff,
    read_label_names,
    split_dataset,
)
from mullab.cli import main as cli_main
from mullab.core import dataset_stats
from mullab.ensemble import (
    EnsembleSpec,
    MemberSpec,
    combine,
    default_ensemble_spec,
    ensemble_fit,
)
from mullab.learners import PRESET_NAMES, preset, fit as fit_learner
from mullab.learners import TreeSpec
from mullab.metrics import evaluate
from mullab.transforms import PruneSpec, lp_fit, ps_fit, rakel_fit

from conftest import require_benchmark
from golden_arff import BAD_FIXTURES, GOOD_FIXTURES, same_table
from mullab.arff import ArffParseError
from synth import correlated_dataset, min_pairwise_label_correlation, to_arff_text
from test_metrics import run_oracle_equivalence


def report(line):
    print(f"\nACCEPTANCE {line}")


def load_benchmark(found, label_spec):
    if "full" in found:
        return bind_labels(load_arff(found["full"]), label_spec)
    train = bind_labels(load_arff(found["train"]), label_spec)
    test = bind_labels(load_arff(found["test"]), label_spec)
    from mullab.core import MLDataset

    return MLDataset(train.schema, np.vstack([train.X, test.X]),
                     np.vstack([train.Y, test.Y]))


def test_criterion_1_dataset_statistics():
    started = time.monotonic()
    scene = require_benchmark("scene")
    yeast = require_benchmark("yeast")
    music = require_benchmark("emotions")

    ds = load_benchmark(scene, LabelSpec.from_names(read_label_names(scene["labels"])))
    stats = dataset_stats(ds)
    assert stats.n_instances == 2407
    assert stats.n_labels == 6
    assert abs(stats.lcard - 1.08) <= 0.02
    assert abs(stats.lden - 0.18) <= 0.02

    ds = load_benchmark(yeast, LabelSpec.from_names(read_label_names(yeast["labels"])))
    stats = dataset_stats(ds)
    assert stats.n_instances == 2417
    assert stats.n_labels == 14
    assert abs(stats.lcard - 4.23) <= 0.02
    assert abs(stats.lden - 0.302) <= 0.02

    ds = load_benchmark(music, LabelSpec.from_names(read_label_names(music["labels"])))
    stats = dataset_stats(ds)
    assert stats.n_labels == 6
    assert abs(stats.n_instances - 592) <= 2
    assert abs(stats.lcard - 1.827) <= 0.05

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(f"1 dataset-statistics: PASS ({elapsed:.1f}s)")


def test_criterion_2_metric_oracle_equivalence():
    started = time.monotonic()
    compared = run_oracle_equivalence(1000, seed=20240501, tol=1e-12)
    elapsed = time.monotonic() - started
    assert compared == 1000
    assert elapsed < 30.0
    report(f"2 metric-oracle-equivalence: PASS (1000 cases, {elapsed:.1f}s)")


def test_criterion_3_degeneracy_identities():
    train, probe_ds = correlated_dataset(77, n_train=60, n_test=25,
                                         n_labels=4, n_features=6)
    probe = probe_ds.X
    nb = preset("nb")

    lp = lp_fit(train, nb).predict_scores_many(probe)
    rakel = rakel_fit(train, nb, m=1, k=4, seed=9).predict_scores_many(probe)
    assert np.abs(rakel - lp).max() <= 1e-12

    ps = ps_fit(train, nb, PruneSpec(p=0, b=2)).predict_scores_many(probe)
    assert np.abs(ps - lp).max() <= 1e-12

    solo_spec = EnsembleSpec(
        members=(MemberSpec(transform="lp", learner=nb),),
        sample_ratio=1.0, with_replacement=False, rule="mean", seed=31,
    )
    ens = ensemble_fit(train, solo_spec).predict_scores_many(probe)
    assert np.abs(ens - lp).max() <= 1e-12

    rng = np.random.default_rng(5)
    members = [rng.random(7) for _ in range(6)]
    assert np.abs(
        combine(members, "mean")
        - combine(members, "weighted_mean", weights=[1.0] * 6)
    ).max() <= 1e-12

    report("3 degeneracy-identities: PASS")


def test_criterion_4_scene_rakel_knn_anchor():
    started = time.monotonic()
    scene = require_benchmark("scene")
    ds = load_benchmark(scene, LabelSpec.from_names(read_label_names(scene["labels"])))
    train, test = split_dataset(ds, SplitSpec(counts=(1588, 819), seed=7))
    model = rakel_fit(train, preset("knn"), k=3, seed=7)  # m defaults to 2M
    rep = evaluate(model.predict_scores_many(test.X), test, t=0.5)
    elapsed = time.monotonic() - started
    assert 0.08 <= rep.hamming_loss <= 0.20, rep
    assert 0.45 <= rep.accuracy <= 0.75, rep
    assert elapsed < 300.0
    report(
        f"4 scene-rakel-knn-anchor: PASS "
        f"(hl={rep.hamming_loss:.3f} acc={rep.accuracy:.3f}, {elapsed:.0f}s)"
    )


def test_criterion_5_ensemble_beats_baseline_mean():
    started = time.monotonic()
    metrics = ("accuracy", "hamming_loss", "one_error", "ranking_loss")
    good_runs = 0
    for seed in range(1, 11):
        train, test = correlated_dataset(seed)
        assert min_pairwise_label_correlation(train) >= 0.3
        models = [ensemble_fit(train, default_ensemble_spec(seed=seed))]
        models += [lp_fit(train, preset(name)) for name in PRESET_NAMES]
        ens, *base = [evaluate(model.predict_scores_many(test.X), test)
                      for model in models]
        mean = {f: sum(getattr(r, f) for r in base) / len(base) for f in metrics}
        wins = sum([
            ens.accuracy > mean["accuracy"],
            ens.hamming_loss < mean["hamming_loss"],
            ens.one_error < mean["one_error"],
            ens.ranking_loss < mean["ranking_loss"],
        ])
        if wins >= 3:
            good_runs += 1
    elapsed = time.monotonic() - started
    assert good_runs >= 7, f"only {good_runs}/10 runs improved on >= 3 metrics"
    assert elapsed < 180.0
    report(
        f"5 ensemble-improvement: PASS ({good_runs}/10 runs, {elapsed:.0f}s)"
    )


def test_criterion_6_worker_count_determinism(tmp_path):
    train, _ = correlated_dataset(50, n_train=60, n_test=0, n_labels=3,
                                  n_features=4)
    arff_path = tmp_path / "synthetic.arff"
    arff_path.write_text(to_arff_text(train), encoding="utf-8")
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("L0\nL1\nL2\n", encoding="utf-8")
    cfg_path = tmp_path / "config.json"
    blobs = []
    for run, workers in enumerate((1, 8, 1, 8)):
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(arff_path), "labels": str(labels_path)},
            "split": {"ratio": 0.67},
            "seed": 21,
            "workers": workers,
            "experiments": [
                {"name": "br-nb", "transform": "br", "learner": "nb"},
                {"name": "lp-knn", "transform": "lp", "learner": "knn"},
                {"name": "rakel-j48", "transform": "rakel", "learner": "j48",
                 "m": 4, "k": 2},
                {"name": "ens", "transform": "ensemble", "q": 5,
                 "rule": "majority_vote"},
            ],
        }), encoding="utf-8")
        out = tmp_path / f"report-{run}.csv"
        rc = cli_main(["benchmark", "--config", str(cfg_path), "--format",
                       "csv", "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert len(set(blobs)) == 1
    report("6 worker-count-determinism: PASS (byte-identical CSV)")


def test_criterion_7_reduced_error_pruning_property():
    from mullab.core import Attribute

    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 120))
        d = int(rng.integers(2, 5))
        pts = [tuple(float(v) for v in rng.normal(size=d)) for _ in range(n)]
        cls = [
            int(p[0] > 0) if rng.random() > 0.25 else int(rng.integers(2))
            for p in pts
        ]
        if len(set(cls)) < 2:
            continue
        attrs = tuple(Attribute(f"a{j}") for j in range(d))
        clf = fit_learner(
            TreeSpec(criterion="info_gain", rep_pruning=True, min_leaf=1,
                     seed=seed),
            pts, cls, attrs,
        )
        assert clf.prune_error_before is not None
        assert clf.prune_error_after <= clf.prune_error_before
        checked += 1
    assert checked >= 45  # the occasional degenerate draw may be skipped
    report(f"7 reduced-error-pruning: PASS ({checked} fixtures)")


def test_criterion_8_parser_golden_suite():
    for name, text, expected in GOOD_FIXTURES:
        assert same_table(parse_arff(text), expected), name
    for name, text, line, fragment in BAD_FIXTURES:
        with pytest.raises(ArffParseError) as err:
            parse_arff(text)
        assert err.value.line == line, name
        assert fragment in str(err.value), name
    report(
        f"8 parser-golden-suite: PASS "
        f"({len(GOOD_FIXTURES)} parses, {len(BAD_FIXTURES)} errors)"
    )
