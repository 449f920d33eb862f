"""Benchmark command line.

Three subcommands:

* ``info``       dataset statistics (instances, labels, cardinality, density)
* ``benchmark``  run a grid of experiments from a JSON config, emit a report
* ``evaluate``   run one experiment (or score a predictions file)

Reports come out as markdown (metrics as rows, experiments as columns,
AVERAGE last), CSV (one experiment per row, 6 decimals) or JSON (full
precision plus run metadata).  Exit codes: 0 ok, 1 usage/config error,
2 data error, 3 one or more experiments failed.

Config schema (flags override fields of the same name):

    {
      "dataset": {"path": "x.arff", "labels": "x.xml"}
                 | {"path": "x.arff", "trailing_labels": 6}
                 | {"train": "tr.arff", "test": "te.arff", "labels": ...},
      "split":   {"train": 1588, "test": 819} | {"ratio": 0.67},
      "seed": 0, "threshold": 0.5, "workers": 1,
      "format": "md" | "csv" | "json", "out": "report.csv",
      "experiments": [
        {"name": "rakel-knn", "transform": "rakel", "learner": "knn",
         "m": 12, "k": 3},
        {"transform": "ps", "learner": {"kind": "tree", "criterion":
         "gain_ratio"}, "p": 2, "b": 2},
        {"transform": "ensemble", "q": 10, "rule": "majority_vote"}
      ]
    }

The environment variable MULLAB_SEED is the seed fallback when neither the
flag nor the config provides one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import arff
from .arff import ArffParseError, LabelSpec, SplitSpec
from .core import MLDataset, dataset_stats
from .ensemble import (
    COMBINATION_RULES,
    EnsembleSpec,
    TRANSFORM_NAMES,
    MemberSpec,
    default_ensemble_spec,
    ensemble_fit,
)
from .learners import KnnSpec, NaiveBayesSpec, TreeSpec, preset
from .metrics import EvaluationReport, evaluate
from .rng import derive_seed
from .transforms import PruneSpec, br_fit, lp_fit, ps_fit, rakel_fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXPERIMENT = 3

_METRIC_ROWS = (
    ("Acc ↑", "accuracy"),
    ("HL ↓", "hamming_loss"),
    ("1-Err ↓", "one_error"),
    ("RL ↓", "ranking_loss"),
    ("AvPre ↑", "avg_precision"),
)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


def _merge_flags(cfg: dict, args) -> dict:
    """Command-line flags override config fields."""
    cfg = dict(cfg)
    ds = dict(cfg.get("dataset") or {})
    if args.dataset:
        ds.pop("train", None)
        ds.pop("test", None)
        ds["path"] = args.dataset
    if args.labels:
        ds["labels"] = args.labels
        ds.pop("trailing_labels", None)
    if args.trailing_labels is not None:
        ds["trailing_labels"] = args.trailing_labels
        ds.pop("labels", None)
    cfg["dataset"] = ds
    if args.split:
        cfg["split"] = _parse_split_flag(args.split)
    if args.seed is not None:
        cfg["seed"] = args.seed
    elif "seed" not in cfg and os.environ.get("MULLAB_SEED"):
        try:
            cfg["seed"] = int(os.environ["MULLAB_SEED"])
        except ValueError:
            raise UsageError("MULLAB_SEED must be an integer") from None
    if args.threshold is not None:
        cfg["threshold"] = args.threshold
    if args.workers is not None:
        cfg["workers"] = args.workers
    if args.format:
        cfg["format"] = args.format
    if getattr(args, "out", None):
        cfg["out"] = args.out
    cfg.setdefault("seed", 0)
    cfg.setdefault("threshold", 0.5)
    cfg.setdefault("workers", 1)
    cfg.setdefault("format", "md")
    return cfg


def _parse_split_flag(text: str) -> dict:
    if ":" in text:
        a, _, b = text.partition(":")
        try:
            return {"train": int(a), "test": int(b)}
        except ValueError:
            raise UsageError(f"bad --split {text!r}: expected ntrain:ntest") from None
    try:
        return {"ratio": float(text)}
    except ValueError:
        raise UsageError(f"bad --split {text!r}") from None


def _label_spec(ds_cfg: dict) -> LabelSpec:
    if ds_cfg.get("labels"):
        try:
            names = arff.read_label_names(ds_cfg["labels"])
        except OSError as e:
            raise DataError(f"cannot read label file: {e}") from e
        except ValueError as e:
            raise DataError(str(e)) from e
        return LabelSpec.from_names(names)
    if ds_cfg.get("trailing_labels"):
        return LabelSpec.trailing(int(ds_cfg["trailing_labels"]))
    raise UsageError("dataset needs 'labels' or 'trailing_labels'")


def _load_bound(path, spec: LabelSpec) -> MLDataset:
    try:
        return arff.bind_labels(arff.load_arff(path), spec)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except (ArffParseError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e


def _resolve_data(cfg: dict) -> tuple[MLDataset, MLDataset]:
    """Produce the train/test pair from a config."""
    ds_cfg = cfg.get("dataset") or {}
    spec = _label_spec(ds_cfg)
    if ds_cfg.get("train") and ds_cfg.get("test"):
        train = _load_bound(ds_cfg["train"], spec)
        test = _load_bound(ds_cfg["test"], spec)
        if train.schema != test.schema:
            raise DataError("train and test files disagree on schema")
        return train, test
    if not ds_cfg.get("path"):
        raise UsageError("config needs dataset.path or dataset.train/test")
    full = _load_bound(ds_cfg["path"], spec)
    split_cfg = cfg.get("split")
    if not split_cfg:
        raise UsageError("config needs a 'split' when dataset is one file")
    try:
        if "ratio" in split_cfg:
            sp = SplitSpec(ratio=float(split_cfg["ratio"]), seed=int(cfg["seed"]))
        else:
            sp = SplitSpec(
                counts=(int(split_cfg["train"]), int(split_cfg["test"])),
                seed=int(cfg["seed"]),
            )
        return arff.split_dataset(full, sp)
    except ValueError as e:
        raise DataError(str(e)) from e


def _parse_learner(value):
    if value is None:
        return preset("nb"), "nb"
    if isinstance(value, str):
        return preset(value), value.strip().lower()
    if not isinstance(value, dict):
        raise UsageError(f"bad learner spec {value!r}")
    kind = value.get("kind")
    opts = {k: v for k, v in value.items() if k != "kind"}
    try:
        if kind == "knn":
            return KnnSpec(**opts), "knn"
        if kind in ("nb", "naive_bayes"):
            return NaiveBayesSpec(**opts), "nb"
        if kind == "tree":
            return TreeSpec(**opts), "tree"
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad learner spec {value!r}: {e}") from e
    raise UsageError(f"unknown learner kind {kind!r}")


def _experiment_name(exp: dict, index: int) -> str:
    if exp.get("name"):
        return str(exp["name"])
    transform = exp.get("transform", "?")
    learner = exp.get("learner", "nb")
    lname = learner if isinstance(learner, str) else learner.get("kind", "custom")
    return f"{transform}-{lname}" if transform != "ensemble" else "ensemble"


def _build_model(exp: dict, train: MLDataset, run_seed: int, index: int,
                 workers: int):
    transform = exp.get("transform")
    exp_seed = int(exp.get("seed", derive_seed(run_seed, index)))
    if transform == "ensemble":
        spec = _ensemble_spec(exp, exp_seed)
        return ensemble_fit(train, spec, workers=workers)
    learner, _ = _parse_learner(exp.get("learner"))
    if transform == "br":
        return br_fit(train, learner)
    if transform == "lp":
        return lp_fit(train, learner)
    if transform == "rakel":
        m = exp.get("m")
        model = rakel_fit(train, learner, m=int(m) if m else None,
                          k=int(exp.get("k", 3)), seed=exp_seed)
        if model.uncovered:
            names = [train.schema.label_names[j] for j in model.uncovered]
            print(
                f"warning: rakel members cover no subset containing "
                f"{names}; those labels score a neutral 0.5",
                file=sys.stderr,
            )
        return model
    if transform == "ps":
        return ps_fit(train, learner,
                      PruneSpec(int(exp.get("p", 2)), int(exp.get("b", 2))))
    raise UsageError(f"unknown transform {transform!r}")


def _ensemble_spec(exp: dict, seed: int) -> EnsembleSpec:
    prune = PruneSpec(int(exp.get("p", 2)), int(exp.get("b", 2)))
    members_cfg = exp.get("members")
    if members_cfg:
        members = []
        for mc in members_cfg:
            learner, _ = _parse_learner(mc.get("learner"))
            members.append(MemberSpec(
                transform=mc.get("transform", "ps"), learner=learner,
                prune=PruneSpec(int(mc.get("p", prune.p)), int(mc.get("b", prune.b))),
                rakel_m=mc.get("m"), rakel_k=int(mc.get("k", 3)),
            ))
        return EnsembleSpec(
            members=tuple(members),
            sample_ratio=float(exp.get("sample_ratio", 0.67)),
            with_replacement=bool(exp.get("with_replacement", False)),
            rule=exp.get("rule", "majority_vote"),
            weights=tuple(exp["weights"]) if exp.get("weights") else None,
            threshold=float(exp.get("threshold", 0.5)),
            seed=seed,
        )
    learner = exp.get("learner")
    if learner is not None and not isinstance(learner, str):
        raise UsageError(
            "ensemble 'learner' must be a preset name; use 'members' for "
            "custom learner specs"
        )
    base = default_ensemble_spec(
        seed=seed,
        q=int(exp.get("q", 10)),
        rule=exp.get("rule", "majority_vote"),
        sample_ratio=float(exp.get("sample_ratio", 0.67)),
        prune=prune,
        learner=learner,
    )
    if exp.get("weights"):
        base = EnsembleSpec(
            members=base.members, sample_ratio=base.sample_ratio,
            with_replacement=base.with_replacement, rule=base.rule,
            weights=tuple(exp["weights"]), threshold=base.threshold,
            seed=base.seed,
        )
    if exp.get("with_replacement"):
        base = EnsembleSpec(
            members=base.members, sample_ratio=base.sample_ratio,
            with_replacement=True, rule=base.rule, weights=base.weights,
            threshold=base.threshold, seed=base.seed,
        )
    return base


def config_hash(cfg: dict) -> str:
    """Hash of the semantically meaningful fields (those that can change
    metric values); format/out/workers are excluded by design."""
    semantic = {
        "dataset": cfg.get("dataset"),
        "split": cfg.get("split"),
        "experiments": cfg.get("experiments"),
        "threshold": cfg.get("threshold"),
        "seed": cfg.get("seed"),
    }
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _average_row(reports: list) -> dict | None:
    ok = [r for _, r in reports if isinstance(r, EvaluationReport)]
    if not ok:
        return None
    return {
        f: sum(getattr(r, f) for r in ok) / len(ok)
        for f in EvaluationReport.METRIC_FIELDS
    }


def render_csv(reports, include_average: bool = True) -> str:
    lines = ["experiment," + ",".join(EvaluationReport.METRIC_FIELDS)]
    for name, rep in reports:
        if isinstance(rep, EvaluationReport):
            lines.append(
                name + "," + ",".join(_fmt(getattr(rep, f))
                                      for f in EvaluationReport.METRIC_FIELDS)
            )
        else:
            lines.append(name + "," * len(EvaluationReport.METRIC_FIELDS))
    avg = _average_row(reports) if include_average else None
    if avg is not None and include_average:
        lines.append(
            "AVERAGE," + ",".join(_fmt(avg[f])
                                  for f in EvaluationReport.METRIC_FIELDS)
        )
    return "\n".join(lines) + "\n"


def render_markdown(reports, meta: dict, include_average: bool = True) -> str:
    names = [name for name, _ in reports]
    cols = names + (["AVERAGE"] if include_average and len(reports) > 1 else [])
    lines = ["| Metric | " + " | ".join(cols) + " |",
             "| --- |" + " --- |" * len(cols)]
    avg = _average_row(reports)
    for title, field in _METRIC_ROWS:
        cells = []
        for _, rep in reports:
            cells.append(_fmt(getattr(rep, field))
                         if isinstance(rep, EvaluationReport) else "failed")
        if include_average and len(reports) > 1:
            cells.append(_fmt(avg[field]) if avg else "failed")
        lines.append(f"| {title} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(f"seed={meta['seed']} config={meta['config_hash']} "
                 f"threshold={meta['threshold']}")
    return "\n".join(lines) + "\n"


def render_json(reports, meta: dict) -> str:
    rows = []
    for name, rep in reports:
        if isinstance(rep, EvaluationReport):
            row = {"experiment": name}
            row.update(rep.as_dict())
            row["n_evaluated"] = rep.n_evaluated
            row["n_skipped_ranking"] = rep.n_skipped_ranking
        else:
            row = {"experiment": name, "error": str(rep)}
        rows.append(row)
    return json.dumps(
        {"meta": meta, "rows": rows, "average": _average_row(reports)},
        indent=2, sort_keys=True,
    ) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    spec = _label_spec({
        "labels": args.labels,
        "trailing_labels": args.trailing_labels,
    })
    ds = _load_bound(args.dataset, spec)
    try:
        stats = dataset_stats(ds)
    except ValueError as e:
        raise DataError(str(e)) from e
    print(
        f"instances={stats.n_instances} labels={stats.n_labels} "
        f"lcard={stats.lcard:.4f} lden={stats.lden:.4f} "
        f"distinct_labelsets={stats.distinct_labelsets}"
    )
    return EXIT_OK


def _validate_experiments(experiments) -> None:
    """Reject malformed experiment configs before any training starts, so
    config mistakes are usage errors rather than failed rows."""
    for exp in experiments:
        transform = exp.get("transform")
        if transform not in ("br", "lp", "rakel", "ps", "ensemble"):
            raise UsageError(f"unknown transform {transform!r}")
        if transform == "ensemble":
            rule = exp.get("rule", "majority_vote")
            if rule not in COMBINATION_RULES:
                raise UsageError(f"unknown combination rule {rule!r}")
            for mc in exp.get("members") or []:
                member_transform = mc.get("transform", "ps")
                if member_transform not in TRANSFORM_NAMES:
                    raise UsageError(
                        f"unknown member transform {member_transform!r}")
                _parse_learner(mc.get("learner"))
        else:
            _parse_learner(exp.get("learner"))


def _run_experiments(cfg: dict, train: MLDataset, test: MLDataset):
    experiments = cfg.get("experiments") or []
    if not experiments:
        raise UsageError("config has no experiments")
    _validate_experiments(experiments)
    seed = int(cfg["seed"])
    threshold = float(cfg["threshold"])
    workers = max(1, int(cfg["workers"]))

    def run_one(item):
        index, exp = item
        model = _build_model(exp, train, seed, index,
                             workers if len(experiments) == 1 else 1)
        return evaluate(model, test, threshold)

    names = [_experiment_name(exp, i) for i, exp in enumerate(experiments)]
    results: list = [None] * len(experiments)
    if workers > 1 and len(experiments) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_one, (i, exp))
                       for i, exp in enumerate(experiments)]
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result()
            except Exception as e:  # noqa: BLE001 - row marked failed
                results[i] = e
    else:
        for i, exp in enumerate(experiments):
            try:
                results[i] = run_one((i, exp))
            except Exception as e:  # noqa: BLE001
                results[i] = e
    return list(zip(names, results))


def _render(cfg: dict, reports, meta: dict, include_average: bool = True) -> str:
    fmt = cfg.get("format", "md")
    if fmt in ("md", "markdown"):
        return render_markdown(reports, meta, include_average)
    if fmt == "csv":
        return render_csv(reports, include_average)
    if fmt == "json":
        return render_json(reports, meta)
    raise UsageError(f"unknown output format {fmt!r}")


def cmd_benchmark(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    cfg = _merge_flags(cfg, args)
    started = time.monotonic()
    train, test = _resolve_data(cfg)
    reports = _run_experiments(cfg, train, test)
    meta = {
        "seed": int(cfg["seed"]),
        "threshold": float(cfg["threshold"]),
        "config_hash": config_hash(cfg),
        "n_train": len(train),
        "n_test": len(test),
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    _emit(_render(cfg, reports, meta), cfg.get("out"))
    failed = [(n, r) for n, r in reports if not isinstance(r, EvaluationReport)]
    for name, err in failed:
        print(f"experiment {name!r} failed: {err}", file=sys.stderr)
    return EXIT_EXPERIMENT if failed else EXIT_OK


def _read_predictions(path, n_rows: int, m: int):
    try:
        scores = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as e:
        raise DataError(f"cannot read predictions {path}: {e}") from e
    except ValueError as e:
        raise DataError(f"bad predictions file {path}: {e}") from e
    if scores.shape != (n_rows, m):
        raise DataError(
            f"predictions shape {scores.shape} does not match "
            f"dataset ({n_rows}, {m})"
        )
    if not np.isfinite(scores).all():
        raise DataError("prediction scores must be finite")
    if scores.min() < 0 or scores.max() > 1:
        raise DataError("prediction scores must lie in [0, 1]")
    return scores


class _FileModel:
    """Adapts a fixed score matrix to the model interface."""

    def __init__(self, scores):
        self._scores = scores
        self.n_labels = scores.shape[1]

    def predict_scores_many(self, rows):
        return self._scores


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    cfg = _merge_flags(cfg, args)
    if args.predictions:
        ds_cfg = cfg.get("dataset") or {}
        spec = _label_spec(ds_cfg)
        if not ds_cfg.get("path"):
            raise UsageError("--predictions mode needs --dataset")
        data = _load_bound(ds_cfg["path"], spec)
        if len(data) == 0:
            raise DataError("dataset has no rows")
        scores = _read_predictions(args.predictions, len(data), data.n_labels)
        rep = evaluate(_FileModel(scores), data, float(cfg["threshold"]))
        reports = [("predictions", rep)]
    else:
        exps = cfg.get("experiments") or []
        if args.transform:
            exp = {"transform": args.transform}
            if args.learner:
                exp["learner"] = args.learner
            if args.params:
                try:
                    exp.update(json.loads(args.params))
                except json.JSONDecodeError as e:
                    raise UsageError(f"--params is not valid JSON: {e}") from e
            exps = [exp]
        if len(exps) != 1:
            raise UsageError("evaluate needs exactly one experiment "
                             "(--transform or a single-experiment config)")
        cfg["experiments"] = exps
        train, test = _resolve_data(cfg)
        reports = _run_experiments(cfg, train, test)
    meta = {
        "seed": int(cfg["seed"]),
        "threshold": float(cfg["threshold"]),
        "config_hash": config_hash(cfg),
    }
    _emit(_render(cfg, reports, meta, include_average=False), cfg.get("out"))
    failed = [(n, r) for n, r in reports if not isinstance(r, EvaluationReport)]
    for name, err in failed:
        print(f"experiment {name!r} failed: {err}", file=sys.stderr)
    return EXIT_EXPERIMENT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="ARFF file")
    p.add_argument("--labels", help="label-name file (text or Mulan XML)")
    p.add_argument("--trailing-labels", type=int, dest="trailing_labels",
                   help="the last N attributes are labels")
    p.add_argument("--split", help="ntrain:ntest or a train ratio in (0,1)")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--format", choices=["md", "csv", "json"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mullab",
        description="multi-label classification benchmark harness",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print dataset statistics")
    p_info.add_argument("--dataset", required=True)
    p_info.add_argument("--labels")
    p_info.add_argument("--trailing-labels", type=int, dest="trailing_labels")
    p_info.set_defaults(func=cmd_info)

    p_bench = sub.add_parser("benchmark", help="run an experiment grid")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_eval = sub.add_parser("evaluate", help="run a single experiment")
    _add_common(p_eval)
    p_eval.add_argument("--transform", help="br | lp | rakel | ps | ensemble")
    p_eval.add_argument("--learner", help="learner preset name")
    p_eval.add_argument("--params", help="extra experiment params as JSON")
    p_eval.add_argument("--predictions",
                        help="CSV of per-row scores to evaluate instead of "
                             "training a model")
    p_eval.set_defaults(func=cmd_evaluate)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
