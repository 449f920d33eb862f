"""Benchmark command line.

Three subcommands:

* ``info``       dataset statistics (instances, labels, cardinality, density)
* ``benchmark``  run a grid of experiments from a JSON config, emit a report
* ``evaluate``   run one experiment (or score a predictions file)

A grid fits each identical unit once: before any data is read, every
experiment lists the keys of its fit units (a training state, whose kNN
index is built with one search of the test rows for every model that
shares it, or a fitted ensemble member).  The experiments run one at a
time, in declaration order, and share one ``transforms.FitUnits`` table,
which builds each unit at its first consumer and drops it after its last.
Units are deterministic, so sharing one changes no result.

Reports come out as markdown (metrics as rows, experiments as columns,
AVERAGE last), CSV (one experiment per row, 6 decimals) or JSON (full
precision plus run metadata).  A ranking metric that no test row defines
(every truth set empty, or also full for ranking loss) reads n/a, null in
JSON, and stays out of AVERAGE.  Exit codes: 0 ok, 1 usage or config error
(every experiment is parsed before any data is read), 2 data error, 3 one or
more experiments failed on the data.

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
         "c45"}, "p": 2, "b": 2},
        {"transform": "ensemble", "q": 10, "rule": "majority_vote"}
      ]
    }

A key this schema does not list, at any level, is a config error (exit 1),
and so is a key the entry's transform does not take: ``m``/``k`` belong to
rakel, ``p``/``b`` to ps and ensemble, and an ensemble that lists
``members`` takes no ``q`` or ``learner``.
A flag or key counts as given when it is set and not null, even if empty,
so an empty value is checked like any other, and refused.  A preset is named
exactly (``learners.PRESET_NAMES``); an inline learner's kind is 'knn',
'nb' or 'tree'.  An ensemble takes 'threshold' only with a voting rule.
A dataset takes 'labels' or 'trailing_labels', not both; a label flag
replaces the config's label key.  It takes 'path' or 'train' and 'test',
not both, and a split (key or --split) only with 'path'.  A split takes
'ratio' or 'train' and 'test', not both.  An experiment's 'name' is a
non-empty string with no ',', '|', '"' or line break, since it heads a CSV
row and a markdown column, and is not 'AVERAGE'; no two experiments may
have one name, given or derived.  The config key ``workers`` (an integer
>= 1) is accepted so that existing configs run, and changes nothing.  No
subcommand has a --workers flag.
``evaluate --predictions`` scores the file's matrix as it is, so it
refuses what only a fitted model reads: --transform, --learner, --params,
--split and the config keys 'experiments' and 'split'.  Without
--transform, --learner and --params are refused too, and --params may not
set a key that --transform or --learner sets.
The environment variable MULLAB_SEED, unless empty, is the seed fallback
when neither the flag nor the config provides one.  Numeric flags and
MULLAB_SEED follow the ARFF rule for numbers: ASCII, with no '_'.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from . import arff
from .arff import ArffParseError, LabelSpec, SplitSpec
from .core import MLDataset, dataset_stats
from .ensemble import (_VOTING_RULES, EnsembleSpec, default_ensemble_spec,
                       ensemble_fit)
from .learners import KnnSpec, LearnerSpec, NaiveBayesSpec, TreeSpec, preset
from .metrics import EvaluationReport, evaluate
from .rng import derive_seed
from .transforms import (
    DEFAULT_LEARNER,
    TRANSFORM_NAMES,
    FitUnits,
    MemberSpec,
    PruneSpec,
    fit_member,
)

log = logging.getLogger("mullab.cli")

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

_FORMATS = ("md", "csv", "json")

# The keys each part of a config may set; any other key is a UsageError.
_CONFIG_KEYS = ("dataset", "split", "seed", "threshold", "workers", "format",
                "out", "experiments")
_DATASET_KEYS = ("path", "train", "test", "labels", "trailing_labels")
_SPLIT_KEYS = ("ratio", "train", "test")
# An experiment or member takes 'transform', 'learner' and its transform's
# own options; a top-level one also 'name' and 'seed'.
_TRANSFORM_KEYS = {"br": (), "lp": (), "rakel": ("m", "k"), "ps": ("p", "b")}
# An ensemble takes 'q' and 'learner' only when it lists no 'members'.
_ENSEMBLE_KEYS = ("name", "seed", "transform", "p", "b", "sample_ratio",
                  "with_replacement", "rule", "weights", "threshold", "members")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


def _merge_flags(args) -> tuple[dict, dict, SplitSpec | None]:
    """The config file, if any, with command-line flags overriding it, and
    its checked dataset fields and split (``_data_specs``); every key but
    'experiments' is checked here, before any data is read."""
    cfg = {} if args.config is None else _load_config(args.config)
    _known_keys(cfg, _CONFIG_KEYS, "the config")
    ds = {} if cfg.get("dataset") is None else cfg["dataset"]
    if not isinstance(ds, dict):
        raise UsageError(f"'dataset' must be a JSON object, not {ds!r}")
    ds = dict(ds)
    if args.dataset is not None:
        ds.pop("train", None)
        ds.pop("test", None)
        ds["path"] = args.dataset
    flags = {key: getattr(args, key) for key in ("labels", "trailing_labels")
             if getattr(args, key) is not None}
    if flags:  # a label flag replaces the config's label source
        ds.pop("labels", None)
        ds.pop("trailing_labels", None)
        ds.update(flags)
    cfg["dataset"] = ds
    if args.split is not None:
        cfg["split"] = _parse_split_flag(args.split)
    for key in ("seed", "threshold", "format", "out"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if cfg.get("seed") is None and os.environ.get("MULLAB_SEED"):
        try:
            cfg["seed"] = _number(int)(os.environ["MULLAB_SEED"])
        except ValueError:
            raise UsageError("MULLAB_SEED must be an integer") from None
    cfg.update({"seed": 0, "threshold": 0.5, "workers": 1, "format": "md"}
               | _fields(cfg, seed=int, threshold=float, workers=int,
                         format=str, out=str))
    if cfg["workers"] < 1:
        raise UsageError(f"'workers' must be >= 1, not {cfg['workers']}")
    if not 0.0 <= cfg["threshold"] <= 1.0:
        raise UsageError(f"'threshold' must be in [0, 1], not "
                         f"{cfg['threshold']}")
    if cfg["format"] not in _FORMATS:
        raise UsageError(f"'format' must be one of {', '.join(_FORMATS)}, "
                         f"not {cfg['format']!r}")
    out = cfg.get("out")
    if out is not None:
        if out == "":
            raise UsageError("'out' must not be empty")
        if os.path.isdir(out):
            raise UsageError(f"cannot write report {out}: it is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise UsageError(f"cannot write report {out}: no such directory")
    return (cfg, *_data_specs(cfg))


# JSON kind -> (the Python types it takes, its name)
_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a finite number"), str: ((str,), "a string")}


def _typed(value, kind: type, key: str):
    """``value`` as a ``kind`` (a bool is no number), or a UsageError that
    names the config ``key``."""
    types, name = _KINDS[kind]
    if (isinstance(value, bool) is (kind is bool) and isinstance(value, types)
            and (kind is not float or abs(value) <= sys.float_info.max)):
        return kind(value)
    raise UsageError(f"{key!r} must be {name}, not {value!r}")


def _fields(entry: dict, **kinds) -> dict:
    """The keys of ``kinds`` that ``entry`` sets, each as its kind; a key
    that is left out or null keeps its default."""
    return {key: _typed(entry[key], kind, key)
            for key, kind in kinds.items() if entry.get(key) is not None}


def _known_keys(entry: dict, keys: tuple, where: str) -> None:
    """A UsageError naming the first key of ``entry`` that is not in
    ``keys``: a misspelt key must not silently leave its default."""
    for key in entry:
        if key not in keys:
            raise UsageError(f"unknown key {key!r} in {where}; known keys: "
                             f"{', '.join(keys)}")


def _number(kind: type):
    """``kind`` (int or float) as an argparse ``type`` that also refuses
    what Python reads but ARFF does not, such as ``1_0`` or non-ASCII
    digits: a ValueError."""
    def read(text: str):
        if not arff._ascii_number(text):
            raise ValueError(text)
        return kind(text)
    read.__name__ = kind.__name__  # argparse names the type in its message
    return read


def _parse_split_flag(text: str) -> dict:
    if ":" in text:
        a, _, b = text.partition(":")
        try:
            return {"train": _number(int)(a), "test": _number(int)(b)}
        except ValueError:
            raise UsageError(f"bad --split {text!r}: expected ntrain:ntest") from None
    try:
        return {"ratio": _number(float)(text)}
    except ValueError:
        raise UsageError(f"bad --split {text!r}") from None


def _data_specs(cfg: dict) -> tuple[dict, SplitSpec | None]:
    """The typed fields of the ``dataset`` block and the ``split`` as a
    SplitSpec (None when there is none).  A mistake in either is a
    UsageError; whether split counts fit the data is checked on the data."""
    _known_keys(cfg["dataset"], _DATASET_KEYS, "'dataset'")
    ds = _fields(cfg["dataset"], path=str, train=str, test=str, labels=str,
                 trailing_labels=int)
    if ds.get("trailing_labels", 1) < 1:
        raise UsageError(f"'trailing_labels' must be >= 1, "
                         f"not {ds['trailing_labels']}")
    if "labels" in ds and "trailing_labels" in ds:
        raise UsageError("give 'labels' or 'trailing_labels', not both")
    pair = "train" in ds or "test" in ds
    if pair and "path" in ds:
        raise UsageError("give 'path' or 'train' and 'test', not both")
    split = cfg.get("split")
    if split is None:
        return ds, None
    if pair:
        raise UsageError("give a 'split' with 'path', not 'train' and 'test'")
    if not isinstance(split, dict):
        raise UsageError(f"'split' must be a JSON object, not {split!r}")
    _known_keys(split, _SPLIT_KEYS, "'split'")
    if "ratio" in split:
        if any(split.get(key) is not None for key in ("train", "test")):
            raise UsageError("give 'ratio' or 'train' and 'test', not both")
        fields = {"ratio": _typed(split["ratio"], float, "ratio")}
    else:
        counts = _fields(split, train=int, test=int)
        if len(counts) < 2:
            raise UsageError(f"'split' needs 'ratio', or 'train' and 'test', "
                             f"not {split!r}")
        fields = {"counts": (counts["train"], counts["test"])}
    try:
        return ds, SplitSpec(seed=cfg["seed"], **fields)
    except ValueError as e:
        raise UsageError(f"bad 'split' {split!r}: {e}") from None


def _label_spec(ds: dict) -> LabelSpec:
    if "labels" in ds:
        try:
            names = arff.read_label_names(ds["labels"])
        except OSError as e:
            raise DataError(f"cannot read label file: {e}") from e
        except ValueError as e:
            raise DataError(str(e)) from e
        return LabelSpec.from_names(names)
    if "trailing_labels" in ds:
        return LabelSpec.trailing(ds["trailing_labels"])
    raise UsageError("dataset needs 'labels' or 'trailing_labels'")


def _load_bound(path, spec: LabelSpec) -> MLDataset:
    try:
        return arff.load_dataset(path, spec)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except (ArffParseError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e


def _resolve_data(ds: dict, split) -> tuple[MLDataset, MLDataset]:
    """The train/test pair of the checked fields of ``_data_specs``."""
    pair = "train" in ds and "test" in ds
    if not (pair or "path" in ds):
        raise UsageError("config needs dataset.path or dataset.train/test")
    if not pair and split is None:
        raise UsageError("config needs a 'split' when dataset is one file")
    spec = _label_spec(ds)
    if pair:
        train = _load_bound(ds["train"], spec)
        test = _load_bound(ds["test"], spec)
        if train.schema != test.schema:
            raise DataError("train and test files disagree on schema")
        return train, test
    full = _load_bound(ds["path"], spec)
    try:
        return arff.split_dataset(full, split)
    except ValueError as e:
        raise DataError(str(e)) from e


# inline learner kind -> (its spec, the JSON kind of each option)
_LEARNER_KINDS = {
    "knn": (KnnSpec, {"k": int, "distance": str}),
    "nb": (NaiveBayesSpec, {"variance_floor": float}),
    "tree": (TreeSpec, {"criterion": str, "random_subset_size": int,
                        "rep_pruning": bool, "min_leaf": int,
                        "max_depth": int, "seed": int}),
}


def _parse_learner(value) -> LearnerSpec:
    if isinstance(value, str):
        return preset(value)
    if not isinstance(value, dict):
        raise UsageError(f"bad learner spec {value!r}")
    opts = {key: v for key, v in value.items() if v is not None}
    kind = opts.pop("kind", None)
    if kind not in _LEARNER_KINDS:
        raise UsageError(f"unknown learner kind {kind!r}")
    spec, kinds = _LEARNER_KINDS[kind]
    if opts.get("random_subset_size") == "sqrt":
        kinds = dict(kinds, random_subset_size=str)
    # an option the spec does not have stays in, so the spec rejects it
    return spec(**opts | _fields(opts, **kinds))


def _parse_spec(entry, seed: int = 0, prune: PruneSpec | None = None):
    """The frozen spec of one experiment entry: a MemberSpec for br, lp,
    rakel and ps, an EnsembleSpec seeded with ``seed`` for ensemble.

    An ensemble's member entries are parsed here too, with the ensemble's
    ``prune``: they inherit its p and b, and their transform defaults to
    MemberSpec's.  A top-level entry (``prune`` None) must name its
    transform.  Every mistake is a UsageError."""
    if not isinstance(entry, dict):
        raise UsageError(f"an experiment or member must be a JSON object, "
                         f"not {entry!r}")
    top = prune is None
    transform = entry.get("transform")
    if top and transform == "ensemble":
        listed = entry.get("members") is not None
        _known_keys(entry, _ENSEMBLE_KEYS + (() if listed else ("q", "learner")),
                    "an ensemble experiment" + (" with 'members'" if listed else ""))
    else:
        if not top and transform is None:
            transform = MemberSpec.transform
        if transform not in TRANSFORM_NAMES:
            raise UsageError(f"unknown {'' if top else 'member '}transform "
                             f"{transform!r}")
        _known_keys(entry, (("name", "seed") if top else ())
                    + ("transform", "learner") + _TRANSFORM_KEYS[transform],
                    f"a {transform!r} {'experiment' if top else 'member'}")
    try:
        prune = replace(PruneSpec() if top else prune,
                        **_fields(entry, p=int, b=int))
        if transform == "ensemble":
            return _ensemble_spec(entry, seed, prune)
        fields = _fields(entry, m=int, k=int)
        if entry.get("learner") is not None:
            fields["learner"] = _parse_learner(entry["learner"])
        return MemberSpec(transform, prune=prune, **fields)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad experiment {entry!r}: {e}") from None


def _ensemble_spec(entry: dict, seed: int, prune: PruneSpec) -> EnsembleSpec:
    fields = _fields(entry, sample_ratio=float, with_replacement=bool,
                     rule=str, threshold=float)
    if entry.get("weights") is not None:
        fields["weights"] = tuple(_typed(w, float, "weights")
                                  for w in entry["weights"])
    if entry.get("members") is not None:
        members = tuple(_parse_spec(mc, prune=prune) for mc in entry["members"])
        spec = EnsembleSpec(members=members, seed=seed, **fields)
    else:  # its learner is a preset name; inline specs go in 'members'
        spec = default_ensemble_spec(prune=prune, seed=seed, **fields,
                                     **_fields(entry, q=int, learner=str))
    if "threshold" in fields and spec.rule not in _VOTING_RULES:
        raise ValueError(f"rule {spec.rule!r} takes no threshold")
    return spec


def _experiment_name(exp: dict) -> str:
    """The report column of an experiment: its 'name', which a reader of
    the report must be able to take back, or one made from its transform
    and learner."""
    name = _fields(exp, name=str).get("name")
    if name is not None:
        if name == "":
            raise UsageError("'name' must not be empty; leave the key out")
        if not set(name).isdisjoint(",|\r\n"):
            raise UsageError(f"'name' must not contain ',', '|' or a line "
                             f"break, not {name!r}")
        if '"' in name:
            raise UsageError(f"'name' must not contain '\"', not {name!r}")
        if name == "AVERAGE":
            raise UsageError("'name' must not be 'AVERAGE', the average row")
        return name
    if exp["transform"] == "ensemble":
        return "ensemble"
    learner = exp.get("learner")
    if learner is None:
        learner = DEFAULT_LEARNER
    lname = learner if isinstance(learner, str) else learner["kind"]
    return f"{exp['transform']}-{lname}"


def _parse_experiments(cfg: dict) -> list:
    """(spec, seed, name, units) for every experiment, parsed before any
    data is read or model trained: ``units`` are the keys of the fit units
    it reads.  Two experiments with one name are a UsageError."""
    experiments = cfg.get("experiments")
    if not (isinstance(experiments, list) and len(experiments) > 0
            and all(isinstance(exp, dict) for exp in experiments)):
        raise UsageError("config needs 'experiments': a non-empty list of "
                         "JSON objects")
    plans, first = [], {}
    for index, exp in enumerate(experiments):
        seed = _fields(exp, seed=int).get("seed",
                                          derive_seed(cfg["seed"], index))
        spec, name = _parse_spec(exp, seed), _experiment_name(exp)
        if name in first:
            raise UsageError(f"experiments {first[name]} and {index} are both "
                             f"named {name!r}; give each its own 'name'")
        first[name] = index
        plans.append((spec, seed, name, spec.units()))
    return plans


def _build_model(spec, train: MLDataset, seed: int, units=None):
    """Fit one parsed experiment; ``seed`` drives a RAKEL experiment's
    subset draws (an ensemble carries its own), and ``units`` is the
    grid's ``transforms.FitUnits`` table.  Labels that a RAKEL model, or
    an ensemble's RAKEL member, leaves uncovered are logged."""
    if isinstance(spec, EnsembleSpec):
        model = ensemble_fit(train, spec, units)
        fitted = [(f"ensemble member {k}: ", member)
                  for k, member in enumerate(model.members)]
    else:
        model = fit_member(train, spec, seed, units)
        fitted = [("", model)]
    for where, member in fitted:
        if member.uncovered:
            names = [train.schema.label_names[j] for j in member.uncovered]
            log.warning("%srakel members cover no subset containing %s; "
                        "those labels score a neutral 0.5", where, names)
    return model


def config_hash(cfg: dict) -> str:
    """Hash of the semantically meaningful fields (those that can change
    metric values); format/out/workers are excluded by design."""
    semantic = {key: cfg.get(key) for key in
                ("dataset", "split", "experiments", "threshold", "seed")}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "n/a" if math.isnan(x) else f"{x:.6f}"


def _mean(values: list) -> float:
    """Mean of the values that are not NaN; NaN when none is."""
    defined = [v for v in values if not math.isnan(v)]
    return sum(defined) / len(defined) if defined else math.nan


def _average_row(reports: list) -> dict | None:
    ok = [r for _, r in reports if isinstance(r, EvaluationReport)]
    if not ok:
        return None
    return {f: _mean([getattr(r, f) for r in ok])
            for f in EvaluationReport.METRIC_FIELDS}


def _json_metrics(values: dict) -> dict:
    """Metric values for JSON: NaN (undefined) becomes null."""
    return {f: None if math.isnan(v) else v for f, v in values.items()}


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
    if avg is not None:
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
        cells = [_fmt(getattr(rep, field)) if isinstance(rep, EvaluationReport)
                 else "failed" for _, rep in reports]
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
            row.update(_json_metrics(rep.as_dict()))
            row["n_evaluated"] = rep.n_evaluated
            row["n_skipped_ranking"] = rep.n_skipped_ranking
        else:
            row = {"experiment": name, "error": str(rep)}
        rows.append(row)
    avg = _average_row(reports)
    return json.dumps(
        {"meta": meta, "rows": rows,
         "average": avg and _json_metrics(avg)},
        indent=2, sort_keys=True,
    ) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    fields, _ = _data_specs({"dataset": {
        "labels": args.labels, "trailing_labels": args.trailing_labels}})
    ds = _load_bound(args.dataset, _label_spec(fields))
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


def _run_experiments(cfg: dict, plans: list, train, test):
    """``(name, report or error message)`` per experiment, run one at a
    time in declaration order; the experiments share the fit units that
    their plans list, and a failed row keeps only its message."""
    table = FitUnits(train, test, [keys for *_, keys in plans])
    reports = []
    for spec, seed, name, _ in plans:
        try:
            # the very test.X the table's kNN indexes kept their search of;
            # no name holds the model, so it dies before the next build
            scores = _build_model(spec, train, seed,
                                  table).predict_scores_many(test.X)
            report = evaluate(scores, test, cfg["threshold"])
        except Exception as e:  # noqa: BLE001 - row marked failed
            report = str(e)
        finally:
            table.done()
        reports.append((name, report))
    return reports


def _render(cfg: dict, reports, meta: dict, include_average: bool = True) -> str:
    fmt = cfg["format"]
    if fmt == "md":
        return render_markdown(reports, meta, include_average)
    if fmt == "csv":
        return render_csv(reports, include_average)
    return render_json(reports, meta)


def _report(cfg: dict, reports, started: float, n_train: int | None,
            n_test: int, include_average: bool = True) -> int:
    """Emit the report and log every failed row; EXIT_EXPERIMENT if any."""
    meta = {"seed": cfg["seed"], "threshold": cfg["threshold"],
            "config_hash": config_hash(cfg), "n_train": n_train,
            "n_test": n_test,
            "wall_time_s": round(time.monotonic() - started, 3)}
    text, out = _render(cfg, reports, meta, include_average), cfg.get("out")
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write report {out}: {e}") from e
    failed = [(n, r) for n, r in reports if not isinstance(r, EvaluationReport)]
    for name, err in failed:
        log.error("experiment %r failed: %s", name, err)
    return EXIT_EXPERIMENT if failed else EXIT_OK


def _run(cfg: dict, plans: list, ds: dict, split: SplitSpec | None,
         include_average: bool = True) -> int:
    """Load the data, run ``plans`` on it and report, for both subcommands."""
    started = time.monotonic()
    train, test = _resolve_data(ds, split)
    return _report(cfg, _run_experiments(cfg, plans, train, test), started,
                   len(train), len(test), include_average)


def cmd_benchmark(args) -> int:
    cfg, ds, split = _merge_flags(args)
    return _run(cfg, _parse_experiments(cfg), ds, split)


def _read_predictions(path, n_rows: int, m: int):
    try:
        with warnings.catch_warnings():
            # a file with no rows is reported below, not as numpy's warning
            warnings.simplefilter("ignore", UserWarning)
            # no comment syntax: a '#' is bad data, not the end of a row
            scores = np.loadtxt(path, delimiter=",", ndmin=2, comments=None,
                                encoding="utf-8-sig")
    except OSError as e:
        raise DataError(f"cannot read predictions {path}: {e}") from e
    except ValueError as e:
        raise DataError(f"bad predictions file {path}: {e}") from e
    if scores.size == 0:
        raise DataError(f"predictions file {path} has no rows")
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


def cmd_evaluate(args) -> int:
    cfg, ds, split = _merge_flags(args)
    if args.predictions is not None:
        for flag in ("transform", "learner", "params", "split"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} does not apply to --predictions")
        for key in ("experiments", "split"):
            if cfg.get(key) is not None:
                raise UsageError(f"{key!r} does not apply to --predictions")
        if "path" not in ds:
            raise UsageError("--predictions mode needs --dataset")
        started = time.monotonic()
        data = _load_bound(ds["path"], _label_spec(ds))
        if len(data) == 0:
            raise DataError("dataset has no rows")
        scores = _read_predictions(args.predictions, len(data), data.n_labels)
        reports = [("predictions", evaluate(scores, data, cfg["threshold"]))]
        # the scores come from a model trained elsewhere, on rows not known
        return _report(cfg, reports, started, None, len(data),
                       include_average=False)
    if args.transform is not None:
        exp = {"transform": args.transform}
        if args.learner is not None:
            exp["learner"] = args.learner
        if args.params is not None:
            try:
                params = json.loads(args.params)
            except json.JSONDecodeError as e:
                raise UsageError(f"--params is not valid JSON: {e}") from e
            if not isinstance(params, dict):
                raise UsageError("--params must be a JSON object")
            for key in exp:
                if key in params:
                    raise UsageError(f"--params and --{key} both set {key!r}")
            exp.update(params)
        cfg["experiments"] = [exp]
    else:
        for flag in ("learner", "params"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} needs --transform")
    plans = [] if cfg.get("experiments") is None else _parse_experiments(cfg)
    if len(plans) != 1:
        raise UsageError("evaluate needs exactly one experiment "
                         "(--transform or a single-experiment config)")
    return _run(cfg, plans, ds, split, include_average=False)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="ARFF file")
    p.add_argument("--labels", help="label-name file (text or Mulan XML)")
    p.add_argument("--trailing-labels", type=_number(int),
                   dest="trailing_labels",
                   help="the last N attributes are labels")
    p.add_argument("--split", help="ntrain:ntest or a train ratio in (0,1)")
    p.add_argument("--seed", type=_number(int))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--threshold", type=_number(float))
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
    p_info.add_argument("--trailing-labels", type=_number(int),
                        dest="trailing_labels")
    p_info.set_defaults(func=cmd_info)

    p_bench = sub.add_parser("benchmark", help="run an experiment grid")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_eval = sub.add_parser("evaluate", help="run a single experiment")
    _add_common(p_eval)
    p_eval.add_argument("--transform",
                        help=" | ".join(TRANSFORM_NAMES + ("ensemble",)))
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
    # warnings and failed experiments go to stderr; the handler lives only
    # for this call, so importing mullab sets up no logging
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logging.getLogger("mullab").addHandler(handler)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    finally:
        logging.getLogger("mullab").removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
