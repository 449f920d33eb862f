"""Span tracer for the mullab benchmark.

The tracer wraps public entry points of each mullab module from outside the
package: no file under ``src/`` knows about it.  A wrapped call records one
span ``(id, name, start, end, parent, thread, info)`` in memory; the spans
are written out once, when the traced process ends.

Module-level functions are patched in every mullab module that holds a
reference to them (``lp_fit`` lives in ``transforms`` but is also imported
by ``ensemble``, ``cli`` and the package root), so calls through any of
those names are seen.  Methods and properties are patched on their class.
A target that no longer exists is reported as missing, not an error.

A span opened on a worker thread whose own stack is empty is parented to
the span open on the main thread at that moment (the grid's thread pool
runs inside ``cli._run_experiments``), so self times stay meaningful when
experiments run concurrently.

Run as a script, it is a traced stand-in for ``python -m mullab.cli``:

    python bench/tracer.py SPANS.json benchmark --config grid.json

runs the CLI with every target wrapped and writes the spans to SPANS.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

_KIND = {"KnnSpec": "knn", "NaiveBayesSpec": "nb", "TreeSpec": "tree",
         "KnnClassifier": "knn", "NaiveBayesClassifier": "nb",
         "TreeClassifier": "tree"}


def _text_bytes(args, result):
    text = args[0] if args else ""
    return {"bytes": len(text)} if isinstance(text, str) else None


def _tree_shape(root):
    """(node count, max depth) of a fitted tree, root at depth 0."""
    nodes, depth, todo = 0, 0, [(root, 0)]
    while todo:
        node, d = todo.pop()
        nodes += 1
        depth = max(depth, d)
        if node.attr is None:
            continue
        kids = [node.left, node.right] if node.threshold is not None else node.children
        todo.extend((k, d + 1) for k in kids if k is not None)
    return nodes, depth


def _fit_info(args, result):
    spec, features = args[0], args[1]
    info = {"kind": _KIND.get(type(spec).__name__, "other"),
            "rows": len(features), "classes": int(result.n_classes)}
    root = getattr(result, "root", None)
    if root is not None:
        info["nodes"], info["depth"] = _tree_shape(root)
    return info


def _predict_info(args, result):
    return {"kind": _KIND.get(type(args[0]).__name__, "other"),
            "rows": len(args[1])}


def _rows_of_test(args, result):
    return {"rows": len(args[1])}


def _members(args, result):
    return {"members": len(result.members)}


# (module, attribute path, observer).  An attribute path with a dot is a
# method or property on a class of that module.
TARGETS = (
    ("arff", "parse_arff", _text_bytes),
    ("arff", "load_arff", None),
    ("arff", "read_label_names", None),
    ("arff", "bind_labels", None),
    ("arff", "load_dataset", None),
    ("arff", "split_dataset", None),
    ("core", "MLDataset.subset", None),
    ("core", "MLDataset.features", None),
    ("core", "dataset_stats", None),
    ("learners", "fit", _fit_info),
    ("learners", "KnnClassifier.predict_dist_many", _predict_info),
    ("learners", "NaiveBayesClassifier.predict_dist_many", _predict_info),
    ("learners", "TreeClassifier.predict_dist_many", _predict_info),
    ("transforms", "br_fit", None),
    ("transforms", "lp_fit", None),
    ("transforms", "rakel_fit", None),
    ("transforms", "ps_fit", None),
    ("transforms", "BinaryRelevanceModel.predict_scores_many", None),
    ("transforms", "LabelPowersetModel.predict_scores_many", None),
    ("transforms", "RakelModel.predict_scores_many", None),
    ("transforms", "PrunedSetsModel.predict_scores_many", None),
    ("ensemble", "ensemble_fit", _members),
    ("ensemble", "combine", None),
    ("ensemble", "EnsembleModel.predict_scores_many", None),
    ("metrics", "evaluate", _rows_of_test),
    ("rng", "Xoshiro256.shuffle", None),
    ("rng", "Xoshiro256.sample", None),
    ("rng", "Xoshiro256.below", None),
    ("cli", "main", None),
    ("cli", "_resolve_data", None),
    ("cli", "_run_experiments", None),
    ("cli", "_build_model", None),
    ("cli", "_render", None),
)


class Tracer:
    """Collects spans from wrapped callables; safe to use from threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, ident: int) -> int:
        stack = self._stacks.get(ident)
        if stack:
            return stack[-1]
        if ident != self._main:
            try:
                return self._stacks[self._main][-1]
            except (KeyError, IndexError):
                pass
        return -1

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            parent = tracer._parent(ident)
            sid = next(tracer._ids)
            stack = tracer._stacks.setdefault(ident, [])
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = observe(args, result) if ok and observe else None
                tracer.spans.append((sid, name, start, end, parent, ident, info))

        return traced

    def install(self, package: str = "mullab") -> None:
        """Wrap every target in TARGETS; record the ones that are gone."""
        importlib.import_module(f"{package}.cli")  # loads every submodule
        loaded = [m for n, m in list(sys.modules.items())
                  if n == package or n.startswith(package + ".")]
        for mod_name, path, observe in TARGETS:
            name = f"{mod_name}.{path}"
            module = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
            elif isinstance(original, property):
                setattr(owner, attr,
                        property(self.wrap(name, original.fget, observe)))
            elif owner_name:
                setattr(owner, attr, self.wrap(name, original, observe))
            else:
                wrapped = self.wrap(name, original, observe)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh,
                      separators=(",", ":"))


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a wrapped call adds to a plain one, measured in this process.

    Times span count gives an estimate of tracing cost that, unlike
    traced minus untraced wall time, does not drown in machine noise.
    """
    def noop():
        return None

    def loop(fn):
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    wrapped = Tracer().wrap("noop", noop)
    return max(0.0, (loop(wrapped) - loop(noop)) / calls)


# ---------------------------------------------------------------------------
# derived per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    ids = {s[0] for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] in ids:
            children[s[4]].append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _covered(children.get(s[0], ()), s[2], s[3])
            for s in spans}


def layer_metrics(trace: dict) -> dict:
    """Per-layer counts and times from a dumped trace.

    Names with ``self`` sum self times; other ``_s`` names sum span
    durations.
    """
    spans = trace["spans"]
    selfs = _self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s[1]].append(s)

    def total(*names):
        return sum(s[3] - s[2] for n in names for s in named[n])

    def self_of(names):
        return sum(selfs[s[0]] for n in names for s in named[n])

    def info_sum(names, key):
        return sum((s[6] or {}).get(key, 0) for n in names for s in named[n])

    learner_predict = [n for n in named if n.startswith("learners.")
                       and n.endswith(".predict_dist_many")]
    transform_fit = [f"transforms.{n}" for n in
                     ("br_fit", "lp_fit", "rakel_fit", "ps_fit")]
    transform_predict = [n for n in named if n.startswith("transforms.")
                         and n.endswith(".predict_scores_many")]
    rng_names = ("rng.Xoshiro256.shuffle", "rng.Xoshiro256.sample",
                 "rng.Xoshiro256.below")
    rng_spans = [s for n in rng_names for s in named[n]]
    rng_ids = {s[0] for s in rng_spans}
    parse_s = total("arff.parse_arff")
    fits = named["learners.fit"]
    predicts = [s for n in learner_predict for s in named[n]]
    trees = [s[6] for s in fits if s[6] and "nodes" in s[6]]
    experiment_wall = total("cli._run_experiments")
    busy = total("cli._build_model", "metrics.evaluate")

    out = {
        "arff.parse_s": parse_s,
        "arff.parse_mb_per_s": (info_sum(["arff.parse_arff"], "bytes") / 1e6
                                / parse_s if parse_s else 0.0),
        "arff.bind_s": total("arff.bind_labels"),
        "arff.split_s": total("arff.split_dataset"),
        "core.subset_calls": len(named["core.MLDataset.subset"]),
        "core.subset_s": total("core.MLDataset.subset"),
        "core.features_calls": len(named["core.MLDataset.features"]),
        "learners.fit_calls": len(fits),
        "learners.fit_rows": info_sum(["learners.fit"], "rows"),
        "learners.predict_rows": info_sum(learner_predict, "rows"),
    }
    for kind in ("knn", "nb", "tree"):
        out[f"learners.fit_s.{kind}"] = sum(
            s[3] - s[2] for s in fits if s[6] and s[6]["kind"] == kind)
        out[f"learners.predict_s.{kind}"] = sum(
            s[3] - s[2] for s in predicts if s[6] and s[6]["kind"] == kind)
    out.update({
        "learners.classes": info_sum(["learners.fit"], "classes"),
        "learners.tree_nodes": sum(t["nodes"] for t in trees),
        "learners.tree_depth_max": max((t["depth"] for t in trees), default=0),
        "transforms.models": sum(len(named[n]) for n in transform_fit),
        "transforms.fit_self_s": self_of(transform_fit),
        "transforms.predict_self_s": self_of(transform_predict),
        "ensemble.members": info_sum(["ensemble.ensemble_fit"], "members"),
        "ensemble.fit_self_s": self_of(["ensemble.ensemble_fit"]),
        "ensemble.combine_s": total("ensemble.combine"),
        "metrics.rows": info_sum(["metrics.evaluate"], "rows"),
        "metrics.evaluate_self_s": self_of(["metrics.evaluate"]),
        "rng.calls": len(rng_spans),
        "rng.s": sum(s[3] - s[2] for s in rng_spans if s[4] not in rng_ids),
        "cli.render_s": total("cli._render"),
        "cli.self_s": self_of([n for n in named if n.startswith("cli.")]),
        "cli.concurrency": busy / experiment_wall if experiment_wall else 0.0,
    })
    return out


def self_time_by_layer(trace: dict) -> dict:
    """Summed self time per layer (the first component of a span name)."""
    selfs = _self_times(trace["spans"])
    out = defaultdict(float)
    for s in trace["spans"]:
        out[s[1].split(".", 1)[0]] += selfs[s[0]]
    return dict(sorted(out.items()))


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["mullab.cli"].main(cli_args)  # the wrapped main
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
