"""Layered benchmark for ``mullab benchmark`` grids.

One run generates a workload's data from ``--seed``, then either

* ``--trace 0``: times ``load_dataset`` + ``split_dataset`` several times
  (``setup_s``) and runs the workload's grid as a fresh
  ``python -m mullab.cli benchmark`` subprocess, again and again for
  ``--seconds`` seconds, reporting the end-to-end metrics; or
* ``--trace 1``: runs the grid once untraced and once under
  ``bench/tracer.py``, reporting the per-layer metrics.

Every grid report is checked: exit code 0, no failed row, every metric
finite and in [0, 1], the AVERAGE row equal to the mean of the rows, and
the report bytes identical across all grid runs of the invocation (traced
and untraced alike).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage, from the repository root:

    python3 bench/run.py --workload emotions-readme-grid --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 35 --out BENCH_<name>.json
    python3 bench/run.py --self-check

``--all`` runs every workload untraced and traced and writes the results,
run metadata and report digests to ``--out``.  ``--self-check`` checks on a
tiny dataset that tracing leaves the report byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# One BLAS thread per process, so no run uses more threads than cores.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
GRID_TIMEOUT_S = 150
SETUP_REPEATS = 3
SETUP_BLOCK_S = 1.0
METRIC_FIELDS = ("accuracy", "hamming_loss", "one_error", "ranking_loss",
                 "avg_precision")


def _readme_grid():
    exps = [{"name": f"rakel-{short}", "transform": "rakel", "learner": preset}
            for short, preset in (("nb", "nb"), ("knn", "knn"),
                                  ("rt", "random-t"), ("rep", "reptree"),
                                  ("j48", "j48"))]
    exps.append({"name": "ensemble", "transform": "ensemble", "q": 10,
                 "rule": "majority_vote"})
    return exps


# Why each workload exists is written out in bench/README.md.
WORKLOADS = {
    "emotions-readme-grid": {
        "shape": "emotions", "split": (391, 202),
        "experiments": _readme_grid(),
    },
    "scene-wide-knn": {
        "shape": "scene", "split": (1588, 819),
        "experiments": [
            {"name": "br-nb", "transform": "br", "learner": "nb"},
            {"name": "br-knn", "transform": "br", "learner": "knn"},
            {"name": "lp-knn", "transform": "lp", "learner": "knn"},
            {"name": "rakel-knn", "transform": "rakel", "learner": "knn"},
            {"name": "ps-nb", "transform": "ps", "learner": "nb"},
        ],
    },
    "yeast-many-labels": {
        "shape": "yeast", "split": (1500, 917), "workers": 2,
        "experiments": [
            {"name": "br-nb", "transform": "br", "learner": "nb"},
            {"name": "rakel-nb", "transform": "rakel", "learner": "nb", "m": 28},
            {"name": "rakel-knn", "transform": "rakel", "learner": "knn", "m": 28},
            {"name": "lp-nb", "transform": "lp", "learner": "nb"},
            {"name": "ps-knn", "transform": "ps", "learner": "knn"},
        ],
    },
}

# Tiny grid touching every transform and learner family, for --self-check.
SELF_CHECK = {
    "shape": "tiny", "split": (60, 30),
    "experiments": [
        {"name": "br-knn", "transform": "br", "learner": "knn"},
        {"name": "lp-j48", "transform": "lp", "learner": "j48"},
        {"name": "rakel-rt", "transform": "rakel", "learner": "random-t"},
        {"name": "ps-nb", "transform": "ps", "learner": "nb"},
        {"name": "ensemble", "transform": "ensemble", "q": 5,
         "rule": "majority_vote"},
    ],
}

END_TO_END_UNITS = {"grid_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "accuracy": "ratio",
                    "avg_precision": "ratio"}

PER_LAYER_UNITS = {
    "arff.parse_s": "s", "arff.parse_mb_per_s": "MB/s", "arff.bind_s": "s",
    "arff.split_s": "s",
    "core.subset_calls": "count", "core.subset_s": "s",
    "core.features_calls": "count",
    "learners.fit_calls": "count", "learners.fit_rows": "count",
    "learners.predict_rows": "count",
    "learners.fit_s.knn": "s", "learners.fit_s.nb": "s",
    "learners.fit_s.tree": "s", "learners.predict_s.knn": "s",
    "learners.predict_s.nb": "s", "learners.predict_s.tree": "s",
    "learners.classes": "count", "learners.tree_nodes": "count",
    "learners.tree_depth_max": "count",
    "transforms.models": "count", "transforms.fit_self_s": "s",
    "transforms.predict_self_s": "s",
    "ensemble.members": "count", "ensemble.fit_self_s": "s",
    "ensemble.combine_s": "s",
    "metrics.rows": "count", "metrics.evaluate_self_s": "s",
    "rng.calls": "count", "rng.s": "s",
    "cli.render_s": "s", "cli.self_s": "s", "cli.concurrency": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no mullab source tree)."""


# ---------------------------------------------------------------------------
# workload files
# ---------------------------------------------------------------------------

class Workspace:
    """A working directory inside the source tree holding one run's files."""

    def __init__(self, tag: str):
        self.dir = WORK / f"{tag}-{os.getpid()}"

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def path(self, name: str) -> Path:
        return self.dir / name


def write_workload(ws: Workspace, workload: dict, seed: int) -> dict:
    """Generate the data, write ARFF, label names and config; return stats."""
    import datagen  # imports numpy, so only after prepare() pinned BLAS

    g = datagen.generate(workload["shape"], seed)
    text = datagen.arff_text(g, workload["shape"])
    ws.path("data.arff").write_text(text, encoding="utf-8")
    ws.path("labels.txt").write_text(datagen.label_names_text(g),
                                     encoding="utf-8")
    n_train, n_test = workload["split"]
    config = {
        "dataset": {"path": "data.arff", "labels": "labels.txt"},
        "split": {"train": n_train, "test": n_test},
        "seed": 7,
        "threshold": 0.5,
        "format": "csv",
        "experiments": workload["experiments"],
    }
    if "workers" in workload:
        config["workers"] = workload["workers"]
    ws.path("grid.json").write_text(json.dumps(config, indent=2),
                                    encoding="utf-8")
    return {"rows": int(g.x.shape[0]), "features": int(g.x.shape[1]),
            "labels": int(g.y.shape[1]), "lcard": round(g.lcard, 4),
            "distinct_labelsets": g.distinct, "arff_bytes": len(text)}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# grid runs and report checks
# ---------------------------------------------------------------------------

def run_grid(ws: Workspace, traced: bool, index: int) -> dict:
    """One ``mullab benchmark`` subprocess, timed from spawn to exit."""
    out = ws.path(f"report-{index}.csv")
    spans = ws.path(f"spans-{index}.json")
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans)]
    else:
        cmd = [sys.executable, "-m", "mullab.cli"]
    cmd += ["benchmark", "--config", "grid.json", "--out", out.name]
    with open(ws.path("stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ws.dir, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        # A grid that hangs is killed, so the run still ends in time; its
        # rows then count as failed.
        killer = threading.Timer(GRID_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "exit": proc.returncode,
        "grid_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "report": out.read_bytes() if out.exists() else b"",
        "stderr": ws.path("stderr.txt").read_text(errors="replace")[-2000:],
    }
    if traced and spans.exists():
        result["trace"] = json.loads(spans.read_text(encoding="utf-8"))
    return result


def check_report(report: bytes, names: list[str]) -> tuple[dict, int, list[str]]:
    """Parse a CSV report; return (AVERAGE row, failed rows, problems)."""
    problems = []
    rows = list(csv.reader(io.StringIO(report.decode("utf-8", "replace"))))
    if not rows or rows[0] != ["experiment", *METRIC_FIELDS]:
        return {}, len(names), ["report has no CSV header"]
    body = {r[0]: r[1:] for r in rows[1:] if r}
    failed = 0
    values = []
    for name in names:
        cells = body.get(name)
        if cells is None or any(c == "" for c in cells):
            failed += 1
            continue
        try:
            row = [float(c) for c in cells]
        except ValueError:
            row = [math.nan]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in row):
            problems.append(f"{name}: metric not a number in [0, 1]: {cells}")
        else:
            values.append(row)
    if failed:
        problems.append(f"{failed} failed experiment row(s)")
    if [r[0] for r in rows[1:] if r] != names + ["AVERAGE"]:
        problems.append("report rows do not match the grid's experiments")
    try:
        average = dict(zip(METRIC_FIELDS, map(float, body.get("AVERAGE", []))))
    except ValueError:
        average = {}
    if len(average) != len(METRIC_FIELDS):
        problems.append("report has no AVERAGE row")
    elif values:
        for k, field in enumerate(METRIC_FIELDS):
            mean = sum(v[k] for v in values) / len(values)
            if abs(mean - average[field]) > 1.5e-6:  # 6-decimal rounding
                problems.append(f"AVERAGE {field} is not the row mean")
    return average, failed, problems


class Checker:
    """Accumulates attempted/failed rows and correctness across grid runs."""

    def __init__(self, names: list[str]):
        self.names = names
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: bytes | None = None
        self.average: dict = {}

    def add(self, run: dict, label: str) -> None:
        self.attempted += len(self.names)
        if run["exit"] != 0:
            self.failed += len(self.names)
            self.problems.append(f"{label}: exit {run['exit']}: {run['stderr']}")
            return
        average, failed, problems = check_report(run["report"], self.names)
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]
        if self.report is None:
            self.report, self.average = run["report"], average
        elif run["report"] != self.report:
            self.problems.append(f"{label}: report bytes differ from run 0")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report or b"").hexdigest()


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

class SetupTimer:
    """``load_dataset`` + ``split_dataset`` wall times, imports excluded.

    Each ``block`` repeats the pair at least SETUP_REPEATS times and for at
    least SETUP_BLOCK_S seconds.  Blocks run between grid runs, so the
    reported median samples the whole run rather than one moment of it.
    """

    def __init__(self, ws: Workspace):
        import mullab  # from SRC, put on sys.path by prepare()

        self._mullab = mullab
        self._path = ws.path("data.arff")
        config = json.loads(ws.path("grid.json").read_text(encoding="utf-8"))
        self._labels = mullab.LabelSpec.from_names(
            mullab.read_label_names(ws.path("labels.txt")))
        self._split = mullab.SplitSpec(
            counts=(config["split"]["train"], config["split"]["test"]),
            seed=config["seed"])
        self.times: list[float] = []

    def block(self) -> None:
        began = time.perf_counter()
        for rep in itertools.count():
            if rep >= SETUP_REPEATS and time.perf_counter() - began >= SETUP_BLOCK_S:
                return
            start = time.perf_counter()
            data = self._mullab.load_dataset(self._path, self._labels)
            self._mullab.split_dataset(data, self._split)
            self.times.append(time.perf_counter() - start)
            del data


def measure(workload: dict, seed: int, seconds: float, trace: bool,
            tag: str) -> dict:
    names = [e["name"] for e in workload["experiments"]]
    checker = Checker(names)
    load_before = os.getloadavg()
    with Workspace(tag) as ws:
        stats = write_workload(ws, workload, seed)
        if trace:
            plain = run_grid(ws, traced=False, index=0)
            checker.add(plain, "untraced grid")
            traced = run_grid(ws, traced=True, index=1)
            checker.add(traced, "traced grid")
            spans = traced.get("trace") or {"spans": [], "missing": []}
            metrics = tracer.layer_metrics(spans)
            metrics["trace.overhead_s"] = traced["grid_s"] - plain["grid_s"]
            detail = {"untraced_grid_s": plain["grid_s"],
                      "traced_grid_s": traced["grid_s"],
                      "spans": len(spans["spans"]),
                      "span_cost_estimate_s": (len(spans["spans"])
                                               * tracer.span_cost_s()),
                      "missing": spans["missing"],
                      "self_s_by_layer": tracer.self_time_by_layer(spans)}
            units = PER_LAYER_UNITS
        else:
            setup = SetupTimer(ws)
            runs = []
            start = time.perf_counter()
            setup.block()
            while True:
                began = time.perf_counter()
                run = run_grid(ws, traced=False, index=len(runs))
                checker.add(run, f"grid {len(runs)}")
                runs.append(run)
                setup.block()
                cycle = time.perf_counter() - began
                if time.perf_counter() - start + cycle > seconds:
                    break
            metrics = {k: statistics.median(r[k] for r in runs)
                       for k in ("grid_s", "cpu_s", "peak_rss_mb")}
            metrics["setup_s"] = statistics.median(setup.times)
            metrics["accuracy"] = checker.average.get("accuracy", 0.0)
            metrics["avg_precision"] = checker.average.get("avg_precision", 0.0)
            detail = {"grid_runs": len(runs),
                      "grid_s_all": [r["grid_s"] for r in runs],
                      "setup_runs": len(setup.times)}
            units = END_TO_END_UNITS
    detail.update({"data": stats, "report_sha256": checker.sha256,
                   "problems": checker.problems,
                   "load_avg": [load_before, os.getloadavg()]})
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository (the benchmark may run from an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_version,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_PINS["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def prepare() -> None:
    """Pin BLAS threads, then make this tree's mullab importable."""
    if not (SRC / "mullab" / "__init__.py").is_file():
        raise BenchError(f"no mullab source tree under {SRC}")
    os.environ.update(BLAS_PINS)  # before numpy is imported below
    sys.path.insert(0, str(SRC))
    import mullab

    if Path(mullab.__file__).resolve().parent != SRC / "mullab":
        raise BenchError(f"imported mullab from {mullab.__file__}, not {SRC}")


def print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:22s} {metric:28s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"workload": name, **result["detail"]}, sort_keys=True))


def self_check() -> bool:
    """Tracing must not change results: traced and untraced reports of a
    tiny grid are byte-identical."""
    result = measure(SELF_CHECK, 0, 0, True, "self-check")
    detail = result["detail"]
    print("self-check:", "; ".join(detail["problems"]) or "traced == untraced",
          f"(missing trace targets: {detail['missing']})"
          if detail["missing"] else "")
    return result["correct"]


def run_all(args) -> int:
    ok = self_check()
    summary = {"meta": run_metadata(), "seed": args.seed,
               "seconds": args.seconds, "self_check": ok, "workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = {}
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace, name)
            print_result(name, result)
            ok = ok and result["correct"]
            entry["traced" if trace else "untraced"] = result
        summary["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--out", help="summary file written by --all")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    try:
        prepare()
        if args.self_check:
            return 0 if self_check() else 1
        if args.all:
            if not args.out:
                ap.error("--all needs --out")
            return run_all(args)
        if not args.workload:
            ap.error("give --workload, --all or --self-check")
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.workload)
        result["detail"]["meta"] = run_metadata()
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
