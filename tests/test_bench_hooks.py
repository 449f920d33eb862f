"""The benchmark tracer hooks mullab by name from outside the package.  A
renamed function would silently drop out of the trace and read as zero in
every per-layer metric, so these tests pin that every hook resolves and
that tracing leaves reports unchanged."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer
t = tracer.Tracer()
t.install()
print(json.dumps(t.missing))
"""


def test_every_tracer_hook_resolves():
    code = INSTALL.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


TRACE_PREDICTS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer
t = tracer.Tracer()
t.install()
import numpy as np
from mullab import transforms
from mullab.core import Attribute, MLDataset, Schema
from mullab.learners import preset
train = MLDataset(
    Schema((Attribute("a"),), ("L0", "L1")), np.arange(6.0).reshape(6, 1),
    np.array([[1, 0], [1, 1], [0, 1], [0, 0], [1, 0], [0, 1]], bool))
names = []
for model in (transforms.br_fit(train, preset("knn")),
              transforms.rakel_fit(train, preset("knn"), m=2, k=1)):
    first = len(t.spans)
    model.predict_scores_many(train.X)
    names.append([s[1] for s in t.spans[first:]
                  if s[1].startswith("transforms.")
                  and s[1].endswith(".predict_scores_many")])
print(json.dumps(names))
"""


def test_each_multilabel_predict_is_one_span_of_its_own_class():
    # BinaryRelevanceModel reuses RakelModel's predict: a super() call or
    # a class alias would nest a second span or file it under RAKEL
    code = TRACE_PREDICTS.format(src=str(ROOT / "src"),
                                 bench=str(ROOT / "bench"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [
        ["transforms.BinaryRelevanceModel.predict_scores_many"],
        ["transforms.RakelModel.predict_scores_many"]]


def test_bench_self_check_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--self-check"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
