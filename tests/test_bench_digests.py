"""The benchmark's three grids keep their report bytes.  Byte-identical
reports are how a change shows that behaviour held, so the CSV report of
each ``bench/run.py`` workload on seed-1 ``bench/datagen.py`` data is
pinned by its SHA-256.  A deliberate fidelity fix re-pins these digests
and lists the old and new values."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "emotions-readme-grid":
        "46d47f719b6220940a55409e95bea5608b7e08d0b8c1bb0b1fc5ca7d3967aea8",
    "scene-wide-knn":
        "30f2208abad766b6d14fb87c4e007c3b4d0716812890d60707449dae3f6a5db1",
    "yeast-many-labels":
        "f20b55cd6ffb6efa38a6154f05e7cf57f44ae7e6224bb2ef969159d4b56c194b",
}

# One process for all three grids.  ``run.prepare`` pins one BLAS thread
# before numpy is imported, for datagen's matrix products as well as the
# grids'; the workloads and their files come from bench/run.py itself.
RUN_GRIDS = """
import hashlib, json, os, sys
from pathlib import Path
sys.path.insert(0, {bench!r})
import run
run.prepare()
from mullab import cli

class Dir:
    def __init__(self, path):
        self.dir = path
        path.mkdir()

    def path(self, name):
        return self.dir / name

digests = {{}}
for name, workload in run.WORKLOADS.items():
    ws = Dir(Path({tmp!r}) / name)
    run.write_workload(ws, workload, 1)
    os.chdir(ws.dir)  # the config names its data files relative to it
    code = cli.main(["benchmark", "--config", "grid.json", "--out",
                     "report.csv"])
    digests[name] = (code, hashlib.sha256(
        ws.path("report.csv").read_bytes()).hexdigest())
print(json.dumps(digests))
"""


def test_benchmark_reports_keep_their_digests(tmp_path):
    code = RUN_GRIDS.format(bench=str(ROOT / "bench"), tmp=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {name: [0, digest] for name, digest in DIGESTS.items()}
