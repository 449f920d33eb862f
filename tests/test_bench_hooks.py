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


def test_bench_self_check_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--self-check"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
