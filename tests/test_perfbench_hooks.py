"""The benchmark's judges and tracer still fit the library.

perfbench reaches into the package by name (the tracer patches functions
such as `certificates._ball_search` and `metrics.commutator`), so a rename
in the library would break the benchmark without failing any other test.
Each check runs in a fresh interpreter, as the benchmark does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_AND_RESTORE = """
import sys
sys.path.insert(0, "perfbench")
import run, spans
sys.path.insert(0, str(run.SRC))
tracer = spans.install(run.import_kgroups())
tracer.restore()
print("restored")
"""


def _run(args):
    return subprocess.run([sys.executable] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_benchmark_selfcheck_passes():
    proc = _run(["perfbench/selfcheck.py"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: all passed" in proc.stdout


def test_tracer_installs_and_restores():
    proc = _run(["-c", INSTALL_AND_RESTORE])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["restored"]
