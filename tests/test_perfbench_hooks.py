"""The benchmark's judges and tracer still fit the library.

perfbench reaches into the package by name (the tracer patches functions
such as `certificates._ball_search` and `metrics.commutator`), so a rename
in the library would break the benchmark without failing any other test.
Each check runs in a fresh interpreter, as the benchmark does, and the
last one runs every workload's tiny operations with and without the
tracer, so an observer that no longer fits a result fails here.
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

# every workload's tiny operations, once plain and once under the tracer:
# an observer that reads a reshaped result fails only in the traced run
TRACED_MATCHES_PLAIN = """
import sys
sys.path.insert(0, "perfbench")
import run, spans, workloads
sys.path.insert(0, str(run.SRC))
kg = run.import_kgroups()
ops = [op for name in sorted(workloads.WORKLOADS)
       for op in workloads.WORKLOADS[name](301, True).ops]
plain = [run.call_cli(kg, op.argv) for op in ops]
tracer = spans.install(kg)
try:
    traced = [run.call_cli(kg, op.argv) for op in ops]
finally:
    tracer.restore()
for op, a, b in zip(ops, plain, traced):
    if a.error or a != b:
        print("differs:", op.name, repr(a.error), repr(b.error))
print(len(ops), "operations")
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


def test_traced_operations_match_plain_ones():
    proc = _run(["-c", TRACED_MATCHES_PLAIN])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith(" operations") and int(lines[-1].split()[0]) > 0
    assert lines[:-1] == [], proc.stdout
