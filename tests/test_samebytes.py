"""tools/samebytes.py compares two trees' CLI output on the perfbench argvs."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "samebytes.py"


def samebytes(other):
    return subprocess.run([sys.executable, str(TOOL), str(other), "--tiny"],
                          capture_output=True, text=True, timeout=300)


def test_the_checkout_matches_itself():
    done = samebytes(ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("0 of ")


def test_a_changed_output_byte_is_found_and_its_argv_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    jsonout = tmp_path / "src" / "kgroups" / "jsonout.py"
    text = jsonout.read_text()
    assert text.count('return "".join(out)\n') == 1
    jsonout.write_text(text.replace('return "".join(out)\n',
                                    'return "".join(out) + " "\n'))
    done = samebytes(tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("differs (stdout): seed 301 cayley-ball: metric --group K2_2_2"
            in done.stdout)
    assert " of 22 argvs differ" in done.stdout.splitlines()[-1]
