"""tools/pairs.py runs perfbench in two trees and checks the bounds."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_toy_amalgam_pair_of_the_checkout_against_itself():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT),
                           "--workload", "toy-amalgam", "--pairs", "1",
                           "--seconds", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for spec in end_to_end:
        assert any(line.startswith(spec["name"] + " ") for line in lines)
    assert lines[-1].startswith("pair 1 seed 301, other first: other 1 rounds"
                                " correct True failed 0;")


def test_a_setup_30_percent_slower_is_flagged():
    pairs = load_pairs()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = {spec["name"]: 1.0 for spec in end_to_end}
    theirs = [{"metrics": dict(base)} for _ in range(3)]
    mine = [{"metrics": dict(base, setup_s=1.3)} for _ in range(3)]
    rows = pairs.summarize(theirs, mine, end_to_end)
    flagged = [name for name, *_, flag in rows if flag]
    assert flagged == ["setup_s"]
    (name, ma, quart, mb, wins, worse, _), = [r for r in rows
                                              if r[0] == "setup_s"]
    assert (ma, quart, mb, wins) == (1.0, (1.0, 1.0), 1.3, 0)
    assert abs(worse - 0.3) < 1e-9
    # within the bound, or better, is not flagged
    mine = [{"metrics": dict(base, setup_s=1.2, verified_per_s=2.0)}]
    assert not any(r[-1] for r in pairs.summarize(theirs[:1], mine,
                                                  end_to_end))
