"""Compare the CLI's output bytes of two source trees on the perfbench argvs.

Usage: python tools/samebytes.py OTHER_TREE [--seeds 301 7777] [--tiny]

OTHER_TREE is another checkout of the repository (a directory holding
``src/kgroups``).  For each tree, this checkout's and OTHER_TREE's, one
fresh interpreter imports ``kgroups`` from that tree's ``src`` and calls
``kgroups.cli.main(argv)`` once for every operation of the four perfbench
workloads at each seed, in workload order, with standard output and
standard error captured as ``perfbench/run.py``'s ``call_cli`` captures
them.  The argvs come from this checkout's ``perfbench/workloads.py``
(``--tiny``: the tiny workloads), so both trees run the same commands.

For each argv the sha256 of stdout, the sha256 of stderr and the exit code
(or the name of the exception the call raised) are compared.  Each argv
that differs is printed, then a summary line.  The exit code is 0 only if
nothing differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def outcomes(src: Path, seeds, tiny: bool) -> list:
    """[seed, workload, argv, stdout sha256, stderr sha256, code] per call,
    run in this interpreter with ``kgroups`` imported from ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import kgroups.cli
    from workloads import WORKLOADS

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    rows = []
    for seed in seeds:
        for name, build in WORKLOADS.items():
            for op in build(seed, tiny).ops:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = kgroups.cli.main(op.argv)
                except (Exception, SystemExit) as e:
                    code = type(e).__name__
                rows.append([seed, name, op.argv, digest(out.getvalue()),
                             digest(err.getvalue()), code])
    return rows


def run_tree(tree: Path, seeds, tiny: bool) -> list:
    """``outcomes`` for ``tree/src``, in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--emit", str(tree / "src"),
           "--seeds", *map(str, seeds)] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit("samebytes: the run over %s failed:\n%s"
                         % (tree, done.stderr))
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", nargs="?", type=Path,
                   help="the other checkout's root")
    p.add_argument("--seeds", type=int, nargs="+", default=[301, 7777])
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.emit is not None:
        rows = outcomes(args.emit, args.seeds, args.tiny)
        sys.stdout.write(json.dumps(rows))
        return 0
    if args.other is None:
        p.error("OTHER_TREE is required")
    mine = run_tree(ROOT, args.seeds, args.tiny)
    theirs = run_tree(args.other.resolve(), args.seeds, args.tiny)
    if [r[:3] for r in mine] != [r[:3] for r in theirs]:
        raise SystemExit("samebytes: the two runs called different argvs")
    differ = 0
    for a, b in zip(mine, theirs):
        if a[3:] != b[3:]:
            differ += 1
            parts = [name for name, x, y in zip(("stdout", "stderr", "code"),
                                                a[3:], b[3:]) if x != y]
            print("differs (%s): seed %d %s: %s" % (
                ", ".join(parts), a[0], a[1], shlex.join(a[2])))
    print("%d of %d argvs differ (seeds %s%s)" % (
        differ, len(mine), " ".join(map(str, args.seeds)),
        ", tiny" if args.tiny else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
