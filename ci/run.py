"""Runs the checks beyond tier-1: every script in ci/ but this one and the
_-prefixed helpers, in sorted order, each in a fresh interpreter (the
n = 7 centrality check fails once S_7 is numbered in its process) from
the repo root with PYTHONPATH=src:tests:perfbench.  Each check's output
passes through, followed by PASS or FAIL, its name and its seconds; the
exit status is nonzero when any check fails.

    python ci/run.py
"""
import os, subprocess, sys, time
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent


def steps():
    return sorted(p for p in HERE.parent.glob("*.py")
                  if p != HERE and not p.name.startswith("_"))


def run(scripts):
    """Runs each of scripts as a check; returns how many failed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "tests", "perfbench"]))
    failed = 0
    for script in scripts:
        start = time.perf_counter()
        code = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env).returncode
        took = time.perf_counter() - start
        print(f"{'FAIL' if code else 'PASS'} {Path(script).stem} {took:.1f}", flush=True)
        failed += code != 0
    return failed


if __name__ == "__main__":
    sys.exit(run(steps()) > 0)
