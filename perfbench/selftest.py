"""Self-test of the benchmark harness at tiny sizes (n <= 4, a handful of
operations per workload).  About a minute:

    python3 perfbench/selftest.py

It checks that every workload runs clean through the same code run.py
uses, that the printed metrics are exactly the ones BENCHMARK.json names,
that two traced runs repeat their exact counts, that the exactness gates
reject wrong outputs, and that a directory without src/hecke is refused.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import hecke  # noqa: E402
import workloads  # noqa: E402

COUNT_KEYS = (".calls", ".terms", "rows_added", "pivots")


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def test_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "end_to_end metrics differ from run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(n, run.layer_unit(n)) for n in run.PER_LAYER],
          "per_layer metrics differ from run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workloads differ from run.py")


def test_workloads() -> None:
    for name in run.WORKLOADS:
        result, record = run.run_workload(name, 0, 1, False, "tiny")
        check(result["correct"] and result["failed"] == 0,
              f"{name}: {record['errors']}")
        check(list(result["metrics"]) == [m for m, _ in run.END_TO_END],
              f"{name}: end-to-end metrics missing")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{name}: a metric reads 0")
        counts = []
        for _ in range(2):
            result, record = run.run_workload(name, 0, 1, True, "tiny")
            check(result["correct"], f"{name} traced: {record['errors']}")
            check(list(result["metrics"]) == list(run.PER_LAYER),
                  f"{name}: per-layer metrics missing")
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if k.endswith(COUNT_KEYS)})
        check(counts[0] == counts[1], f"{name}: traced counts do not repeat")
        check(counts[0]["algebra.rmul_gen.calls"] > 0,
              f"{name}: tracing counted no generator steps")
        print(f"ok {name}", flush=True)


def test_gates() -> None:
    a = hecke.parse_element("T[1] + 2*T[2]", 3)
    b = hecke.parse_element("q*T[1,2]", 3)
    good = a * b
    check(workloads._check_session("mul", 3, (), hecke.format_element(good),
                                   (a, b, good)) is None, "exact product refused")
    bad = good + hecke.parse_element("T[]", 3)
    check(workloads._check_session("mul", 3, (), hecke.format_element(bad),
                                   (a, b, bad)) is not None,
          "wrong product accepted")
    check(workloads._check_session("central", 3, ("@x",), "false",
                                   (hecke.x_elem(3), False)) is not None,
          "central reference called non-central accepted")
    passes = [{"ops": [0.1], "failed": 0, "errors": [], "transcript": "x"}]
    check(run._check_passes(passes, "y")[1] == 1, "wrong transcript accepted")
    check(workloads._check_cli(["verify", "--n-max", "3"], 0,
                               "report\nn_max=3\nitems=9 fail=1\n") is not None,
          "failed verify accepted")
    print("ok gates", flush=True)


def test_refuses_bare_directory() -> None:
    bare = os.path.join(run.ROOT, ".perfbench-selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "registry",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a directory without src/hecke was benchmarked")
    print("ok bare directory refused", flush=True)


def main() -> int:
    test_benchmark_json()
    test_gates()
    test_refuses_bare_directory()
    test_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
