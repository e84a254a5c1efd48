"""Benchmark of the hecke package: one workload per call.

    python3 perfbench/run.py --workload registry|centre|session|cli|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/hecke.  A run is a fixed
number of passes, about --seconds of work at the baseline speed; each pass
runs in a fresh interpreter started by this script (worker.py).  With
--trace 0 the last line of stdout is the end-to-end result; with --trace 1
it holds the per-layer metrics, from traced passes interleaved with
untraced ones.  The line before it is the full record: environment, load
averages, per-pass figures, the tail percentile and the failure base.
The exit code is 1 if any output failed its exactness check, 2 if the
checkout holds no src/hecke.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("registry", "centre", "session", "cli")
# Seconds one pass takes at the baseline (2-core Xeon, Python 3.11); a run
# makes round(--seconds / this) passes, so every commit does the same work.
PASS_SECONDS = {"registry": 6.5, "registry-full": 30.0, "centre": 6.5,
                "session": 6.5, "cli": 5.0}
TINY_PASSES = 2
SETUP_PROBES = 5       # set-up-only starts per run
IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0    # every process is stopped before this

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ["algebra.rmul_gen.calls", "algebra.rmul_gen.terms",
     "algebra.rmul_gen.self_s", "algebra.product.calls",
     "algebra.product.self_s", "algebra.is_central.calls",
     "algebra.is_central.self_s", "algebra.module_ops.self_s",
     "algebra.left_mult_matrix.self_s"]
    + [f"laurent.{op}.{k}" for op in ("mul", "add", "gcd", "divexact",
                                      "rational") for k in ("calls", "self_s")]
    + ["linalg.rows_added", "linalg.pivots", "linalg.pivot_yield",
       "linalg.add_rows.self_s", "linalg.solve.self_s",
       "linalg.nullspace.self_s",
       "center.gamma_basis.calls", "center.gamma_basis.self_s",
       "center.invariants.self_s", "center.centre_basis.self_s",
       "center.express.calls", "center.express.self_s",
       "sqrtcenter.eigen_search.calls", "sqrtcenter.eigen_search.self_s",
       "sqrtcenter.in_sqrt.calls", "sqrtcenter.in_sqrt.self_s",
       "sqrtcenter.even_words.self_s",
       "permutations.reduced_word.calls", "permutations.reduced_word.self_s",
       "permutations.enumerate.self_s",
       "elements.build.calls", "elements.build.self_s"]
    + [f"verify.group{g:02d}_s" for g in range(1, 15)]
    + ["verify.slowest_item_s",
       "parsing.parse.calls", "parsing.parse.self_s",
       "parsing.format.self_s", "parsing.json.self_s",
       "cli.import_s", "cli.main.self_s", "trace.overhead_s"])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("pivot_yield") else "count"


def child_env() -> dict:
    """Environment of every process the benchmark starts: hecke from this
    checkout's src/, no gamma disk cache, fixed string hashing, and
    bytecode caches written and used, as in an installed package."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("HECKE_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    def __init__(self, workload: str, seed: int, profile: str):
        self.workload, self.seed, self.profile = workload, seed, profile
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, mode: str) -> dict:
        """Run one worker.  A set-up-only worker's time is normalised by
        probes taken just before and after it (see clock.py)."""
        env = child_env()
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--profile", self.profile,
               "--mode", mode]
        before = clock.probe()
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} pass exceeded the run limit"}
        after = clock.probe()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}"}
        out = json.loads(lines[-1])
        if mode == "setup":
            out["setup_raw_s"] = out["setup_s"]
            out["setup_s"] = clock.normalise(out["setup_s"], before, after)
        return out


def tail(samples: list) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples above it, its
    percentile and the sample count (the maximum when there are fewer)."""
    s = sorted(samples)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def _reference_digest(workload: str, profile: str, seed: int):
    if seed != 0:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["transcript_seed0"][profile].get(workload)


def _check_passes(passes: list, want_digest) -> tuple[int, int, list]:
    """(attempted, failed, errors) over all passes."""
    attempted = failed = 0
    errors = []
    first = want_digest
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            errors.append(p["error"])
            continue
        attempted += len(p["ops"])
        failed += p["failed"]
        errors += p["errors"]
        if first is None:
            first = p["transcript"]
        elif p["transcript"] != first:
            failed += 1
            errors.append("transcript differs from the reference or the "
                          "first pass")
    return attempted, failed, errors[:10]


def _good(passes: list) -> list:
    return [p for p in passes if "error" not in p]


def end_to_end(run: Run, npasses: int) -> tuple[dict, list, dict]:
    setups = [run.spawn("setup") for _ in range(SETUP_PROBES)]
    passes = [run.spawn("pass") for _ in range(npasses)]
    good = _good(passes)
    broken = [s["error"] for s in setups if "error" in s]
    if broken or not good:
        return {}, passes, {"error": broken[0] if broken else
                            "no pass completed"}
    ops = [t for p in good for t in p["ops"]]
    value, pct, count = tail(ops)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in good),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": 1e3 * value,
        "peak_rss_mb": max(p["rss_kb"] for p in good) / 1024,
    }
    raw_ops = [t for p in good for t in p["ops_raw"]]
    extra = {"op_tail_percentile": pct, "op_samples": count,
             "passes": npasses, "setup_samples": len(setups),
             "raw": {"setup_s": statistics.median(s["setup_raw_s"]
                                                  for s in setups),
                     "wall_s": statistics.median(p["wall_raw_s"]
                                                 for p in good),
                     "op_p50_ms": 1e3 * statistics.median(raw_ops),
                     "op_tail_ms": 1e3 * tail(raw_ops)[0]},
             "probe_s": [p["probe_s"] for p in good]}
    return metrics, passes, extra


def _import_seconds() -> float:
    """Median cold `import hecke.cli` minus median bare interpreter start."""
    env = child_env()

    def elapsed(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=60)
        return time.perf_counter() - t0

    bare, cold = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(elapsed("pass"))
        cold.append(elapsed("import hecke.cli"))
    return statistics.median(cold) - statistics.median(bare)


def _layer_value(name: str, traces: list, untraced: list) -> float:
    def total(stat: str, key: str, t: dict) -> float:
        names = ("laurent.add", "laurent.sub") if stat == "laurent.add" \
            else (stat,)
        return sum(t.get(s, {}).get(key, 0) for s in names)

    if name.startswith("verify."):
        key = name[len("verify."):-2]
        vals = [p["slowest_item_s"] if key == "slowest_item"
                else p["groups"].get(key, 0.0) for p in untraced]
        return statistics.median(vals) if vals else 0.0
    if name.startswith("linalg.") and name.count(".") == 1:
        rows = traces[0]["linalg.rows"]["rows_added"]
        piv = traces[0]["linalg.rows"]["pivots"]
        return {"linalg.rows_added": rows, "linalg.pivots": piv,
                "linalg.pivot_yield": piv / rows if rows else 0.0}[name]
    stat, key = name.rsplit(".", 1)
    if key == "self_s":
        return statistics.median(total(stat, key, t) for t in traces)
    return total(stat, key, traces[0])


def _counts(trace: dict) -> dict:
    return {name: (st.get("calls"), st.get("terms"), st.get("rows_added"),
                   st.get("pivots"))
            for name, st in trace.items() if name != "spans"}


def per_layer(run: Run, npasses: int) -> tuple[dict, list, dict]:
    untraced, traced = [], []
    for _ in range(npasses):
        untraced.append(run.spawn("pass"))
        traced.append(run.spawn("traced"))
    good_u, good_t = _good(untraced), _good(traced)
    if not good_u or not good_t:
        return {}, untraced + traced, {}
    traces = [p["trace"] for p in good_t]
    repeat = all(_counts(t) == _counts(traces[0]) for t in traces)
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.import_s":
            metrics[name] = _import_seconds()
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(p["wall_s"] for p in good_t)
                             - statistics.median(p["wall_s"] for p in good_u))
        else:
            metrics[name] = _layer_value(name, traces, good_u)
    extra = {"passes": npasses, "counts_repeat": repeat,
             "spans": traces[0].get("spans"),
             "traced_wall_s": [p["wall_s"] for p in good_t],
             "untraced_wall_s": [p["wall_s"] for p in good_u]}
    if not repeat:
        extra["error"] = "traced passes disagree on exact counts"
    return metrics, untraced + traced, extra


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hecke", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit, "src_sha256": src.hexdigest(),
            "hecke_cache_dir": "unset in every process the benchmark starts",
            "load": "closed loop, one client, one call at a time"}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 profile: str = "full") -> tuple[dict, dict]:
    """(result, record) for one workload; result is the last stdout line."""
    if profile == "tiny":
        npasses = TINY_PASSES
    else:
        npasses = max(1, round(seconds / PASS_SECONDS[workload]))
    # The calibration probes must run on the CPU the work runs on
    # (clock.py); every process this one starts inherits the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Not measured: write the bytecode caches of every module once.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE], env=child_env(),
                   cwd=ROOT, capture_output=True, timeout=120)
    run = Run(workload, seed, profile)
    load_before = os.getloadavg()
    measure = per_layer if trace else end_to_end
    metrics, passes, extra = measure(run, npasses)
    attempted, failed, errors = _check_passes(
        passes, _reference_digest(workload, profile, seed))
    if "error" in extra or not metrics:
        failed += 1
        errors.append(extra.get("error", "no pass completed"))
    units = dict(END_TO_END) if not trace else \
        {name: layer_unit(name) for name in PER_LAYER}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "profile": profile,
              "env": environment(), "load_before": load_before,
              "load_after": os.getloadavg(),
              "fail_ratio": {"failed": failed, "attempted": attempted},
              "errors": errors, **extra,
              "pass_wall_s": [p.get("wall_s") for p in passes]}
    return result, record


def _print_summary(workload: str, result: dict, record: dict) -> None:
    out = sys.stderr
    print(f"{workload}: correct={result['correct']} fail_ratio="
          f"{result['failed']}/{result['attempted']}", file=out)
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{record['op_tail_percentile']:.2f} of "
                    f"{record['op_samples']} samples)")
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}", file=out)
    for err in record["errors"]:
        print(f"  error: {err}", file=out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("registry-full", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "hecke")):
        print(f"error: {ROOT} holds no src/hecke to benchmark",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        _print_summary(name, result, record)
        print(json.dumps(record))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
