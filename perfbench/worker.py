"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed S [--profile tiny]
                                [--mode setup|pass|traced]
    python3 perfbench/worker.py --cli-call -- VERB ARGS...

run.py starts this script with PYTHONPATH pointing at the checkout's src/
and PERFBENCH_SPAWN set to its time.monotonic() just before the start, so
the set-up time covers interpreter start, `import hecke` and building the
inputs.  The worker prints one JSON line.  `--mode setup` stops after the
set-up; `--mode traced` installs the tracer before the timed pass.

`--cli-call` is one traced CLI call: it imports hecke.cli, installs the
tracer, calls `hecke.cli.main(argv)` in-process and reports the trace
summary on the last line of stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import tracing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _check_source(module) -> None:
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hecke was imported from {module.__file__}, "
                         f"not from {SRC}")


def cli_call(argv: list) -> int:
    import hecke.cli
    _check_source(hecke.cli)
    tracer = tracing.Tracer()
    tracer.install()
    rc = hecke.cli.main(argv)
    sys.stdout.flush()
    print(tracing.TRACE_MARK + json.dumps(tracing.summary(tracer)),
          file=sys.stderr)
    return rc


def main() -> int:
    if sys.argv[1:2] == ["--cli-call"]:
        return cli_call(sys.argv[3:] if sys.argv[2:3] == ["--"]
                        else sys.argv[2:])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "pass", "traced"),
                    default="pass")
    args = ap.parse_args()
    spawned = float(os.environ["PERFBENCH_SPAWN"])

    import workloads
    _check_source(workloads.hecke)
    build, run = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed, args.profile)
    setup_s = time.monotonic() - spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    res = run(inputs, tracer)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": res.wall_s, "ops": res.ops,
        "wall_raw_s": res.wall_raw_s, "ops_raw": res.ops_raw,
        "probe_s": res.probe_s,
        "failed": res.failed, "errors": res.errors,
        "transcript": res.digest(), "rss_kb": res.rss_kb,
        "groups": res.groups, "slowest_item_s": res.slowest_item_s,
        "trace": res.trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
