#!/usr/bin/env python3
"""confrank benchmark.

    python3 perfbench/run.py --workload train-proposed --seed 0 --seconds 25 --trace 0

Run from the repository root. Each workload runs in its own process, with BLAS
pinned to one thread. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run plus the tracing overhead.
`--workload all` runs every workload, each in a fresh process. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Human-readable lines above it give the environment and every workload metric
by its own name. A result file (and, when traced, the spans) is written under
`.bench_build/perfbench/`. The exit code is nonzero when a correctness check
fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-proposed", "data-io", "serve-rank")


def parse_args(argv):
    p = argparse.ArgumentParser(description="confrank benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run at the tiny test configs (harness self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "confrank", "__init__.py")):
        print(f"error: confrank sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    from bench import run_workload
    return run_workload(args)


def run_all(args) -> int:
    """Every workload in a fresh process, so peak RSS and set-up are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
