"""Every workload's metrics and correctness gates in one command.

    python3 perfbench/report.py [--seed 0] [--seconds 40] [--trace 0|1]

Runs run.py once per workload (all four, each in a fresh process so
peak memory is per workload), prints each metric table, then one
summary line per workload with its fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            summary.append(f"{name:16s} run.py exit {proc.returncode}")
            continue
        result = json.loads(lines[-1])
        summary.append(f"{name:16s} correct={result['correct']!s:5s} "
                       f"fail_ratio={result['failed']}/{result['attempted']}")
    print("# summary")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
