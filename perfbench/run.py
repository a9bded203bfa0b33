"""Outside-in benchmark of starcurv: a single-threaded closed-loop client.

    python3 perfbench/run.py --workload aniso-64x128 --seed 0 --seconds 40 --trace 0

Runs the workload's operations in cycles, each operation in a fresh
worker process (worker.py), until --seconds have passed and at least two
cycles (four when traced) are done.  Prints a table of every metric with unit,
median, high percentile and sample count, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A traced
run alternates traced and untraced cycles; the difference is
trace.overhead_s.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
WORK = workloads.WORK_DIR
# every run must end within 180 s, the first one in a checkout included
HARD_LIMIT_S = 170.0
DIAGNOSTIC_LAYERS = ("geometry.identity.s", "prescription.check.s")
# wall-clock solve time moves with host CPU steal, so it is printed but
# not part of the JSON result; solve_cpu_s is the gated solve time
TABLE_ONLY = ("solve_s",)


def _median(values):
    return statistics.median(values) if values else None


def _high_percentile(values):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", statistics.quantiles(values, n=1000)[int(p * 10) - 1]
    return None, None


class Run:
    def __init__(self, args):
        self.args = args
        self.ops = workloads.build(args.workload, args.seed)
        self.env = dict(os.environ)
        self.env.pop("STARCURV_SERIAL", None)   # the Jacobian pool stays at its default
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p)
        self.cycles = []      # (traced, [result per op])
        self.timed_out = False

    def run_op(self, index, workdir, traced, deadline):
        req = {"workload": self.args.workload, "seed": self.args.seed, "op": index,
               "workdir": str(workdir), "trace": traced, "t_spawn": time.monotonic()}
        op = self.ops[index]
        failed = {"op": op["id"], "command": op["command"],
                  "attempted": workloads.outcomes(op), "setup_s": None, "op_s": None,
                  "op_cpu_s": None, "newton_iters": 0,
                  "stages": 0, "sha256": None, "raw": None}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(req)],
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return {**failed, "failures": ["killed at the run's time limit"]}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {**failed, "failures": [f"worker exit {proc.returncode}: {tail}"]}
        return json.loads(lines[-1])

    def loop(self):
        traced_mode = bool(self.args.trace)
        min_cycles = 4 if traced_mode else 2
        t_start = time.monotonic()
        deadline = t_start + HARD_LIMIT_S
        WORK.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            while len(self.cycles) < min_cycles or time.monotonic() - t_start < self.args.seconds:
                c0 = time.monotonic()
                traced = traced_mode and len(self.cycles) % 2 == 0
                results = []
                for i, op in enumerate(self.ops):
                    workdir = tmp / f"{len(self.cycles)}-{op['id']}"
                    results.append(self.run_op(i, workdir, traced, deadline))
                    shutil.rmtree(workdir, ignore_errors=True)
                    if self.timed_out:
                        break
                self.cycles.append((traced, results))
                took = time.monotonic() - c0
                if self.timed_out or time.monotonic() + 1.5 * took > deadline:
                    break
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def check_repeats(self):
        """Repeat executions of an operation must agree exactly: node table
        bytes, Newton and stage counts, and (traced) every per-layer count."""
        first, first_counts = {}, {}
        for traced, results in self.cycles:
            for r in results:
                if r["setup_s"] is None:
                    continue
                key = (r["sha256"], r["newton_iters"], r["stages"])
                if first.setdefault(r["op"], key) != key:
                    r["failures"].append("differs from the first execution of this operation")
                if r["raw"] is not None:
                    counts = {k: v for k, v in r["raw"].items() if spans.is_count(k)}
                    if first_counts.setdefault(r["op"], counts) != counts:
                        r["failures"].append("per-layer counts differ between repeat runs")

    def cycle_stats(self, traced):
        """Per-cycle samples of the cycle-level end-to-end metrics."""
        out = {"solve_s": [], "solve_cpu_s": [], "verify_s": [], "newton_iters": [],
               "homotopy_stages": []}
        for was_traced, results in self.cycles:
            if was_traced != traced:
                continue
            solves = [r for r in results if r["command"] == "solve"]
            passed = [r for r in solves if not r["failures"]]
            if passed:
                out["solve_s"].append(sum(r["op_s"] for r in passed) / len(passed))
                out["solve_cpu_s"].append(sum(r["op_cpu_s"] for r in passed) / len(passed))
            if solves:
                out["newton_iters"].append(sum(r["newton_iters"] for r in solves))
                out["homotopy_stages"].append(sum(r["stages"] for r in solves))
            diag = [r["op_s"] for r in results if r["command"] != "solve"]
            if diag and all(t is not None for t in diag):
                out["verify_s"].append(sum(diag))
        return out

    def layer_samples(self):
        samples = {}
        for traced, results in self.cycles:
            if not traced or any(r["raw"] is None for r in results):
                continue
            raw = Counter()
            for r in results:
                raw.update(r["raw"])
            for name, (value, unit) in spans.derive(raw).items():
                samples.setdefault(name, (unit, []))[1].append(value)
        return samples


def _row(name, unit, values):
    if not values:
        return f"{name:38s} {unit:16s} {'no samples':>14s}"
    label, high = _high_percentile(values)
    high_txt = f"{label}={high:.6g}" if label else "p_high=n/a"
    return (f"{name:38s} {unit:16s} median={statistics.median(values):<12.6g} "
            f"{high_txt:18s} max={max(values):<12.6g} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "starcurv" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no starcurv sources under {ROOT}", file=sys.stderr)
        return 2

    run = Run(args)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workloads.WORKLOADS[args.workload]}")
    print(f"# env nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
          f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} "
          "jacobian_pool=default (STARCURV_SERIAL unset)")
    run.loop()
    run.check_repeats()

    attempted = failed = 0
    for c, (traced, results) in enumerate(run.cycles):
        for r in results:
            attempted += r["attempted"]
            failed += min(r["attempted"], len(r["failures"]))
            status = "ok"
            if r["failures"]:
                status = "FAIL " + "; ".join(r["failures"][:3])
                if r.get("stderr"):
                    status += f" [{r['stderr']}]"
            op_s = f"{r['op_s']:.3f}" if r["op_s"] is not None else "-"
            print(f"# cycle {c}{' traced' if traced else ''} {r['op']}: op_s={op_s} "
                  f"newton_iters={r['newton_iters']} stages={r['stages']} {status}")

    has_solves = any(op["command"] == "solve" for op in run.ops)
    stats = run.cycle_stats(traced=False)
    e2e = {"setup_s": ("s", [r["setup_s"] for _, rs in run.cycles for r in rs
                             if r["setup_s"] is not None])}
    if has_solves:
        for name, unit in (("solve_s", "s"), ("solve_cpu_s", "s"), ("newton_iters", "count"),
                           ("homotopy_stages", "count")):
            e2e[name] = (unit, stats[name])
    else:
        e2e["verify_s"] = ("s", stats["verify_s"])
    e2e["peak_rss_mb"] = ("MB", [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0])

    print("# end-to-end (untraced cycles)")
    for name, (unit, values) in e2e.items():
        print(_row(name, unit, values))
    print(f"{'fail_ratio':38s} {'failed/attempted':16s} {failed}/{attempted} = "
          f"{failed / max(attempted, 1):.4g}")

    metrics = {}
    if args.trace:
        layers = run.layer_samples()
        if has_solves:
            layers = {k: v for k, v in layers.items()
                      if k not in DIAGNOSTIC_LAYERS and not k.startswith("verify.")}
        timed = "solve_s" if has_solves else "verify_s"
        traced_t = _median(run.cycle_stats(traced=True)[timed])
        untraced_t = _median(stats[timed])
        if traced_t is not None and untraced_t is not None:
            layers["trace.overhead_s"] = ("s", [traced_t - untraced_t])
        print("# per layer (traced cycles)")
        for name, (unit, values) in layers.items():
            print(_row(name, unit, values))
        source = layers
    else:
        source = e2e
    for name, (unit, values) in source.items():
        if values and name not in TABLE_ONLY:
            metrics[name] = {"value": _median(values), "unit": unit}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
