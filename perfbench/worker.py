"""One benchmark operation in a fresh interpreter, as a CLI user runs it.

    python3 perfbench/worker.py '<json request>'

The request names the workload, seed, operation index, work directory,
trace flag, and the runner's monotonic clock reading just before the
spawn.  The worker imports starcurv, writes the
operation's inputs (the end of set-up), times one `starcurv.cli.main`
call, then gates the artifacts and prints one JSON result line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    req = json.loads(sys.argv[1])
    from starcurv import cli
    from starcurv.config import parse_config
    from starcurv.solver import NoConvergence

    import gate
    import spans
    import workloads

    op = workloads.build(req["workload"], req["seed"])[req["op"]]
    cfg_path = workloads.write_inputs(op, Path(req["workdir"]))
    setup_s = time.monotonic() - req["t_spawn"]

    reports = []
    solve = cli.continuity_solve

    def capture(*args, **kwargs):
        try:
            out = solve(*args, **kwargs)
        except NoConvergence as exc:
            reports.append(exc.report)
            raise
        reports.append(out[1])
        return out

    cli.continuity_solve = capture
    recorder = spans.Recorder() if req["trace"] else None
    if recorder:
        recorder.install()
    out, err = io.StringIO(), io.StringIO()
    failures = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([op["command"], str(cfg_path)])
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rc = None
        failures.append(f"{type(exc).__name__}: {exc}")
    op_s = time.perf_counter() - t0
    op_cpu_s = _cpu_seconds() - cpu0
    if recorder:
        recorder.uninstall()
    cli.continuity_solve = solve

    if rc is None:
        attempted = workloads.outcomes(op)
        failures = failures * attempted
    else:
        attempted, failures = gate.run_gate(op, cfg_path, rc, workloads.load_references())
    table = parse_config(cfg_path).node_table_path
    result = {
        "op": op["id"], "command": op["command"],
        "setup_s": setup_s, "op_s": op_s, "op_cpu_s": op_cpu_s,
        "attempted": attempted, "failures": failures,
        "stderr": (err.getvalue().strip().splitlines() or [""])[-1],
        "newton_iters": sum(r.iterations for r in reports if r is not None),
        "stages": sum(len(r.homotopy_t) for r in reports if r is not None),
        "sha256": hashlib.sha256(table.read_bytes()).hexdigest() if table.exists() else None,
        "raw": None,
    }
    if recorder:
        result["raw"] = dict(spans.summarize(recorder.spans, recorder.counts))
        spans_dir = workloads.WORK_DIR / "spans" / req["workload"]
        spans_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(spans_dir / f"{op['id']}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
