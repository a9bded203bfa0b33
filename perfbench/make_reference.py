"""Regenerate reference.json: kappa_max of every solve the seeds can draw.

    python3 perfbench/make_reference.py

Solves the e_z-axis problems of aniso-64x128 and spaceform-sweep for each
epsilon in workloads.EPSILONS, gates each one (residual, cone, barriers)
and stores its kappa_max.  Run it only when the discretization changes on
purpose; the benchmark compares every later solve against these values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from starcurv import cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def cases():
    for eps in workloads.EPSILONS:
        yield 0, 64, 1.0, eps
        for K, r_bar in workloads.SWEEP_RBAR.items():
            yield K, 32, r_bar, eps


def main() -> int:
    os.environ["STARCURV_SERIAL"] = "1"
    refs = {}
    workloads.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
        for K, n_theta, r_bar, eps in cases():
            key = workloads.reference_key(K, n_theta, r_bar, eps)
            cfg_path = Path(tmp) / "run.cfg"
            cfg_path.write_text(workloads.aniso_config(K, n_theta, r_bar, eps))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["solve", str(cfg_path)])
            _, field, state = gate.load_solution(cfg_path)
            refs[key] = gate.kappa_max(state)
            check = {"K": K, "r_bar": r_bar, "epsilon": eps, "ref_key": key,
                     "ref_rtol": workloads.EXACT_RTOL}
            _, failures = gate.gate_solve(check, cfg_path, rc, refs)
            print(f"{key}: kappa_max {refs[key]!r} rho [{field.values.min():.6f}, "
                  f"{field.values.max():.6f}] {failures or 'ok'}", flush=True)
            if failures:
                return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
