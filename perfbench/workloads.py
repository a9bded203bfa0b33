"""Workload definitions: seeded inputs, known outcomes and gate references.

A workload is a fixed list of operations.  Each operation is one
`starcurv solve|check|verify <config>` call plus what its correctness gate
needs.  Everything here is a pure function of (workload, seed), so the
runner and each worker process rebuild the same list independently.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS_DIR = ROOT / "configs"
# scratch space of every run, inside the checkout
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_PATH = HERE / "reference.json"

NEWTON_TOL = 1e-11
# epsilon is drawn from this grid so that every seed has a stored reference
EPSILONS = tuple(round(0.15 + 0.01 * i, 2) for i in range(11))
HEADLINE_EPSILON = 0.2
# r_bar per ambient curvature in the space-form sweep
SWEEP_RBAR = {-1: 1.0, 0: 1.0, 1: 0.8}
# the verify command reports this many properties
VERIFY_PROPERTIES = 24

# kappa_max tolerances, relative.  EXACT: same discrete problem as the
# stored reference (the converged fields agree to newton_tol).  TILT: the
# continuous problem is rotation invariant, so a tilted axis has the e_z
# solution's kappa_max up to the 32x64 discretization and node-sampling
# error; 1e-3 is still 6x below the anisotropic effect itself (kappa_max
# is 1.0064 at epsilon = 0.2).  REFINE: the 128x256 solution against the
# 64x128 one; from 32x64 to 64x128 kappa_max moves by 4e-6.
EXACT_RTOL = 1e-8
TILT_RTOL = 1e-3
REFINE_RTOL = 1e-4

# known verdicts of `starcurv check` on the example configs; round_sphere
# has constant psi, so monotonicity fails by design
CHECK_VERDICTS = {
    "anisotropic.cfg": {"barrier_low_ok": "true", "barrier_high_ok": "true",
                        "monotone_ok": "true"},
    "hyperbolic_check.cfg": {"barrier_low_ok": "true", "barrier_high_ok": "true",
                             "monotone_ok": "true"},
    "round_sphere.cfg": {"monotone_ok": "false"},
}

WORKLOADS = {
    "aniso-64x128": "headline anisotropic problem at 64x128; Jacobian "
                    "assembly and splu do the work",
    "spaceform-sweep": "the problem at 32x64 in K = -1, 0, +1 plus the round "
                       "sphere; per-evaluation overhead weighs more",
    "polar-stress": "128x256 headline plus tilted axes at 32x64; the polar "
                    "rows of the FD Jacobian decide the outcome",
    "diagnostics": "verify at 128x256 and check on the three configs; no "
                   "Newton solve",
}


def seeded_epsilon(seed: int) -> float:
    """Seed 0 is the ROADMAP case; other seeds draw from EPSILONS."""
    if seed == 0:
        return HEADLINE_EPSILON
    return random.Random(seed).choice(EPSILONS)


def reference_key(K: int, n_theta: int, r_bar: float, eps: float) -> str:
    return f"K{K:+d}-{n_theta}x{2 * n_theta}-rbar{r_bar:g}-eps{eps:.2f}"


def aniso_config(K: int, n_theta: int, r_bar: float, eps: float,
                 axis=(0.0, 0.0, 1.0)) -> str:
    """Config text for psi = anisotropic(round_target(r_bar, m=4), eps, axis)."""
    ax, ay, az = (repr(float(c)) for c in axis)
    return "\n".join([
        f"model.K = {K}",
        f"grid.n_theta = {n_theta}",
        f"grid.n_phi = {2 * n_theta}",
        "problem.k = 2",
        "psi.family = anisotropic",
        "psi.base_family = round_target",
        f"psi.r_bar = {r_bar!r}",
        "psi.m = 4.0",
        f"psi.epsilon = {eps!r}",
        f"psi.axis_x = {ax}",
        f"psi.axis_y = {ay}",
        f"psi.axis_z = {az}",
        f"solver.newton_tol = {NEWTON_TOL!r}",
        "outputs.node_table_path = nodes.csv",
        "outputs.mesh_path = mesh.obj",
        "outputs.report_path = report.txt",
        "",
    ])


def _aniso_solve(K, n_theta, r_bar, eps, axis=(0.0, 0.0, 1.0), tilted=False,
                 ref_n_theta=None):
    """A solve operation; the reference is the e_z solution at ref_n_theta."""
    ref_n = ref_n_theta or n_theta
    rtol = TILT_RTOL if tilted else (REFINE_RTOL if ref_n != n_theta else EXACT_RTOL)
    name = f"solve-K{K:+d}-{n_theta}x{2 * n_theta}" + ("-tilted" if tilted else "")
    return {
        "id": name, "command": "solve",
        "config": aniso_config(K, n_theta, r_bar, eps, axis),
        "gate": {"K": K, "r_bar": r_bar, "epsilon": eps,
                 "ref_key": reference_key(K, ref_n, r_bar, eps), "ref_rtol": rtol},
    }


def _copied(command: str, name: str, gate: dict) -> dict:
    return {"id": f"{command}-{name.removesuffix('.cfg')}", "command": command,
            "source": name, "gate": gate}


def _tilted_axis(rng: random.Random):
    """A unit axis at least 0.2 rad off e_z."""
    tilt = rng.uniform(0.2, math.pi / 2)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return (math.sin(tilt) * math.cos(azimuth), math.sin(tilt) * math.sin(azimuth),
            math.cos(tilt))


def build(workload: str, seed: int) -> list:
    """The operations of one cycle of `workload` for `seed`."""
    if workload == "aniso-64x128":
        return [_aniso_solve(0, 64, 1.0, seeded_epsilon(seed))]
    if workload == "spaceform-sweep":
        eps = seeded_epsilon(seed)
        ops = [_aniso_solve(K, 32, SWEEP_RBAR[K], eps) for K in (-1, 0, 1)]
        ops.append(_copied("solve", "round_sphere.cfg",
                           {"K": 0, "constant": 1.0, "ref_kappa": 1.0,
                            "ref_rtol": EXACT_RTOL}))
        return ops
    if workload == "polar-stress":
        rng = random.Random(seed)
        eps = HEADLINE_EPSILON
        ops = [_aniso_solve(0, 128, 1.0, eps, ref_n_theta=64)]
        for K in (-1, 0, 1):
            ops.append(_aniso_solve(K, 32, SWEEP_RBAR[K], eps, _tilted_axis(rng),
                                    tilted=True))
        return ops
    if workload == "diagnostics":
        verify = {"id": "verify-128x256", "command": "verify",
                  "config": aniso_config(0, 128, 1.0, HEADLINE_EPSILON),
                  "gate": {"properties": VERIFY_PROPERTIES}}
        return [verify] + [_copied("check", name, {"verdicts": verdicts})
                           for name, verdicts in CHECK_VERDICTS.items()]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def outcomes(op: dict) -> int:
    """How many outcomes the gate checks for this operation."""
    if op["command"] == "verify":
        return op["gate"]["properties"]
    if op["command"] == "check":
        return len(op["gate"]["verdicts"])
    return 1


def write_inputs(op: dict, workdir: Path) -> Path:
    """Write the operation's config into workdir and return its path.

    Example configs are copied, never run in place: output paths resolve
    against the config's directory.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if "source" in op:
        return Path(shutil.copy(CONFIGS_DIR / op["source"], workdir / op["source"]))
    path = workdir / "run.cfg"
    path.write_text(op["config"])
    return path


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
