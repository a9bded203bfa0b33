"""Correctness gate: read each operation's artifacts back and check them.

Every function returns (attempted, failures): the number of checked
outcomes and one message per outcome that differs from its known value.
"""

from __future__ import annotations

import numpy as np
from starcurv.config import parse_config
from starcurv.export import field_from_node_table, read_report
from starcurv.geometry import assemble
from starcurv.solver import residual
from starcurv.symfunc import in_gamma_cone

_WARP = {-1: np.sinh, 0: lambda r: r, 1: np.sin}
_WARP_DERIV = {-1: np.cosh, 0: np.ones_like, 1: np.cos}


def barrier_ratio(K: int, r) -> np.ndarray:
    """G(R) = q(R)^2 warp(R)^4 for the centered sphere of radius R.

    For psi = anisotropic(round_target(r_bar, m=4), eps) the maximum
    principle at the extreme radii of a solution gives
    (1 - eps) G(r_bar) <= G(rho) <= (1 + eps) G(r_bar); for K = 0 this is
    r_bar sqrt(1 - eps) <= rho <= r_bar sqrt(1 + eps).
    """
    r = np.asarray(r, dtype=float)
    return (_WARP_DERIV[K](r) * _WARP[K](r)) ** 2


def load_solution(cfg_path):
    """The run config, the node-table field and its geometry."""
    cfg = parse_config(cfg_path)
    field = field_from_node_table(cfg.node_table_path, cfg.grid)
    return cfg, field, assemble(cfg.model, field)


def kappa_max(state) -> float:
    return float(np.maximum(np.abs(state.kappa1), np.abs(state.kappa2)).max())


def gate_solve(gate: dict, cfg_path, rc: int, references: dict):
    if rc != 0:
        return 1, [f"exit code {rc}"]
    cfg, field, state = load_solution(cfg_path)
    failures = []
    res = float(np.abs(residual(cfg.model, field, cfg.psi, cfg.k).values).max())
    if not res <= cfg.solver.newton_tol:
        failures.append(f"re-read residual {res!r} > newton_tol {cfg.solver.newton_tol!r}")
    if not np.all(in_gamma_cone(state.kappa, cfg.k)):
        failures.append("curvatures leave the admissibility cone")
    rho = field.values
    if "epsilon" in gate:
        K, eps = gate["K"], gate["epsilon"]
        ratio = barrier_ratio(K, rho) / barrier_ratio(K, gate["r_bar"])
        if not (ratio.min() >= 1.0 - eps and ratio.max() <= 1.0 + eps):
            failures.append(f"rho in [{rho.min()!r}, {rho.max()!r}] outside the barriers")
    else:
        radius = 1.0 / np.sqrt(gate["constant"])
        if not np.abs(rho - radius).max() <= 1e-9:
            failures.append(f"rho differs from the round radius {radius!r}")
    ref = references.get(gate["ref_key"]) if "ref_key" in gate else gate["ref_kappa"]
    kmax = kappa_max(state)
    if ref is None:
        failures.append(f"no kappa_max reference for {gate['ref_key']}")
    elif not abs(kmax - ref) <= gate["ref_rtol"] * abs(ref):
        failures.append(f"kappa_max {kmax!r} differs from reference {ref!r}")
    return 1, failures


def gate_check(gate: dict, cfg_path, rc: int):
    verdicts = gate["verdicts"]
    want_rc = 0 if all(v == "true" for v in verdicts.values()) else 1
    if rc != want_rc:
        return len(verdicts), [f"exit code {rc}, expected {want_rc}"] * len(verdicts)
    report = read_report(parse_config(cfg_path).report_path)
    failures = [f"{key} = {report.get(key)}, expected {want}"
                for key, want in verdicts.items() if report.get(key) != want]
    return len(verdicts), failures


def gate_verify(gate: dict, cfg_path, rc: int):
    report = read_report(parse_config(cfg_path).report_path)
    props = {key: val for key, val in report.items()
             if key != "all" and not key.endswith("_value")}
    failures = [f"{key} = {val} ({report.get(key + '_value')})"
                for key, val in props.items() if val != "pass"]
    missing = gate["properties"] - len(props)
    failures += ["property missing from the report"] * max(missing, 0)
    return max(gate["properties"], len(props)), failures


def run_gate(op: dict, cfg_path, rc: int, references: dict):
    if op["command"] == "solve":
        return gate_solve(op["gate"], cfg_path, rc, references)
    if op["command"] == "check":
        return gate_check(op["gate"], cfg_path, rc)
    return gate_verify(op["gate"], cfg_path, rc)
