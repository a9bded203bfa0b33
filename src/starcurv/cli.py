"""Batch front end: `starcurv <solve|check|verify|export> <config>`.

Exit codes: 0 success, 1 a requested check or property failed, 2 config
or usage error, 3 the solver did not converge, a singular Jacobian included
(artifacts are still written from the last good iterate).  Every command
runs serially; repeat runs write bitwise-identical artifacts.
"""

from __future__ import annotations

import sys

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .export import (field_from_node_table, write_mesh, write_node_table,
                     write_report)
from .geometry import GeometryError, assemble
from .prescription import (MONOTONE_SAMPLES, MONOTONE_TOL, check_barriers,
                           check_monotonicity, default_rho_samples)
from .solver import NoConvergence, SolveReport, _residual_of, continuity_solve
from .spaceform import DomainError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _write_solution_artifacts(cfg: RunConfig, fieldv, report: SolveReport | None) -> None:
    """Write fieldv's node table and mesh, and the run's report.

    A converged report's state is fieldv's geometry, so only a failed
    solve's last good field or a re-exported one is assembled here.
    Without a solve report (a re-export) the report takes fieldv's monitors;
    without a field (no radial start) only the report is written.
    """
    mapping = {
        "K": cfg.model.K,
        "k": cfg.k,
        "n_theta": cfg.grid.n_theta,
        "n_phi": cfg.grid.n_phi,
        "psi_family": cfg.psi.family,
    }
    if fieldv is not None:
        state = report.state if report is not None else None
        if state is None:
            state = assemble(cfg.model, fieldv)
        state, res, margin = _residual_of(state, cfg.psi, cfg.k)
        write_node_table(cfg.node_table_path, state, res)
        write_mesh(cfg.mesh_path, cfg.grid, fieldv.values)
    if report is not None:
        mapping.update(report.summary())
        if report.message:
            mapping["message"] = report.message
    else:
        # re-export from a node table: solver history is not available
        fresh = SolveReport()
        fresh.record(np.abs(res).max(), state, margin)
        monitors = fresh.last_monitors()
        del monitors["cone_margin"]
        mapping.update(monitors, source="node_table")
    write_report(cfg.report_path, mapping)


def cmd_solve(cfg: RunConfig) -> int:
    try:
        fieldv, report = continuity_solve(cfg.model, cfg.grid, cfg.psi, cfg.k, cfg.solver)
    except NoConvergence as exc:
        _write_solution_artifacts(cfg, exc.field, exc.report)
        print(f"solve: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _write_solution_artifacts(cfg, fieldv, report)
    print(f"solve: converged in {report.iterations} iterations, "
          f"residual_inf = {report.residual_inf:.3e}")
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    mapping = {"psi_family": cfg.psi.family, "K": cfg.model.K, "k": cfg.k}
    reports = []
    if cfg.check_barriers:
        if cfg.barriers is None:
            raise ConfigError("barrier check requested without barriers.R1/R2")
        rep = check_barriers(cfg.psi, cfg.model, cfg.barriers[0], cfg.barriers[1],
                             cfg.grid.n_theta, cfg.grid.n_phi)
        mapping.update({
            "R1": rep.R1, "R2": rep.R2,
            "barrier_low_ok": rep.barrier_low_ok,
            "barrier_high_ok": rep.barrier_high_ok,
            "barrier_low_margin": rep.barrier_low_margin,
            "barrier_high_margin": rep.barrier_high_margin,
            "barrier_samples": rep.barrier_samples,
        })
        reports.append(rep)
    if cfg.check_monotonicity:
        if cfg.check_rho_lo is not None:
            samples = np.linspace(cfg.check_rho_lo, cfg.check_rho_hi, MONOTONE_SAMPLES)
        elif cfg.barriers is not None:
            samples = np.linspace(cfg.barriers[0], cfg.barriers[1], MONOTONE_SAMPLES)
        else:
            samples = default_rho_samples(cfg.model)
        try:
            rep = check_monotonicity(cfg.psi, cfg.model, rho_samples=samples)
        except DomainError as exc:
            raise ConfigError(f"monotonicity check: a sample radius leaves the "
                              f"domain: {exc}") from None
        mapping.update({
            "monotone_ok": rep.monotone_ok,
            "monotone_max_derivative": rep.monotone_max_derivative,
            "monotone_tol": MONOTONE_TOL,
            "monotone_samples": rep.monotone_samples,
        })
        reports.append(rep)
    if not reports:
        raise ConfigError("check: nothing requested "
                          "(enable check.barriers or check.monotonicity)")
    all_ok = all(rep.all_ok for rep in reports)
    mapping["all_ok"] = all_ok
    write_report(cfg.report_path, mapping)
    for key, value in mapping.items():
        print(f"{key} = {value}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_all   # a solve need not compile the diagnostics

    results = run_all(cfg.grid.n_theta, cfg.grid.n_phi)
    mapping = {}
    for r in results:
        mapping[r.name] = "pass" if r.ok else "fail"
        mapping[f"{r.name}_value"] = r.value
    all_ok = all(r.ok for r in results)
    mapping["all"] = "pass" if all_ok else "fail"
    write_report(cfg.report_path, mapping)
    for r in results:
        print(f"{r.name} = {'pass' if r.ok else 'fail'} ({r.value})")
    print(f"all = {'pass' if all_ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_export(cfg: RunConfig) -> int:
    try:
        fieldv = field_from_node_table(cfg.node_table_path, cfg.grid)
        _write_solution_artifacts(cfg, fieldv, None)
    except (OSError, ValueError, GeometryError) as exc:
        print(f"export: cannot export the solution in {cfg.node_table_path}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    print(f"export: wrote {cfg.node_table_path}, {cfg.mesh_path}, {cfg.report_path}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "check": cmd_check,
    "verify": cmd_verify,
    "export": cmd_export,
}
USAGE = f"usage: starcurv <{'|'.join(_COMMANDS)}> <config>"


def main(argv=None) -> int:
    """Run argv (default sys.argv[1:]).  -h or --help prints USAGE and returns
    0; an argv of another shape prints it to stderr and returns 2."""
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        print(USAGE)
        return EXIT_OK
    if len(args) != 2 or args[0] not in _COMMANDS:
        print(USAGE, file=sys.stderr)
        return EXIT_CONFIG
    command, path = args
    try:
        return _COMMANDS[command](parse_config(path))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
