"""Flat key = value run configuration.

The format is one dotted key per line, `#` comments, blank lines ignored:

    model.K = 0
    grid.n_theta = 16
    grid.n_phi = 32
    problem.k = 2
    psi.family = round_target
    psi.r_bar = 1.5
    psi.m = 4
    barriers.R1 = 1.2
    barriers.R2 = 1.8
    outputs.node_table_path = nodes.csv

Unknown keys, psi.* keys the chosen family does not read, and
model.domain_cap with model.K = 1 are rejected so typos fail loudly.
Output paths resolve relative to the config file's directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .grid import GridError, SphereGrid, build_grid
from .prescription import Prescription, builtin
from .solver import SolverOptions
from .spaceform import SpaceFormModel, spaceform


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


_MODEL_KEYS = {"model.K", "model.domain_cap"}
_GRID_KEYS = {"grid.n_theta", "grid.n_phi"}
_PROBLEM_KEYS = {"problem.k"}
# The psi.* keys each base family reads; anisotropic adds _ANISO_KEYS.
_FAMILY_KEYS = {"constant": ("c",), "radial_power": ("c", "m"),
                "round_target": ("r_bar", "m")}
_ANISO_KEYS = ("base_family", "epsilon", "axis_x", "axis_y", "axis_z")
_PSI_KEYS = {"psi.family", *(f"psi.{name}" for names in (*_FAMILY_KEYS.values(), _ANISO_KEYS)
                             for name in names)}
# solver.* key -> (SolverOptions field, parser)
SOLVER_KEYS = {
    "solver.newton_tol": ("newton_tol", float),
}
_BARRIER_KEYS = {"barriers.R1", "barriers.R2"}
_CHECK_KEYS = {"check.barriers", "check.monotonicity", "check.rho_lo", "check.rho_hi"}
_OUTPUT_KEYS = {"outputs.node_table_path", "outputs.mesh_path", "outputs.report_path"}
KNOWN_KEYS = (_MODEL_KEYS | _GRID_KEYS | _PROBLEM_KEYS | _PSI_KEYS | set(SOLVER_KEYS)
              | _BARRIER_KEYS | _CHECK_KEYS | _OUTPUT_KEYS)


@dataclass
class RunConfig:
    model: SpaceFormModel
    grid: SphereGrid
    k: int
    psi: Prescription
    solver: SolverOptions
    barriers: Optional[tuple] = None
    check_barriers: bool = False
    check_monotonicity: bool = True
    check_rho_lo: Optional[float] = None
    check_rho_hi: Optional[float] = None
    node_table_path: Path = Path("nodes.csv")
    mesh_path: Path = Path("mesh.obj")
    report_path: Path = Path("report.txt")


def _parse_lines(text: str) -> dict:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _get(entries: dict, key: str, coerce, default=None, required: bool = False):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = entries[key]
    try:
        return coerce(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}: {exc}") from None


def _build_psi(entries: dict, model: SpaceFormModel, k: int) -> Prescription:
    family = _get(entries, "psi.family", str, required=True)
    aniso = family == "anisotropic"
    base_family = _get(entries, "psi.base_family", str, required=True) if aniso else family
    if base_family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown prescription family {base_family!r}")
    read = {"family", *_FAMILY_KEYS[base_family], *(_ANISO_KEYS if aniso else ())}
    unread = sorted(key for key in entries
                    if key.startswith("psi.") and key.removeprefix("psi.") not in read)
    if unread:
        raise ConfigError(f"psi.family = {family} does not read {', '.join(unread)}")
    params = {name: _get(entries, f"psi.{name}", float, required=True)
              for name in _FAMILY_KEYS[base_family]}

    try:
        base = builtin(model, base_family, k=k, **params)
        if not aniso:
            return base
        axis = (_get(entries, "psi.axis_x", float, default=0.0),
                _get(entries, "psi.axis_y", float, default=0.0),
                _get(entries, "psi.axis_z", float, default=1.0))
        eps = _get(entries, "psi.epsilon", float, required=True)
        return builtin(model, "anisotropic", k=k, base=base, epsilon=eps, axis=axis)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"prescription: {exc}") from None


def parse_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    entries = _parse_lines(text)

    K = _get(entries, "model.K", int, required=True)
    if K == 1 and "model.domain_cap" in entries:
        raise ConfigError("model.K = 1 does not read model.domain_cap: "
                          "its radial domain ends at pi/2")
    try:
        model = spaceform(K, domain_cap=_get(entries, "model.domain_cap", float))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    n_theta = _get(entries, "grid.n_theta", int, required=True)
    n_phi = _get(entries, "grid.n_phi", int, required=True)
    try:
        grid = build_grid(n_theta, n_phi)
    except GridError as exc:
        raise ConfigError(f"grid: {exc}") from None

    k = _get(entries, "problem.k", int, default=2)
    if not 1 <= k <= 2:
        raise ConfigError(f"problem.k must be 1 or 2 for surface graphs, got {k}")

    psi = _build_psi(entries, model, k)

    solver_kwargs = {attr: _get(entries, key, coerce)
                     for key, (attr, coerce) in SOLVER_KEYS.items() if key in entries}
    try:
        opts = SolverOptions(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    R1 = _get(entries, "barriers.R1", float)
    R2 = _get(entries, "barriers.R2", float)
    if (R1 is None) != (R2 is None):
        raise ConfigError("barriers.R1 and barriers.R2 must be given together")
    barriers = None if R1 is None else (R1, R2)
    if barriers is not None and not (0.0 < R1 < R2 < model.a):
        raise ConfigError(f"barriers must satisfy 0 < R1 < R2 < a, got ({R1}, {R2})")

    check_barriers = _get(entries, "check.barriers", _to_bool, default=barriers is not None)
    if check_barriers and barriers is None:
        raise ConfigError("check.barriers requested but barriers.R1/R2 are missing")

    rho_lo = _get(entries, "check.rho_lo", float)
    rho_hi = _get(entries, "check.rho_hi", float)
    if (rho_lo is None) != (rho_hi is None):
        raise ConfigError("check.rho_lo and check.rho_hi must be given together")

    base_dir = path.resolve().parent

    def out_path(key, default):
        value = _get(entries, key, str, default=default)
        p = Path(value)
        return p if p.is_absolute() else base_dir / p

    return RunConfig(
        model=model, grid=grid, k=k, psi=psi, solver=opts, barriers=barriers,
        check_barriers=check_barriers,
        check_monotonicity=_get(entries, "check.monotonicity", _to_bool, default=True),
        check_rho_lo=rho_lo,
        check_rho_hi=rho_hi,
        node_table_path=out_path("outputs.node_table_path", "nodes.csv"),
        mesh_path=out_path("outputs.mesh_path", "mesh.obj"),
        report_path=out_path("outputs.report_path", "report.txt"))
