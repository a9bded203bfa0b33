"""Serialization of fields, meshes, and reports.

Node tables are comma-separated text with a fixed header and one row per
node in theta-major order; floats carry 17 significant digits so a
re-read reproduces the in-memory values bit for bit.  Meshes use the
plain-text polygon format (`v x y z` vertices, `f ...` faces) with the
Euclidean visualization embedding x = rho * z for every ambient
curvature; reports are flat `key = value` text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import GeometryState
from .grid import ScalarField, SphereGrid

NODE_TABLE_HEADER = "theta,phi,rho,kappa1,kappa2,u,residual"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _format_rows(template: str, rows: np.ndarray) -> str:
    """One template line per row of a 2-D array, filled by a single %-format."""
    return (template * len(rows)) % tuple(rows.ravel().tolist())


def write_node_table(path, state: GeometryState, residual_values: np.ndarray) -> None:
    """theta and phi repeat along the grid's rows and columns, so each of
    them is formatted once, into the template the node values fill."""
    g = state.grid
    cols = (state.rho, state.kappa1, state.kappa2, state.u, residual_values)
    rows = np.column_stack([np.asarray(c, dtype=float).ravel() for c in cols])
    thetas, phis = ([_fmt(x) for x in axis.tolist()] for axis in (g.theta, g.phi))
    tail = ",%.17g" * rows.shape[1] + "\n"
    template = "".join(f"{t},{p}{tail}" for t in thetas for p in phis)
    Path(path).write_text(NODE_TABLE_HEADER + "\n" + template % tuple(rows.ravel().tolist()))


def read_node_table(path) -> dict:
    """Columns of a node table as float arrays, keyed by header name."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].strip() != NODE_TABLE_HEADER:
        raise ValueError(f"{path}: not a node table (bad header)")
    names = NODE_TABLE_HEADER.split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ValueError(f"{path}: malformed node table")
    return {name: data[:, idx] for idx, name in enumerate(names)}


def field_from_node_table(path, grid: SphereGrid) -> ScalarField:
    """The rho column of a node table, on the grid whose nodes it lists."""
    cols = read_node_table(path)
    rho = cols["rho"]
    if rho.size != grid.n_nodes:
        raise ValueError(
            f"{path}: node table has {rho.size} rows, grid expects {grid.n_nodes}")
    tt, pp = grid.mesh()
    if not (np.allclose(cols["theta"], tt.ravel(), rtol=0.0, atol=1e-12)
            and np.allclose(cols["phi"], pp.ravel(), rtol=0.0, atol=1e-12)):
        raise ValueError(f"{path}: node table nodes are not those of the "
                         f"{grid.n_theta}x{grid.n_phi} grid")
    return ScalarField(grid, rho.reshape(grid.shape))


def write_mesh(path, grid: SphereGrid, rho: np.ndarray) -> None:
    """Quad-dominant mesh of the graph with triangulated polar caps.

    Vertices are the Euclidean chart embedding x = rho * z (a
    visualization of the radial graph; not an isometric embedding when
    the ambient curvature is nonzero).  Pole vertices take the mean
    radius of the adjacent ring.
    """
    nt, nphi = grid.shape
    z, _, _ = grid.unit_vectors()
    poles = [[0.0, 0.0, float(np.mean(rho[0]))], [0.0, 0.0, -float(np.mean(rho[-1]))]]
    verts = np.concatenate([(rho[..., None] * z).reshape(-1, 3), poles])
    ids = np.arange(1, nt * nphi + 1).reshape(nt, nphi)
    east = np.roll(ids, -1, axis=1)
    quads = np.stack([ids[:-1], ids[1:], east[1:], east[:-1]], axis=-1).reshape(-1, 4)
    north_id, south_id = nt * nphi + 1, nt * nphi + 2
    caps = np.stack([np.full(nphi, north_id), ids[0], east[0],
                     np.full(nphi, south_id), east[-1], ids[-1]], axis=-1).reshape(-1, 3)
    Path(path).write_text(_format_rows("v %.17g %.17g %.17g\n", verts)
                          + _format_rows("f %d %d %d %d\n", quads)
                          + _format_rows("f %d %d %d\n", caps))


def write_report(path, mapping: dict) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_report(path) -> dict:
    """Flat report text back as a str -> str mapping."""
    out = {}
    for line in Path(path).read_text().splitlines():
        body = line.strip()
        if not body or "=" not in body:
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        out[key] = value
    return out
