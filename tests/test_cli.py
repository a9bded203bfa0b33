import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from starcurv import solver
from starcurv.cli import main
from starcurv.config import KNOWN_KEYS, SOLVER_KEYS, ConfigError, parse_config
from starcurv.export import (NODE_TABLE_HEADER, field_from_node_table, read_node_table,
                             read_report, write_mesh, write_node_table)
from starcurv.geometry import assemble
from starcurv.grid import ScalarField, build_grid, constant_field
from starcurv.solver import SolveReport, SolverOptions, _residual_of, residual
from starcurv.spaceform import spaceform

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "starcurv", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def write_cfg(path: Path, body: str) -> Path:
    path.write_text(body)
    return path


ROUND_CFG = """
model.K = 0
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = constant
psi.c = 1.0
solver.newton_tol = 1e-11
"""


def test_solve_round_sphere(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG)
    proc = run_cli(["solve", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    cols = read_node_table(tmp_path / "nodes.csv")
    assert len(cols["rho"]) == 16 * 32
    assert np.abs(cols["rho"] - 1.0).max() < 1e-8
    report = read_report(tmp_path / "report.txt")
    assert report["converged"] == "true"
    assert report["branch_rejections"] == "0"
    assert math.isfinite(float(report["kappa_max"]))
    assert float(report["residual_inf"]) < 1e-10
    # mesh vertices of the unit sphere sit at distance 1
    verts = []
    for line in (tmp_path / "mesh.obj").read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(v) for v in line.split()[1:]])
    verts = np.asarray(verts)
    assert verts.shape[0] == 16 * 32 + 2
    assert np.abs(np.linalg.norm(verts, axis=1) - 1.0).max() < 1e-8
    faces = [line for line in (tmp_path / "mesh.obj").read_text().splitlines()
             if line.startswith("f ")]
    assert len(faces) == 15 * 32 + 2 * 32


def test_solve_config_error_names_invariant(tmp_path):
    cfg = write_cfg(tmp_path / "odd.cfg", ROUND_CFG.replace("grid.n_phi = 32",
                                                            "grid.n_phi = 31"))
    proc = run_cli(["solve", str(cfg)], tmp_path)
    assert proc.returncode == 2
    assert "n_phi" in proc.stderr and "even" in proc.stderr


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "bad.cfg", ROUND_CFG + "grid.n_zeta = 4\n")
    proc = run_cli(["solve", str(cfg)], tmp_path)
    assert proc.returncode == 2
    assert "n_zeta" in proc.stderr


def test_node_table_round_trip_bit_exact(tmp_path):
    m = spaceform(-1)
    g = build_grid(16, 32)
    rng = np.random.default_rng(3)
    from starcurv.grid import ScalarField
    f = ScalarField(g, 1.0 + 0.05 * rng.standard_normal(g.shape))
    state = assemble(m, f)
    res = residual(m, f, None, 2).values
    write_node_table(tmp_path / "nodes.csv", state, res)
    back = field_from_node_table(tmp_path / "nodes.csv", g)
    assert np.array_equal(back.values, f.values)
    cols = read_node_table(tmp_path / "nodes.csv")
    assert np.array_equal(cols["u"].reshape(g.shape), state.u)


def test_export_round_trip(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG)
    assert run_cli(["solve", str(cfg)], tmp_path).returncode == 0
    before = read_node_table(tmp_path / "nodes.csv")
    proc = run_cli(["export", str(cfg)], tmp_path)
    assert proc.returncode == 0
    after = read_node_table(tmp_path / "nodes.csv")
    assert np.array_equal(before["rho"], after["rho"])
    report = read_report(tmp_path / "report.txt")
    assert report["source"] == "node_table"


def test_export_report_matches_solve_report_record(tmp_path):
    # the re-export report writes what SolveReport.record gives for the
    # table's field, bit for bit, under its fixed keys and order
    body = ROUND_CFG.replace("psi.family = constant\npsi.c = 1.0", """psi.family = anisotropic
psi.base_family = round_target
psi.r_bar = 1.0
psi.m = 4.0
psi.epsilon = 0.2""")
    cfg = write_cfg(tmp_path / "run.cfg", body)
    assert main(["solve", str(cfg)]) == 0
    assert main(["export", str(cfg)]) == 0
    report = read_report(tmp_path / "report.txt")
    keys = ["residual_inf", "rho_min", "rho_max", "grad_inf", "kappa_max", "u_min", "source"]
    assert list(report) == ["K", "k", "n_theta", "n_phi", "psi_family"] + keys
    assert report["source"] == "node_table"
    parsed = parse_config(cfg)
    fieldv = field_from_node_table(tmp_path / "nodes.csv", parsed.grid)
    state, res, margin = _residual_of(assemble(parsed.model, fieldv), parsed.psi, 2)
    expected = SolveReport()
    expected.record(np.abs(res).max(), state, margin)
    for key in keys[:-1]:
        name = "residual_trace" if key == "residual_inf" else key
        assert float(report[key]) == getattr(expected, name)[-1], key
    assert float(report["rho_min"]) == fieldv.values.min()
    assert float(report["kappa_max"]) > 1.0


def test_export_without_solution_fails(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG)
    proc = run_cli(["export", str(cfg)], tmp_path)
    assert proc.returncode == 2
    assert "nodes.csv" in proc.stderr


def test_export_rejects_node_table_of_another_grid(tmp_path, capsys):
    # 16x32 and 8x64 have the same node count, so only the node columns tell
    g = build_grid(16, 32)
    state = assemble(spaceform(0), constant_field(g, 1.0))
    write_node_table(tmp_path / "nodes.csv", state, np.zeros(g.shape))
    assert field_from_node_table(tmp_path / "nodes.csv", g).values.shape == g.shape
    body = ROUND_CFG.replace("grid.n_theta = 16", "grid.n_theta = 8")
    cfg = write_cfg(tmp_path / "run.cfg", body.replace("grid.n_phi = 32", "grid.n_phi = 64"))
    assert main(["export", str(cfg)]) == 2
    assert "8x64" in capsys.readouterr().err


def test_export_rejects_node_table_outside_the_domain(tmp_path, capsys):
    # rho = 1.7 is a radius of K = 0 but lies beyond pi / 2, the end of K = +1
    g = build_grid(16, 32)
    state = assemble(spaceform(0), constant_field(g, 1.7))
    write_node_table(tmp_path / "nodes.csv", state, np.zeros(g.shape))
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG.replace("model.K = 0", "model.K = 1"))
    assert main(["export", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("export:") and "outside admissible interval" in err
    assert not (tmp_path / "report.txt").exists()


CHECK_MONO_CFG = """
model.K = 0
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = radial_power
psi.c = 1.0
psi.m = 4.0
check.monotonicity = true
check.rho_lo = 0.5
check.rho_hi = 2.5
"""


def test_check_monotonicity_pass(tmp_path):
    cfg = write_cfg(tmp_path / "check.cfg", CHECK_MONO_CFG)
    proc = run_cli(["check", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = read_report(tmp_path / "report.txt")
    assert report["monotone_ok"] == "true"
    assert float(report["monotone_max_derivative"]) < 0.0


def test_check_monotonicity_fail_constant(tmp_path):
    body = CHECK_MONO_CFG.replace("psi.family = radial_power", "psi.family = constant")
    body = body.replace("psi.m = 4.0\n", "")
    cfg = write_cfg(tmp_path / "check.cfg", body)
    proc = run_cli(["check", str(cfg)], tmp_path)
    assert proc.returncode == 1
    report = read_report(tmp_path / "report.txt")
    assert report["monotone_ok"] == "false"
    assert float(report["monotone_max_derivative"]) > 0.0


def test_check_barriers_via_cli(tmp_path):
    body = """
model.K = 0
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = round_target
psi.r_bar = 1.5
psi.m = 4.0
barriers.R1 = 1.0
barriers.R2 = 2.0
check.monotonicity = false
"""
    cfg = write_cfg(tmp_path / "check.cfg", body)
    proc = run_cli(["check", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = read_report(tmp_path / "report.txt")
    assert report["barrier_low_ok"] == "true"
    assert float(report["barrier_low_margin"]) == pytest.approx(1.25, abs=1e-10)
    assert float(report["barrier_high_margin"]) == pytest.approx(0.109375, abs=1e-10)


def test_check_requires_barrier_params(tmp_path):
    body = CHECK_MONO_CFG + "check.barriers = true\n"
    cfg = write_cfg(tmp_path / "check.cfg", body)
    proc = run_cli(["check", str(cfg)], tmp_path)
    assert proc.returncode == 2
    assert "barriers" in proc.stderr


def test_verify_passes_on_default_grid(tmp_path):
    cfg = write_cfg(tmp_path / "verify.cfg", ROUND_CFG)
    proc = run_cli(["verify", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = read_report(tmp_path / "report.txt")
    assert report["all"] == "pass"
    assert report["identity_potential_hessian"] == "pass"
    assert report["jacobian_oracle"] == "pass"


def test_verify_detects_injected_christoffel_bug(tmp_path, flip_christoffel):
    cfg = write_cfg(tmp_path / "verify.cfg", ROUND_CFG)
    assert main(["verify", str(cfg)]) == 1
    report = read_report(tmp_path / "report.txt")
    assert report["all"] == "fail"
    assert report["identity_potential_hessian"] == "fail"
    # residual stops converging: refinement ratio collapses to ~1 (order ~0)
    ratio = float(report["identity_potential_hessian_value"].split()[0].split("=")[1])
    assert ratio < 1.5


def test_main_in_process_exit_codes(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG)
    assert main(["solve", str(cfg)]) == 0
    bad = write_cfg(tmp_path / "bad.cfg", "model.K = 7\ngrid.n_theta = 16\ngrid.n_phi = 32\npsi.family = constant\npsi.c = 1\n")
    assert main(["solve", str(bad)]) == 2


def test_parse_config_paths_relative_to_config_dir(tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    cfg = write_cfg(sub / "run.cfg", ROUND_CFG + "outputs.node_table_path = out/table.csv\n")
    parsed = parse_config(cfg)
    assert parsed.node_table_path == sub / "out" / "table.csv"
    assert parsed.report_path == sub / "report.txt"


def test_parse_config_rejects_half_barriers(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG + "barriers.R1 = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


@pytest.mark.parametrize("extra", [
    "check.rho_lo = -1.0\ncheck.rho_hi = 1.0\n",
    "check.rho_lo = 0.5\n",
], ids=["negative-rho-lo", "rho-lo-alone"])
def test_check_config_errors_exit_2(tmp_path, capsys, extra):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG + extra)
    assert main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


CONSTANT_WITH_ANISO_KEYS = ROUND_CFG + "psi.epsilon = 0.2\npsi.axis_x = 1.0\npsi.m = 4.0\npsi.r_bar = 1.0\n"


def test_parse_config_rejects_psi_keys_the_family_does_not_read(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", CONSTANT_WITH_ANISO_KEYS)
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    msg = str(info.value)
    for key in ("psi.axis_x", "psi.epsilon", "psi.m", "psi.r_bar"):
        assert key in msg
    assert "psi.c" not in msg
    # the base family's keys plus the anisotropic ones are all read
    aniso = ROUND_CFG.replace("psi.family = constant",
                              "psi.family = anisotropic\npsi.base_family = constant")
    parse_config(write_cfg(tmp_path / "aniso.cfg", aniso + "psi.epsilon = 0.2\npsi.axis_x = 1.0\n"))
    with pytest.raises(ConfigError, match="psi.r_bar"):
        parse_config(write_cfg(tmp_path / "extra.cfg", aniso + "psi.epsilon = 0.2\npsi.r_bar = 1.0\n"))


def test_solve_with_unread_psi_keys_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg", CONSTANT_WITH_ANISO_KEYS)
    assert main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "psi.epsilon" in err
    assert not (tmp_path / "nodes.csv").exists()


REMOVED_KEY_LINES = {
    # the Jacobian is closed form, so no finite-difference step is left to set
    "fd_step": "solver.fd_step = 1e-6",
    # the residual has the one form sigma_k - psi
    "normalized": "solver.normalized = true",
    # the line search's halving, budget and margin are solver constants
    "damping": "solver.damping = 0.25",
    "max_backtracks": "solver.max_backtracks = 10",
    "cone_margin": "solver.cone_margin = nan",
    # so are the Newton budget and the continuation's first and least steps
    "max_newton_iters": "solver.max_newton_iters = 1",
    "homotopy_steps": "solver.homotopy_steps = 10",
    "min_homotopy_step": "solver.min_homotopy_step = 0.01",
    # check samples MONOTONE_SAMPLES radii against MONOTONE_TOL
    "check_samples": "check.samples = 0",
    "check_tol": "check.tol = nan",
    # a broken Christoffel symbol is injected by the tests, not by a run
    "flip_christoffel": "debug.flip_christoffel = true",
}


@pytest.mark.parametrize("line", REMOVED_KEY_LINES.values(), ids=REMOVED_KEY_LINES.keys())
def test_solve_with_removed_key_exits_2(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG + line + "\n")
    assert main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert err.startswith("config error:") and f"unknown key {key!r}" in err
    assert not (tmp_path / "nodes.csv").exists()


def test_solve_with_domain_cap_for_K_plus_1_exits_2(tmp_path, capsys):
    # the K = +1 domain ends at pi/2 whatever the cap says, so a cap there
    # is a key the run would not read
    body = ROUND_CFG.replace("model.K = 0", "model.K = 1") + "model.domain_cap = 10\n"
    cfg = write_cfg(tmp_path / "run.cfg", body)
    assert main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "model.domain_cap" in err
    assert not (tmp_path / "nodes.csv").exists()
    # without the cap the same run is valid
    parse_config(write_cfg(tmp_path / "ok.cfg", ROUND_CFG.replace("model.K = 0", "model.K = 1")))


CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def test_parse_config_accepts_committed_configs_and_readme_example(tmp_path):
    # a committed config or the documented example that still uses a
    # removed key fails here, not in a user's first run
    assert CONFIGS
    for cfg in CONFIGS:
        parse_config(cfg)
    blocks = ROOT.joinpath("README.md").read_text().split("```ini\n")[1:]
    assert blocks
    for i, block in enumerate(blocks):
        parse_config(write_cfg(tmp_path / f"readme{i}.cfg", block.split("```")[0]))


def test_solver_keys_map_one_to_one_onto_solver_options(tmp_path):
    # every SolverOptions field has exactly one solver.* key, and each key
    # reaches its field through parse_config with a non-default value
    fields = {f.name: f for f in dataclasses.fields(SolverOptions)}
    attrs = [attr for attr, _ in SOLVER_KEYS.values()]
    assert sorted(attrs) == sorted(fields)
    assert {key for key in KNOWN_KEYS if key.startswith("solver.")} == set(SOLVER_KEYS)
    for key, (attr, _) in SOLVER_KEYS.items():
        default = fields[attr].default
        if isinstance(default, int):
            value, text = default + 1, str(default + 1)
        else:
            value, text = default / 2, repr(default / 2)
        body = ROUND_CFG.replace("solver.newton_tol = 1e-11\n", f"{key} = {text}\n")
        cfg = write_cfg(tmp_path / "run.cfg", body)
        assert getattr(parse_config(cfg).solver, attr) == value, key


def test_every_solver_key_is_set_by_a_run(monkeypatch):
    # a solver setting that only tests change is a constant, not a key:
    # each solver.* key must be set by a committed config or by the
    # benchmark's config text
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    texts = [path.read_text() for path in sorted((ROOT / "configs").glob("*.cfg"))]
    texts.append(workloads.aniso_config(0, 16, 1.0, workloads.HEADLINE_EPSILON))
    set_keys = {line.split("#", 1)[0].split("=", 1)[0].strip()
                for text in texts for line in text.splitlines() if "=" in line}
    assert set(SOLVER_KEYS) <= set_keys, sorted(set(SOLVER_KEYS) - set_keys)


# A valid value for every key outside psi.* (the psi.* keys have their own
# test above), and a second valid value for the same key.
KEY_VALUES = {
    "model.K": ("0", "-1"),
    "model.domain_cap": ("40", "30"),
    "grid.n_theta": ("16", "8"),
    "grid.n_phi": ("32", "16"),
    "problem.k": ("2", "1"),
    "solver.newton_tol": ("1e-11", "1e-10"),
    "barriers.R1": ("0.5", "0.6"),
    "barriers.R2": ("2.0", "2.5"),
    "check.barriers": ("true", "false"),
    "check.monotonicity": ("true", "false"),
    "check.rho_lo": ("0.3", "0.4"),
    "check.rho_hi": ("3.0", "2.5"),
    "outputs.node_table_path": ("a.csv", "b.csv"),
    "outputs.mesh_path": ("a.obj", "b.obj"),
    "outputs.report_path": ("a.txt", "b.txt"),
}


def _run_config_fields(cfg) -> dict:
    # RunConfig's fields, with the grid and the prescription (which have no
    # value equality) replaced by what identifies them
    out = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    out["grid"] = cfg.grid.shape
    out["psi"] = (cfg.psi.family, cfg.psi.params, cfg.psi.k)
    return out


def test_every_key_changes_the_parsed_config(tmp_path):
    # a key that parse_config accepts but never reads fails here
    assert set(KEY_VALUES) == {key for key in KNOWN_KEYS if not key.startswith("psi.")}
    psi_lines = "psi.family = constant\npsi.c = 1.0\n"

    def parsed(values):
        body = psi_lines + "".join(f"{key} = {value}\n" for key, value in values.items())
        return _run_config_fields(parse_config(write_cfg(tmp_path / "run.cfg", body)))

    base_values = {key: pair[0] for key, pair in KEY_VALUES.items()}
    base = parsed(base_values)
    for key, (_, other) in KEY_VALUES.items():
        assert parsed({**base_values, key: other}) != base, key


def test_solve_without_radial_start_writes_report(tmp_path):
    # K = 0 and psi = 1e-4: 1/r^2 = 1e-4 has its root at r = 100, past the
    # domain's a = 50, so there is no start; the report still names the cause
    cfg = write_cfg(tmp_path / "run.cfg", ROUND_CFG.replace("psi.c = 1.0", "psi.c = 1e-4"))
    proc = run_cli(["solve", str(cfg)], tmp_path)
    assert proc.returncode == 3
    assert "no radial start radius" in proc.stderr
    report = read_report(tmp_path / "report.txt")
    assert {key: report[key] for key in ("K", "k", "n_theta", "n_phi", "psi_family")} == {
        "K": "0", "k": "2", "n_theta": "16", "n_phi": "32", "psi_family": "constant"}
    assert report["converged"] == "false"
    assert report["iterations"] == "0"
    assert float(report["homotopy_t_final"]) == 0.0
    assert "no radial start radius" in report["message"]
    assert "C(2,k)" in report["message"]
    # it names the radii it scanned: down to 1e-8, up to 0.98 a
    assert "[1e-08, 49.0]" in report["message"]
    for key in ("residual_inf", "rho_min", "rho_max", "grad_inf", "kappa_max", "u_min",
                "cone_margin"):
        assert key not in report
    assert not any(v.lower() in ("nan", "inf", "-inf") for v in report.values())
    assert not (tmp_path / "nodes.csv").exists()
    assert not (tmp_path / "mesh.obj").exists()


def test_mesh_writer_counts(tmp_path):
    g = build_grid(8, 16)
    write_mesh(tmp_path / "m.obj", g, np.ones(g.shape))
    lines = (tmp_path / "m.obj").read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 8 * 16 + 2
    assert sum(1 for ln in lines if ln.startswith("f ")) == 7 * 16 + 2 * 16


def _node_table_by_value(state, res) -> str:
    # reference writer: one format call per value
    tt, pp = state.grid.mesh()
    cols = (tt, pp, state.rho, state.kappa1, state.kappa2, state.u, res)
    flat = [np.asarray(c, dtype=float).ravel() for c in cols]
    lines = [NODE_TABLE_HEADER]
    for row in zip(*flat):
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _mesh_by_value(grid, rho) -> str:
    # reference writer: one line and one format call per value, in a loop
    nt, nphi = grid.shape
    z, _, _ = grid.unit_vectors()
    pts = rho[..., None] * z
    lines = []
    for i in range(nt):
        for j in range(nphi):
            x, y, w = pts[i, j]
            lines.append(f"v {format(x, '.17g')} {format(y, '.17g')} {format(w, '.17g')}")
    lines.append(f"v 0 0 {format(float(np.mean(rho[0])), '.17g')}")
    lines.append(f"v 0 0 {format(-float(np.mean(rho[-1])), '.17g')}")
    vid = lambda i, j: i * nphi + (j % nphi) + 1
    north_id, south_id = nt * nphi + 1, nt * nphi + 2
    for i in range(nt - 1):
        for j in range(nphi):
            lines.append(f"f {vid(i, j)} {vid(i + 1, j)} {vid(i + 1, j + 1)} {vid(i, j + 1)}")
    for j in range(nphi):
        lines.append(f"f {north_id} {vid(0, j)} {vid(0, j + 1)}")
        lines.append(f"f {south_id} {vid(nt - 1, j + 1)} {vid(nt - 1, j)}")
    return "\n".join(lines) + "\n"


def test_writers_match_per_value_formatting(tmp_path):
    g = build_grid(8, 16)
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 1e16, -1e16, 1e-20, 1e20, 0.1, 1.0 / 3.0])

    def column():
        spread = 10.0 ** rng.uniform(-20.0, 20.0, g.n_nodes - special.size)
        signs = rng.choice([-1.0, 1.0], spread.size)
        return np.concatenate([special, signs * spread]).reshape(g.shape)

    state = SimpleNamespace(grid=g, rho=column(), kappa1=column(), kappa2=column(),
                            u=column())
    res = column()
    write_node_table(tmp_path / "nodes.csv", state, res)
    assert (tmp_path / "nodes.csv").read_text() == _node_table_by_value(state, res)
    write_mesh(tmp_path / "m.obj", g, state.rho)
    assert (tmp_path / "m.obj").read_text() == _mesh_by_value(g, state.rho)

    m = spaceform(0)
    f = ScalarField(g, 1.0 + 0.05 * rng.standard_normal(g.shape))
    state = assemble(m, f)
    res = residual(m, f, None, 2).values
    write_node_table(tmp_path / "nodes.csv", state, res)
    assert (tmp_path / "nodes.csv").read_text() == _node_table_by_value(state, res)
    write_mesh(tmp_path / "m.obj", g, f.values)
    assert (tmp_path / "m.obj").read_text() == _mesh_by_value(g, f.values)


def test_cli_import_leaves_out_scipy_optimize():
    # startup time: the radial start needs no scipy.optimize, the branch
    # index takes its permutation parity from numpy, not scipy.sparse.csgraph,
    # and scipy.sparse.linalg is imported only when a solve falls back to splu
    code = ("import sys, starcurv.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse.csgraph', 'scipy.sparse.linalg')"
            " if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_exit_3_writes_last_good_state(tmp_path, monkeypatch, capsys):
    # with a budget of one Newton step, from the tangent predictor one
    # iteration reaches t = 1/64, the sixth halving of the full step; past
    # that first stage one iteration is never enough, so the continuation
    # stalls there, below a least step of 0.01, and reports it honestly
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(solver, "MIN_HOMOTOPY_STEP", 0.01)
    body = """
model.K = 0
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = anisotropic
psi.base_family = round_target
psi.r_bar = 1.0
psi.m = 4.0
psi.epsilon = 0.2
psi.axis_z = 1.0
"""
    cfg = write_cfg(tmp_path / "stall.cfg", body)
    assert main(["solve", str(cfg)]) == 3
    assert "homotopy stalled" in capsys.readouterr().err
    report = read_report(tmp_path / "report.txt")
    assert report["converged"] == "false"
    assert float(report["homotopy_t_final"]) == 0.015625
    # artifacts exist for the last good iterate
    cols = read_node_table(tmp_path / "nodes.csv")
    assert np.all(np.isfinite(cols["rho"]))


def test_solve_failed_radial_start_reports_without_nan(tmp_path):
    # psi = 4e-12 puts the radial start next to the pi/2 cap, where
    # sigma_2 = 4e-12 is below the cone margin: the t = 0 stage fails on
    # its seed, and the report still carries finite monitors, the cause
    # and the continuation's t
    body = """
model.K = 1
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = anisotropic
psi.base_family = constant
psi.c = 4e-12
psi.epsilon = 0.2
"""
    cfg = write_cfg(tmp_path / "cap.cfg", body)
    proc = run_cli(["solve", str(cfg)], tmp_path)
    assert proc.returncode == 3
    assert "seed is not admissible" in proc.stderr
    report = read_report(tmp_path / "report.txt")
    for key in ("residual_inf", "rho_min", "rho_max", "grad_inf", "kappa_max", "u_min",
                "cone_margin", "homotopy_t_final"):
        assert math.isfinite(float(report[key])), key
    assert not any(v.lower() in ("nan", "inf", "-inf") for v in report.values())
    assert report["converged"] == "false"
    assert float(report["homotopy_t_final"]) == 0.0
    assert "t = 0" in report["message"]
    cols = read_node_table(tmp_path / "nodes.csv")
    assert len(cols["rho"]) == 16 * 32
    assert np.all(np.isfinite(cols["rho"]))
    assert (tmp_path / "mesh.obj").exists()


def test_check_failing_barriers_match_hand_values(tmp_path):
    # round_target anchored below the barrier window: the low inequality
    # fails with slack (4/9)(1.5/1.6)^4 - 1/1.6^2, the high one passes
    body = """
model.K = 0
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = round_target
psi.r_bar = 1.5
psi.m = 4.0
barriers.R1 = 1.6
barriers.R2 = 1.9
check.monotonicity = false
"""
    cfg = write_cfg(tmp_path / "check.cfg", body)
    proc = run_cli(["check", str(cfg)], tmp_path)
    assert proc.returncode == 1
    report = read_report(tmp_path / "report.txt")
    assert report["barrier_low_ok"] == "false"
    assert report["barrier_high_ok"] == "true"
    low = (4.0 / 9.0) * (1.5 / 1.6) ** 4 - 1.0 / 1.6**2
    high = 1.0 / 1.9**2 - (4.0 / 9.0) * (1.5 / 1.9) ** 4
    assert float(report["barrier_low_margin"]) == pytest.approx(low, abs=1e-10)
    assert float(report["barrier_high_margin"]) == pytest.approx(high, abs=1e-10)


def test_solve_repeat_runs_bit_identical(tmp_path):
    body = ROUND_CFG.replace("psi.family = constant\npsi.c = 1.0",
                             "psi.family = anisotropic\npsi.base_family = round_target\n"
                             "psi.r_bar = 1.0\npsi.m = 4.0\npsi.epsilon = 0.2")
    cfg = write_cfg(tmp_path / "run.cfg", body)
    assert run_cli(["solve", str(cfg)], tmp_path).returncode == 0
    first = (tmp_path / "nodes.csv").read_bytes()
    assert run_cli(["solve", str(cfg)], tmp_path).returncode == 0
    assert (tmp_path / "nodes.csv").read_bytes() == first


def test_solve_strong_anisotropy_contract(tmp_path):
    # strong normal dependence on a coarse grid: the contract is exit 0 or
    # exit 3; a failing run must still report the last good homotopy t
    body = """
model.K = 0
grid.n_theta = 16
grid.n_phi = 32
problem.k = 2
psi.family = anisotropic
psi.base_family = round_target
psi.r_bar = 1.0
psi.m = 4.0
psi.epsilon = 0.9
solver.newton_tol = 1e-11
"""
    cfg = write_cfg(tmp_path / "strong.cfg", body)
    proc = run_cli(["solve", str(cfg)], tmp_path)
    assert proc.returncode in (0, 3)
    report = read_report(tmp_path / "report.txt")
    if proc.returncode == 0:
        assert report["converged"] == "true"
        assert float(report["residual_inf"]) < 1e-10
        assert float(report["u_min"]) > 0.0
    else:
        assert report["converged"] == "false"
        assert 0.0 <= float(report["homotopy_t_final"]) < 1.0
