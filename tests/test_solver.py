import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from starcurv import solver
from starcurv.config import parse_config
from starcurv.geometry import pointwise_geometry
from starcurv.grid import (ScalarField, build_grid, constant_field, field_from_function,
                           jet_from_partials, jet_stencils, raw_jet)
from starcurv.prescription import Prescription, builtin
from starcurv.solver import (ConeBreach, NoConvergence, SolverOptions,
                             continuity_solve, jacobian, newton_solve,
                             residual, uniqueness_probe)
from starcurv.spaceform import spaceform
from starcurv.symfunc import sigma

TIGHT = SolverOptions(newton_tol=1e-11)


def coth(x):
    return math.cosh(x) / math.sinh(x)


@pytest.fixture(scope="module")
def grid16():
    return build_grid(16, 32)


def test_residual_round_sphere_examples(grid16):
    m = spaceform(0)
    r = residual(m, constant_field(grid16, 1.0), builtin(m, "constant", c=1.0), 2)
    assert np.abs(r.values).max() < 1e-13
    r = residual(m, constant_field(grid16, 1.0), builtin(m, "constant", c=2.0), 2)
    assert np.abs(r.values + 1.0).max() < 1e-13
    mh = spaceform(-1)
    r = residual(mh, constant_field(grid16, 0.5),
                 builtin(mh, "constant", c=coth(0.5) ** 2), 2)
    assert np.abs(r.values).max() < 1e-12


def test_residual_degree_one(grid16):
    # mean curvature equation: sigma_1 of the round sphere is 2 q(r)
    m = spaceform(-1)
    r = residual(m, constant_field(grid16, 0.7),
                 builtin(m, "constant", c=2.0 * coth(0.7), k=1), 1)
    assert np.abs(r.values).max() < 1e-12


def test_jacobian_radial_direction(grid16):
    # on a round sphere, J applied to the all-ones field is the radial
    # derivative of the residual: d/dr [q(r)^2] = -2/r^3 for K=0, psi const
    m = spaceform(0)
    r = 1.3
    J = jacobian(m, constant_field(grid16, r), builtin(m, "constant", c=1.0), 2)
    ones = np.ones(grid16.n_nodes)
    assert np.abs(J @ ones - (-2.0 / r**3)).max() < 1e-4


def test_jacobian_directional_consistency(grid16):
    rng = np.random.default_rng(21)
    m = spaceform(0)
    tt, pp = grid16.mesh()
    vals = 1.2 * (1.0 + 0.03 * np.cos(tt) + 0.02 * np.sin(tt) * np.cos(pp))
    f = ScalarField(grid16, vals)
    base = builtin(m, "round_target", r_bar=1.2, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.15, axis=(0.0, 0.0, 1.0))
    J = jacobian(m, f, psi, 2)
    for _ in range(3):
        v = rng.standard_normal(grid16.shape)
        eps = 1e-6
        rp = residual(m, ScalarField(grid16, vals + eps * v), psi, 2).values
        rm = residual(m, ScalarField(grid16, vals - eps * v), psi, 2).values
        dirfd = ((rp - rm) / (2 * eps)).ravel()
        jv = J @ v.ravel()
        assert np.abs(jv - dirfd).max() / np.abs(jv).max() < 1e-5


def _fd_jacobian(m, fieldv, psi, k, fd_step=1e-7):
    """Reference J = sum_c diag(dF/dc) @ D_c with dF/dc a central difference
    of the pointwise residual in each of the six raw jet components: two
    full geometry and psi evaluations per component."""
    g = fieldv.grid
    parts = raw_jet(fieldv)
    stencils = jet_stencils(g)
    data = np.zeros(stencils.weights[0].shape)
    for c, base in enumerate(parts):
        step = fd_step * (1.0 + np.abs(base))
        sides = []
        for moved in (base + step, base - step):
            jet = jet_from_partials(g, *parts[:c], moved, *parts[c + 1:])
            sides.append(solver._residual_of(pointwise_geometry(m, g, jet), psi, k)[1])
        data += ((sides[0] - sides[1]) / (2.0 * step)).reshape(-1, 1) * stencils.weights[c]
    return sp.csr_matrix((data.ravel(), stencils.indices, stencils.indptr),
                         shape=(g.n_nodes, g.n_nodes))


def _tilted_blend(m, k, r_bar):
    # psi reads rho and every component of nu: a radial power blended with
    # an anisotropic round target about a tilted axis
    target = builtin(m, "round_target", k=k, r_bar=r_bar, m=4.0)
    aniso = builtin(m, "anisotropic", k=k, base=target, epsilon=0.2, axis=(0.3, 0.4, 0.866))
    return builtin(m, "radial_power", k=k, c=1.0, m=3.0).blend(aniso, 0.7)


@pytest.mark.parametrize("nt,nphi", [(16, 32), (9, 10), (11, 16)])
@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.6)])
# the ids keep their earlier names, so the cases stay comparable across runs
@pytest.mark.parametrize("k", [pytest.param(1, id="1-False"), pytest.param(2, id="2-False")])
def test_closed_form_jacobian_matches_finite_differences(nt, nphi, K, r_bar, k):
    m = spaceform(K)
    g = build_grid(nt, nphi)
    tt, pp = g.mesh()
    vals = r_bar * (1.0 + 0.03 * np.cos(tt) + 0.02 * np.sin(tt) * np.cos(pp)
                    + 0.01 * np.sin(tt) ** 2 * np.sin(2 * pp))
    f = ScalarField(g, vals)
    psi = _tilted_blend(m, k, r_bar)
    J = jacobian(m, f, psi, k)
    ref = _fd_jacobian(m, f, psi, k)
    assert abs(J - ref).max() <= 1e-8 * abs(ref).max()


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.6)])
def test_jacobian_rotation_equivariance_bitwise(K, r_bar, grid16):
    # rolling the field in phi by whole columns rotates the problem about
    # e_z, so J must be the same matrix with rows and columns rolled
    m = spaceform(K)
    f = field_from_function(grid16, lambda tt, pp: r_bar * (1.0 + 0.05 * np.cos(tt)
                                                            + 0.03 * np.sin(tt) * np.cos(pp)))
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    shift = 5
    rolled = ScalarField(grid16, np.roll(f.values, shift, axis=1))
    perm = np.roll(np.arange(grid16.n_nodes).reshape(grid16.shape), shift, axis=1).ravel()
    J0 = jacobian(m, f, psi, 2).toarray()
    J1 = jacobian(m, rolled, psi, 2).toarray()
    assert np.array_equal(J1, J0[np.ix_(perm, perm)])


def test_jacobian_ignores_constant_psi_level(grid16):
    # a constant prescription contributes nothing to the Jacobian
    m = spaceform(0)
    f = field_from_function(grid16, lambda tt, pp: 1.0 + 0.05 * np.cos(tt))
    J1 = jacobian(m, f, builtin(m, "constant", c=1.0), 2)
    J2 = jacobian(m, f, builtin(m, "constant", c=2.0), 2)
    assert abs(J1 - J2).max() < 1e-8


def test_jacobian_sparsity(grid16):
    m = spaceform(0)
    J = jacobian(m, constant_field(grid16, 1.0), builtin(m, "constant", c=1.0), 2)
    per_row = np.diff(J.tocsr().indptr)
    assert per_row.max() <= 9


@pytest.mark.parametrize("K,r_star,seed", [(0, 1.0, 1.3), (-1, 0.5, 0.65), (1, 0.6, 0.78)])
def test_newton_round_sphere_recovery(K, r_star, seed, grid16):
    m = spaceform(K)
    psi = builtin(m, "constant", c=m.sphere_curvature(r_star) ** 2)
    fieldv, report = newton_solve(m, constant_field(grid16, seed), psi, 2, TIGHT)
    assert report.converged
    assert np.abs(fieldv.values - r_star).max() < 1e-8
    assert report.residual_inf < 1e-10
    # admissibility margin held at every accepted iterate
    assert all(mg >= solver.CONE_MARGIN for mg in report.cone_margin)


def test_newton_rejects_inadmissible_seed(grid16):
    # a saddle-like seed with curvatures outside the degree-2 cone
    m = spaceform(0)
    f = field_from_function(grid16, lambda tt, pp: 1.0 + 0.9 * np.sin(tt) * np.cos(2 * pp))
    psi = builtin(m, "constant", c=1.0)
    with pytest.raises(ConeBreach):
        newton_solve(m, f, psi, 2, TIGHT)


def test_newton_budget_exhaustion_returns_report(grid16, monkeypatch):
    m = spaceform(0)
    psi = builtin(m, "constant", c=1.0)
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(NoConvergence) as info:
        newton_solve(m, constant_field(grid16, 1.9), psi, 2, TIGHT)
    assert info.value.report is not None
    assert info.value.field is not None
    assert not info.value.report.converged


def test_newton_monitors_recorded(grid16):
    m = spaceform(0)
    psi = builtin(m, "constant", c=1.0)
    _, report = newton_solve(m, constant_field(grid16, 1.3), psi, 2, TIGHT)
    n = len(report.residual_trace)
    assert n == report.iterations + 1
    for name in ("rho_min", "rho_max", "grad_inf", "kappa_max", "u_min", "cone_margin"):
        assert len(getattr(report, name)) == n
    assert report.final_admissible
    assert min(report.u_min) > 0.0
    assert all(np.isfinite(report.kappa_max))


def test_residual_rotation_equivariance(grid16):
    m = spaceform(0)
    psi = builtin(m, "radial_power", c=1.0, m=4.0)
    f = field_from_function(grid16, lambda tt, pp: 1.0 + 0.1 * np.cos(tt)
                            + 0.04 * np.sin(tt) * np.sin(pp))
    shift = 8
    r0 = residual(m, f, psi, 2).values
    r1 = residual(m, ScalarField(grid16, np.roll(f.values, shift, axis=1)), psi, 2).values
    assert np.array_equal(np.roll(r0, shift, axis=1), r1)


def test_sigma2_scaling_law(grid16):
    # K=0: curvatures scale as 1/c, so sigma_2 scales as 1/c^2
    m = spaceform(0)
    f = field_from_function(grid16, lambda tt, pp: 1.0 + 0.06 * np.sin(tt) * np.cos(pp))
    c = 2.3
    s = residual(m, f, None, 2).values
    sc = residual(m, ScalarField(grid16, c * f.values), None, 2).values
    assert np.abs(sc - s / c**2).max() < 1e-11 * np.abs(s).max()


def test_continuity_solve_constant_target(grid16):
    m = spaceform(0)
    fieldv, report = continuity_solve(m, grid16, builtin(m, "constant", c=1.0), 2, TIGHT)
    assert report.converged
    assert report.homotopy_t_final == 1.0
    assert np.abs(fieldv.values - 1.0).max() < 1e-8
    assert report.homotopy_t[0] == 0.0


def test_continuity_solve_round_target_family(grid16):
    m = spaceform(0)
    psi = builtin(m, "round_target", r_bar=1.5, m=4.0)
    fieldv, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert np.abs(fieldv.values - 1.5).max() < 1e-8
    assert report.rho_min[-1] == pytest.approx(1.5, abs=1e-8)
    assert report.rho_max[-1] == pytest.approx(1.5, abs=1e-8)
    assert report.kappa_max[-1] == pytest.approx(m.sphere_curvature(1.5), abs=1e-6)


def test_continuity_matches_newton_for_coincident_endpoints(grid16):
    # with epsilon = 0 the anisotropic target is its own homotopy base
    m = spaceform(0)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    f1, _ = continuity_solve(m, grid16, base, 2, TIGHT)
    f2, _ = newton_solve(m, constant_field(grid16, 1.1), base, 2, TIGHT)
    assert np.abs(f1.values - f2.values).max() < 1e-10


def test_continuity_solve_anisotropic(grid16):
    m = spaceform(0)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    fieldv, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert report.residual_inf < 1e-10
    assert report.u_min[-1] > 0.0
    assert np.isfinite(report.kappa_max[-1])
    # non-round solution
    assert fieldv.values.max() - fieldv.values.min() > 1e-2
    # the full step goes first and damped Newton reaches t = 1 from the
    # radial start in one stage
    assert report.homotopy_t == [0.0, 1.0]
    assert report.iterations <= 6


def test_uniqueness_probe_round(grid16):
    m = spaceform(0)
    psi = builtin(m, "constant", c=1.0)
    dev = uniqueness_probe(m, grid16, psi, 2, TIGHT, seeds=(0.7, 1.0, 1.4))
    assert dev < 1e-8


def test_uniqueness_probe_constructed(grid16):
    m = spaceform(0)
    psi = builtin(m, "round_target", r_bar=1.5, m=4.0)
    dev = uniqueness_probe(m, grid16, psi, 2, TIGHT, seeds=(1.1, 1.5, 1.9))
    assert dev < 1e-8


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=0.0)
    # NaN compares False both ways, so it must not pass as in range
    with pytest.raises(ValueError, match="newton_tol"):
        SolverOptions(newton_tol=math.nan)
    # the Jacobian has no finite-difference step left to set, the residual
    # has one form only, and the line search's settings, the Newton budget
    # and the continuation's steps are constants
    for removed in ("fd_step", "use_normalized", "damping", "max_backtracks",
                    "cone_margin", "max_newton_iters", "homotopy_steps",
                    "min_homotopy_step"):
        with pytest.raises(TypeError):
            SolverOptions(**{removed: 1e-6})


@pytest.mark.parametrize("nt,nphi", [(64, 128), (128, 256)])
def test_jacobian_polar_rows_smooth_direction(nt, nphi):
    # the rows next to a pole carry 1/(sin(theta) dphi)^2 stencil weights;
    # J v along a smooth direction must still match a Richardson-extrapolated
    # central difference of the residual there
    m = spaceform(0)
    g = build_grid(nt, nphi)
    tt, pp = g.mesh()
    vals = 1.0 + 0.03 * np.cos(tt) + 0.02 * np.sin(tt) * np.cos(pp)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    v = np.cos(tt) + 0.5 * np.sin(tt) * np.cos(pp)

    def central(eps):
        rp = residual(m, ScalarField(g, vals + eps * v), psi, 2).values
        rm = residual(m, ScalarField(g, vals - eps * v), psi, 2).values
        return (rp - rm) / (2.0 * eps)

    eps = 1e-4
    ref = (4.0 * central(eps / 2.0) - central(eps)) / 3.0
    jv = (jacobian(m, ScalarField(g, vals), psi, 2) @ v.ravel()).reshape(g.shape)
    for row in (0, -1):
        assert np.abs(jv[row] - ref[row]).max() / np.abs(ref[row]).max() < 1e-4


def test_jacobian_and_continuation_repeat_runs_bitwise(grid16, monkeypatch):
    m = spaceform(0)
    f = field_from_function(grid16, lambda tt, pp: 1.0 + 0.05 * np.cos(tt))
    psi = builtin(m, "constant", c=1.0)
    J1, J2 = jacobian(m, f, psi, 2), jacobian(m, f, psi, 2)
    assert np.array_equal(J1.indptr, J2.indptr)
    assert np.array_equal(J1.indices, J2.indices)
    assert np.array_equal(J1.data, J2.data)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    target = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    for first_step in (1.0, 0.5):
        monkeypatch.setattr(solver, "FIRST_STEP", first_step)
        (f1, rep1), (f2, rep2) = (continuity_solve(m, grid16, target, 2, TIGHT)
                                  for _ in range(2))
        assert np.array_equal(f1.values, f2.values)
        assert rep1.residual_trace == rep2.residual_trace
        assert rep1.homotopy_t == rep2.homotopy_t


def test_singular_jacobian_raises_no_convergence(monkeypatch):
    # an exactly singular Jacobian on a 32x64 grid (2048 nodes) must end in
    # NoConvergence carrying the last good state, never in a numpy error
    J = sp.identity(2048, format="lil")
    J[7, 7] = 0.0
    J = J.tocsr()
    with pytest.raises(NoConvergence, match="singular Jacobian"):
        solver._linear_solve(J, np.ones(2048))
    g = build_grid(32, 64)
    m = spaceform(0)
    monkeypatch.setattr(solver, "jacobian", lambda *args: J)
    with pytest.raises(NoConvergence, match="singular Jacobian") as info:
        newton_solve(m, constant_field(g, 1.3), builtin(m, "constant", c=1.0), 2, TIGHT)
    assert info.value.field is not None
    assert info.value.report is not None


def test_newton_mean_curvature_equation(grid16):
    # degree is runtime data: k = 1 solves sigma_1(kappa) = 2 q(r_star)
    m = spaceform(-1)
    r_star = 0.9
    psi = builtin(m, "constant", c=2.0 * math.cosh(r_star) / math.sinh(r_star), k=1)
    fieldv, report = newton_solve(m, constant_field(grid16, 1.2), psi, 1,
                                  SolverOptions(newton_tol=1e-11))
    assert report.converged
    assert np.abs(fieldv.values - r_star).max() < 1e-8


@pytest.mark.parametrize("nt,nphi", [(9, 10), (8, 14), (11, 16)])
def test_jacobian_cross_pole_mapping_irregular_grids(nt, nphi):
    # grids whose longitude count is not a multiple of 4 (and odd half
    # turns) stress the cross-pole column mapping of the stencil pattern
    m = spaceform(0)
    g = build_grid(nt, nphi)
    tt, pp = g.mesh()
    vals = 1.1 * (1.0 + 0.03 * np.cos(tt) + 0.02 * np.sin(tt) * np.sin(pp))
    f = ScalarField(g, vals)
    psi = builtin(m, "radial_power", c=1.0, m=4.0)
    J = jacobian(m, f, psi, 2)
    rng = np.random.default_rng(nt * 100 + nphi)
    v = rng.standard_normal(g.shape)
    eps = 1e-6
    rp = residual(m, ScalarField(g, vals + eps * v), psi, 2).values
    rm = residual(m, ScalarField(g, vals - eps * v), psi, 2).values
    dirfd = ((rp - rm) / (2 * eps)).ravel()
    jv = J @ v.ravel()
    assert np.abs(jv - dirfd).max() / np.abs(jv).max() < 1e-5


@pytest.mark.parametrize("K,r_bar", [(1, 0.6), (-1, 0.8)])
def test_continuity_solve_curved_ambients(K, r_bar, grid16):
    # the continuation machinery is space-form-agnostic: anisotropic
    # targets in the spherical and hyperbolic models converge too
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.15, axis=(0.0, 0.0, 1.0))
    fieldv, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert report.residual_inf < 1e-10
    assert report.u_min[-1] > 0.0
    assert min(report.cone_margin) >= solver.CONE_MARGIN
    if K == 1:
        assert fieldv.values.max() < m.a


def _aniso_target(m):
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    return builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))


def test_continuity_default_steps_end_exactly_at_one(grid16, monkeypatch):
    # FIRST_STEP = 0.1 sets the first step only: each accepted step
    # doubles the next, with no cap at FIRST_STEP, and the last one is cut
    # to end exactly at 1
    m = spaceform(0)
    monkeypatch.setattr(solver, "FIRST_STEP", 0.1)
    _, report = continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert report.homotopy_t == pytest.approx([0.0, 0.1, 0.3, 0.7, 1.0], abs=1e-15)
    assert report.homotopy_t[-1] == 1.0
    # 0.3 + 0.4 ends 0.3 short of 1, within MIN_HOMOTOPY_STEP: that step
    # snaps to 1 instead of leaving a last stage from 0.7
    monkeypatch.setattr(solver, "MIN_HOMOTOPY_STEP", 0.35)
    _, report = continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert report.homotopy_t == pytest.approx([0.0, 0.1, 0.3, 1.0], abs=1e-15)
    assert report.homotopy_t[-1] == 1.0


@pytest.mark.parametrize("K,r_bar", [(-1, 2.0), (1, 1.3), (1, 1.45)])
def test_continuity_hard_targets_take_the_full_step(K, r_bar, grid16):
    # a large sphere in H^3, and spheres next to the pi/2 cap of S^3,
    # still converge from the radial start in the one stage to t = 1
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    _, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert report.homotopy_t == [0.0, 1.0]
    assert min(report.cone_margin) >= solver.CONE_MARGIN


@pytest.mark.parametrize("K,r_bar,epsilon", [(-1, 1.0, 0.2), (0, 1.0, 0.2), (1, 0.8, 0.2),
                                             (0, 1.0, 0.9), (1, 0.8, 0.24), (1, 0.8, 0.25),
                                             (-1, 1.0, 0.8)])
def test_continuity_full_step_matches_ten_steps(K, r_bar, epsilon, grid16, monkeypatch):
    # K = +1, r_bar = 0.8, epsilon >= 0.23 has a second solution, and a
    # damped Newton solve from the radial start straight at t = 1 ends on
    # it (rho in [0.78, 0.92] instead of [0.67, 0.78])
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=epsilon, axis=(0.0, 0.0, 1.0))
    f_one, rep_one = continuity_solve(m, grid16, psi, 2, TIGHT)
    monkeypatch.setattr(solver, "FIRST_STEP", 0.1)
    f_ten, rep_ten = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert rep_one.converged and rep_ten.converged
    assert np.abs(f_one.values - f_ten.values).max() < 1e-10


def _start(m, g, psi, opts=TIGHT):
    """The continuation's t = 0 solution and start prescription for target psi."""
    r0 = solver._radial_start(m, g, psi, 2)
    psi0 = builtin(m, "round_target", k=psi.k, r_bar=r0, m=4.0)
    start, _ = newton_solve(m, constant_field(g, r0), psi0, 2, opts)
    return start, psi0


def test_continuity_rejects_a_damped_stage_on_the_second_branch(grid16, monkeypatch):
    # K = +1, r_bar = 0.8, epsilon = 0.24 has a second solution.  A damped
    # Newton solve from the radial start straight at t = 1 converges to it,
    # with branch index -1 against the start's +1
    m = spaceform(1)
    base = builtin(m, "round_target", r_bar=0.8, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.24, axis=(0.0, 0.0, 1.0))
    start, psi0 = _start(m, grid16, psi)
    wrong, rep_wrong = newton_solve(m, start, psi0.blend(psi, 1.0), 2, TIGHT)
    assert rep_wrong.converged
    assert rep_wrong.branch_index == -1

    def ten_steps():
        with monkeypatch.context() as patch:
            patch.setattr(solver, "FIRST_STEP", 0.1)
            return continuity_solve(m, grid16, psi, 2, TIGHT)

    # seeded by the tangent predictor, the full step stays on the start's
    # branch: no stage is rejected
    f_pred, rep_pred = continuity_solve(m, grid16, psi, 2, TIGHT)
    f_pred_ten, _ = ten_steps()
    assert rep_pred.homotopy_t == [0.0, 1.0]
    assert rep_pred.branch_rejections == 0
    assert np.abs(f_pred.values - f_pred_ten.values).max() < 1e-10
    # a zero predictor seeds every first-stage attempt at the start itself:
    # the full step lands on the second solution, so the continuation
    # rejects that stage and reaches t = 1 through t = 0.5, where the
    # 10-step run ends
    monkeypatch.setattr(solver.PhiModes, "solve", lambda self, rhs: np.zeros_like(rhs))
    f_one, rep_one = continuity_solve(m, grid16, psi, 2, TIGHT)
    f_ten, rep_ten = ten_steps()
    assert rep_one.homotopy_t == [0.0, 0.5, 1.0]
    assert type(rep_one.summary()["branch_rejections"]) is int
    assert rep_one.summary()["branch_rejections"] == 1
    assert np.abs(f_one.values - f_ten.values).max() < 1e-10
    assert np.abs(f_pred.values - f_ten.values).max() < 1e-10
    assert np.abs(wrong.values - f_ten.values).max() > 0.1
    # with no room to halve the rejected step, the stall names both indices
    monkeypatch.setattr(solver, "MIN_HOMOTOPY_STEP", 0.6)
    with pytest.raises(NoConvergence) as info:
        continuity_solve(m, grid16, psi, 2, TIGHT)
    assert "homotopy stalled at t = 0.0" in str(info.value)
    assert "branch index -1" in str(info.value) and "the start's is +1" in str(info.value)
    assert info.value.report.branch_rejections == 1


@pytest.mark.parametrize("K,r_bar,epsilon,max_iters", [(0, 1.0, 0.9, 8), (-1, 1.0, 0.8, 6)])
def test_continuity_strong_anisotropy_iteration_budget(K, r_bar, epsilon, max_iters, grid16):
    # the damped full step is accepted where the solution is unique: both
    # reach t = 1 in one stage (the first-step rule took 28 and 15 iterations)
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=epsilon, axis=(0.0, 0.0, 1.0))
    _, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert report.iterations <= max_iters
    assert report.branch_rejections == 0


def test_lu_det_sign_matches_slogdet(grid16):
    # random sparse matrices, pivoted by SuperLU, and J at both K = +1
    # solutions of epsilon = 0.24: the right branch (+1) and the second (-1)
    rng = np.random.default_rng(7)
    mats = []
    for n in (1, 2, 17, 60, 200):
        a = sp.random(n, n, density=0.1, random_state=rng) + sp.diags(rng.standard_normal(n))
        mats.append(a.tocsc())
    m = spaceform(1)
    base = builtin(m, "round_target", r_bar=0.8, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.24, axis=(0.0, 0.0, 1.0))
    start, psi0 = _start(m, grid16, psi)
    right, _ = continuity_solve(m, grid16, psi, 2, TIGHT)
    wrong, _ = newton_solve(m, start, psi0.blend(psi, 1.0), 2, TIGHT)
    mats += [jacobian(m, f, psi, 2).tocsc() for f in (right, wrong)]
    signs = []
    for a in mats:
        lu = solver.splu(a, permc_spec="MMD_AT_PLUS_A")
        signs.append(solver._lu_det_sign(lu))
        assert signs[-1] == np.linalg.slogdet(a.toarray())[0]
    assert signs[-2:] == [1, -1]
    assert {-1, 1} <= set(signs[:-2])


def test_perm_parity_matches_transposition_count():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 8, 33, 257):
        for _ in range(5):
            perm = rng.permutation(n)
            p, swaps = list(perm), 0
            for i in range(n):
                while p[i] != i:
                    j = p[i]
                    p[i], p[j] = p[j], p[i]
                    swaps += 1
            assert solver._perm_parity(perm) == (-1) ** swaps


@pytest.mark.parametrize("nt,nphi", [(9, 10), (16, 32), (64, 128)])
@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_start_index_matches_dense_slogdet(nt, nphi, K, r_bar):
    # J at a constant field with a radial psi commutes with phi-shifts, and
    # the product of the signs of its two real Fourier blocks' determinants
    # (PhiModes.det_sign) is sign det J: at the continuation's start, and at
    # the sphere r_bar solving c warp^-m, whose index changes sign as m runs
    # from 4 to -12.  At 64x128 a dense J would take 0.5 GB, so the
    # reference there is the sign of SuperLU's factors
    m = spaceform(K)
    g = build_grid(nt, nphi)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    cases = [_start(m, g, psi)]
    for power in (4.0, 1.0, 0.0, -2.0, -5.0, -8.0, -12.0):
        c = m.sphere_sigma(r_bar, 2) * m.warp(r_bar) ** power
        cases.append((constant_field(g, r_bar), builtin(m, "radial_power", c=c, m=power)))
    indices = []
    for fieldv, radial in cases:
        J = jacobian(m, fieldv, radial, 2)
        indices.append(solver.PhiModes(J, g).det_sign())
        if g.n_nodes > 1024:
            ref = solver._lu_det_sign(solver.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A"))
        else:
            ref = np.linalg.slogdet(J.toarray())[0]
        assert indices[-1] == ref
    assert indices[0] == 1
    assert set(indices) == {-1, 1}


TILTED_AXIS = (0.3, 0.4, 0.866)


@pytest.mark.parametrize("nt", [16, 32])
@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), TILTED_AXIS], ids=["e_z", "tilted"])
@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_phi_modes_solve_matches_splu(K, r_bar, axis, nt):
    # J0, the Jacobian at the start with psi0, commutes with phi-shifts for
    # every target, a tilted axis included: its mode-by-mode solve of the
    # predictor's system F(start; psi_t) agrees with SuperLU's
    m = spaceform(K)
    g = build_grid(nt, 2 * nt)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=axis)
    start, psi0 = _start(m, g, psi)
    J0 = jacobian(m, start, psi0, 2)
    for t in (0.25, 1.0):
        b = residual(m, start, psi0.blend(psi, t), 2).values
        x = solver.PhiModes(J0, g).solve(b)
        assert x.shape == g.shape
        assert np.abs(J0 @ x.ravel() - b.ravel()).max() <= 1e-9 * np.abs(b).max()
        ref = solver.splu(J0.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b.ravel())
        assert np.abs(x.ravel() - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_phi_bands_of_j0_match_its_row_0(K, r_bar):
    # J0 commutes with phi-shifts, so its coefficients averaged over phi
    # are those its rows at phi-index 0 hold (the build before averaging)
    m = spaceform(K)
    g = build_grid(16, 32)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    start, psi0 = _start(m, g, builtin(m, "anisotropic", base=base, epsilon=0.2,
                                       axis=TILTED_AXIS))
    J0 = jacobian(m, start, psi0, 2)
    rows = J0[::g.n_phi].tocoo()
    col_t, col_p = np.divmod(rows.col, g.n_phi)
    ref = np.zeros((3,) + g.shape)
    np.add.at(ref, (col_t - rows.row + 1, rows.row, col_p), rows.data)
    bands = solver._phi_bands(J0, g)
    assert np.abs(bands - ref).max() <= 1e-14 * np.abs(ref).max()


def test_phi_modes_det_sign_matches_dense_slogdet_at_damped_solutions(grid16):
    # K = +1, epsilon = 0.24: Newton damps a step from the predicted seed and
    # lands on the start's branch (+1), and from the start itself it lands
    # on the second solution (-1).  Both converge by refinement against
    # phi-averaged modes with no LU, and the index the modes give is the
    # sign of the dense determinant of J at the solution
    m = spaceform(1)
    base = builtin(m, "round_target", r_bar=0.8, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.24, axis=(0.0, 0.0, 1.0))
    start, psi0 = _start(m, grid16, psi)
    psi1 = psi0.blend(psi, 1.0)
    j0_modes = solver.PhiModes(jacobian(m, start, psi0, 2), grid16)
    predicted = ScalarField(grid16, start.values
                            - j0_modes.solve(residual(m, start, psi1, 2).values))
    for seed, index in ((predicted, 1), (start, -1)):
        factor = solver.Factor(grid16)
        fieldv, report = newton_solve(m, seed, psi1, 2, TIGHT, factor=factor)
        assert report.factorizations == 0 and factor.lu is None
        assert report.branch_index == factor.modes.det_sign() == index
        assert np.linalg.slogdet(jacobian(m, fieldv, psi1, 2).toarray())[0] == index


@pytest.mark.parametrize("case", ["no_sweeps", "K+1"])
def test_continuation_falls_back_to_lu_when_refinement_cannot_contract(case, grid16,
                                                                        monkeypatch):
    # a tilted axis makes J depend on phi, so its phi-average is no longer
    # J itself.  With no sweep allowed (K = 0), or on the K = +1 problem,
    # refinement against the averaged modes gives up, and so does the one
    # rebuild from the current J: the continuation factors with SuperLU and
    # reaches the field of a run that factors every Jacobian
    K, r_bar = {"no_sweeps": (0, 1.0), "K+1": (1, 0.8)}[case]
    if case == "no_sweeps":
        monkeypatch.setattr(solver, "REFINE_MAX_SWEEPS", 0)
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    fieldv, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged and report.homotopy_t == [0.0, 1.0]
    assert report.factorizations >= 1
    real_newton = solver.newton_solve

    def fresh(model, rho0, psi, k, opts=None, factor=None):
        return real_newton(model, rho0, psi, k, opts)

    monkeypatch.setattr(solver, "newton_solve", fresh)
    f_fresh, _ = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert np.abs(fieldv.values - f_fresh.values).max() < 1e-10


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_tangent_predictor_saves_newton_steps_tilted(K, r_bar, grid16, monkeypatch):
    # the tangent predictor seeds the first stage closer to its solution
    # than the radial start does: fewer Newton steps and factorizations, and
    # the same field as a zero predictor (the start itself as the seed)
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    f_pred, rep_pred = continuity_solve(m, grid16, psi, 2, TIGHT)
    monkeypatch.setattr(solver.PhiModes, "solve", lambda self, rhs: np.zeros_like(rhs))
    f_zero, rep_zero = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert rep_pred.homotopy_t == rep_zero.homotopy_t == [0.0, 1.0]
    assert rep_pred.iterations < rep_zero.iterations
    assert rep_pred.factorizations < rep_zero.factorizations
    assert np.abs(f_pred.values - f_zero.values).max() < 1e-10


@pytest.mark.parametrize("step", ["leaves_domain", "leaves_cone"])
def test_tangent_predictor_dropped_for_one_retry_from_the_start(step, grid16, monkeypatch):
    # a predicted field outside (0, a), or one that is not admissible
    # (ConeBreach at Newton's seed), is dropped for one retry of the same t
    # from the start itself: the run is then the zero-predictor run
    m = spaceform(0)
    psi = _aniso_target(m)
    monkeypatch.setattr(solver.PhiModes, "solve", lambda self, rhs: np.zeros_like(rhs))
    f_zero, rep_zero = continuity_solve(m, grid16, psi, 2, TIGHT)
    tt, pp = grid16.mesh()
    bad = {"leaves_domain": np.full(grid16.shape, 10.0),
           "leaves_cone": -0.9 * np.sin(tt) * np.cos(2.0 * pp)}[step]
    # the same bad answer, in the shape asked for, to Newton's refinement
    monkeypatch.setattr(solver.PhiModes, "solve",
                        lambda self, rhs: np.reshape(bad, np.shape(rhs)).copy())
    attempts = []
    real_blend = Prescription.blend

    def blend(self, other, t):
        attempts.append(t)
        return real_blend(self, other, t)

    monkeypatch.setattr(Prescription, "blend", blend)
    fieldv, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert attempts == [1.0, 1.0]
    assert report.homotopy_t == rep_zero.homotopy_t == [0.0, 1.0]
    assert report.residual_trace == rep_zero.residual_trace
    assert report.factorizations == rep_zero.factorizations
    assert np.array_equal(fieldv.values, f_zero.values)


def test_round_sphere_config_builds_no_mode_blocks(monkeypatch):
    # the start already meets newton_tol at t = 1: no predictor, no blocks,
    # no Newton step
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "round_sphere.cfg")
    built = []

    class Counted(solver.PhiModes):
        __slots__ = ()

        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(solver, "PhiModes", Counted)
    fieldv, report = continuity_solve(cfg.model, cfg.grid, cfg.psi, cfg.k, cfg.solver)
    assert report.converged and report.homotopy_t == [0.0, 1.0]
    assert report.iterations == 0
    assert built == []
    assert np.abs(fieldv.values - 1.0).max() < 1e-12


def test_radial_start_scans_past_r_30():
    # K = 0, psi = 1/35^2: the root r = 35 lies past r = 30, inside a = 50
    m = spaceform(0)
    g = build_grid(8, 16)
    psi = builtin(m, "constant", c=1.0 / 35.0**2)
    fieldv, report = continuity_solve(m, g, psi, 2, TIGHT)
    assert report.converged
    assert np.abs(fieldv.values - 35.0).max() < 1e-8


@pytest.mark.parametrize("K", [-1, 0, 1])
def test_radial_start_scans_below_r_1e_3(K):
    # psi = 2e6: C(2,2) q(r)^2 = 2e6 has its root near r = 1/sqrt(2e6),
    # about 7.07e-4, below the scan's start at 1e-3; the scan goes on down
    # and the start solves the round problem in one Newton step.  The
    # sphere's psi of 2e6 leaves a roundoff floor far above 1e-11 there
    m = spaceform(K)
    g = build_grid(16, 32)
    psi = builtin(m, "constant", c=2e6)
    fieldv, report = continuity_solve(m, g, psi, 2, SolverOptions(newton_tol=1e-6))
    assert report.converged and report.iterations <= 1
    r_star = solver._radial_start(m, g, psi, 2)
    assert m.sphere_sigma(r_star, 2) == pytest.approx(2e6, rel=1e-10)
    assert 7e-4 < r_star < 7.1e-4
    assert np.abs(fieldv.values - r_star).max() < 1e-12


def test_radial_start_below_r_1_keeps_relative_precision():
    # the Illinois bracket closes to RADIAL_XTOL relative below r = 1, so a
    # start near 7.07e-4 solves the round problem to roundoff, not to
    # RADIAL_XTOL / r0
    m = spaceform(-1)
    psi = builtin(m, "constant", c=2e6)
    r0 = solver._radial_start(m, build_grid(16, 32), psi, 2)
    assert abs(m.sphere_sigma(r0, 2) - 2e6) <= 1e-14 * 2e6


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8), (1, 1.45)])
def test_radial_start_matches_brentq(K, r_bar, grid16, monkeypatch):
    # the Illinois iteration finds brentq's root on the bracket of the scan
    from scipy.optimize import brentq
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    brackets = []
    real_illinois = solver._illinois

    def illinois(f, a, b, fa, fb):
        brackets.append((f, a, b))
        return real_illinois(f, a, b, fa, fb)

    monkeypatch.setattr(solver, "_illinois", illinois)
    r0 = solver._radial_start(m, grid16, psi, 2)
    (gap, a, b), = brackets
    ref = brentq(gap, a, b, xtol=1e-14, rtol=8.9e-16)
    assert abs(r0 - ref) <= 1e-13 * ref


def test_continuity_failed_stage_is_not_repeated(grid16, monkeypatch):
    # after a failed attempt the step actually tried is halved, so the next
    # attempt never repeats the same t
    m = spaceform(0)
    attempts = []
    real_blend, real_newton = Prescription.blend, solver.newton_solve

    def blend(self, other, t):
        attempts.append(t)
        return real_blend(self, other, t)

    def newton(model, rho0, psi, k, opts=None, **kw):
        if psi.params.get("t") == 1.0 and attempts.count(1.0) == 1:
            raise NoConvergence("injected failure at t = 1")
        return real_newton(model, rho0, psi, k, opts, **kw)

    monkeypatch.setattr(Prescription, "blend", blend)
    monkeypatch.setattr(solver, "newton_solve", newton)
    _, report = continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert report.converged
    assert report.homotopy_t[-1] == 1.0
    assert attempts.count(1.0) == 2
    assert all(a != b for a, b in zip(attempts, attempts[1:]))
    # the full step fails, its half succeeds, and the doubled step after it
    # reaches t = 1: growth is not capped at the step that last succeeded
    assert attempts == [1.0, 0.5, 1.0]
    assert report.homotopy_t == [0.0, 0.5, 1.0]


def test_linear_solve_residual_64x128():
    # the minimum-degree ordering keeps the direct solve accurate on the
    # 9-point jet Jacobian of the headline problem.  The right-hand side is
    # random: smooth ones excite the near-null translation modes, where
    # either ordering leaves |Jx - b| at about 1e-10 |b|
    m = spaceform(0)
    g = build_grid(64, 128)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.03 * np.cos(tt)
                            + 0.02 * np.sin(tt) * np.cos(pp))
    J = jacobian(m, f, _aniso_target(m), 2)
    b = np.random.default_rng(64).standard_normal(g.n_nodes)
    x = solver._linear_solve(J, b)
    assert np.abs(J @ x - b).max() <= 1e-10 * np.abs(b).max()


def _stage_jacobian(m, g, t, amp):
    # the Jacobian of the t-blend from the radial start towards the
    # anisotropic target, at a field a distance amp off the round sphere
    start = builtin(m, "round_target", r_bar=1.0, m=4.0)
    f = field_from_function(g, lambda tt, pp: 1.0 + amp * np.cos(tt)
                            + amp * np.sin(tt) * np.cos(pp))
    return jacobian(m, f, start.blend(_aniso_target(m), t), 2)


def test_linear_solve_reuses_neighbouring_lu(grid16):
    # the LU of the t = 0 Jacobian solves the t = 0.1 system by refinement
    # to 1e-8 |b| without a new factorization
    m = spaceform(0)
    J0 = _stage_jacobian(m, grid16, 0.0, 0.0)
    J1 = _stage_jacobian(m, grid16, 0.1, 0.01)
    factor = solver.Factor()
    factor.lu = stale = solver.splu(J0.tocsc(), permc_spec="MMD_AT_PLUS_A")
    b = np.random.default_rng(16).standard_normal(grid16.n_nodes)
    report = solver.SolveReport()
    x = solver._linear_solve(J1, b, factor, report)
    assert np.abs(J1 @ x - b).max() <= 1e-8 * np.abs(b).max()
    assert report.factorizations == 0
    assert 0 < report.refine_sweeps <= solver.REFINE_MAX_SWEEPS
    assert factor.lu is stale


def test_linear_solve_refactors_once_when_refinement_diverges(grid16):
    # against the LU of -J the first solve leaves twice the residual it
    # started from: the stale LU is dropped before any sweep and replaced
    # by one fresh factorization, as accurate as a fresh solve
    m = spaceform(0)
    J = _stage_jacobian(m, grid16, 0.1, 0.01)
    factor = solver.Factor()
    factor.lu = stale = solver.splu((-J).tocsc(), permc_spec="MMD_AT_PLUS_A")
    b = np.random.default_rng(32).standard_normal(grid16.n_nodes)
    report = solver.SolveReport()
    x = solver._linear_solve(J, b, factor, report)
    assert report.factorizations == 1
    assert report.refine_sweeps == 0
    assert factor.lu is not None and factor.lu is not stale
    assert np.array_equal(x, solver._linear_solve(J, b))
    assert np.abs(J @ x - b).max() <= 1e-10 * np.abs(b).max()


def test_linear_solve_drops_a_slowly_contracting_lu(grid16):
    # against the LU of J / 0.6 each sweep keeps 0.4 of the residual, so
    # 1e-8 |b| is about 20 sweeps away: more than REFINE_MAX_SWEEPS, and the
    # LU is dropped at once instead of after a budget of sweeps
    m = spaceform(0)
    J = _stage_jacobian(m, grid16, 0.1, 0.01)
    factor = solver.Factor()
    factor.lu = stale = solver.splu((J / 0.6).tocsc(), permc_spec="MMD_AT_PLUS_A")
    b = np.random.default_rng(40).standard_normal(grid16.n_nodes)
    report = solver.SolveReport()
    x = solver._linear_solve(J, b, factor, report)
    assert report.factorizations == 1
    assert report.refine_sweeps <= 1
    assert factor.lu is not stale
    assert np.abs(J @ x - b).max() <= 1e-10 * np.abs(b).max()


def test_linear_solve_keeps_a_fast_contracting_lu(grid16):
    # against the LU of J / 0.95 each sweep keeps 0.05 of the residual:
    # the goal is about 6 sweeps away and no factorization happens
    m = spaceform(0)
    J = _stage_jacobian(m, grid16, 0.1, 0.01)
    factor = solver.Factor()
    factor.lu = stale = solver.splu((J / 0.95).tocsc(), permc_spec="MMD_AT_PLUS_A")
    b = np.random.default_rng(41).standard_normal(grid16.n_nodes)
    report = solver.SolveReport()
    x = solver._linear_solve(J, b, factor, report)
    assert report.factorizations == 0
    assert 0 < report.refine_sweeps <= solver.REFINE_MAX_SWEEPS
    assert factor.lu is stale
    assert np.abs(J @ x - b).max() <= solver.REFINE_TOL * np.abs(b).max()


def test_singular_jacobian_with_stale_lu_raises_no_convergence():
    # a healthy stale LU cannot hide a singular Jacobian: refinement stalls
    # on the zero row, and the fresh factorization fails
    J = sp.identity(2048, format="lil")
    J[7, 7] = 0.0
    J = J.tocsr()
    factor = solver.Factor()
    factor.lu = solver.splu(sp.identity(2048, format="csc"), permc_spec="MMD_AT_PLUS_A")
    with pytest.raises(NoConvergence, match="singular Jacobian"):
        solver._linear_solve(J, np.ones(2048), factor)
    assert factor.lu is None


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_continuity_reused_lu_matches_fresh_factorizations(K, r_bar, grid16, monkeypatch):
    # one LU shared by the whole continuation gives the field and the
    # Newton iterations of a run that factors every Jacobian afresh
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    f_reuse, rep_reuse = continuity_solve(m, grid16, psi, 2, TIGHT)
    real_newton = solver.newton_solve

    def fresh(model, rho0, psi, k, opts=None, factor=None):
        return real_newton(model, rho0, psi, k, opts)

    monkeypatch.setattr(solver, "newton_solve", fresh)
    f_fresh, rep_fresh = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert rep_reuse.converged and rep_fresh.converged
    assert np.abs(f_reuse.values - f_fresh.values).max() < 1e-10
    assert rep_reuse.iterations == rep_fresh.iterations
    assert rep_reuse.homotopy_t == rep_fresh.homotopy_t
    assert rep_fresh.factorizations == rep_fresh.iterations
    assert rep_fresh.refine_sweeps == 0


def test_continuation_assembles_only_the_iterates_newton_evaluates(grid16, monkeypatch):
    # the predictor reads the radial start's geometry from the t = 0 solve
    # (its report's state) instead of assembling the start again
    counts = {"assemble": 0, "evaluate": 0}
    real_assemble, real_evaluate = solver.assemble, solver._evaluate

    def assemble(*args):
        counts["assemble"] += 1
        return real_assemble(*args)

    def evaluate(*args):
        counts["evaluate"] += 1
        return real_evaluate(*args)

    monkeypatch.setattr(solver, "assemble", assemble)
    monkeypatch.setattr(solver, "_evaluate", evaluate)
    m = spaceform(0)
    _, report = continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert report.iterations > 0
    assert counts["assemble"] == counts["evaluate"]


def test_continuation_reports_factorizations_and_sweeps(grid16):
    # the headline's Newton systems refine against phi-averaged modes:
    # sweeps, and no LU
    m = spaceform(0)
    _, report = continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert report.factorizations == 0
    assert report.refine_sweeps > 0
    summary = report.summary()
    assert summary["factorizations"] == report.factorizations
    assert summary["refine_sweeps"] == report.refine_sweeps
    assert summary["branch_rejections"] == 0


def _manufactured(m, g, r_bar):
    """rho* = r_bar (1 + 0.1 cos t + 0.05 sin^2 t cos 2p) and the psi it solves,
    psi = sigma_2[rho*](z) (warp(rho*) / warp(rho))^4.

    sigma_2[rho*] comes from rho*'s analytic partials, so rho - rho* on the
    grid is the discretization error.  The exponent 4 > k keeps radial
    monotonicity strict, so rho* is the only solution.  psi is indexed by
    node: the solver passes z as the (nt, nphi, 3) grid and its radial start
    as the flattened node list, with rho on a leading axis of radii, so it
    reads the node shape from z.
    """
    tt, pp = g.mesh()
    st, ct, c2, s2 = np.sin(tt), np.cos(tt), np.cos(2 * pp), np.sin(2 * pp)
    partials = [r_bar * p for p in (
        1.0 + 0.1 * ct + 0.05 * st**2 * c2,
        -0.1 * st + 0.1 * st * ct * c2,
        -0.1 * st**2 * s2,
        -0.1 * ct + 0.1 * (ct**2 - st**2) * c2,
        -0.2 * st * ct * s2,
        -0.2 * st**2 * c2)]
    state = pointwise_geometry(m, g, jet_from_partials(g, *partials))
    sigma2 = sigma(state.kappa, 2)
    warp_star = m.warp(partials[0])

    def eval_fn(z, rho, nu):
        shape = np.shape(z)[:-1]
        return (sigma2.reshape(shape)
                * (warp_star.reshape(shape) / m.warp(rho)) ** 4)

    def partials_fn(z, rho, nu):
        return -4.0 * m.sphere_curvature(rho) * eval_fn(z, rho, nu), 0.0

    psi = Prescription(eval_fn, partials_fn, family="manufactured",
                       params={"r_bar": r_bar}, k=2, model=m, validate=False)
    return psi, partials[0]


@pytest.mark.parametrize("K,r_bar", [(0, 1.0), (-1, 1.0), (1, 0.6)])
def test_manufactured_solution_16x32(K, r_bar, grid16):
    # 32x64 and up are left out: the polar rows' roundoff floor sits near
    # newton_tol there (K = +1 stalls at t = 0)
    m = spaceform(K)
    psi, exact = _manufactured(m, grid16, r_bar)
    fieldv, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert report.residual_inf <= TIGHT.newton_tol
    assert np.abs(fieldv.values - exact).max() < 1e-3
