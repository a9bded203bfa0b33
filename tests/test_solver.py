import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import lu_det_sign, perm_parity

from starcurv import solver
from starcurv.config import parse_config
from starcurv.geometry import pointwise_geometry
from starcurv.grid import (OFFSETS, ScalarField, StencilOperator, build_grid, constant_field,
                           field_from_function, jet_from_partials, jet_weights, pad_poles,
                           raw_jet)
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
    data = np.zeros(g.shape + (9,))
    for c, base in enumerate(parts):
        step = fd_step * (1.0 + np.abs(base))
        sides = []
        for moved in (base + step, base - step):
            jet = jet_from_partials(g, *parts[:c], moved, *parts[c + 1:])
            sides.append(solver._residual_of(pointwise_geometry(m, g, jet), psi, k)[1])
        data += ((sides[0] - sides[1]) / (2.0 * step))[..., None] * jet_weights(g)[c]
    return StencilOperator(g, data)


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
    # the nine columns of a row are distinct nodes, so the weights are the entries
    assert np.abs(J.data - ref.data).max() <= 1e-8 * np.abs(ref.data).max()


def _psi_linearized_trailing_axis(state, psi):
    # reference: the frame projections as reductions over the trailing axis
    g = state.grid
    frame = g.unit_vectors()
    psi_rho, psi_nu = psi.partials(frame[0], state.rho, state.nu)
    p_z, p_t, p_p = ((psi_nu * e).sum(axis=-1) for e in frame)
    phi, ft, fp = state.phi, state.jet.d_t, state.jet.d_p / g.sin_t
    s2 = phi * phi + state.jet.grad_sq
    sroot = np.sqrt(s2)
    a = (p_z * phi - p_t * ft - p_p * fp) / s2
    return [psi_rho + state.dphi * (p_z - a * phi) / sroot,
            -(p_t + a * ft) / sroot,
            -(p_p + a * fp) / (sroot * g.sin_t)]


@pytest.mark.parametrize("nt", [16, 64])
def test_component_wise_kernels_match_trailing_axis_formulas_bitwise(nt):
    # a field and a psi that depend on phi, about a tilted axis, so that no
    # vector component is zero: the component-wise sums, the unit normal and
    # the anisotropic partials are bitwise those of the (..., 3) formulas
    m = spaceform(0)
    g = build_grid(nt, 2 * nt)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.03 * np.cos(tt)
                            + 0.02 * np.sin(tt) * np.cos(pp))
    state = solver.assemble(m, f)
    psi = _tilted_blend(m, 2, 1.0)
    for new, old in zip(solver._psi_linearized(state, psi),
                        _psi_linearized_trailing_axis(state, psi)):
        assert new.tobytes() == old.tobytes()

    z, e_t, e_p = g.unit_vectors()
    jet = state.jet
    nu = (1.0 / np.sqrt(state.phi ** 2 + jet.grad_sq))[..., None] * (
        -jet.d_t[..., None] * e_t - (jet.d_p / g.sin_t)[..., None] * e_p
        + state.phi[..., None] * z)
    assert state.nu.tobytes() == nu.tobytes()

    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    aniso = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    axis = np.asarray(aniso.params["axis"])
    tilt = 1.0 + 0.2 * (state.nu @ axis)
    b_rho, b_nu = base.partials(z, state.rho, state.nu)
    psi_rho, psi_nu = aniso.partials(z, state.rho, state.nu)
    assert psi_rho.tobytes() == (b_rho * tilt).tobytes()
    assert psi_nu.tobytes() == (b_nu * tilt[..., None] + 0.2 * np.multiply.outer(
        base(z, state.rho, state.nu), axis)).tobytes()


def _sigma_linearized_table(K, state, k):
    # reference: the whole (dlogP, dB, dg) table of every component at once,
    # P = phi / S recomputed per a_ij, each row added up by sum()
    g = state.grid
    st, ct = g.sin_t, g.cos_t
    st2 = st * st
    phi, dphi = state.phi, state.dphi
    ft, fp, w = state.jet.d_t, state.jet.d_p, state.jet.grad_sq
    g_tt, g_tp, g_pp = state.g_tt, state.g_tp, state.g_pp
    h_tt, h_tp, h_pp = state.h_tt, state.h_tp, state.h_pp
    det_g = g_tt * g_pp - g_tp * g_tp
    if k == 2:
        sk = (h_tt * h_pp - h_tp * h_tp) / det_g
        a = (h_pp / det_g, -2.0 * h_tp / det_g, h_tt / det_g)
        b = (-sk * g_pp / det_g, 2.0 * sk * g_tp / det_g, -sk * g_tt / det_g)
    else:
        sk = (g_pp * h_tt - 2.0 * g_tp * h_tp + g_tt * h_pp) / det_g
        a = (g_pp / det_g, -2.0 * g_tp / det_g, g_tt / det_g)
        b = ((h_pp - sk * g_pp) / det_g, 2.0 * (sk * g_tp - h_tp) / det_g,
             (h_tt - sk * g_tt) / det_g)
    s2 = phi * phi + w
    pa = tuple(phi / np.sqrt(s2) * a_ij for a_ij in a)
    q = dphi / phi
    dq = -K - q * q
    de = dphi * dphi - K * phi * phi
    dgv = 2.0 * phi * dphi
    table = (
        (q * w / s2, 2.0 * dq * ft * ft + de, 2.0 * dq * ft * fp, 2.0 * dq * fp * fp + de * st2,
         dgv, None, dgv * st2),
        (-ft / s2, 4.0 * q * ft, 2.0 * q * fp, -st * ct, 2.0 * ft, fp, None),
        (-fp / (st2 * s2), None, ct / st + 2.0 * q * ft, 4.0 * q * fp, None, ft, 2.0 * fp),
        (None, -1.0, None, None, None, None, None),
        (None, None, -1.0, None, None, None, None),
        (None, None, None, -1.0, None, None, None),
    )
    out = []
    for dlogp, *rest in table:
        terms = [c * d for c, d in zip(pa + b, rest) if d is not None]
        if dlogp is not None:
            terms.insert(0, k * sk * dlogp)
        out.append(sum(terms[1:], terms[0]))
    return out


def _jacobian_planes(m, f, psi, k):
    # reference: one contiguous plane per offset, moved to a last axis
    state = solver.assemble(m, f)
    dfdc = _sigma_linearized_table(m.K, state, k)
    for c, d in enumerate(solver._psi_linearized(state, psi)):
        dfdc[c] = dfdc[c] - d
    weights = jet_weights(f.grid)
    planes = np.zeros((weights.shape[1],) + f.grid.shape)
    for w, d in zip(weights, dfdc):
        for o in np.flatnonzero(w):
            planes[o] += w[o] * d
    return np.ascontiguousarray(np.moveaxis(planes, 0, -1))


@pytest.mark.parametrize("nt", [16, 64])
@pytest.mark.parametrize("K,r_bar,k", [(-1, 1.0, 1), (0, 1.0, 2), (1, 0.6, 2)])
def test_jacobian_fills_one_buffer_bitwise_as_planes(nt, K, r_bar, k):
    # J's weights are added into one (n_theta, n_phi, 9) buffer, one dF/dc
    # row at a time: bitwise the planes-plus-moveaxis construction, on a
    # state and a psi that depend on phi about a tilted axis
    m = spaceform(K)
    g = build_grid(nt, 2 * nt)
    f = field_from_function(g, lambda tt, pp: r_bar * (1.0 + 0.03 * np.cos(tt)
                                                       + 0.02 * np.sin(tt) * np.cos(pp)))
    psi = _tilted_blend(m, k, r_bar)
    J = jacobian(m, f, psi, k)
    ref = _jacobian_planes(m, f, psi, k)
    assert J.data.shape == ref.shape and J.data.flags.c_contiguous
    assert J.data.tobytes() == ref.tobytes()


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
    J0 = jacobian(m, f, psi, 2).tocsc().toarray()
    J1 = jacobian(m, rolled, psi, 2).tocsc().toarray()
    assert np.array_equal(J1, J0[np.ix_(perm, perm)])


def test_jacobian_ignores_constant_psi_level(grid16):
    # a constant prescription contributes nothing to the Jacobian
    m = spaceform(0)
    f = field_from_function(grid16, lambda tt, pp: 1.0 + 0.05 * np.cos(tt))
    J1 = jacobian(m, f, builtin(m, "constant", c=1.0), 2)
    J2 = jacobian(m, f, builtin(m, "constant", c=2.0), 2)
    assert np.abs(J1.data - J2.data).max() < 1e-8


def test_jacobian_sparsity(grid16):
    m = spaceform(0)
    J = jacobian(m, constant_field(grid16, 1.0), builtin(m, "constant", c=1.0), 2)
    per_row = np.diff(J.tocsc().tocsr().indptr)
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
    assert report.cone_margin[-1] > 0
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
    assert J1.grid is J2.grid
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


def _identity_with_zero_at_node_7(g):
    # the identity as a stencil operator, its diagonal entry at node 7 zeroed
    data = np.zeros(g.shape + (9,))
    data[..., 4] = 1.0
    data[0, 7, 4] = 0.0
    return StencilOperator(g, data)


def test_singular_jacobian_raises_no_convergence(monkeypatch):
    # an exactly singular Jacobian on a 32x64 grid (2048 nodes) must end in
    # NoConvergence carrying the last good state, never in a numpy error
    g = build_grid(32, 64)
    J = _identity_with_zero_at_node_7(g)
    with pytest.raises(NoConvergence, match="singular Jacobian"):
        solver._linear_solve(J, np.ones(2048))
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


def _patch_predictor(monkeypatch, step):
    """Replace the tangent predictor's mode solve by step(F): the predictor
    solves the grid-shaped F(start; psi_t), while Newton's linear solve
    passes flat vectors to the same method and keeps the real solve."""
    real = solver.PhiModes.solve
    monkeypatch.setattr(solver.PhiModes, "solve",
                        lambda self, rhs: step(rhs) if np.ndim(rhs) == 2 else real(self, rhs))


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
    _patch_predictor(monkeypatch, np.zeros_like)
    f_one, rep_one = continuity_solve(m, grid16, psi, 2, TIGHT)
    f_ten, rep_ten = ten_steps()
    assert rep_one.homotopy_t == [0.0, 0.5, 1.0]
    assert type(rep_one.summary()["branch_rejections"]) is int
    assert rep_one.summary()["branch_rejections"] == 1
    # the rejected full step is the Newton solve that reached `wrong`: its
    # steps and matvecs count as rejected work, not in iterations
    assert rep_pred.summary()["rejected_iterations"] == 0
    assert rep_one.summary()["rejected_iterations"] == rep_wrong.iterations > 0
    assert rep_one.rejected_linear_iterations == rep_wrong.linear_iterations
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
        signs.append(lu_det_sign(lu))
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
            assert perm_parity(perm) == (-1) ** swaps


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
        indices.append(solver.PhiModes(J).det_sign())
        if g.n_nodes > 1024:
            ref = lu_det_sign(solver.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A"))
        else:
            ref = np.linalg.slogdet(J.tocsc().toarray())[0]
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
        x = solver.PhiModes(J0).solve(b)
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
    rows = J0.tocsc()[::g.n_phi].tocoo()
    col_t, col_p = np.divmod(rows.col, g.n_phi)
    ref = np.zeros((3,) + g.shape)
    np.add.at(ref, (col_t - rows.row + 1, rows.row, col_p), rows.data)
    bands = solver._phi_bands(J0)
    assert np.abs(bands - ref).max() <= 1e-14 * np.abs(ref).max()


def _bincount_phi_bands(J):
    # the phi-averaged bands as a bincount over the entries of J's CSR rows
    # in offset order, each entry's bin read off its column node number
    g = J.grid
    n_t, n_p = g.shape
    ids = pad_poles(g, np.arange(g.n_nodes).reshape(g.shape)).astype(np.intp)
    col = np.stack([np.roll(ids, -dj, axis=1)[1 + di:1 + di + n_t] for di, dj in OFFSETS],
                   axis=-1).ravel()
    row = np.repeat(np.arange(g.n_nodes), len(OFFSETS))
    i = row // n_p
    flat = ((col // n_p - i + 1) * n_t + i) * n_p + (col - row) % n_p
    sums = np.bincount(flat, weights=J.data.ravel(), minlength=3 * n_t * n_p)
    return sums.reshape(3, n_t, n_p) / n_p


@pytest.mark.parametrize("nt,nphi", [(8, 8), (9, 10), (11, 16), (16, 32)])
def test_phi_bands_match_the_csr_bincount_bitwise(nt, nphi):
    # random weights, and weights that do not depend on phi (a J that
    # commutes with phi-shifts): the bands read from the operator's data,
    # pole ghosts included, are those of the bincount, bit for bit
    g = build_grid(nt, nphi)
    rng = np.random.default_rng(nt * 1000 + nphi)
    for data in (rng.standard_normal(g.shape + (9,)),
                 np.repeat(rng.standard_normal((nt, 1, 9)), nphi, axis=1)):
        J = StencilOperator(g, data)
        assert np.array_equal(solver._phi_bands(J), _bincount_phi_bands(J))


@pytest.mark.parametrize("K,r_bar,nt", [(-1, 1.0, 128), (0, 1.0, 128), (1, 0.8, 128),
                                        (0, 1.0, 256)])
def test_phi_modes_det_sign_matches_lu_at_high_resolution(K, r_bar, nt):
    # the branch index of the start, which every damped stage is checked
    # against, is PhiModes.det_sign of J0 at the headline problem's radial
    # start; the Thomas sweep behind it has no pivoting, and at these grids
    # it still agrees with the sign of SuperLU's pivoted factors of J0
    m = spaceform(K)
    g = build_grid(nt, 2 * nt)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    start, psi0 = _start(m, g, psi)
    J0 = jacobian(m, start, psi0, 2)
    lu = solver.splu(J0.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert solver.PhiModes(J0).det_sign() == lu_det_sign(lu) == 1


def test_phi_modes_det_sign_matches_dense_slogdet_at_damped_solutions(grid16):
    # K = +1, epsilon = 0.24: Newton damps a step from the predicted seed and
    # lands on the start's branch (+1), and from the start itself it lands
    # on the second solution (-1).  The index the modes give (the report's
    # branch_index) is the sign of the dense determinant of J at the
    # solution: exactly for the axis e_z, where the modes of each J are J
    # and no GMRES matvec is needed, and, from the start, for two tilted
    # axes, where J depends on phi and the modes only approximate it
    m = spaceform(1)
    base = builtin(m, "round_target", r_bar=0.8, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.24, axis=(0.0, 0.0, 1.0))
    start, psi0 = _start(m, grid16, psi)
    psi1 = psi0.blend(psi, 1.0)
    j0_modes = solver.PhiModes(jacobian(m, start, psi0, 2))
    predicted = ScalarField(grid16, start.values
                            - j0_modes.solve(residual(m, start, psi1, 2).values))
    cases = [(predicted, psi1, 1, True), (start, psi1, -1, True)]
    for axis in (TILTED_AXIS, (1.0, 0.0, 0.0)):
        psi = builtin(m, "anisotropic", base=base, epsilon=0.24, axis=axis)
        start, psi0 = _start(m, grid16, psi)
        cases.append((start, psi0.blend(psi, 1.0), -1, False))
    for seed, psi1, index, axisymmetric in cases:
        fieldv, report = newton_solve(m, seed, psi1, 2, TIGHT)
        assert (report.linear_iterations == 0) == axisymmetric
        assert report.branch_index == index
        assert np.linalg.slogdet(jacobian(m, fieldv, psi1, 2).tocsc().toarray())[0] == index


def test_continuation_counts_the_work_of_failed_stage_attempts(grid16, monkeypatch):
    # with a budget of two corrector steps (the chord step, then one Newton
    # step) and the default newton_tol, each attempt from t = 1 down to 1/4
    # fails, t = 1/8 is accepted, and 3/8, 1/4 and 3/16 fail before the run
    # stalls below a least step of 0.05.  The tilted axis gives each Newton
    # system GMRES matvecs: the accepted stages' work stays in iterations
    # and linear_iterations, the failed attempts' goes to the rejected
    # counters, and together they count every matvec
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
    monkeypatch.setattr(solver, "MIN_HOMOTOPY_STEP", 0.05)
    matvecs = []
    real_cycle = solver._gmres_cycle

    def cycle(*args):
        dx, n = real_cycle(*args)
        matvecs.append(n)
        return dx, n

    monkeypatch.setattr(solver, "_gmres_cycle", cycle)
    m = spaceform(0)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    with pytest.raises(NoConvergence, match="homotopy stalled") as info:
        continuity_solve(m, grid16, psi, 2, SolverOptions())
    report = info.value.report
    assert report.homotopy_t == [0.0, 0.125]
    assert report.iterations == 2
    assert report.rejected_iterations == 12
    assert report.linear_iterations > 0 and report.rejected_linear_iterations > 0
    assert report.linear_iterations + report.rejected_linear_iterations == sum(matvecs)
    summary = report.summary()
    assert (summary["rejected_iterations"], summary["rejected_linear_iterations"]) == (
        12, report.rejected_linear_iterations)


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_tangent_predictor_saves_newton_steps_tilted(K, r_bar, grid16, monkeypatch):
    # the tangent predictor seeds the first stage closer to its solution
    # than the radial start does: fewer Newton steps and GMRES matvecs, and
    # the same field as a zero predictor (the start itself as the seed)
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    f_pred, rep_pred = continuity_solve(m, grid16, psi, 2, TIGHT)
    _patch_predictor(monkeypatch, np.zeros_like)
    f_zero, rep_zero = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert rep_pred.homotopy_t == rep_zero.homotopy_t == [0.0, 1.0]
    assert rep_pred.iterations < rep_zero.iterations
    assert rep_pred.linear_iterations < rep_zero.linear_iterations
    assert np.abs(f_pred.values - f_zero.values).max() < 1e-10


@pytest.mark.parametrize("step", ["leaves_domain", "leaves_cone"])
def test_tangent_predictor_dropped_for_one_retry_from_the_start(step, grid16, monkeypatch):
    # a predicted field outside (0, a), or one that is not admissible
    # (ConeBreach at Newton's seed), is dropped for one retry of the same t
    # from the start itself: the run is then the zero-predictor run
    m = spaceform(0)
    psi = _aniso_target(m)
    _patch_predictor(monkeypatch, np.zeros_like)
    f_zero, rep_zero = continuity_solve(m, grid16, psi, 2, TIGHT)
    tt, pp = grid16.mesh()
    bad = {"leaves_domain": np.full(grid16.shape, 10.0),
           "leaves_cone": -0.9 * np.sin(tt) * np.cos(2.0 * pp)}[step]
    _patch_predictor(monkeypatch, lambda res: bad.copy())
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
    assert report.linear_iterations == rep_zero.linear_iterations
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
    # the headline target's 9-point jet Jacobian at a field that depends on
    # phi: the modes only approximate J, and GMRES reaches the goal
    # max(REFINE_TOL |b|, REFINE_FLOOR max(|J| |x|)) on a random right-hand
    # side, which excites every mode
    m = spaceform(0)
    g = build_grid(64, 128)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.03 * np.cos(tt)
                            + 0.02 * np.sin(tt) * np.cos(pp))
    J = jacobian(m, f, _aniso_target(m), 2)
    b = np.random.default_rng(64).standard_normal(g.n_nodes)
    report = solver.SolveReport()
    x, _ = solver._linear_solve(J, b, report)
    goal = max(solver.REFINE_TOL * np.abs(b).max(),
               solver.REFINE_FLOOR * (abs(J) @ np.abs(x)).max())
    assert np.abs(J @ x - b).max() <= goal
    assert 0 < report.linear_iterations


@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.8)])
def test_continuity_reused_lu_matches_fresh_factorizations(K, r_bar, grid16,
                                                          superlu_reference):
    # for the axis e_z the phi-averaged modes of each Jacobian are J itself:
    # GMRES returns their first solve, with no matvec, and gives the field,
    # the Newton iterations and the stages of a run that solves every
    # Newton system directly
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    f_reuse, rep_reuse = continuity_solve(m, grid16, psi, 2, TIGHT)
    f_fresh, rep_fresh = superlu_reference(continuity_solve, m, grid16, psi, 2, TIGHT)
    assert rep_reuse.converged and rep_fresh.converged
    assert np.abs(f_reuse.values - f_fresh.values).max() < 1e-10
    assert rep_reuse.iterations == rep_fresh.iterations
    assert rep_reuse.homotopy_t == rep_fresh.homotopy_t == [0.0, 1.0]
    assert rep_reuse.linear_iterations == 0


@pytest.mark.parametrize("case", ["no_sweeps", "K+1"])
def test_continuation_falls_back_to_lu_when_refinement_cannot_contract(
        case, grid16, monkeypatch, superlu_reference):
    # a tilted axis makes J depend on phi, so its phi-averaged modes only
    # approximate J.  On the problems where refinement against them once
    # gave up for an LU (no sweep allowed at K = 0, and K = +1), GMRES
    # preconditioned by the modes solves every Newton system with no LU and
    # gives the field, the Newton iterations and the stages of a run that
    # solves every system directly; "no_sweeps" restarts after each matvec
    K, r_bar = {"no_sweeps": (0, 1.0), "K+1": (1, 0.8)}[case]
    if case == "no_sweeps":
        monkeypatch.setattr(solver, "GMRES_RESTART", 1)
    m = spaceform(K)
    base = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    f_gmres, rep_gmres = continuity_solve(m, grid16, psi, 2, TIGHT)
    f_fresh, rep_fresh = superlu_reference(continuity_solve, m, grid16, psi, 2, TIGHT)
    assert rep_gmres.converged and rep_fresh.converged
    assert np.abs(f_gmres.values - f_fresh.values).max() < 1e-10
    assert rep_gmres.iterations == rep_fresh.iterations
    assert rep_gmres.homotopy_t == rep_fresh.homotopy_t == [0.0, 1.0]
    assert rep_gmres.linear_iterations > 0


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


def _count_jacobians(monkeypatch):
    calls = []
    real = solver.jacobian

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solver, "jacobian", counted)
    return calls


@pytest.mark.parametrize("K", [0, -1])
def test_first_corrector_step_reuses_the_predictor_modes(K, grid16, monkeypatch):
    # the first corrector step is the chord step on the predictor's modes of
    # J0: the continuation builds J0 and then two Newton Jacobians, against
    # J0 and three when the chord step is refused, and both reach the same
    # field in the same three corrector steps
    m = spaceform(K)
    psi = _aniso_target(m)
    jacobians = _count_jacobians(monkeypatch)
    f_chord, rep_chord = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert len(jacobians) == 3
    jacobians.clear()
    monkeypatch.setattr(solver, "_chord_step", lambda *args: None)
    f_newton, rep_newton = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert len(jacobians) == 4
    assert rep_chord.homotopy_t == rep_newton.homotopy_t == [0.0, 1.0]
    assert rep_chord.iterations == rep_newton.iterations == 3
    assert rep_chord.linear_iterations == 0
    assert np.abs(f_chord.values - f_newton.values).max() < 1e-12


def test_kept_chord_step_frees_its_iterate_after_the_next_step(grid16, monkeypatch):
    # the chord step's geometry is alive while Newton builds J at its field
    # and gone by the next Jacobian: a kept chord step holds no iterate
    # longer than a Newton step does
    m = spaceform(0)
    refs, alive = [], []
    real_chord, real_jacobian = solver._chord_step, solver.jacobian

    def chord(*args):
        out = real_chord(*args)
        refs.append(weakref.ref(out[1]))
        return out

    def jac(*args):
        alive.append([ref() is not None for ref in refs])
        return real_jacobian(*args)

    monkeypatch.setattr(solver, "_chord_step", chord)
    monkeypatch.setattr(solver, "jacobian", jac)
    continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert alive == [[], [True], [False]]


def test_refused_chord_step_leaves_the_newton_path_bitwise(grid16, monkeypatch):
    # K = +1, r_bar = 0.8: the chord step is not shorter than the
    # predictor's step, so it is refused before it is evaluated, and Newton
    # runs from the predicted seed exactly as a solve that was given no modes
    m = spaceform(1)
    base = builtin(m, "round_target", r_bar=0.8, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    outcomes = []
    real_chord = solver._chord_step

    def chord(*args):
        out = real_chord(*args)
        outcomes.append(out)
        return out

    monkeypatch.setattr(solver, "_chord_step", chord)
    f_chord, rep_chord = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert outcomes == [None]
    real_newton = solver.newton_solve
    monkeypatch.setattr(solver, "newton_solve",
                        lambda *args, modes=None: real_newton(*args))
    f_plain, rep_plain = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert outcomes == [None]
    assert f_chord.values.tobytes() == f_plain.values.tobytes()
    assert rep_chord.residual_trace == rep_plain.residual_trace
    assert rep_chord.iterations == rep_plain.iterations
    assert rep_chord.branch_index == rep_plain.branch_index


def test_chord_step_that_cannot_contract_is_refused_unevaluated(grid16, monkeypatch):
    # K = +1, r_bar = 0.8: M0^-1 F(seed) is longer than the predictor's step
    # M0^-1 F(start), so the chord step fails Theta < 1 and is refused with
    # no evaluation: the solve takes 9 residual evaluations, the refused
    # step none of them, and its field and residual trace are bitwise those
    # of a solve that never tries the step
    m = spaceform(1)
    base = builtin(m, "round_target", r_bar=0.8, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))
    calls, inside = [], []
    real_evaluate, real_chord = solver._evaluate, solver._chord_step

    def evaluate(*args):
        calls.append(1)
        return real_evaluate(*args)

    def chord(*args):
        before = len(calls)
        out = real_chord(*args)
        inside.append((out, len(calls) - before))
        return out

    monkeypatch.setattr(solver, "_evaluate", evaluate)
    monkeypatch.setattr(solver, "_chord_step", chord)
    f_chord, rep_chord = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert inside == [(None, 0)]
    assert len(calls) == 9
    real_newton = solver.newton_solve
    monkeypatch.setattr(solver, "newton_solve",
                        lambda *args, modes=None: real_newton(*args))
    calls.clear()
    f_plain, rep_plain = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert len(calls) == 9
    assert f_chord.values.tobytes() == f_plain.values.tobytes()
    assert rep_chord.residual_trace == rep_plain.residual_trace


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), TILTED_AXIS])
def test_each_jacobian_is_freed_before_the_next_and_before_the_line_search(axis, grid16,
                                                                          monkeypatch):
    # no two operators coexist, and none lives next to a residual evaluation:
    # every operator jacobian returned is dead when the next jacobian call
    # starts and when any _evaluate call starts
    m = spaceform(0)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=axis)
    refs, alive = [], []
    real_jacobian, real_evaluate = solver.jacobian, solver._evaluate

    def jac(*args):
        alive.append(sum(ref() is not None for ref in refs))
        J = real_jacobian(*args)
        refs.append(weakref.ref(J))
        return J

    def evaluate(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return real_evaluate(*args)

    monkeypatch.setattr(solver, "jacobian", jac)
    monkeypatch.setattr(solver, "_evaluate", evaluate)
    _, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged and len(refs) == 3
    assert alive and not any(alive)


@pytest.mark.parametrize("axis,first_step", [((0.0, 0.0, 1.0), 1.0), (TILTED_AXIS, 1.0),
                                             ((0.0, 0.0, 1.0), 0.5)])
def test_iterate_geometry_is_freed_inside_its_jacobian_and_before_the_line_search(
        axis, first_step, grid16, monkeypatch):
    # newton_solve hands the iterate's geometry to jacobian as its only
    # holder: it is dead by the first dF/dc row, and when the first
    # _evaluate after a Jacobian starts (the line search's, or Newton's seed
    # after J0) no geometry assembled before it is alive, an earlier
    # stage's included.  J0's geometry is the start's, which
    # continuity_solve holds until J0's modes exist.
    monkeypatch.setattr(solver, "FIRST_STEP", first_step)
    m = spaceform(0)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=axis)
    refs, at_rows, at_evaluate = [], [], []
    real_rows, real_evaluate = solver._sigma_linearized, solver._evaluate

    def rows(K, state, k):
        ref = weakref.ref(state)
        refs.append(ref)
        inner = real_rows(K, state, k)
        del state
        first = next(inner)
        at_rows.append(ref() is None)
        yield first
        yield from inner

    def evaluate(*args):
        if len(at_evaluate) < len(at_rows):
            at_evaluate.append(sum(ref() is not None for ref in refs))
        out = real_evaluate(*args)
        refs.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(solver, "_sigma_linearized", rows)
    monkeypatch.setattr(solver, "_evaluate", evaluate)
    _, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged and len(report.homotopy_t) == 1 + round(1.0 / first_step)
    assert len(at_rows) >= 3
    assert at_rows == [False] + [True] * (len(at_rows) - 1)
    assert at_evaluate == [0] * len(at_rows)


def test_start_geometry_is_released_once_the_predictor_modes_exist(grid16, monkeypatch):
    # the radial start's geometry, held by the t = 0 report, serves the
    # predictor's residual and J0 only: it is dead by the next Jacobian
    m = spaceform(0)
    refs, alive = [], []
    real_newton, real_jacobian = solver.newton_solve, solver.jacobian

    def newton(*args, **kwargs):
        out = real_newton(*args, **kwargs)
        if not refs:
            refs.append(weakref.ref(out[1].state))
        return out

    def jac(*args):
        alive.append(refs[0]() is not None)
        return real_jacobian(*args)

    monkeypatch.setattr(solver, "newton_solve", newton)
    monkeypatch.setattr(solver, "jacobian", jac)
    continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert alive == [True, False, False]


def test_solve_traced_memory_peak_64x128():
    # tracemalloc counts are deterministic: the e_z 64x128 continuation,
    # grid frames included, peaks under 4.1 MiB of live numpy data (3.8
    # MiB; 4.5 MiB when a state held 22 node arrays and Newton held the
    # iterate's geometry through its Jacobian and line search)
    m = spaceform(0)
    g = build_grid(64, 128)
    tracemalloc.start()
    try:
        _, report = continuity_solve(m, g, _aniso_target(m), 2, TIGHT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 4.1 * 2**20


def test_continuation_reports_factorizations_and_sweeps(grid16):
    # the headline's axis is e_z, so each J commutes with phi-shifts and
    # the modes of J itself solve its system: no GMRES matvec
    m = spaceform(0)
    _, report = continuity_solve(m, grid16, _aniso_target(m), 2, TIGHT)
    assert report.linear_iterations == 0
    summary = report.summary()
    assert summary["linear_iterations"] == report.linear_iterations
    assert summary["rejected_linear_iterations"] == 0
    assert summary["branch_rejections"] == 0


def test_lone_newton_solve_factors_no_lu(grid16):
    # a Newton solve outside a continuation takes the same path: each
    # system is preconditioned by the modes of its own J, which on the e_z
    # headline solve it exactly, so GMRES takes no matvec
    m = spaceform(0)
    _, report = newton_solve(m, constant_field(grid16, 1.0), _aniso_target(m), 2, TIGHT)
    assert report.converged and report.iterations > 0
    assert report.linear_iterations == 0


def test_tilted_continuation_refines_without_lu(grid16):
    # a tilted axis makes J depend on phi, so its phi-averaged modes only
    # approximate it: the K = 0 continuation reaches the solution by GMRES
    # matvecs preconditioned by them
    m = spaceform(0)
    base = builtin(m, "round_target", r_bar=1.0, m=4.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.2, axis=TILTED_AXIS)
    _, report = continuity_solve(m, grid16, psi, 2, TIGHT)
    assert report.converged
    assert report.linear_iterations > 0


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
