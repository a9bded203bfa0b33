import dataclasses
import math

import numpy as np
import pytest

from starcurv import geometry
from starcurv.geometry import (GeometryError, assemble, codazzi_residual,
                               hessian_identity_residual,
                               support_gradient_residual,
                               support_hessian_residual)
from starcurv.grid import (ScalarField, build_grid, constant_field, covariant_jet,
                           field_from_function)
from starcurv.spaceform import DomainError, spaceform

ALL_K = (-1, 0, 1)


def radius_for(K):
    return {0: 1.0, 1: 0.6, -1: 0.5}[K]


@pytest.mark.parametrize("K", ALL_K)
def test_round_sphere_geometry(K):
    m = spaceform(K)
    g = build_grid(16, 32)
    r = radius_for(K)
    state = assemble(m, constant_field(g, r))
    phi, dphi, q = m.warp(r), m.warp_deriv(r), m.sphere_curvature(r)
    st2 = np.sin(g.theta)[:, None] ** 2
    assert np.abs(state.h_tt - phi * dphi).max() < 1e-13
    assert np.abs(state.h_tp).max() == 0.0
    assert np.abs(state.h_pp - phi * dphi * st2).max() < 1e-13
    assert np.abs(state.kappa1 - q).max() < 1e-12
    assert np.abs(state.kappa2 - q).max() < 1e-12
    assert np.abs(state.u - phi).max() < 1e-14
    # normal is the radial direction
    z, _, _ = g.unit_vectors()
    assert np.abs(state.nu - z).max() < 1e-13


def test_equator_metric_and_support_hand_values():
    # rho = 1 + 0.1 cos(theta) at the node nearest the equator:
    # g_tt ~ phi^2 + rho_t^2 ~ 1.01 and u ~ 1/sqrt(1.01), both within O(h^2)
    m = spaceform(0)
    g = build_grid(32, 64)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.1 * np.cos(tt))
    state = assemble(m, f)
    i = int(np.argmin(np.abs(g.theta - math.pi / 2)))
    th = g.theta[i]
    rho, rho_t = 1.0 + 0.1 * math.cos(th), -0.1 * math.sin(th)
    g_tt_exact = rho**2 + rho_t**2
    u_exact = rho**2 / math.sqrt(rho**2 + rho_t**2)
    assert abs(state.g_tt[i, 0] - g_tt_exact) < 1e-3
    assert abs(state.u[i, 0] - u_exact) < 1e-3
    assert abs(g_tt_exact - 1.01) < 2e-2
    assert abs(u_exact - 0.9950371902099892) < 2e-2


def test_metric_inverse_matches_sherman_morrison_form():
    # closed 2x2 inverse agrees with the rank-one update form
    # g^{ij} = phi^-2 (e^{ij} - rho^i rho^j / (phi^2 + |grad rho|^2))
    m = spaceform(-1)
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.1 * np.cos(tt) + 0.05 * np.sin(tt) * np.sin(pp))
    state = assemble(m, f)
    st2 = np.sin(g.theta)[:, None] ** 2
    phi2 = state.phi**2
    denom = phi2 + state.grad_sq
    up_t = state.d_t
    up_p = state.d_p / st2
    alt_tt = (1.0 - up_t * up_t / denom) / phi2
    alt_tp = (0.0 - up_t * up_p / denom) / phi2
    alt_pp = (1.0 / st2 - up_p * up_p / denom) / phi2
    assert np.abs(state.ginv_tt - alt_tt).max() < 1e-12
    assert np.abs(state.ginv_tp - alt_tp).max() < 1e-12
    assert np.abs(state.ginv_pp - alt_pp).max() < 1e-10


@pytest.mark.parametrize("K", ALL_K)
def test_derived_inverse_metric_and_curvatures_match_the_stored_formulas_bitwise(K):
    # the state stores no inverse metric: ginv_* are built from g on each
    # read, bitwise the arrays assemble once stored, and the principal
    # curvatures are those of the Weingarten map written out with them
    m = spaceform(K)
    g = build_grid(16, 32)
    r = radius_for(K)
    f = field_from_function(g, lambda tt, pp: r * (1.0 + 0.1 * np.cos(tt)
                                                   + 0.05 * np.sin(tt) * np.sin(pp)))
    s = assemble(m, f)
    det_g = s.g_tt * s.g_pp - s.g_tp * s.g_tp
    ginv_tt, ginv_tp, ginv_pp = s.g_pp / det_g, -s.g_tp / det_g, s.g_tt / det_g
    assert s.ginv_tt.tobytes() == ginv_tt.tobytes()
    assert s.ginv_tp.tobytes() == ginv_tp.tobytes()
    assert s.ginv_pp.tobytes() == ginv_pp.tobytes()
    a_11 = ginv_tt * s.h_tt + ginv_tp * s.h_tp
    a_12 = ginv_tt * s.h_tp + ginv_tp * s.h_pp
    a_21 = ginv_tp * s.h_tt + ginv_pp * s.h_tp
    a_22 = ginv_tp * s.h_tp + ginv_pp * s.h_pp
    mean = 0.5 * (a_11 + a_22)
    disc = np.sqrt(np.maximum((0.5 * (a_11 - a_22)) ** 2 + a_12 * a_21, 0.0))
    assert s.kappa1.tobytes() == (mean + disc).tobytes()
    assert s.kappa2.tobytes() == (mean - disc).tobytes()


def _node_arrays(state):
    """Full-grid arrays held in a state's fields, in units of one node array
    (nu counts three)."""
    n = state.grid.n_nodes
    held = [getattr(state, f.name) for f in dataclasses.fields(state)]
    return sum(a.size // n for a in held if isinstance(a, np.ndarray))


def _tilt_field(g, r):
    return field_from_function(g, lambda tt, pp: r * (1.0 + 0.1 * np.cos(tt)
                                                      + 0.05 * np.sin(tt) * np.sin(pp)))


@pytest.mark.parametrize("K", ALL_K)
def test_state_holds_17_node_arrays_and_derives_u_bitwise(K):
    # rho and its gradient (4), phi and phi' (2), g and h (6), the
    # curvatures (2) and nu (3): the jet's Hessian, the potential and u are
    # not stored, and u is phi^2 / sqrt(phi^2 + |grad rho|^2) of the jet
    # and the warp, bitwise
    m = spaceform(K)
    g = build_grid(16, 32)
    f = _tilt_field(g, radius_for(K))
    s = assemble(m, f)
    assert _node_arrays(s) == 17
    jet = covariant_jet(f)
    phi = m.warp(f.values)
    u = phi * phi / np.sqrt(phi * phi + jet.grad_sq)
    assert s.u.tobytes() == u.tobytes()


# the radial potential, the antiderivative of the warp vanishing at 0
POTENTIAL = {0: lambda r: 0.5 * r * r, 1: lambda r: 1.0 - np.cos(r), -1: lambda r: np.cosh(r) - 1.0}


@pytest.mark.parametrize("K", ALL_K)
def test_hessian_identity_residual_of_the_unstored_potential_is_unchanged(K):
    # the state stores no potential: the diagnostic computes the warp
    # integral of rho itself, and its value is the identity's defect with
    # the closed-form potential, bitwise
    m = spaceform(K)
    f = _tilt_field(build_grid(16, 32), radius_for(K))
    s = assemble(m, f, order=4)
    chris = geometry._surface_christoffels(s)
    H = geometry._surface_hessian(s, POTENTIAL[K](s.rho), chris)
    u = s.phi * s.phi / np.sqrt(s.phi * s.phi + s.grad_sq)
    ref = max(np.abs(H_ij - (s.dphi * g_ij - u * h_ij)).max()
              for H_ij, g_ij, h_ij in zip(H, (s.g_tt, s.g_tp, s.g_pp), (s.h_tt, s.h_tp, s.h_pp)))
    assert hessian_identity_residual(m, f) == float(ref)


def test_shape_matrix_eigenvalues_match_g_inv_h():
    # independent reference: numpy's eigenvalues of the 2x2 g^{-1} h
    m = spaceform(0)
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: 1.2 + 0.08 * np.sin(tt) * np.cos(pp))
    state = assemble(m, f)
    for (i, j) in ((0, 0), (5, 13), (8, 20), (15, 31)):
        A = np.array([[state.ginv_tt[i, j], state.ginv_tp[i, j]],
                      [state.ginv_tp[i, j], state.ginv_pp[i, j]]])
        H = np.array([[state.h_tt[i, j], state.h_tp[i, j]],
                      [state.h_tp[i, j], state.h_pp[i, j]]])
        ev = np.sort(np.linalg.eigvals(A @ H).real)[::-1]
        assert state.kappa1[i, j] == pytest.approx(ev[0], rel=1e-10, abs=1e-12)
        assert state.kappa2[i, j] == pytest.approx(ev[1], rel=1e-10, abs=1e-12)


def test_kappa_trace_and_determinant():
    m = spaceform(0)
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.1 * np.cos(tt))
    s = assemble(m, f)
    tr = s.ginv_tt * s.h_tt + 2.0 * s.ginv_tp * s.h_tp + s.ginv_pp * s.h_pp
    det = (s.h_tt * s.h_pp - s.h_tp**2) / (s.g_tt * s.g_pp - s.g_tp**2)
    assert np.abs(s.kappa1 + s.kappa2 - tr).max() < 1e-13 * max(1.0, np.abs(tr).max())
    assert np.abs(s.kappa1 * s.kappa2 - det).max() < 1e-12 * max(1.0, np.abs(det).max())


def test_support_function_bounded_by_warp():
    m = spaceform(0)
    g = build_grid(16, 32)
    rng = np.random.default_rng(12)
    vals = 1.5 + 0.1 * rng.standard_normal(g.shape)
    s = assemble(m, ScalarField(g, vals))
    assert np.all(s.u <= s.phi + 1e-14)
    # equality exactly where the discrete gradient vanishes
    srad = assemble(m, constant_field(g, 1.3))
    assert np.abs(srad.u - srad.phi).max() == 0.0


def test_euclidean_scaling_covariance():
    m = spaceform(0)
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.07 * np.sin(tt) * np.cos(pp))
    c = 2.75
    s1 = assemble(m, f)
    s2 = assemble(m, ScalarField(g, c * f.values))
    for name, power in (("g_tt", 2), ("g_tp", 2), ("g_pp", 2),
                        ("h_tt", 1), ("h_tp", 1), ("h_pp", 1),
                        ("kappa1", -1), ("kappa2", -1), ("u", 1)):
        a = getattr(s2, name)
        b = c**power * getattr(s1, name)
        np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-14, err_msg=name)


def test_rotation_equivariance_bitwise():
    m = spaceform(-1)
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.1 * np.cos(tt) + 0.05 * np.sin(tt) * np.cos(pp))
    shift = 8
    s1 = assemble(m, f)
    s2 = assemble(m, ScalarField(g, np.roll(f.values, shift, axis=1)))
    for name in ("g_tt", "g_tp", "g_pp", "h_tt", "h_tp", "h_pp",
                 "kappa1", "kappa2", "u"):
        assert np.array_equal(np.roll(getattr(s1, name), shift, axis=1), getattr(s2, name)), name


def test_domain_and_geometry_errors():
    m = spaceform(1)
    g = build_grid(8, 16)
    with pytest.raises(DomainError):
        assemble(m, constant_field(g, 1.7))  # beyond pi/2
    with pytest.raises(DomainError):
        assemble(spaceform(0), constant_field(g, -1.0))


def test_round_sphere_identities_machine_zero():
    for K in ALL_K:
        m = spaceform(K)
        g = build_grid(16, 32)
        f = constant_field(g, radius_for(K))
        assert hessian_identity_residual(m, f) < 1e-13
        assert support_gradient_residual(m, f) < 1e-13
        assert support_hessian_residual(m, f) < 1e-13
        assert codazzi_residual(m, f) < 1e-13


@pytest.mark.parametrize("K", ALL_K)
@pytest.mark.parametrize("fieldcase", ["axisym", "tilt"])
def test_identity_residuals_second_order(K, fieldcase):
    fn = {"axisym": lambda tt, pp: 1.0 + 0.1 * np.cos(tt),
          "tilt": lambda tt, pp: 1.0 + 0.05 * np.sin(tt) * np.cos(pp)}[fieldcase]
    m = spaceform(K)
    for check in (hessian_identity_residual, support_gradient_residual,
                  support_hessian_residual):
        res = [check(m, field_from_function(build_grid(nt, 2 * nt), fn)) for nt in (16, 32)]
        ratio = res[0] / res[1]
        assert 3.0 <= ratio <= 5.0, (check.__name__, ratio)


@pytest.mark.parametrize("K", ALL_K)
def test_codazzi_symmetry_converges(K):
    m = spaceform(K)
    fn = lambda tt, pp: 1.0 + 0.05 * np.sin(tt) * np.cos(pp)
    res = [codazzi_residual(m, field_from_function(build_grid(nt, 2 * nt), fn)) for nt in (16, 32)]
    # converges at least at the discretization order
    assert res[0] / res[1] >= 3.0


def test_flipped_christoffel_breaks_identity(flip_christoffel):
    m = spaceform(0)
    fn = lambda tt, pp: 1.0 + 0.1 * np.cos(tt)
    res = [hessian_identity_residual(m, field_from_function(build_grid(nt, 2 * nt), fn))
           for nt in (16, 32)]
    # broken covariant derivative: residual does not converge
    assert res[0] / res[1] < 1.5
    assert res[1] > 1e-3
