import math

import numpy as np
import pytest
import scipy.sparse as sp

import starcurv.grid as grid_module
from starcurv.grid import (JET_COMPONENTS, JET_DERIVATIVES, OFFSETS, CovariantJet,
                           GridError, ScalarField, StencilOperator, build_grid,
                           constant_field, covariant_jet, derivative, field_from_function,
                           jet_weights, pad_poles, refinement_order)


def test_build_grid_node_layout():
    g = build_grid(8, 16)
    assert g.n_nodes == 128
    np.testing.assert_allclose(g.theta[:2], [math.pi / 16, 3 * math.pi / 16], atol=1e-15)
    assert g.theta[0] > 0.0 and g.theta[-1] < math.pi
    np.testing.assert_allclose(g.phi, 2 * math.pi * np.arange(16) / 16, atol=1e-15)
    assert build_grid(16, 32).n_nodes == 512


def test_build_grid_rejects_bad_sizes():
    with pytest.raises(GridError):
        build_grid(8, 15)
    with pytest.raises(GridError):
        build_grid(4, 16)
    with pytest.raises(GridError):
        build_grid(8, 6)


def test_scalar_field_validation():
    g = build_grid(8, 16)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 15)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_jet_of_constant_field():
    g = build_grid(12, 24)
    jet = covariant_jet(constant_field(g, 3.7))
    for arr in (jet.d_t, jet.d_p, jet.hess_tt, jet.hess_tp, jet.hess_pp, jet.grad_sq):
        assert np.abs(arr).max() == 0.0


def test_jet_matches_analytic_cos_theta():
    g = build_grid(32, 64)
    f = field_from_function(g, lambda tt, pp: np.cos(tt))
    jet = covariant_jet(f)
    tt, _ = g.mesh()
    h2 = g.dtheta**2
    assert np.abs(jet.d_t + np.sin(tt)).max() < 2.0 * h2
    assert np.abs(jet.grad_sq - np.sin(tt) ** 2).max() < 4.0 * h2
    # degree-1 harmonic: trace Laplacian is -2 cos(theta)
    lap = jet.hess_tt + jet.hess_pp / np.sin(tt) ** 2
    assert np.abs(lap + 2.0 * np.cos(tt)).max() < 4.0 * h2


def test_refinement_order_gradient_cos_theta():
    order = refinement_order(
        lambda tt, pp: np.cos(tt),
        lambda tt, pp: -np.sin(tt),
        lambda jet, g: jet.d_t,
        16, 32)
    assert 1.8 <= order <= 2.2


def test_refinement_order_exact_on_constant():
    order = refinement_order(
        lambda tt, pp: np.ones_like(tt),
        lambda tt, pp: np.zeros_like(tt),
        lambda jet, g: jet.d_t,
        16, 32)
    assert order == math.inf


def test_refinement_order_laplacian_tilted_harmonic():
    # sin(theta) cos(phi) is a degree-1 spherical harmonic: eigenvalue -2
    fn = lambda tt, pp: np.sin(tt) * np.cos(pp)
    order = refinement_order(
        fn,
        lambda tt, pp: -2.0 * fn(tt, pp),
        lambda jet, g: jet.hess_tt + jet.hess_pp / np.sin(g.mesh()[0]) ** 2,
        16, 32)
    assert 1.8 <= order <= 2.2


def test_jet_linearity():
    g = build_grid(16, 32)
    rng = np.random.default_rng(5)
    fa = ScalarField(g, rng.standard_normal(g.shape))
    fb = ScalarField(g, rng.standard_normal(g.shape))
    a, b = 1.7, -0.42
    combo = covariant_jet(ScalarField(g, a * fa.values + b * fb.values))
    ja, jb = covariant_jet(fa), covariant_jet(fb)
    for name in ("d_t", "d_p", "hess_tt", "hess_tp", "hess_pp"):
        lhs = getattr(combo, name)
        rhs = a * getattr(ja, name) + b * getattr(jb, name)
        assert np.abs(lhs - rhs).max() < 1e-11 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("order", [2, 4])
def test_jet_rotation_equivariance_bitwise(order):
    # shifting the field by a whole number of longitude cells must commute
    # with the jet exactly, bit for bit
    g = build_grid(16, 32)
    rng = np.random.default_rng(6)
    f = ScalarField(g, rng.standard_normal(g.shape))
    shift = 5
    shifted = ScalarField(g, np.roll(f.values, shift, axis=1))
    j0, j1 = covariant_jet(f, order=order), covariant_jet(shifted, order=order)
    for name in ("d_t", "d_p", "hess_tt", "hess_tp", "hess_pp", "grad_sq"):
        assert np.array_equal(np.roll(getattr(j0, name), shift, axis=1), getattr(j1, name))


def test_axisymmetric_fields_have_no_phi_derivatives():
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: np.exp(np.cos(tt)))
    jet = covariant_jet(f)
    assert np.abs(jet.d_p).max() == 0.0
    assert np.abs(jet.hess_tp).max() == 0.0


def test_cross_pole_identification_consistency():
    # smooth sphere function sampled beyond the pole equals its own
    # analytic continuation: the jet of the x-coordinate function has
    # uniformly second-order gradient error including the pole rows
    for nt in (16, 32):
        g = build_grid(nt, 2 * nt)
        f = field_from_function(g, lambda tt, pp: np.sin(tt) * np.cos(pp))
        jet = covariant_jet(f)
        tt, pp = g.mesh()
        err = np.abs(jet.d_t - np.cos(tt) * np.cos(pp))
        assert err.max() < 4.0 * g.dtheta**2


def test_fourth_order_stencils_beat_second_order():
    g = build_grid(16, 32)
    f = field_from_function(g, lambda tt, pp: np.sin(tt) * np.cos(pp))
    tt, pp = g.mesh()
    j2 = covariant_jet(f, order=2)
    j4 = covariant_jet(f, order=4)
    exact = np.cos(tt) * np.cos(pp)
    assert np.abs(j4.d_t - exact).max() < 0.05 * np.abs(j2.d_t - exact).max()


def test_jet_dataclass_shape():
    g = build_grid(8, 16)
    jet = covariant_jet(constant_field(g, 1.0))
    assert isinstance(jet, CovariantJet)
    assert jet.value.shape == g.shape


@pytest.mark.parametrize("nt,nphi", [(9, 10), (8, 14), (11, 16), (64, 128)])
def test_jet_stencil_matrices_match_stencils(nt, nphi):
    g = build_grid(nt, nphi)
    v = np.random.default_rng(nt * 1000 + nphi).standard_normal(g.shape)
    expected = [derivative(g, v, n_t, n_p) for n_t, n_p in JET_DERIVATIVES]
    weights = jet_weights(g)
    for c, ref in enumerate(expected):
        op = StencilOperator(g, np.broadcast_to(weights[c], g.shape + (9,)))
        got = (op @ v.ravel()).reshape(g.shape)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), JET_COMPONENTS[c]


def _offset_order_csr(op):
    # the CSR matrix whose row (i, j) holds op.data[i, j] at the columns of
    # its OFFSETS neighbours, in that order: ghost node numbers from pad_poles
    g = op.grid
    ids = pad_poles(g, np.arange(g.n_nodes).reshape(g.shape)).astype(np.intp)
    cols = np.stack([np.roll(ids, -dj, axis=1)[1 + di:1 + di + g.n_theta]
                     for di, dj in OFFSETS], axis=-1)
    return sp.csr_matrix((op.data.ravel(), cols.ravel(), np.arange(0, 9 * g.n_nodes + 1, 9)),
                         shape=(g.n_nodes, g.n_nodes))


@pytest.mark.parametrize("nt,nphi", [(8, 8), (9, 10), (11, 16), (16, 32)])
def test_stencil_operator_matvec_matches_csr_bitwise(nt, nphi):
    # the slice matvec adds each row up in offset order, as the CSR matvec of
    # the same rows does, so the two agree bitwise, pole rows and the phi
    # seam included; tocsc() is that matrix, whose CSC matvec adds each row
    # up in column order instead, equal to roundoff
    g = build_grid(nt, nphi)
    rng = np.random.default_rng(nt * 1000 + nphi)
    op = StencilOperator(g, rng.standard_normal(g.shape + (9,)))
    ref = _offset_order_csr(op)
    assert (op.tocsc() != ref).nnz == 0
    assert op.tocsc().nnz == 9 * g.n_nodes
    for _ in range(3):
        x = rng.standard_normal(g.n_nodes)
        y = op @ x
        assert y.shape == x.shape
        assert np.array_equal(y, ref @ x)
        assert np.array_equal((op @ x.reshape(g.shape)).ravel(), y)
        assert np.array_equal(abs(op) @ np.abs(x), _offset_order_csr(abs(op)) @ np.abs(x))
        bound = 4.0 * np.finfo(float).eps * (abs(op) @ np.abs(x))
        assert np.all(np.abs(op.tocsc() @ x - y) <= bound)


def test_fourth_order_theta_derivative_odd_parity_through_poles():
    # cos(theta) cos(phi) changes sign under the cross-pole identification
    # (theta, phi) -> (-theta, phi + pi), so its ghost rows carry parity -1;
    # with them the order-4 stencil converges at fourth order on every row,
    # the rows next to a pole included
    errs = []
    for nt in (16, 32, 64):
        g = build_grid(nt, 2 * nt)
        tt, pp = g.mesh()
        v = np.cos(tt) * np.cos(pp)
        exact = -np.sin(tt) * np.cos(pp)
        errs.append(np.abs(derivative(g, v, 1, 0, parity=-1, order=4) - exact).max())
        assert np.abs(derivative(g, v, 1, 0, parity=1, order=4) - exact).max() > 0.1 * nt
    assert errs[-1] < 1e-6
    for coarse, fine in zip(errs, errs[1:]):
        assert 13.0 < coarse / fine < 19.0


def test_mixed_hessian_second_order_on_every_row():
    # f = xy + zx is not axisymmetric, and its covariant H_tp is
    # sin(t) cos(t) cos(2p) + sin(t)^2 sin(p); the mixed stencil reads the
    # ghost rows at both of its phi offsets, so the rows next to a pole
    # converge at second order like the rest: each coarse row's error is
    # about 4x that of the two fine rows inside its cell
    fn = lambda tt, pp: 0.5 * np.sin(tt)**2 * np.sin(2 * pp) + np.sin(tt) * np.cos(tt) * np.cos(pp)
    errs = []
    for nt in (16, 32, 64):
        g = build_grid(nt, 2 * nt)
        tt, pp = g.mesh()
        exact = np.sin(tt) * np.cos(tt) * np.cos(2 * pp) + np.sin(tt)**2 * np.sin(pp)
        errs.append(np.abs(covariant_jet(field_from_function(g, fn)).hess_tp - exact).max(axis=1))
    for coarse, fine in zip(errs, errs[1:]):
        ratios = coarse / np.maximum(fine[0::2], fine[1::2])
        assert np.all((3.3 < ratios) & (ratios < 4.7)), ratios
        for pole in (0, -1):
            assert 3.3 < coarse[pole] / fine[pole] < 4.7


def test_one_halo_per_jet_and_per_matvec(monkeypatch):
    # every stencil reads its field through one halo: the six raw partials
    # of a jet share one, and a matvec takes its nine slices from one
    g = build_grid(16, 32)
    calls = []
    build = grid_module.halo
    monkeypatch.setattr(grid_module, "halo", lambda *a, **kw: calls.append(a) or build(*a, **kw))
    f = field_from_function(g, lambda tt, pp: np.sin(tt) * np.cos(pp))
    covariant_jet(f)
    assert len(calls) == 1
    op = StencilOperator(g, np.ones(g.shape + (9,)))
    op @ f.values.ravel()
    assert len(calls) == 2
