"""Induced geometry of a radial graph over the sphere.

From a height field rho the hypersurface {(z, rho(z))} inherits, per node:
the induced metric g, the second fundamental form h taken with respect to
the outward normal, the principal curvatures (the eigenvalues of the
Weingarten map g^{-1} h), the support function u, and the chart-embedded
unit normal.  A GeometryState keeps 17 node arrays: rho and its
first-order jet (d_t, d_p, |grad rho|^2), the warp and its derivative,
g, h, the two principal curvatures and the normal's three components.
What a reader can rebuild from those is derived on each read, bitwise as
pointwise_geometry computes it: det g, the inverse metric and u.  The
jet's covariant Hessian is read only to build h, and the radial potential
(the warp integral) only by hessian_identity_residual, so neither is
stored.  Component conventions:
symmetric 2x2 tensors are stored as the (tt, tp, pp) triple of coordinate
components on the (theta, phi) chart.

The *_identity_residual functions are discrete diagnostics: they compare
independent finite-difference evaluations of both sides of structural
identities tying the radial potential, the support function, and the
second fundamental form together.  Residuals shrink at second order under
refinement for smooth fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CovariantJet, ScalarField, SphereGrid, covariant_jet, derivative
from .spaceform import SpaceFormModel


class GeometryError(RuntimeError):
    """Broken per-node geometry (NaN propagation or loss of positivity)."""


@dataclass(frozen=True, eq=False)
class FirstOrderJet:
    """Value and gradient of rho: a CovariantJet without its Hessian."""

    value: np.ndarray
    d_t: np.ndarray
    d_p: np.ndarray
    grad_sq: np.ndarray


@dataclass(frozen=True, eq=False)
class GeometryState:
    grid: SphereGrid
    rho: np.ndarray
    jet: FirstOrderJet              # value and gradient of rho
    phi: np.ndarray                 # warp factor at rho
    dphi: np.ndarray                # warp derivative at rho
    g_tt: np.ndarray
    g_tp: np.ndarray
    g_pp: np.ndarray
    h_tt: np.ndarray
    h_tp: np.ndarray
    h_pp: np.ndarray
    kappa1: np.ndarray              # larger principal curvature
    kappa2: np.ndarray
    nu: np.ndarray                  # (nt, nphi, 3) chart-embedded unit normal

    @property
    def u(self):
        """The support function phi^2 / sqrt(phi^2 + |grad rho|^2), built on
        each read."""
        return self.phi * self.phi / np.sqrt(self.phi * self.phi + self.jet.grad_sq)

    @property
    def det_g(self):
        return self.g_tt * self.g_pp - self.g_tp * self.g_tp

    # the inverse metric, built from g on each read with pointwise_geometry's
    # formulas, so bitwise the values it used
    @property
    def ginv_tt(self):
        return self.g_pp / self.det_g

    @property
    def ginv_tp(self):
        return -self.g_tp / self.det_g

    @property
    def ginv_pp(self):
        return self.g_tt / self.det_g

    @property
    def kappa(self):
        """Principal curvatures stacked on a last axis, descending."""
        return np.stack([self.kappa1, self.kappa2], axis=-1)


def _screen_finite(grid, name, arr):
    if np.all(np.isfinite(arr)):
        return
    i, j = np.unravel_index(int(np.argmin(np.isfinite(arr).ravel())), grid.shape)
    raise GeometryError(
        f"non-finite {name} at node (theta={grid.theta[i]:.6f}, phi={grid.phi[j]:.6f})"
    )


def assemble(model: SpaceFormModel, field: ScalarField, order: int = 2) -> GeometryState:
    """Build the full per-node geometry of the radial graph of rho.

    Raises DomainError if rho leaves (0, a) and GeometryError if the
    induced metric fails to be positive definite (a symptom of a broken
    input field, not of an inadmissible but valid geometry).
    """
    return pointwise_geometry(model, field.grid, covariant_jet(field, order=order))


def _principal_curvatures(g: SphereGrid, det_g, g_tt, g_tp, g_pp, h_tt, h_tp, h_pp):
    """The eigenvalues (kappa1 >= kappa2) of the Weingarten map A = g^{-1} h,
    real because g is positive definite and h symmetric.  The inverse metric
    and A are temporaries of this call, freed when it returns."""
    ginv_tt = g_pp / det_g
    ginv_tp = -g_tp / det_g
    ginv_pp = g_tt / det_g
    a_11 = ginv_tt * h_tt + ginv_tp * h_tp
    a_12 = ginv_tt * h_tp + ginv_tp * h_pp
    a_21 = ginv_tp * h_tt + ginv_pp * h_tp
    a_22 = ginv_tp * h_tp + ginv_pp * h_pp
    for arr in (a_11, a_12, a_21, a_22):
        _screen_finite(g, "shape operator", arr)

    mean = 0.5 * (a_11 + a_22)
    disc = np.sqrt(np.maximum((0.5 * (a_11 - a_22)) ** 2 + a_12 * a_21, 0.0))
    return mean + disc, mean - disc


def pointwise_geometry(model: SpaceFormModel, g: SphereGrid,
                       jet: CovariantJet) -> GeometryState:
    """The per-node part of assemble: geometry from the jet alone.

    Reads rho only through the jet, node by node, with no stencil, so it
    also accepts perturbed jet components.  Its one domain check, in
    model.warps, covers the jet's value.
    """
    rho = jet.value
    phi, dphi = model.warps(rho)
    w = jet.grad_sq
    sroot = np.sqrt(phi * phi + w)

    st = g.sin_t
    st2 = st * st
    dt, dp = jet.d_t, jet.d_p

    g_tt = phi * phi + dt * dt
    g_tp = dt * dp
    g_pp = phi * phi * st2 + dp * dp
    for name, arr in (("metric", g_tt), ("metric", g_tp), ("metric", g_pp)):
        _screen_finite(g, name, arr)
    det_g = g_tt * g_pp - g_tp * g_tp
    if np.any(det_g <= 0.0) or np.any(g_tt <= 0.0):
        raise GeometryError("induced metric lost positive-definiteness")

    pref = phi / sroot
    two_q = 2.0 * dphi / phi
    h_tt = pref * (-jet.hess_tt + two_q * dt * dt + phi * dphi)
    h_tp = pref * (-jet.hess_tp + two_q * dt * dp)
    h_pp = pref * (-jet.hess_pp + two_q * dp * dp + phi * dphi * st2)
    for arr in (h_tt, h_tp, h_pp):
        _screen_finite(g, "second fundamental form", arr)
    jet = FirstOrderJet(rho, dt, dp, w)     # the Hessian is read only to build h
    kappa1, kappa2 = _principal_curvatures(g, det_g, g_tt, g_tp, g_pp, h_tt, h_tp, h_pp)

    # chart-embedded unit normal (phi z - f_t e_t - f_p / sin(theta) e_p) / sroot,
    # written per Cartesian component: numpy's loops over a trailing axis of 3 are slow
    z, e_t, e_p = g.unit_vectors()
    coef = 1.0 / sroot
    fp = dp / st
    nu = np.empty(g.shape + (3,))
    for c in range(3):
        nu[..., c] = coef * (-dt * e_t[..., c] - fp * e_p[..., c] + phi * z[..., c])

    return GeometryState(grid=g, rho=rho, jet=jet, phi=phi, dphi=dphi,
                         g_tt=g_tt, g_tp=g_tp, g_pp=g_pp,
                         h_tt=h_tt, h_tp=h_tp, h_pp=h_pp,
                         kappa1=kappa1, kappa2=kappa2, nu=nu)


# ---------------------------------------------------------------------------
# surface covariant derivatives (diagnostic path only)
#
# The identity residuals below are meant to converge at second order in
# max-norm over all nodes.  Raised indices put 1/sin(theta)^2 weights on
# coordinate components, which at the rows next to a pole amplifies
# second-order errors in the *ingredients* (g, h, u, Christoffels, grad h)
# to O(1).  The diagnostics therefore derive every ingredient with
# fourth-order stencils, while the identity "probe" derivatives stay
# second-order so the residual itself remains cleanly O(h^2).

_DIAG_ORDER = 4


def _tensor_partials(g: SphereGrid, tt, tp, pp):
    """d/dtheta and d/dphi of a symmetric tensor's (tt, tp, pp) components;
    tp carries one theta index, so its ghost rows flip sign."""
    d1 = tuple(derivative(g, c, 1, 0, parity, _DIAG_ORDER)
               for c, parity in ((tt, 1), (tp, -1), (pp, 1)))
    d2 = tuple(derivative(g, c, 0, 1, order=_DIAG_ORDER) for c in (tt, tp, pp))
    return d1 + d2


def _surface_christoffels(state: GeometryState):
    """Christoffel symbols of the induced metric, by finite differences of g."""
    g = state.grid
    d1_tt, d1_tp, d1_pp, d2_tt, d2_tp, d2_pp = _tensor_partials(
        g, state.g_tt, state.g_tp, state.g_pp)
    itt, itp, ipp = state.ginv_tt, state.ginv_tp, state.ginv_pp

    G_t_tt = 0.5 * (itt * d1_tt + itp * (2.0 * d1_tp - d2_tt))
    G_t_tp = 0.5 * (itt * d2_tt + itp * d1_pp)
    G_t_pp = 0.5 * (itt * (2.0 * d2_tp - d1_pp) + itp * d2_pp)
    G_p_tt = 0.5 * (itp * d1_tt + ipp * (2.0 * d1_tp - d2_tt))
    G_p_tp = 0.5 * (itp * d2_tt + ipp * d1_pp)
    G_p_pp = 0.5 * (itp * (2.0 * d2_tp - d1_pp) + ipp * d2_pp)
    return G_t_tt, G_t_tp, G_t_pp, G_p_tt, G_p_tp, G_p_pp


def _surface_hessian(state: GeometryState, values: np.ndarray, chris) -> tuple:
    """Covariant Hessian of a scalar on the graph, coordinate components.

    Second-order pure second derivatives (the probe being tested) combined
    with fourth-order first derivatives inside the Christoffel products
    (ingredients, see the note above).
    """
    g = state.grid
    G_t_tt, G_t_tp, G_t_pp, G_p_tt, G_p_tp, G_p_pp = chris
    ft = derivative(g, values, 1, 0, order=_DIAG_ORDER)
    fp = derivative(g, values, 0, 1, order=_DIAG_ORDER)
    H_tt = derivative(g, values, 2, 0) - G_t_tt * ft - G_p_tt * fp
    H_tp = derivative(g, values, 1, 1) - G_t_tp * ft - G_p_tp * fp
    H_pp = derivative(g, values, 0, 2) - G_t_pp * ft - G_p_pp * fp
    return H_tt, H_tp, H_pp


def _grad_pot(state: GeometryState):
    """Surface gradient of the radial potential: chain rule, phi * d(rho)."""
    return state.phi * state.jet.d_t, state.phi * state.jet.d_p


def _raise_index(state: GeometryState, v_t, v_p):
    up_t = state.ginv_tt * v_t + state.ginv_tp * v_p
    up_p = state.ginv_tp * v_t + state.ginv_pp * v_p
    return up_t, up_p


def _cov_deriv_h(state: GeometryState, chris):
    """Covariant derivative of h: T[k][(i,j)] coordinate components."""
    g = state.grid
    G_t_tt, G_t_tp, G_t_pp, G_p_tt, G_p_tp, G_p_pp = chris
    h_tt, h_tp, h_pp = state.h_tt, state.h_tp, state.h_pp
    d1h_tt, d1h_tp, d1h_pp, d2h_tt, d2h_tp, d2h_pp = _tensor_partials(g, h_tt, h_tp, h_pp)

    T_t_tt = d1h_tt - 2.0 * (G_t_tt * h_tt + G_p_tt * h_tp)
    T_t_tp = d1h_tp - (G_t_tt * h_tp + G_p_tt * h_pp) - (G_t_tp * h_tt + G_p_tp * h_tp)
    T_t_pp = d1h_pp - 2.0 * (G_t_tp * h_tp + G_p_tp * h_pp)
    T_p_tt = d2h_tt - 2.0 * (G_t_tp * h_tt + G_p_tp * h_tp)
    T_p_tp = d2h_tp - (G_t_tp * h_tp + G_p_tp * h_pp) - (G_t_pp * h_tt + G_p_pp * h_tp)
    T_p_pp = d2h_pp - 2.0 * (G_t_pp * h_tp + G_p_pp * h_pp)
    return (T_t_tt, T_t_tp, T_t_pp), (T_p_tt, T_p_tp, T_p_pp)


def hessian_identity_residual(model: SpaceFormModel, field: ScalarField) -> float:
    """Max-norm defect of: surface Hessian of the radial potential
    equals warp_deriv * g - u * h."""
    state = assemble(model, field, order=_DIAG_ORDER)
    chris = _surface_christoffels(state)
    H_tt, H_tp, H_pp = _surface_hessian(state, model.warp_integral(state.rho), chris)
    u = state.u
    r_tt = H_tt - (state.dphi * state.g_tt - u * state.h_tt)
    r_tp = H_tp - (state.dphi * state.g_tp - u * state.h_tp)
    r_pp = H_pp - (state.dphi * state.g_pp - u * state.h_pp)
    return float(max(np.abs(r_tt).max(), np.abs(r_tp).max(), np.abs(r_pp).max()))


def support_gradient_residual(model: SpaceFormModel, field: ScalarField) -> float:
    """Max-norm defect of: grad u = h contracted with the raised potential
    gradient, grad_i u = g^{kl} h_{ik} grad_l(potential)."""
    state = assemble(model, field, order=_DIAG_ORDER)
    g = state.grid
    lhs_t = derivative(g, state.u, 1, 0)
    lhs_p = derivative(g, state.u, 0, 1)
    p_t, p_p = _grad_pot(state)
    up_t, up_p = _raise_index(state, p_t, p_p)
    rhs_t = state.h_tt * up_t + state.h_tp * up_p
    rhs_p = state.h_tp * up_t + state.h_pp * up_p
    return float(max(np.abs(lhs_t - rhs_t).max(), np.abs(lhs_p - rhs_p).max()))


def support_hessian_residual(model: SpaceFormModel, field: ScalarField) -> float:
    """Max-norm defect of the support function Hessian identity:
    Hess u = (grad h contracted with raised potential gradient)
             + warp_deriv * h - u * h g^{-1} h."""
    state = assemble(model, field, order=_DIAG_ORDER)
    u = state.u
    chris = _surface_christoffels(state)
    H_tt, H_tp, H_pp = _surface_hessian(state, u, chris)
    T_t, T_p = _cov_deriv_h(state, chris)
    p_t, p_p = _grad_pot(state)
    up_t, up_p = _raise_index(state, p_t, p_p)

    m_11 = state.h_tt * state.ginv_tt + state.h_tp * state.ginv_tp
    m_12 = state.h_tt * state.ginv_tp + state.h_tp * state.ginv_pp
    m_21 = state.h_tp * state.ginv_tt + state.h_pp * state.ginv_tp
    m_22 = state.h_tp * state.ginv_tp + state.h_pp * state.ginv_pp
    hgh_tt = m_11 * state.h_tt + m_12 * state.h_tp
    hgh_tp = m_11 * state.h_tp + m_12 * state.h_pp
    hgh_pp = m_21 * state.h_tp + m_22 * state.h_pp

    res = []
    for Tt, Tp, H, h, hgh in zip(T_t, T_p,
                                 (H_tt, H_tp, H_pp),
                                 (state.h_tt, state.h_tp, state.h_pp),
                                 (hgh_tt, hgh_tp, hgh_pp)):
        rhs = Tt * up_t + Tp * up_p + state.dphi * h - u * hgh
        res.append(np.abs(H - rhs).max())
    return float(max(res))


def codazzi_residual(model: SpaceFormModel, field: ScalarField) -> float:
    """Max-norm defect of total symmetry of grad h (ambient curvature is
    constant, so the mixed covariant derivatives of h must agree)."""
    state = assemble(model, field, order=_DIAG_ORDER)
    chris = _surface_christoffels(state)
    (T_t_tt, T_t_tp, T_t_pp), (T_p_tt, T_p_tp, T_p_pp) = _cov_deriv_h(state, chris)
    r1 = np.abs(T_t_tp - T_p_tt).max()
    r2 = np.abs(T_t_pp - T_p_tp).max()
    return float(max(r1, r2))
