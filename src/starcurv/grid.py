"""Structured latitude-longitude discretization of the unit sphere.

Colatitudes are cell-centered (no node sits on a pole) and longitudes are
uniform and periodic.  Values just beyond a pole are obtained from the
cross-pole chart identification (theta, phi) -> (-theta, phi + pi): ghost
rows are the first/last interior row rolled by half a turn, with a sign
flip for tensor components carrying an odd number of theta indices.
Every finite difference reads a field through one halo (those ghost
rows plus columns wrapped in phi) and one 2-D stencil table (stencil_2d,
outer products of the 1-D STENCILS: order 2 for the solver, order 4 for
the geometry diagnostics).  jet_weights is the order-2 jet on the 9-point
footprint of StencilOperator, the operator the solver's Jacobian is,
whose taps are nine slices of the same halo: its matvec reads them, and
the solver's preconditioner reads the neighbours' node numbers from them.
Its tocsc() is the tests' reference matrix, and the only place that
imports scipy.sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid construction parameters."""


@dataclass(frozen=True, eq=False)
class SphereGrid:
    n_theta: int
    n_phi: int
    theta: np.ndarray      # (n_theta,) cell-centered colatitudes
    phi: np.ndarray        # (n_phi,) periodic longitudes
    dtheta: float
    dphi: float

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    @property
    def n_nodes(self):
        return self.n_theta * self.n_phi

    # Row-shaped trig factors, shape (n_theta, 1) so they broadcast over phi.
    @property
    def sin_t(self):
        return np.sin(self.theta)[:, None]

    @property
    def cos_t(self):
        return np.cos(self.theta)[:, None]

    def mesh(self):
        """(theta, phi) meshes of shape (n_theta, n_phi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def unit_vectors(self):
        """Node directions z and the local tangent frame (e_theta, e_phi).

        Returned arrays have shape (n_theta, n_phi, 3) in Cartesian
        components of the embedding chart.  Cached after the first call.
        """
        cached = getattr(self, "_frames", None)
        if cached is None:
            tt, pp = self.mesh()
            st, ct = np.sin(tt), np.cos(tt)
            sp, cp = np.sin(pp), np.cos(pp)
            z = np.stack([st * cp, st * sp, ct], axis=-1)
            e_t = np.stack([ct * cp, ct * sp, -st], axis=-1)
            e_p = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
            cached = (z, e_t, e_p)
            object.__setattr__(self, "_frames", cached)
        return cached


def build_grid(n_theta: int, n_phi: int) -> SphereGrid:
    """Cell-centered grid with n_theta x n_phi nodes.

    n_phi must be even so that the cross-pole identification
    phi -> phi + pi maps grid columns to grid columns.
    """
    if n_theta < 8 or n_phi < 8:
        raise GridError(f"grid too small: need n_theta >= 8 and n_phi >= 8, got {n_theta}x{n_phi}")
    if n_phi % 2 != 0:
        raise GridError(f"n_phi must be even for the cross-pole identification, got {n_phi}")
    dtheta = math.pi / n_theta
    dphi = 2.0 * math.pi / n_phi
    theta = (np.arange(n_theta) + 0.5) * dtheta
    phi = np.arange(n_phi) * dphi
    return SphereGrid(n_theta=n_theta, n_phi=n_phi, theta=theta, phi=phi,
                      dtheta=dtheta, dphi=dphi)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per grid node, stored as an (n_theta, n_phi) array."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)


def constant_field(grid: SphereGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: SphereGrid, fn) -> ScalarField:
    """Sample fn(theta, phi) (vectorized over meshes) at the nodes."""
    tt, pp = grid.mesh()
    return ScalarField(grid, np.asarray(fn(tt, pp), dtype=float))


# ---------------------------------------------------------------------------
# centered stencils with cross-pole ghosting
#
# order=2 is the production discretization.  order=4 exists for the
# geometry diagnostics: coordinate components of raised/contracted
# quantities carry 1/sin(theta)^2 weights, and at the cell-centered rows
# next to a pole those weights amplify second-order ingredient errors to
# O(1).  Fourth-order ingredients keep every diagnostic term at or below
# O(h^2) there.

# STENCILS[order][n] = (integer numerators at offsets -r..r with r = order/2,
# denominator): the n-th derivative at a node is
# sum_k num[k] v[node + k - r] / (den h^n).
STENCILS = {
    2: (((0, 1, 0), 1), ((-1, 0, 1), 2), ((1, -2, 1), 1)),
    4: (((0, 0, 1, 0, 0), 1), ((1, -8, 0, 8, -1), 12), ((-1, 16, -30, 16, -1), 12)),
}


def pad_poles(grid: SphereGrid, v: np.ndarray, parity: int = 1, depth: int = 1) -> np.ndarray:
    """Add `depth` ghost rows beyond each pole.

    parity is +1 for scalars and tensor components with an even number of
    theta indices, -1 otherwise (the chart map flips d/dtheta).  Ghost row
    m beyond a pole is interior row m-1 rolled by half a turn.
    """
    half = grid.n_phi // 2
    p = np.empty((grid.n_theta + 2 * depth, grid.n_phi), dtype=float)
    p[depth:p.shape[0] - depth] = v
    for mrow in range(depth):
        p[depth - 1 - mrow] = parity * np.roll(v[mrow], -half)
        p[p.shape[0] - depth + mrow] = parity * np.roll(v[-1 - mrow], -half)
    return p


def halo(grid: SphereGrid, v: np.ndarray, parity: int = 1, depth: int = 1) -> np.ndarray:
    """v with pad_poles' `depth` ghost rows beyond each pole and `depth`
    columns wrapped in phi on each side, the array every stencil reads."""
    h = np.empty((grid.n_theta + 2 * depth, grid.n_phi + 2 * depth))
    h[:, depth:-depth] = pad_poles(grid, v, parity, depth)
    h[:, :depth] = h[:, grid.n_phi:grid.n_phi + depth]
    h[:, -depth:] = h[:, depth:2 * depth]
    return h


def stencil_2d(grid: SphereGrid, n_t: int, n_p: int, order: int = 2):
    """d^(n_t + n_p) / dtheta^n_t dphi^n_p: the outer product of the theta
    and phi numerators of STENCILS[order] (rows and columns at offsets
    -r..r) and one divisor (den_t dtheta^n_t) (den_p dphi^n_p)."""
    (num_t, den_t), (num_p, den_p) = STENCILS[order][n_t], STENCILS[order][n_p]
    return np.outer(num_t, num_p), (den_t * grid.dtheta**n_t) * (den_p * grid.dphi**n_p)


def _apply(grid: SphereGrid, h: np.ndarray, n_t: int, n_p: int, order: int) -> np.ndarray:
    """A partial from halo h: the nonzero numerator x halo-slice terms of
    stencil_2d added up in row-major offset order, then divided once."""
    nums, divisor = stencil_2d(grid, n_t, n_p, order)
    terms = (w * h[a:a + grid.n_theta, b:b + grid.n_phi] for (a, b), w in np.ndenumerate(nums) if w)
    y = next(terms)
    for t in terms:
        y += t
    return y / divisor


def derivative(grid: SphereGrid, v: np.ndarray, n_t: int = 0, n_p: int = 0,
               parity: int = 1, order: int = 2) -> np.ndarray:
    """d^(n_t + n_p) v / dtheta^n_t dphi^n_p by stencil_2d(order), through
    the halo of v whose ghost rows have the given parity."""
    return _apply(grid, halo(grid, v, parity, order // 2), n_t, n_p, order)


# ---------------------------------------------------------------------------
# covariant jet on the unit sphere

JET_COMPONENTS = ("value", "d_t", "d_p", "d_tt", "d_tp", "d_pp")
# (theta, phi) derivative counts of each raw jet component
JET_DERIVATIVES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@dataclass(frozen=True, eq=False)
class CovariantJet:
    """Value, gradient, and covariant Hessian of a scalar on the unit sphere.

    Components are taken in (theta, phi) coordinates of the round metric
    e = dtheta^2 + sin(theta)^2 dphi^2; grad_sq is the invariant
    e^{ij} f_i f_j.
    """

    value: np.ndarray
    d_t: np.ndarray
    d_p: np.ndarray
    hess_tt: np.ndarray
    hess_tp: np.ndarray
    hess_pp: np.ndarray
    grad_sq: np.ndarray


def raw_jet(field: ScalarField, order: int = 2) -> tuple:
    """Raw coordinate partials (f, f_t, f_p, f_tt, f_tp, f_pp) of a scalar
    field, in the order of JET_COMPONENTS, all read through one halo."""
    h = halo(field.grid, field.values, depth=order // 2)
    return tuple(_apply(field.grid, h, n_t, n_p, order) for n_t, n_p in JET_DERIVATIVES)


def jet_from_partials(grid: SphereGrid, v, ft, fp, ftt, ftp, fpp) -> CovariantJet:
    """Covariant jet from raw partials: the sphere Christoffel correction

        H_tt = f_tt
        H_tp = f_tp - cot(theta) f_p
        H_pp = f_pp + sin(theta) cos(theta) f_t

    Pointwise, so it also accepts perturbed partials.
    """
    st, ct = grid.sin_t, grid.cos_t
    hess_tp = ftp - (ct / st) * fp
    hess_pp = fpp + st * ct * ft
    return CovariantJet(value=v, d_t=ft, d_p=fp, hess_tt=ftt,
                        hess_tp=hess_tp, hess_pp=hess_pp, grad_sq=ft * ft + (fp / st) ** 2)


def covariant_jet(field: ScalarField, order: int = 2) -> CovariantJet:
    """Finite-difference jet of a scalar field, second-order by default:
    raw_jet followed by jet_from_partials.

    order=4 is reserved for the identity diagnostics (see the stencil
    notes above); everything the solver touches uses order=2.
    """
    return jet_from_partials(field.grid, *raw_jet(field, order))


# ---------------------------------------------------------------------------
# 9-point stencil operators

# The 3x3 footprint of a 9-point operator: (theta, phi) offsets in
# row-major order, the order in which its matvec adds its terms up.
OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))


@dataclass(frozen=True, eq=False)
class StencilOperator:
    """A linear map of grid fields coupling each node to its 3x3 footprint.

    data[i, j, o], shape (n_theta, n_phi, 9), is the weight of the
    neighbour of node (i, j) at OFFSETS[o]; a neighbour beyond a pole is
    pad_poles' ghost, the pole row's node half a turn away.  taps(x) are
    the nine neighbour fields of x, so taps of the node numbers are the
    neighbours' node numbers, the one place the footprint is written.
    op @ x adds the nine products data[..., o] * taps(x)[o] up in offset
    order, which is the matvec of the CSR matrix whose row (i, j) holds
    data[i, j] in that order, bitwise.  x is a field of the grid's shape or flat over its nodes, and
    so is op @ x.  abs(op) has the weights |data|; op.abs_matvec(x) is
    abs(op) @ x, bitwise, with no second weight table.  tocsc() is that
    matrix, the tests' reference for dense and sparse direct solves; no
    solve calls it, and it imports scipy.sparse on first call.
    """

    grid: SphereGrid
    data: np.ndarray

    def taps(self, x) -> list:
        """The neighbour at each of OFFSETS of every node of field x: nine
        slices of the halo of x."""
        nt, n_p = self.grid.shape
        h = halo(self.grid, np.reshape(x, self.grid.shape))
        return [h[1 + di:1 + di + nt, 1 + dj:1 + dj + n_p] for di, dj in OFFSETS]

    def _combine(self, x, weight):
        """sum over o of weight(data[..., o]) * tap o of x, in offset order."""
        taps = self.taps(x)
        y = weight(self.data[..., 0]) * taps[0]
        for o in range(1, len(OFFSETS)):
            y += weight(self.data[..., o]) * taps[o]
        return y.reshape(np.shape(x))

    def __matmul__(self, x):
        return self._combine(x, lambda w: w)

    def abs_matvec(self, x):
        return self._combine(x, np.abs)

    def __abs__(self):
        return StencilOperator(self.grid, np.abs(self.data))

    def tocsc(self):
        import scipy.sparse
        n = self.grid.n_nodes
        cols = np.stack(self.taps(np.arange(n, dtype=float)), axis=-1).astype(np.intp)
        return scipy.sparse.csr_matrix((self.data.ravel(), cols.ravel(),
                                        np.arange(0, 9 * n + 1, 9)), shape=(n, n)).tocsc()


def jet_weights(grid: SphereGrid) -> np.ndarray:
    """The order-2 jet stencils on the 9-point footprint, shape (6, 9):
    weights[c] is stencil_2d's table of raw partial c (JET_COMPONENTS
    order), row-major as OFFSETS, over its divisor, so
    StencilOperator(grid, broadcast weights[c]) @ f is derivative's partial
    c of f, read through the same halo."""
    tables = (stencil_2d(grid, n_t, n_p) for n_t, n_p in JET_DERIVATIVES)
    return np.array([nums.ravel() / divisor for nums, divisor in tables])


def refinement_order(field_fn, exact_fn, derived_fn, n_theta: int, n_phi: int) -> float:
    """log2 error ratio of a derived quantity between grids (n, 2n).

    field_fn(theta, phi) samples the analytic field, exact_fn(theta, phi)
    its exact derived quantity, and derived_fn(jet, grid) the discrete
    counterpart.  Returns +inf when both errors vanish (field resolved
    exactly), else log2(err_coarse / err_fine); ~2 for smooth fields.

    The errors are area-weighted rms norms: quantities carrying
    1/sin(theta)^2 weights lose one order pointwise at the cell-centered
    rows next to a pole, but those rows have O(h^2) area, so the weighted
    norm sees clean second order.
    """
    errs = []
    scale = 1.0
    for nt, np_ in ((n_theta, n_phi), (2 * n_theta, 2 * n_phi)):
        g = build_grid(nt, np_)
        f = field_from_function(g, field_fn)
        tt, pp = g.mesh()
        exact = np.asarray(exact_fn(tt, pp), dtype=float)
        approx = np.asarray(derived_fn(covariant_jet(f), g), dtype=float)
        diff = np.abs(approx - exact)
        weight = np.sin(tt) * g.dtheta * g.dphi
        errs.append(float(np.sqrt((weight * diff**2).sum() / weight.sum())))
        scale = max(1.0, float(np.max(np.abs(exact))))
    if errs[0] < 1e-13 * scale and errs[1] < 1e-13 * scale:
        return math.inf
    return math.log2(errs[0] / errs[1])
