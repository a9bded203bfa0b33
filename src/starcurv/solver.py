"""Damped Newton and homotopy continuation for the curvature equation.

The discrete equation is, per node, sigma_k of the principal curvatures
minus the prescription evaluated at (z, rho, nu); Newton, the Jacobian and
the exported node tables all use this one residual form.  It reads rho
only through the node's 2-jet (value, first and second partials), so the
Jacobian follows by the chain rule: J = sum_c diag(dF/dc) @ D_c over the
six raw jet components c, with D_c the grid's fixed stencil matrices
(cross-pole ghosting folded in).  dF/dc is closed form for sigma_k, the
linearized operator d sigma_k / d h_ij and d sigma_k / d g_ij chained
through the jet's entries of g and h, and the prescription's own partials
in rho and nu for the three components they read.  A continuation keeps
one held factor across all its Newton steps and stages, and solves each
Newton system by iterative refinement against it: the curvatures stay
bounded along the homotopy, so J drifts little.  The held factor is a
PhiModes of J averaged over phi (T. Chan's optimal circulant
approximation, applied per theta-block), one real FFT in phi and one
tridiagonal Thomas sweep in theta per mode, with no LU.  When refinement
against it stops contracting, the modes are rebuilt once from the current
J, and only if that also fails is J factored by SuperLU with the
minimum-degree ordering of J^T + J (MMD_AT_PLUS_A); the LU is then held
in their place.  scipy.sparse.linalg is imported only for that fallback.
Refinement stops at Oettli and Prager's componentwise backward error
floor when REFINE_TOL |b| asks for more than float64 can deliver.  The
continuation tries the whole path t = 0 -> 1 in one step first, halves a
step that fails and doubles the next one after a step that succeeds.  It
is an Euler-Newton predictor-corrector: each attempt of the first stage
after t = 0 seeds Newton with the tangent predictor start - J0^-1
F(start; psi_t).  J0, the Jacobian at the radial start, commutes with
phi-shifts for every target, so its PhiModes solves it exactly.  The
predictor is skipped when the start already meets newton_tol at t, and
dropped for one retry from the start when its field leaves (0, a) or is
not admissible; later stages start from the last solution.  A report's
iterations count Newton corrector steps only.  A stage whose Newton
solve damped a step must also keep the branch index, the sign of det J,
of the radial start: that sign is the local Leray-Schauder index of an
isolated solution, and the two solutions that meet at a fold have
opposite signs.
The test is necessary, not sufficient: two solutions of equal index can
coexist, and it cannot tell them apart.  Every accepted Newton iterate
must stay strictly inside the radial domain and keep the principal
curvatures inside the degree-k positivity cone with margin at least
CONE_MARGIN; the report carries the a priori bound monitors (radius range,
gradient sup, largest curvature, support minimum, cone margin) for every
accepted iterate.

Runs are serial and deterministic: given identical inputs and options
the iterate sequence is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .geometry import GeometryError, GeometryState, assemble
from .grid import ScalarField, SphereGrid, constant_field, jet_stencils
from .prescription import Prescription, builtin
from .spaceform import DomainError, SpaceFormModel
from .symfunc import sigma_all


class NoConvergence(RuntimeError):
    """Solver budget exhausted; carries the last good field and report."""

    def __init__(self, message: str, field: Optional[ScalarField] = None,
                 report: Optional["SolveReport"] = None):
        super().__init__(message)
        self.field = field
        self.report = report


class ConeBreach(NoConvergence):
    """No step length keeps the iterate admissible: left the solvable regime."""


@dataclass
class SolverOptions:
    """The one solver setting a run chooses: Newton stops once the residual
    sup norm is at most newton_tol.  The budgets, the continuation's steps
    and the line search's settings are the constants below."""

    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.newton_tol < 1.0:
            raise ValueError("newton_tol must be in (0, 1)")


# Newton takes at most MAX_NEWTON_ITERS steps per solve.  The continuation's
# first step is FIRST_STEP (the whole path), and it stalls once a halved step
# falls below MIN_HOMOTOPY_STEP.  The line search halves the step (DAMPING) up
# to MAX_BACKTRACKS times, and accepts a candidate only when its cone margin
# is at least CONE_MARGIN.
MAX_NEWTON_ITERS = 50
FIRST_STEP = 1.0
MIN_HOMOTOPY_STEP = 1e-4
DAMPING = 0.5
MAX_BACKTRACKS = 30
CONE_MARGIN = 1e-10


# The per-iterate monitor lists of a SolveReport, in the order record() takes
# them and summary() writes their last entries; residual_trace's is written
# as residual_inf.
MONITORS = ("residual_trace", "rho_min", "rho_max", "grad_inf", "kappa_max", "u_min",
            "cone_margin")


@dataclass
class SolveReport:
    """Convergence trace plus the a priori bound monitors.

    The MONITORS lists hold one entry per accepted iterate (the seed
    counts as iterate zero, and is recorded even when it is not
    admissible).  homotopy_t has one entry per accepted continuation
    stage; homotopy_t_final is the last of them, 0 before the first.
    factorizations counts the sparse LUs, which a continuation builds only
    when refinement against phi-averaged modes fails (see _linear_solve),
    and refine_sweeps the refinement sweeps against held or rebuilt modes
    or a held LU; like iterations, both cover the accepted stages only.
    branch_rejections counts the stages rejected because the branch index
    at their solution differed from the start's.  branch_index is sign
    det J at the solution of a Newton solve that damped a step, 0 when it
    damped none.  state is the geometry of the field a Newton solve
    returned, None on a continuation's report.
    """

    converged: bool = False
    iterations: int = 0
    factorizations: int = 0
    refine_sweeps: int = 0
    branch_rejections: int = 0
    branch_index: int = 0
    message: str = ""
    residual_trace: list = field(default_factory=list)
    homotopy_t: list = field(default_factory=list)
    rho_min: list = field(default_factory=list)
    rho_max: list = field(default_factory=list)
    grad_inf: list = field(default_factory=list)
    kappa_max: list = field(default_factory=list)
    u_min: list = field(default_factory=list)
    cone_margin: list = field(default_factory=list)
    state: Optional[GeometryState] = field(default=None, repr=False, compare=False)

    @property
    def residual_inf(self) -> float:
        return self.residual_trace[-1] if self.residual_trace else math.inf

    @property
    def homotopy_t_final(self) -> float:
        return self.homotopy_t[-1] if self.homotopy_t else 0.0

    @property
    def final_admissible(self) -> bool:
        return bool(self.cone_margin) and self.cone_margin[-1] > 0.0

    def record(self, rnorm: float, state: GeometryState, margin: float):
        kmax = np.maximum(np.abs(state.kappa1), np.abs(state.kappa2)).max()
        values = (rnorm, state.rho.min(), state.rho.max(), np.sqrt(state.jet.grad_sq.max()),
                  kmax, state.u.min(), margin)
        for name, value in zip(MONITORS, values):
            getattr(self, name).append(float(value))

    def absorb(self, other: "SolveReport"):
        """Append another solve's accepted-iterate traces (homotopy stages)."""
        self.iterations += other.iterations
        self.factorizations += other.factorizations
        self.refine_sweeps += other.refine_sweeps
        self.branch_rejections += other.branch_rejections
        for name in MONITORS:
            getattr(self, name).extend(getattr(other, name))

    def last_monitors(self) -> dict:
        """The last entry of each monitor list, skipping empty ones."""
        return {"residual_inf" if name == "residual_trace" else name: getattr(self, name)[-1]
                for name in MONITORS if getattr(self, name)}

    def summary(self) -> dict:
        """Counters, last monitors and homotopy_t_final: the report keys of a solve."""
        return {"converged": self.converged, "iterations": self.iterations,
                "factorizations": self.factorizations, "refine_sweeps": self.refine_sweeps,
                "branch_rejections": self.branch_rejections, **self.last_monitors(),
                "homotopy_t_final": self.homotopy_t_final}


# ---------------------------------------------------------------------------
# residual

def _evaluate(model: SpaceFormModel, fieldv: ScalarField, psi: Optional[Prescription],
              k: int):
    """Geometry, residual values, and cone margin in one pass."""
    return _residual_of(assemble(model, fieldv), psi, k)


def _residual_of(state: GeometryState, psi: Optional[Prescription], k: int):
    """Residual values and cone margin of an assembled geometry, node by node."""
    sigs = sigma_all(state.kappa, k)
    margin = float(sigs.min())
    if psi is None:
        psival = 0.0
    else:
        z, _, _ = state.grid.unit_vectors()
        psival = np.asarray(psi(z, state.rho, state.nu), dtype=float)
    return state, sigs[..., -1] - psival, margin


def residual(model: SpaceFormModel, fieldv: ScalarField, psi: Optional[Prescription],
             k: int) -> ScalarField:
    """Per-node defect sigma_k(kappa) - psi(z, rho, nu), the one residual
    form that Newton drives to zero and the exports write.

    psi=None evaluates the pure curvature part (used by scaling tests).
    """
    _, res, _ = _evaluate(model, fieldv, psi, k)
    return ScalarField(fieldv.grid, res)


# ---------------------------------------------------------------------------
# Jacobian by the chain rule through the 2-jet

def _sigma_linearized(K: int, state: GeometryState, k: int):
    """sigma_k and its derivatives in the six raw jet components, per node.

    With S = sqrt(phi^2 + |grad f|^2), P = phi / S and q = phi' / phi,
    h = P B where B_ij = -H_ij + 2 q f_i f_j + phi phi' e_ij and
    e = diag(1, sin^2 theta).  The linearized operator a_ij = d sigma_k /
    d h_ij and b_ij = d sigma_k / d g_ij come from sigma_2 = det h / det g
    and sigma_1 = tr(g^-1 h); a_ij h_ij = k sigma_k, so

        d sigma_k / dc = k sigma_k dlogP/dc + P a_ij dB_ij/dc + b_ij dg_ij/dc,

    with one table row (dlogP, dB, dg) per component c; phi'' = -K phi,
    so q' = -K - q^2.  Returns [d sigma_k / dc for each c].
    """
    if k not in (1, 2):
        raise ValueError(f"degree k={k} outside 1..2")
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
    # (dlogP, dB_tt, dB_tp, dB_pp, dg_tt, dg_tp, dg_pp); None for a zero
    table = (
        (q * w / s2, 2.0 * dq * ft * ft + de, 2.0 * dq * ft * fp, 2.0 * dq * fp * fp + de * st2,
         dgv, None, dgv * st2),
        (-ft / s2, 4.0 * q * ft, 2.0 * q * fp, -st * ct, 2.0 * ft, fp, None),
        (-fp / (st2 * s2), None, ct / st + 2.0 * q * ft, 4.0 * q * fp, None, ft, 2.0 * fp),
        (None, -1.0, None, None, None, None, None),
        (None, None, -1.0, None, None, None, None),
        (None, None, None, -1.0, None, None, None),
    )
    ksk = k * sk
    out = []
    for dlogp, *rest in table:
        terms = [c * d for c, d in zip(pa + b, rest) if d is not None]
        if dlogp is not None:
            terms.insert(0, ksk * dlogp)
        out.append(sum(terms[1:], terms[0]))
    return out


def _psi_linearized(state: GeometryState, psi: Prescription):
    """d psi / dc in the value, f_t and f_p jet components, from psi.partials.

    In the frame (z, e_t, e_p), nu = N / S with N = (phi, -f_t, -f_p / sin theta),
    so d psi / dc = psi_rho [c = value] + P . dN/dc, P = (psi_nu - (psi_nu . nu) nu) / S.
    psi_nu goes into frame components first, which keeps J bitwise
    equivariant under rotations about e_z."""
    g = state.grid
    frame = g.unit_vectors()
    psi_rho, psi_nu = psi.partials(frame[0], state.rho, state.nu)
    p_z, p_t, p_p = ((psi_nu * e).sum(axis=-1) for e in frame)
    phi, ft, fp = state.phi, state.jet.d_t, state.jet.d_p / g.sin_t
    s2 = phi * phi + state.jet.grad_sq
    sroot = np.sqrt(s2)
    a = (p_z * phi - p_t * ft - p_p * fp) / s2      # (psi_nu . nu) / S
    return [psi_rho + state.dphi * (p_z - a * phi) / sroot,
            -(p_t + a * ft) / sroot,
            -(p_p + a * fp) / (sroot * g.sin_t)]


def jacobian(model: SpaceFormModel, fieldv: ScalarField, psi: Optional[Prescription],
             k: int, state: Optional[GeometryState] = None) -> sp.csr_matrix:
    """Sparse residual Jacobian J = sum_c diag(dF/dc) @ D_c.

    dF/dc is the derivative of each node's residual in its own raw jet
    component c, closed form at the geometry of the iterate: state, when
    the caller has assembled it already, else assemble's.  sigma_k's part
    is in all six components (_sigma_linearized), psi's in the value, f_t
    and f_p components only (_psi_linearized), since rho and nu read no
    second derivative.  D_c are the grid's stencil matrices, which share
    one 9-point pattern, so J is their weights combined row by row.
    """
    g = fieldv.grid
    if state is None:
        state = assemble(model, fieldv)
    dfdc = _sigma_linearized(model.K, state, k)
    dpsi = [] if psi is None else _psi_linearized(state, psi)
    for c, d in enumerate(dpsi):
        dfdc[c] = dfdc[c] - d
    stencils = jet_stencils(g)
    data = np.zeros(stencils.weights[0].shape)
    for c, d in enumerate(dfdc):
        row = stencils.weights[c][0]
        for j in np.flatnonzero(row):
            data[:, j] += row[j] * d.ravel()
    return sp.csr_matrix((data.ravel(), stencils.indices, stencils.indptr),
                         shape=(g.n_nodes, g.n_nodes), copy=True)


# Refinement stops once |b - Jx|_inf <= max(REFINE_TOL |b|_inf, REFINE_FLOOR
# max(|J| |x|)), the second term Oettli and Prager's componentwise backward
# error at 16 ulps (Numer. Math. 6, 1964): past it, a smaller residual is
# roundoff, not accuracy.  It gives up as soon as the observed contraction
# cannot get there within REFINE_MAX_SWEEPS sweeps (see _refine).
REFINE_TOL = 1e-8
REFINE_FLOOR = 16.0 * np.finfo(float).eps
REFINE_MAX_SWEEPS = 12


def splu(A, **options):
    """scipy.sparse.linalg.splu, imported on first call: only the fallback
    of _linear_solve factors, so a run that never falls back never loads
    scipy.sparse.linalg."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(A, **options)


class Factor:
    """What a continuation's Newton systems are refined against.

    modes is a PhiModes of an earlier J, averaged over phi, and lu a sparse
    LU of one; at most one of them is held, None before the first solve.
    grid is the grid the modes are built on; without one (Factor()), only
    LUs are held.  _linear_solve replaces what it holds when refinement
    against it stops contracting.
    """

    __slots__ = ("grid", "modes", "lu")

    def __init__(self, grid: Optional[SphereGrid] = None):
        self.grid, self.modes, self.lu = grid, None, None


def _perm_parity(perm: np.ndarray) -> int:
    """(-1)^(n - cycles) of a permutation of 0..n-1, by pointer jumping.

    After round r, label[i] is the least index among the first 2^r nodes
    of i's cycle, so after ceil(log2 n) rounds each node carries its
    cycle's least index, and the cycles are the nodes that carry their own."""
    n = len(perm)
    label, jump = np.arange(n), np.asarray(perm)
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    cycles = np.count_nonzero(label == np.arange(n))
    return -1 if (n - cycles) % 2 else 1


def _lu_det_sign(lu) -> int:
    """sign det A from SuperLU's Pr A Pc = L U, where L has a unit diagonal:
    prod sign(U_ii) sign(Pr) sign(Pc), 0 for a zero pivot."""
    return (int(np.prod(np.sign(lu.U.diagonal()))) * _perm_parity(lu.perm_r)
            * _perm_parity(lu.perm_c))


def _refine(op, J: sp.csr_matrix, rhs: np.ndarray):
    """Iterative refinement of J x = rhs against op, whose solve inverts a
    nearby matrix: held or rebuilt phi-averaged modes, or an earlier LU.

    Returns (x, sweeps); x is None when the refinement gives up.  The goal
    is max(REFINE_TOL |rhs|, REFINE_FLOOR max(|J| |x|)), with |J| a copy of
    J's pattern (abs(J) would sort J's indices in place) and x the current
    iterate.  After sweep j the contraction is theta = |r_j| / |r_{j-1}|,
    with |r_{-1}| = |rhs|; at that rate the goal is j + log(goal / |r_j|) /
    log(theta) sweeps away.  It gives up as soon as theta >= 1 (or NaN) or
    that count exceeds REFINE_MAX_SWEEPS, the contraction test of
    Deuflhard, Newton Methods for Nonlinear Problems (2004), applied to the
    linear iteration.
    """
    abs_j = sp.csr_matrix((np.abs(J.data), J.indices, J.indptr), shape=J.shape)
    x = op.solve(rhs)
    r = rhs - J @ x
    last, rnorm = np.abs(rhs).max(), np.abs(r).max()
    tol = REFINE_TOL * last
    sweeps = 0
    while True:
        goal = max(tol, REFINE_FLOOR * (abs_j @ np.abs(x)).max())
        if rnorm <= goal:
            return x, sweeps
        theta = rnorm / last
        if not theta < 1.0 or (sweeps + math.log(goal / rnorm) / math.log(theta)
                               > REFINE_MAX_SWEEPS):
            return None, sweeps
        x += op.solve(r)
        sweeps += 1
        r = rhs - J @ x
        last, rnorm = rnorm, np.abs(r).max()


def _preconditioners(J: sp.csr_matrix, factor: Factor):
    """(slot, op) pairs for _linear_solve to refine against, in turn: what
    factor holds, then, when factor has a grid, the modes of J itself."""
    if factor.modes is not None:
        yield "modes", factor.modes
    elif factor.lu is not None:
        yield "lu", factor.lu
    if factor.grid is not None:
        yield "modes", PhiModes(J, factor.grid)


def _linear_solve(J: sp.csr_matrix, rhs: np.ndarray, factor: Optional[Factor] = None,
                  report: Optional[SolveReport] = None) -> np.ndarray:
    """Solve J x = rhs by refinement against what factor holds, else directly.

    When refinement against the held modes or LU gives up, and factor has
    a grid, the modes are rebuilt from J and refined against once more; a
    success keeps them in factor.  Only when that also fails (or factor
    has no grid) is J factored afresh, solved directly with one step of
    iterative refinement, and its LU kept in factor in their place.
    Without a factor every call factors J.  report, if given, counts
    factorizations and sweeps.
    """
    if factor is not None:
        for slot, op in _preconditioners(J, factor):
            factor.modes = factor.lu = None     # one factor alive at a time
            x, sweeps = _refine(op, J, rhs)
            if report is not None:
                report.refine_sweeps += sweeps
            if x is not None:
                setattr(factor, slot, op)
                return x
    try:
        lu = splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        raise NoConvergence("linear solve failed: singular Jacobian") from None
    if report is not None:
        report.factorizations += 1
    x = lu.solve(rhs)
    x += lu.solve(rhs - J @ x)
    if not np.all(np.isfinite(x)):
        raise NoConvergence("linear solve failed: singular Jacobian")
    if factor is not None:
        factor.lu = lu
    return x


# ---------------------------------------------------------------------------
# damped Newton

def newton_solve(model: SpaceFormModel, rho0: ScalarField, psi: Prescription,
                 k: int, opts: Optional[SolverOptions] = None,
                 factor: Optional[Factor] = None):
    """Damped Newton iteration constrained to the admissibility cone.

    With a factor, each Newton system is solved by refinement against the
    modes or LU it holds (see _linear_solve); without one, every step
    factors its Jacobian.  The converged report's state is the geometry of
    the returned field.

    Backtracking accepts a step only when the candidate stays strictly
    inside the radial domain, keeps the curvatures inside the cone with
    margin >= CONE_MARGIN, and strictly decreases the residual sup norm.
    Raises ConeBreach when no step length is even admissible and
    NoConvergence when MAX_NEWTON_ITERS steps do not reach newton_tol; both
    carry the report of this solve.  When a step was damped, the converged
    report's branch_index is sign det J from what served the last step:
    PhiModes.det_sign of the modes, or _lu_det_sign of an LU.  A fresh LU is
    of J itself; modes, or a held LU, are a nearby A against which
    refinement contracted, which needs |I - A^-1 J| < 1, so det A and det J
    have the same sign.
    """
    opts = opts or SolverOptions()
    report = SolveReport()
    held = factor if factor is not None else Factor()
    damped = False
    fieldv = rho0
    state, res, margin = _evaluate(model, fieldv, psi, k)
    rnorm = float(np.abs(res).max())
    report.record(rnorm, state, margin)
    if margin < CONE_MARGIN:
        raise ConeBreach(
            f"seed is not admissible: cone margin {margin!r} < {CONE_MARGIN!r}",
            field=fieldv, report=report)

    for _ in range(MAX_NEWTON_ITERS):
        if rnorm <= opts.newton_tol:
            break
        J = jacobian(model, fieldv, psi, k, state)
        if factor is None:
            held.lu = None      # a lone solve factors every J
        try:
            delta = _linear_solve(J, -res.ravel(), held, report).reshape(fieldv.grid.shape)
        except NoConvergence as exc:
            raise NoConvergence(str(exc), field=fieldv, report=report) from None

        alpha = 1.0
        accepted = False
        admissible_seen = False
        for _ in range(MAX_BACKTRACKS + 1):
            cf = ScalarField(fieldv.grid, fieldv.values + alpha * delta)
            try:
                cstate, cres, cmargin = _evaluate(model, cf, psi, k)
            except (GeometryError, DomainError):
                cstate = None
            if cstate is not None and cmargin >= CONE_MARGIN:
                admissible_seen = True
                cnorm = float(np.abs(cres).max())
                if cnorm < rnorm:
                    fieldv, state, res, margin, rnorm = cf, cstate, cres, cmargin, cnorm
                    accepted = True
                    break
            alpha *= DAMPING
        if not accepted:
            if not admissible_seen:
                raise ConeBreach(
                    "no step length keeps the iterate admissible",
                    field=fieldv, report=report)
            raise NoConvergence(
                f"line search stalled at residual {rnorm!r}",
                field=fieldv, report=report)
        damped = damped or alpha < 1.0
        report.iterations += 1
        report.record(rnorm, state, margin)

    if not rnorm <= opts.newton_tol:
        raise NoConvergence(
            f"iteration budget exhausted at residual {rnorm!r}",
            field=fieldv, report=report)
    report.converged = True
    report.message = "converged"
    report.state = state
    if damped:
        report.branch_index = (held.modes.det_sign() if held.modes is not None
                               else _lu_det_sign(held.lu))
    return fieldv, report


# ---------------------------------------------------------------------------
# homotopy continuation

# The radial start radius is resolved to a bracket this wide, relative below 1.
RADIAL_XTOL = 1e-14


def _illinois(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in the bracket between a and b (fa * fb < 0).

    Regula falsi with the Illinois modification: each time an end is kept
    while the other moves, its value is halved, so both ends close in on
    the root.  The bracket shrinks until it is at most xtol = RADIAL_XTOL
    min(1, |b|) wide, relative below r = 1, so a start far below 1 keeps
    full precision.  Each secant point is kept at least xtol / 2 inside the
    bracket, so a root sitting at an end ends the search in one more
    evaluation instead of creeping up on it.
    """
    while abs(b - a) > (xtol := RADIAL_XTOL * min(1.0, abs(b))):
        c = b - fb * (b - a) / (fb - fa)
        c = min(max(c, min(a, b) + 0.5 * xtol), max(a, b) - 0.5 * xtol)
        fc = f(c)
        if fc == 0.0:
            return c
        if fc * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return b


# The radial start's scan evaluates psi at a chunk of radii per call, at
# most RADIAL_CHUNK values (1 MB of float64) over those radii and all nodes.
# It goes no lower than RADIAL_FLOOR: below it, psi of a k = 2 sphere
# exceeds 1e16, and its float64 roundoff exceeds any newton_tol < 1.
RADIAL_CHUNK = 2**17
RADIAL_FLOOR = 1e-8


def _radial_start(model: SpaceFormModel, grid: SphereGrid, psi: Prescription,
                  k: int) -> float:
    """Radius r0 whose centered sphere solves the degree-k radial problem
    at the target's mean scale: C(2,k) q(r0)^k = mean_z psi(z, r0, radial).

    The root is bracketed by the first sign change (or zero) of that gap
    over a geometric scan of radii, evaluated a chunk of radii per psi call
    on a broadcast radii axis, and refined by _illinois.  The scan runs up
    from 1e-3 to the top of the domain, then, only when that finds no sign
    change, down from 1e-3 to RADIAL_FLOOR at the same ratio.  Raises
    NoConvergence, with no field and a report of only its message, when
    neither finds a root."""
    z, _, _ = grid.unit_vectors()
    z = z.reshape(-1, 3)
    chunk = max(1, RADIAL_CHUNK // len(z))

    def gap(r):
        r = np.asarray(r, dtype=float)[..., None]   # one radius, or a chunk of them
        vals = np.broadcast_to(psi(z, r, z), r.shape[:-1] + (len(z),))
        return model.sphere_sigma(r[..., 0], k) - np.mean(vals, axis=-1)

    def scan(rs):
        gaps = np.empty(0)
        for lo in range(0, len(rs), chunk):
            gaps = np.concatenate([gaps, gap(rs[lo:lo + chunk])])
            g0, g1 = gaps[:-1], gaps[1:]
            hits = np.flatnonzero((g0 == 0.0) | (g0 * g1 < 0.0))
            if hits.size:
                i = hits[0]
                if g0[i] == 0.0:
                    return float(rs[i])
                return float(_illinois(gap, float(rs[i]), float(rs[i + 1]), g0[i], g1[i]))
        return None

    top = model.a - 1e-6 if model.K == 1 else model.a * 0.98
    rs = np.geomspace(1e-3, min(top, 30.0), 240)
    step = math.log(rs[1] / rs[0])
    if top > 30.0:
        # (30, top] at the same ratio, reached only when [1e-3, 30] has no sign change
        n = math.ceil(math.log(top / 30.0) / step)
        rs = np.concatenate([rs, np.geomspace(30.0, top, n + 1)[1:]])
    # down from 1e-3 to RADIAL_FLOOR at the same ratio, reached only when
    # [1e-3, top] has no sign change
    n = math.ceil(math.log(1e-3 / RADIAL_FLOOR) / step)
    below = np.geomspace(1e-3, RADIAL_FLOOR, n + 1)
    for radii in (rs, below):
        r0 = scan(radii)
        if r0 is not None:
            return r0
    msg = ("no radial start radius: the radial problem C(2,k) q(r)^k = mean(psi) "
           f"has no root in the scanned radii [{RADIAL_FLOOR!r}, {top!r}]")
    raise NoConvergence(msg, report=SolveReport(message=msg))


def _phi_bands(J: sp.csr_matrix, grid: SphereGrid) -> np.ndarray:
    """J's stencil coefficients averaged over phi, per theta-row.

    bands[b, i, d] is the mean over j of J[(i, j), (i + b - 1, j + d)], the
    coupling of node (i, j) to theta-row i - 1, i or i + 1 (b = 0, 1, 2)
    at phi-offset d mod n_phi.  A ghost beyond a pole
    is a node of the pole row itself, half a turn away, so it lands in
    b = 1.  For a J that commutes with phi-shifts every j gives the same
    value, and the mean is J's own C_i,i+b-1(d).
    """
    n_t, n_p = grid.n_theta, grid.n_phi
    col = J.indices
    row = np.repeat(np.arange(grid.n_nodes, dtype=col.dtype), np.diff(J.indptr))
    i = row // n_p
    # col - row = (i' - i) n_phi + (j' - j), so its residue mod n_phi is d
    flat = ((col // n_p - i + 1) * n_t + i) * n_p + (col - row) % n_p
    sums = np.bincount(flat, weights=J.data, minlength=3 * n_t * n_p)
    return sums.reshape(3, n_t, n_p) / n_p


class PhiModes:
    """J x = b, solved one phi-Fourier mode at a time for the phi-average of J.

    A J that commutes with the shift by one longitude has J[(i, j), (i',
    j')] = C_ii'(j' - j).  It maps x_i' w^(m j'), w = exp(2 pi i / n_phi),
    to (B_m x)_i w^(m j) with B_m = sum_d C(d) w^(md): J x = b splits into
    one n_theta x n_theta system per mode m = 0 .. n_phi/2 of the real FFT
    in phi.  The 9-point stencil makes every B_m tridiagonal, since the
    pole ghosts land on the diagonal (_phi_bands).  The C are J's
    coefficients averaged over phi, which is J itself when J commutes with
    phi-shifts (the predictor's J0) and otherwise the optimal circulant
    approximation in phi of T. Chan (SIAM J. Sci. Stat. Comput. 9, 1988),
    a preconditioner that _refine iterates against.  The B_m are factored
    by Thomas elimination (no pivoting), one sweep vectorized over the
    modes.
    """

    __slots__ = ("_shape", "_sub", "_piv", "_ratio")

    def __init__(self, J: sp.csr_matrix, grid: SphereGrid):
        # sum_d C(d) w^(md) of a real C is the conjugate of numpy's forward FFT
        sub, diag, sup = np.conj(np.fft.rfft(_phi_bands(J, grid), axis=-1))
        piv = np.empty_like(diag)
        ratio = np.empty_like(sup[:-1])                     # sup_i / piv_i
        piv[0] = diag[0]
        for i in range(1, grid.n_theta):
            ratio[i - 1] = sup[i - 1] / piv[i - 1]
            piv[i] = diag[i] - sub[i] * ratio[i - 1]
        self._shape, self._sub, self._piv, self._ratio = grid.shape, sub, piv, ratio

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with J x = rhs, of rhs's shape: the grid's (n_theta, n_phi) or
        flat over the nodes."""
        sub, piv, ratio = self._sub, self._piv, self._ratio
        y = np.fft.rfft(np.reshape(rhs, self._shape), axis=-1)
        y[0] /= piv[0]
        for i in range(1, len(y)):
            y[i] = (y[i] - sub[i] * y[i - 1]) / piv[i]
        for i in range(len(y) - 2, -1, -1):
            y[i] -= ratio[i] * y[i + 1]
        return np.fft.irfft(y, n=self._shape[1], axis=-1).reshape(np.shape(rhs))

    def det_sign(self) -> int:
        """sign det J = sign det B_0 * sign det B_(n_phi/2), from the Thomas
        pivots of those two real blocks: det J = prod_m det B_m over all
        n_phi modes, and B_m, B_(n_phi - m) are complex conjugates with a
        positive product of determinants.  0 for a zero pivot, after which
        the later ones are infinite or NaN."""
        signs = np.sign(self._piv[:, [0, -1]].real)
        return int(np.prod(signs)) if np.all(np.isfinite(signs)) else 0


def continuity_solve(model: SpaceFormModel, grid: SphereGrid, psi_target: Prescription,
                     k: int, opts: Optional[SolverOptions] = None):
    """Homotopy continuation from an exactly solvable radial prescription.

    The start is the round-sphere-targeting family with exponent k + 2
    (strictly radially monotone) anchored at the radius solving the radial
    problem at the target's mean scale; the path is the convex blend with
    the target.  Each stage is an Euler-Newton predictor-corrector step
    (Allgower and Georg, Introduction to Numerical Continuation Methods,
    2003, ch. 2).  While the iterate is still the start, the predictor is
    the tangent step start - J0^-1 F(start; psi_t), with J0 the Jacobian
    at the start and psi0: a constant field with a radial prescription, so
    J0 commutes with phi-shifts for every target and PhiModes solves it
    mode by mode, with no LU.  The predictor is skipped when the start
    already meets newton_tol at t (the round sphere), and dropped for one
    retry of the same t from the start when the predicted field leaves
    (0, a) or is not admissible (ConeBreach at Newton's seed).  Later
    stages start Newton from the last accepted solution.  Newton corrects;
    the report's iterations count its steps only, not the predictor.

    The first step is FIRST_STEP, the whole path; a failed step is halved
    from the t it tried, and an accepted one doubles the next, without a
    cap.  A step fails when its Newton solve fails, or when that solve
    damped a step and the branch index at its solution (Newton's report)
    differs from the start's (PhiModes.det_sign of J0).  Damping can lead a
    start outside the region where undamped Newton contracts to another
    solution of the same equation, and in K = +1 it does; the two solutions
    that meet at a fold have opposite indices.  The test is necessary, not
    sufficient: a second solution of the start's index passes it.  A step
    that would end within MIN_HOMOTOPY_STEP of t = 1 goes to 1, and the run
    stalls once a halved step falls below it.  Every Newton solve of the
    continuation shares one Factor on the grid, so its systems refine
    against phi-averaged modes and fall back to an LU only when that fails.
    """
    opts = opts or SolverOptions()
    r0 = _radial_start(model, grid, psi_target, k)
    psi0 = builtin(model, "round_target", k=psi_target.k, r_bar=r0, m=k + 2)
    fieldv = constant_field(grid, r0)
    report = SolveReport()
    factor = Factor(grid)

    t = 0.0
    dt = FIRST_STEP
    try:
        fieldv, sub = newton_solve(model, fieldv, psi0, k, opts, factor=factor)
    except NoConvergence as exc:
        report.absorb(exc.report)
        report.message = f"the radial start failed at t = 0: {exc}"
        raise type(exc)(report.message, field=exc.field, report=report) from None
    report.absorb(sub)
    report.homotopy_t.append(0.0)
    # A Newton solve that returns after no step returns its seed, so the
    # iterate leaves the start only through a stage that took steps from
    # it, and every such stage built modes first: a damped stage finds them.
    start, start_state = fieldv, sub.state
    modes = None
    plain = False          # the next attempt starts Newton at the start itself
    while t < 1.0:
        t_next = min(t + dt, 1.0)
        if 1.0 - t_next < MIN_HOMOTOPY_STEP:
            t_next = 1.0
        psi_t = psi0.blend(psi_target, t_next)
        seed = fieldv
        if fieldv is start and not plain:
            _, res, _ = _residual_of(start_state, psi_t, k)
            if not np.abs(res).max() <= opts.newton_tol:
                if modes is None:
                    modes = PhiModes(jacobian(model, start, psi0, k, start_state), grid)
                values = start.values - modes.solve(res)
                try:
                    model.check_domain(values)
                except DomainError:
                    plain = True
                    continue
                seed = ScalarField(grid, values)
        plain = False
        failure = None
        try:
            solved, sub = newton_solve(model, seed, psi_t, k, opts, factor=factor)
        except NoConvergence as exc:
            if (seed is not fieldv and isinstance(exc, ConeBreach)
                    and exc.report.cone_margin[0] < CONE_MARGIN):
                plain = True
                continue
            failure = str(exc)
        else:
            if sub.branch_index and sub.branch_index != modes.det_sign():
                report.branch_rejections += 1
                failure = (f"branch index {sub.branch_index:+d} at the solution for "
                           f"t = {t_next!r}, the start's is {modes.det_sign():+d}")
        if failure is not None:
            dt = 0.5 * (t_next - t)
            if dt < MIN_HOMOTOPY_STEP:
                report.message = f"homotopy stalled at t = {t!r}: {failure}"
                raise NoConvergence(report.message, field=fieldv, report=report) from None
            continue
        t, fieldv = t_next, solved
        report.absorb(sub)
        report.homotopy_t.append(t)
        dt *= 2.0

    report.converged = True
    report.message = "converged"
    return fieldv, report


def uniqueness_probe(model: SpaceFormModel, grid: SphereGrid, psi: Prescription,
                     k: int, opts: Optional[SolverOptions] = None,
                     seeds=(0.8, 1.2)) -> float:
    """Max pairwise sup deviation of Newton solutions from radial seeds.

    Numerical evidence for uniqueness, not certification: each seed radius
    is solved independently and the solutions are compared."""
    opts = opts or SolverOptions()
    solutions = []
    for r in seeds:
        fieldv, _ = newton_solve(model, constant_field(grid, float(r)), psi, k, opts)
        solutions.append(fieldv.values)
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            worst = max(worst, float(np.abs(solutions[i] - solutions[j]).max()))
    return worst
