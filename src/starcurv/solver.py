"""Damped Newton and homotopy continuation for the curvature equation.

The discrete equation is, per node, sigma_k of the principal curvatures
minus the prescription evaluated at (z, rho, nu); Newton, the Jacobian and
the exported node tables all use this one residual form.  It reads rho
only through the node's 2-jet (value, first and second partials), so the
Jacobian follows by the chain rule: J = sum_c diag(dF/dc) @ D_c over the
six raw jet components c, with D_c the grid's fixed 9-point jet stencils
(cross-pole ghosting folded in), so J is a 9-point StencilOperator, a
numpy slice matvec.  dF/dc is closed form for sigma_k, the
linearized operator d sigma_k / d h_ij and d sigma_k / d g_ij chained
through the jet's entries of g and h, and the prescription's own partials
in rho and nu for the three components they read.  Each Newton system is
solved by restarted GMRES, right-preconditioned by the PhiModes of its own
J: J averaged over phi (T. Chan's optimal circulant approximation, applied
per theta-block), one real FFT in phi and one tridiagonal Thomas sweep in
theta per mode, with no LU and no scipy.  GMRES starts from the modes'
solve, so when J commutes with phi-shifts (an axis along e_z) the modes
are J itself and that one solve meets the goal with no matvec.  The solve
stops at Oettli and Prager's componentwise backward error floor when
REFINE_TOL |b| asks for more than float64 can deliver.  The continuation
tries the whole path t = 0 -> 1 in one step first, halves a step that
fails and doubles the next one after a step that succeeds.  It is an
Euler-Newton predictor-corrector: each attempt of the first stage after
t = 0 seeds Newton with the tangent predictor start - J0^-1 F(start;
psi_t).  J0, the Jacobian at the radial start, commutes with phi-shifts
for every target, so its PhiModes solves it exactly.  The predictor is
skipped when the start already meets newton_tol at t, and dropped for
one retry from the start when its field leaves (0, a) or is not
admissible; later stages start from the last solution.  The first
corrector step from a predicted seed reuses J0's modes: the chord step
seed - J0^-1 F(seed; psi_t) builds no Jacobian.  It is refused unevaluated
when it is not shorter than the predictor's step (simplified Newton's
monotonicity test), and otherwise kept only at full length when it stays
admissible and lowers the residual sup norm.  Every other Newton system
is solved afresh, and nothing else is held from one system to the next.
A node array is held only while something reads it: J is filled into one
(n_theta, n_phi, 9) buffer, one dF/dc at a time, and dropped once its
system is solved, before the line search; an iterate's geometry is freed
inside its Jacobian, once sigma_k's coefficients exist, and a line
search holds only its trial's; the start's geometry is dropped once J0's
modes exist, and a later attempt from the start assembles it again.  A
report's iterations count corrector steps (chord and Newton) only, not
the predictor.  A stage whose Newton solve damped a step must also keep
the branch index, the sign of det J, of the radial start: that sign is
the local Leray-Schauder index of an isolated solution, and the two
solutions that meet at a fold have opposite signs.
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
from numpy.fft import irfft, rfft

from .geometry import GeometryError, GeometryState, assemble
from .grid import ScalarField, SphereGrid, StencilOperator, constant_field, jet_weights
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
    linear_iterations counts the GMRES matvecs of the Newton systems (see
    _linear_solve), 0 when the phi-averaged modes of each J solve its
    system at once; on a continuation's report, like iterations, it covers
    the accepted stages only.  rejected_iterations and
    rejected_linear_iterations count the same work of the stage attempts
    the continuation rejected, failed or off the start's branch.
    branch_rejections counts the stages rejected because the branch index
    at their solution differed from the start's.
    branch_index is sign det J at the solution of a Newton solve that
    damped a step, 0 when it damped none.  state is the geometry of the
    field a converged solve returned (a continuation's is its last
    stage's), None on a failed solve's report.
    """

    converged: bool = False
    iterations: int = 0
    linear_iterations: int = 0
    rejected_iterations: int = 0
    rejected_linear_iterations: int = 0
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

    def record(self, rnorm: float, state: GeometryState, margin: float):
        kmax = np.maximum(np.abs(state.kappa1), np.abs(state.kappa2)).max()
        values = (rnorm, state.rho.min(), state.rho.max(), np.sqrt(state.jet.grad_sq.max()),
                  kmax, state.u.min(), margin)
        for name, value in zip(MONITORS, values):
            getattr(self, name).append(float(value))

    def absorb(self, other: "SolveReport"):
        """Append another solve's accepted-iterate traces (homotopy stages)."""
        self.iterations += other.iterations
        self.linear_iterations += other.linear_iterations
        self.branch_rejections += other.branch_rejections
        for name in MONITORS:
            getattr(self, name).extend(getattr(other, name))

    def reject(self, other: "SolveReport"):
        """Count a rejected stage attempt's Newton steps and matvecs."""
        self.rejected_iterations += other.iterations
        self.rejected_linear_iterations += other.linear_iterations

    def last_monitors(self) -> dict:
        """The last entry of each monitor list, skipping empty ones."""
        return {"residual_inf" if name == "residual_trace" else name: getattr(self, name)[-1]
                for name in MONITORS if getattr(self, name)}

    def summary(self) -> dict:
        """Counters, last monitors and homotopy_t_final: the report keys of a solve."""
        return {"converged": self.converged, "iterations": self.iterations,
                "linear_iterations": self.linear_iterations,
                "rejected_iterations": self.rejected_iterations,
                "rejected_linear_iterations": self.rejected_linear_iterations,
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
    """sigma_k's derivatives in the six raw jet components, per node.

    With S = sqrt(phi^2 + |grad f|^2), P = phi / S and q = phi' / phi,
    h = P B where B_ij = -H_ij + 2 q f_i f_j + phi phi' e_ij and
    e = diag(1, sin^2 theta).  The linearized operator a_ij = d sigma_k /
    d h_ij and b_ij = d sigma_k / d g_ij come from sigma_2 = det h / det g
    and sigma_1 = tr(g^-1 h); a_ij h_ij = k sigma_k, so

        d sigma_k / dc = k sigma_k dlogP/dc + P a_ij dB_ij/dc + b_ij dg_ij/dc,

    with one table row (dlogP, dB, dg) per component c; phi'' = -K phi,
    so q' = -K - q^2.  Yields d sigma_k / dc for each c in turn: each row
    of the table is built only when its component is asked for.  Once the
    coefficients P a and b exist, the generator drops state, g and h: it
    holds only the jet and warp arrays the rows read.
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
    det_g = state.det_g
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
    p = phi / np.sqrt(s2)
    coefs = tuple(p * a_ij for a_ij in a) + b
    ksk = k * sk
    del state, g_tt, g_tp, g_pp, h_tt, h_tp, h_pp, det_g, a, b, p, sk
    q = dphi / phi
    dq = -K - q * q
    de = dphi * dphi - K * phi * phi
    dgv = 2.0 * phi * dphi

    def row(dlogp, *dbg):
        """k sigma_k dlogP + (P a, b) . (dB_tt, dB_tp, dB_pp, dg_tt, dg_tp,
        dg_pp), the terms added in that order; None for a zero."""
        out = None if dlogp is None else ksk * dlogp
        for c, d in zip(coefs, dbg):
            if d is not None:
                if out is None:
                    out = c * d
                else:
                    out += c * d
        return out

    yield row(q * w / s2, 2.0 * dq * ft * ft + de, 2.0 * dq * ft * fp,
              2.0 * dq * fp * fp + de * st2, dgv, None, dgv * st2)
    yield row(-ft / s2, 4.0 * q * ft, 2.0 * q * fp, -st * ct, 2.0 * ft, fp, None)
    yield row(-fp / (st2 * s2), None, ct / st + 2.0 * q * ft, 4.0 * q * fp, None, ft, 2.0 * fp)
    yield row(None, -1.0, None, None)
    yield row(None, None, -1.0, None)
    yield row(None, None, None, -1.0)


def _psi_linearized(state: GeometryState, psi: Prescription):
    """d psi / dc in the value, f_t and f_p jet components, from psi.partials.

    In the frame (z, e_t, e_p), nu = N / S with N = (phi, -f_t, -f_p / sin theta),
    so d psi / dc = psi_rho [c = value] + P . dN/dc, P = (psi_nu - (psi_nu . nu) nu) / S.
    psi_nu goes into frame components first, which keeps J bitwise
    equivariant under rotations about e_z.  Each projection is written out
    over the three Cartesian components: numpy's sum over a trailing axis
    of length 3 costs about five times as much."""
    g = state.grid
    frame = g.unit_vectors()
    psi_rho, psi_nu = psi.partials(frame[0], state.rho, state.nu)
    psi_nu = np.broadcast_to(psi_nu, frame[0].shape)    # a radial psi's is the scalar 0
    p_z, p_t, p_p = (psi_nu[..., 0] * e[..., 0] + psi_nu[..., 1] * e[..., 1]
                     + psi_nu[..., 2] * e[..., 2] for e in frame)
    phi, ft, fp = state.phi, state.jet.d_t, state.jet.d_p / g.sin_t
    s2 = phi * phi + state.jet.grad_sq
    sroot = np.sqrt(s2)
    a = (p_z * phi - p_t * ft - p_p * fp) / s2      # (psi_nu . nu) / S
    return [psi_rho + state.dphi * (p_z - a * phi) / sroot,
            -(p_t + a * ft) / sroot,
            -(p_p + a * fp) / (sroot * g.sin_t)]


def jacobian(model: SpaceFormModel, fieldv: ScalarField, psi: Optional[Prescription],
             k: int, state: Optional[GeometryState] = None) -> StencilOperator:
    """Residual Jacobian J = sum_c diag(dF/dc) @ D_c, a 9-point StencilOperator.

    dF/dc is the derivative of each node's residual in its own raw jet
    component c, closed form at the geometry of the iterate: state, when
    the caller has assembled it already, else assemble's.  sigma_k's part
    is in all six components (_sigma_linearized), psi's in the value, f_t
    and f_p components only (_psi_linearized), since rho and nu read no
    second derivative.  D_c are the grid's jet stencils (jet_weights),
    which share one 9-point footprint, so J's weights at each node are
    theirs combined with that node's dF/dc.  Each w[o] dF/dc is added into
    one zeroed (n_theta, n_phi, 9) array, c in order, and each dF/dc is
    dropped before the next one is built.  The geometry is read only until
    psi's rows and sigma_k's coefficients exist: when the caller hands
    state over as its only holder (newton_solve does), it is freed before
    the first dF/dc is built.
    """
    g = fieldv.grid
    if state is None:
        state = assemble(model, fieldv)
    weights = jet_weights(g)
    dpsi = [] if psi is None else _psi_linearized(state, psi)
    rows = _sigma_linearized(model.K, state, k)
    del state                       # rows holds it until its coefficients exist
    data = np.zeros(g.shape + (weights.shape[1],))
    for w, d in zip(weights, rows):
        if dpsi:
            d = d - dpsi.pop(0)
        for o in np.flatnonzero(w):
            data[..., o] += w[o] * d
        del d                       # before the next dF/dc is built
    return StencilOperator(g, data)


# The linear solve stops once |b - Jx|_inf <= max(REFINE_TOL |b|_inf,
# REFINE_FLOOR max(|J| |x|)), the second term Oettli and Prager's
# componentwise backward error at 16 ulps (Numer. Math. 6, 1964): past it, a
# smaller residual is roundoff, not accuracy.  GMRES restarts after
# GMRES_RESTART matvecs, and runs at most GMRES_MAX_CYCLES cycles.
REFINE_TOL = 1e-8
REFINE_FLOOR = 16.0 * np.finfo(float).eps
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 10


def splu(A, **options):
    """scipy.sparse.linalg.splu, imported on first call; no solve calls it."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(A, **options)


def _gmres_cycle(J: StencilOperator, modes: "PhiModes", r: np.ndarray, goal: float):
    """One GMRES cycle on J M^-1 u = r, M the modes: returns (M^-1 u, matvecs).

    Arnoldi (modified Gram-Schmidt) builds the Hessenberg H, and y
    minimizes |beta e1 - H y|_2 (lstsq: finite on a singular H), the new
    residual's 2-norm in exact arithmetic and so a bound of its sup norm.
    The cycle ends once that is at most goal, at a zero Arnoldi vector (a
    lucky breakdown), or after GMRES_RESTART steps."""
    V = np.empty((GMRES_RESTART + 1, r.size))
    H = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
    e1 = np.zeros(GMRES_RESTART + 1)
    e1[0] = beta = np.linalg.norm(r)
    V[0] = r / beta
    for j in range(GMRES_RESTART):
        w = J @ modes.solve(V[j])
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        h, g = H[:j + 2, :j + 1], e1[:j + 2]
        y = np.linalg.lstsq(h, g, rcond=None)[0]
        if H[j + 1, j] == 0.0 or np.linalg.norm(g - h @ y) <= goal:
            break
        V[j + 1] = w / H[j + 1, j]
    return modes.solve(y @ V[:j + 1]), j + 1


def _linear_solve(J: StencilOperator, rhs: np.ndarray,
                  report: Optional[SolveReport] = None):
    """Solve J x = rhs by restarted GMRES right-preconditioned by the
    PhiModes M of J (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).

    x starts at M^-1 rhs, which meets the goal at once when J commutes
    with phi-shifts, since M is then J.  Each cycle must lower the sup norm
    of the true residual: one that does not, or a non-finite x (whose
    residual is not finite either, since every node reads itself), raises
    NoConvergence, as does a residual above the goal after
    GMRES_MAX_CYCLES cycles.  |J| |x| is computed only when the residual
    is above REFINE_TOL |rhs|.  Returns (x, M).  report, if given, counts
    the matvecs in linear_iterations.
    """
    modes = PhiModes(J)
    x = modes.solve(rhs)
    tol, last = REFINE_TOL * np.abs(rhs).max(), math.inf
    for cycle in range(GMRES_MAX_CYCLES + 1):
        r = rhs - J @ x
        rnorm = np.abs(r).max()
        if not rnorm < last:
            raise NoConvergence("linear solve failed: singular Jacobian")
        if rnorm <= tol or rnorm <= (floor := REFINE_FLOOR * J.abs_matvec(np.abs(x)).max()):
            return x, modes
        if cycle == GMRES_MAX_CYCLES:
            raise NoConvergence(f"linear solve failed: residual {rnorm!r} after "
                                f"{GMRES_MAX_CYCLES} GMRES cycles")
        dx, matvecs = _gmres_cycle(J, modes, r, max(tol, floor))
        if report is not None:
            report.linear_iterations += matvecs
        x, last = x + dx, rnorm


# ---------------------------------------------------------------------------
# damped Newton

def _chord_step(model: SpaceFormModel, fieldv: ScalarField, res: np.ndarray, rnorm: float,
                psi: Prescription, k: int, modes: "PhiModes", step0: float):
    """(field, state, residual, margin, sup norm) of the chord step x - M^-1
    F(x) when newton_solve keeps it (see there), else None.  A step whose
    sup norm is not below step0, the predictor's, is refused before its
    field is evaluated."""
    step = modes.solve(res)
    if not np.abs(step).max() < step0:
        return None
    cf = ScalarField(fieldv.grid, fieldv.values - step)
    try:
        cstate, cres, cmargin = _evaluate(model, cf, psi, k)
    except (GeometryError, DomainError):
        return None
    cnorm = float(np.abs(cres).max())
    if cmargin >= CONE_MARGIN and cnorm < rnorm:
        return cf, cstate, cres, cmargin, cnorm
    return None


def newton_solve(model: SpaceFormModel, rho0: ScalarField, psi: Prescription,
                 k: int, opts: Optional[SolverOptions] = None, *,
                 modes: Optional[tuple] = None):
    """Damped Newton iteration constrained to the admissibility cone.

    Each Newton system is solved by GMRES preconditioned by the
    phi-averaged modes M of its own Jacobian (see _linear_solve).  J is
    dropped as soon as that solve returns, so no two Jacobians coexist and
    none lives next to a line-search geometry.  The iterate's geometry is
    handed to jacobian as its only holder, which frees it before the first
    dF/dc is built; the line search then holds no geometry but its current
    trial's, a refused trial's being freed before the next is assembled.
    The converged report's state is the geometry of the returned field.

    modes, if given, is a pair (M, d0): the PhiModes of another Jacobian
    near this one and the sup norm of a step it solved (the continuation
    passes its predictor's J0 and the predictor's step M^-1 F(start; psi_t)
    for a predicted seed).  The first step then tries the chord step x -
    M^-1 F(x) (_chord_step), with no Jacobian and no GMRES.  It is refused
    unless |M^-1 F(x)|_inf < d0, before its field is evaluated: that is
    the monotonicity test Theta < 1 of simplified Newton (Deuflhard,
    Newton Methods for Nonlinear Problems, 2004, sec. 2.1), with no
    constant to tune.  Past it, the step is kept only at full length, and
    only when the candidate stays inside (0, a), keeps cone margin >=
    CONE_MARGIN and strictly lowers the residual sup norm.  A kept step
    counts in iterations and in the MAX_NEWTON_ITERS budget like any
    Newton step, and adds 0 to linear_iterations; a refused one is
    dropped, and Newton builds J at x as it would without modes.

    Backtracking accepts a step only when the candidate stays strictly
    inside the radial domain, keeps the curvatures inside the cone with
    margin >= CONE_MARGIN, and strictly decreases the residual sup norm.
    Raises ConeBreach when no step length is even admissible and
    NoConvergence when MAX_NEWTON_ITERS steps do not reach newton_tol; both
    carry the report of this solve.  When a step was damped, the converged
    report's branch_index is sign det M of the modes that served the last
    step (PhiModes.det_sign).  It is sign det J exactly when J commutes
    with phi-shifts, since M is then J.  Otherwise it rests on M being
    near J: det M and det J share their sign while |I - M^-1 J| < 1, which
    a converged GMRES does not certify.
    """
    opts = opts or SolverOptions()
    report = SolveReport()
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
        # chord is reset on every pass, so no earlier iterate outlives its step
        chord = None if modes is None else _chord_step(model, fieldv, res, rnorm, psi, k, *modes)
        modes = None
        if chord is not None:
            fieldv, state, res, margin, rnorm = chord
            report.iterations += 1
            report.record(rnorm, state, margin)
            continue
        # jacobian is the last reader of this iterate's geometry, and the list is
        # its only other holder until the call pops it: jacobian frees it before
        # it builds dF/dc, and no geometry is held through the linear solve
        held, state = [state], None
        try:
            # J is referenced by _linear_solve alone, and freed when it returns;
            # of its modes only the sign of their determinant is kept
            delta, served = _linear_solve(jacobian(model, fieldv, psi, k, held.pop()),
                                          -res.ravel(), report)
            sign = served.det_sign()
            del served
        except NoConvergence as exc:
            raise NoConvergence(str(exc), field=fieldv, report=report) from None
        delta = delta.reshape(fieldv.grid.shape)

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
            cstate = cres = None        # a refused trial's, freed before the next one
            alpha *= DAMPING
        if not accepted:
            if not admissible_seen:
                raise ConeBreach(
                    "no step length keeps the iterate admissible",
                    field=fieldv, report=report)
            raise NoConvergence(
                f"line search stalled at residual {rnorm!r}",
                field=fieldv, report=report)
        del delta, cstate, cres     # the step, and aliases of the accepted iterate
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
        report.branch_index = sign
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


def _phi_bands(J: StencilOperator) -> np.ndarray:
    """J's stencil coefficients averaged over phi, per theta-row.

    bands[b, i, d] is the mean over j of J[(i, j), (i + b - 1, j + d)], the
    coupling of node (i, j) to theta-row i - 1, i or i + 1 (b = 0, 1, 2)
    at phi-offset d mod n_phi, read from J.data[i, :, o] with OFFSETS[o] =
    (b - 1, d).  A ghost beyond a pole is a node of the pole row itself,
    half a turn away, so a pole row's offset (-1, dj) or (1, dj) lands in
    b = 1 at d = n_phi/2 + dj.  For a J that commutes with phi-shifts every
    j gives the same value, and the mean is J's own C_i,i+b-1(d).  The sum
    adds the j up in order (numpy reduces a middle axis one slice at a
    time), so the bands are bitwise those of J's CSR rows.
    """
    n_t, n_p = J.grid.shape
    sums = J.data.sum(axis=1).reshape(n_t, 3, 3).transpose(1, 0, 2)   # [b, i, dj + 1]
    d = np.arange(-1, 2) % n_p
    bands = np.zeros((3, n_t, n_p))
    bands[:, :, d] = sums
    for b, i in ((0, 0), (2, -1)):
        bands[1, i, (n_p // 2 + d) % n_p] = sums[b, i]
        bands[b, i, d] = 0.0
    return bands / n_p


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
    which preconditions _linear_solve's GMRES.  The B_m are factored
    by Thomas elimination (no pivoting), one sweep vectorized over the
    modes.
    """

    __slots__ = ("_shape", "_sub", "_piv", "_ratio")

    def __init__(self, J: StencilOperator):
        grid = J.grid
        # sum_d C(d) w^(md) of a real C is the conjugate of numpy's forward FFT
        bands = rfft(_phi_bands(J), axis=-1)
        sub, diag, sup = np.conj(bands, out=bands)
        sub = sub.copy()                                    # diag and sup are not kept
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
        y = rfft(np.reshape(rhs, self._shape), axis=-1)
        y[0] /= piv[0]
        for i in range(1, len(y)):
            y[i] = (y[i] - sub[i] * y[i - 1]) / piv[i]
        for i in range(len(y) - 2, -1, -1):
            y[i] -= ratio[i] * y[i + 1]
        return irfft(y, n=self._shape[1], axis=-1).reshape(np.shape(rhs))

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
    (0, a) or is not admissible (ConeBreach at Newton's seed).  The start's
    geometry, from the t = 0 solve, serves the predictor's residual and
    J0 and is dropped once J0's modes exist; an attempt of the first stage
    after that (a retry at a halved t) assembles it again.  Later stages
    start Newton from the last accepted solution.  Newton corrects, and
    from a predicted seed it is given J0's modes and the sup norm of the
    predictor's step (newton_solve's modes), whose chord step is its first
    step when it is shorter than the predictor's and lowers the residual:
    a kept chord step saves one Jacobian and one linear solve, one refused
    by its length costs one mode solve, and one refused after evaluation
    costs one residual evaluation.  The report's
    iterations count the corrector steps only, the chord step included,
    not the predictor, and only in accepted stages: a rejected attempt's
    steps and matvecs go to rejected_iterations and
    rejected_linear_iterations.

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
    stalls once a halved step falls below it.  The report's state is the
    last stage's, the geometry of the returned field; no attempt holds an
    earlier stage's geometry, so a later stage's Newton assembles its
    seed's again.
    """
    opts = opts or SolverOptions()
    r0 = _radial_start(model, grid, psi_target, k)
    psi0 = builtin(model, "round_target", k=psi_target.k, r_bar=r0, m=k + 2)
    fieldv = constant_field(grid, r0)
    report = SolveReport()

    t = 0.0
    dt = FIRST_STEP
    try:
        fieldv, sub = newton_solve(model, fieldv, psi0, k, opts)
    except NoConvergence as exc:
        report.absorb(exc.report)
        report.message = f"the radial start failed at t = 0: {exc}"
        raise type(exc)(report.message, field=exc.field, report=report) from None
    report.absorb(sub)
    report.homotopy_t.append(0.0)
    # A Newton solve that returns after no step returns its seed, so the
    # iterate leaves the start only through a stage that took steps from
    # it, and every such stage built modes first: a damped stage finds them.
    # The start's geometry is held only until J0's modes exist; a later
    # attempt from the start assembles it again.
    start, start_state = fieldv, sub.state
    del sub
    modes = None
    plain = False          # the next attempt starts Newton at the start itself
    while t < 1.0:
        sub = None          # an earlier attempt's report, and its geometry, are not held
        t_next = min(t + dt, 1.0)
        if 1.0 - t_next < MIN_HOMOTOPY_STEP:
            t_next = 1.0
        psi_t = psi0.blend(psi_target, t_next)
        seed, chord = fieldv, None
        if fieldv is start and not plain:
            if start_state is None:
                start_state = assemble(model, start)
            _, res, _ = _residual_of(start_state, psi_t, k)
            if not np.abs(res).max() <= opts.newton_tol:
                if modes is None:
                    modes = PhiModes(jacobian(model, start, psi0, k, start_state))
                start_state = None
                step = modes.solve(res)
                values = start.values - step
                try:
                    model.check_domain(values)
                except DomainError:
                    plain = True
                    continue
                seed, chord = ScalarField(grid, values), (modes, float(np.abs(step).max()))
        plain = False
        failure = None
        try:
            solved, sub = newton_solve(model, seed, psi_t, k, opts, modes=chord)
        except NoConvergence as exc:
            if exc.report is not None:
                report.reject(exc.report)
            if (seed is not fieldv and isinstance(exc, ConeBreach)
                    and exc.report.cone_margin[0] < CONE_MARGIN):
                plain = True
                continue
            failure = str(exc)
        else:
            if sub.branch_index and sub.branch_index != modes.det_sign():
                report.branch_rejections += 1
                report.reject(sub)
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
    report.state = sub.state        # the last stage's: the loop ends on an accepted one
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
