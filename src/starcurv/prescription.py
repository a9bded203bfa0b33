"""Right-hand sides for the prescribed curvature equation, plus checkers.

A Prescription is an evaluable, strictly positive function of the node
direction z, the radius rho, and the chart-embedded unit normal nu
(all vectorized).  It carries its partials (psi_rho, psi_nu), nu taken in
R^3, for the solver's Jacobian.  Built-in families, with q = warp' / warp:

    constant       psi = c                                 (0, 0)
    radial_power   psi = c * warp(rho)^-m                  (-m q(rho) psi, 0)
    round_target   psi = C(2,k) q(rbar)^k (warp(rbar)/warp(rho))^m, m >= k,
                   constructed so the centered sphere of radius rbar is an
                   exact solution of the degree-k equation; as radial_power
    anisotropic    psi = base * (1 + eps <nu, axis>), |eps| < 1 (product rule)

The degree k is 1 or 2: the hypersurfaces are surfaces.  The checkers
report on the two solvability conditions used by the solver monitors: the
two-radius barrier inequalities comparing psi against sigma_k of centered
spheres, and radial monotonicity of warp^k * psi at frozen normal, taken
in closed form from the partials.  Checkers never gate anything; they only
report faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import build_grid
from .spaceform import SpaceFormModel

FAMILIES = ("constant", "radial_power", "round_target", "anisotropic")

# The monotonicity check passes when the largest sampled radial derivative
# of warp^k * psi is at most MONOTONE_TOL; `check` samples MONOTONE_SAMPLES
# radii.
MONOTONE_TOL = 1e-8
MONOTONE_SAMPLES = 64


class Prescription:
    """Positive right-hand side psi(z, rho, nu) paired with a degree k, and its
    partials(z, rho, nu) -> (psi_rho, psi_nu), psi_nu on a trailing axis of 3."""

    def __init__(self, eval_fn: Callable, partials_fn: Callable, family: str, params: dict,
                 k: int = 2, model: Optional[SpaceFormModel] = None,
                 validate: bool = True):
        if not 1 <= k <= 2:
            raise ValueError(f"degree k={k} outside 1..2")
        self.eval_fn = eval_fn
        self.partials = partials_fn
        self.family = family
        self.params = dict(params)
        self.k = k
        self.model = model
        if validate:
            self._positivity_probe()

    def __call__(self, z, rho, nu):
        return self.eval_fn(np.asarray(z, dtype=float),
                            np.asarray(rho, dtype=float),
                            np.asarray(nu, dtype=float))

    def _probe_radii(self, count=24):
        if self.model is not None:
            hi = self.model.a - 1e-9 if self.model.K == 1 else min(self.model.a, 10.0)
        else:
            hi = 10.0
        return np.linspace(0.05 * hi, 0.95 * hi, count)

    def _positivity_probe(self):
        """Evaluate psi on an 8x16 grid at every probe radius in one call, the
        radii on a leading axis, and report the first radius where it fails."""
        z, _, _ = build_grid(8, 16).unit_vectors()
        z = z.reshape(-1, 3)
        radii = self._probe_radii()
        vals = np.broadcast_to(self(z, radii[:, None], z), (len(radii), len(z)))
        bad = ~np.all(np.isfinite(vals) & (vals > 0.0), axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"prescription {self.family!r} is not strictly positive "
                f"(min {np.nanmin(vals[i])!r} at rho={radii[i]!r})")

    def blend(self, other: "Prescription", t: float) -> "Prescription":
        """Convex combination (1-t) self + t other, partials too; positivity is inherited.

        At t = 1 it evaluates and differentiates through other's functions
        and never calls self's: bitwise the combination 0.0 f0 + f1 for a
        finite f0, except that a -0.0 of other's stays -0.0 (psi itself is
        positive)."""
        if self.k != other.k:
            raise ValueError("cannot blend prescriptions of different degree")
        f0, f1 = self.eval_fn, other.eval_fn
        p0, p1 = self.partials, other.partials
        tv = float(t)
        if tv == 1.0:
            fn, partials = f1, p1
        else:
            fn = lambda z, rho, nu: (1.0 - tv) * f0(z, rho, nu) + tv * f1(z, rho, nu)
            partials = lambda z, rho, nu: tuple((1.0 - tv) * a + tv * b
                                                for a, b in zip(p0(z, rho, nu), p1(z, rho, nu)))
        return Prescription(
            fn, partials,
            family="blend",
            params={"t": tv, "low": self.family, "high": other.family},
            k=self.k, model=self.model or other.model, validate=False)


def builtin(model: SpaceFormModel, family: str, k: int = 2, **params) -> Prescription:
    """Construct one of the built-in prescription families."""
    if family == "constant":
        c = float(params.pop("c"))
        if c <= 0.0:
            raise ValueError(f"constant prescription needs c > 0, got {c}")
        fn = lambda z, rho, nu: np.full_like(np.asarray(rho, dtype=float), c)
        partials = lambda z, rho, nu: (0.0, 0.0)
        out_params = {"c": c}
    elif family == "radial_power":
        c = float(params.pop("c"))
        m = float(params.pop("m"))
        if c <= 0.0:
            raise ValueError(f"radial_power prescription needs c > 0, got {c}")
        fn = lambda z, rho, nu: c * model.warp(rho) ** (-m)
        partials = lambda z, rho, nu: (-m * model.sphere_curvature(rho) * fn(z, rho, nu), 0.0)
        out_params = {"c": c, "m": m}
    elif family == "round_target":
        r_bar = float(params.pop("r_bar"))
        m = float(params.pop("m"))
        if m < k:
            raise ValueError(f"round_target needs m >= k, got m={m} k={k}")
        amp = model.sphere_sigma(r_bar, k)
        wr = model.warp(r_bar)
        fn = lambda z, rho, nu: amp * (wr / model.warp(rho)) ** m
        partials = lambda z, rho, nu: (-m * model.sphere_curvature(rho) * fn(z, rho, nu), 0.0)
        out_params = {"r_bar": r_bar, "m": m}
    elif family == "anisotropic":
        base = params.pop("base")
        eps = float(params.pop("epsilon"))
        axis = np.asarray(params.pop("axis", (0.0, 0.0, 1.0)), dtype=float)
        if not isinstance(base, Prescription):
            raise TypeError("anisotropic needs base=Prescription")
        if abs(eps) >= 1.0:
            raise ValueError(f"anisotropic needs |epsilon| < 1, got {eps}")
        norm = np.linalg.norm(axis)
        if not norm > 0.0:
            raise ValueError("anisotropic axis must be nonzero")
        axis = axis / norm
        bfn, bpartials = base.eval_fn, base.partials
        fn = lambda z, rho, nu: bfn(z, rho, nu) * (1.0 + eps * (nu @ axis))

        def partials(z, rho, nu):
            b_rho, b_nu = bpartials(z, rho, nu)
            tilt = 1.0 + eps * (nu @ axis)
            b = bfn(z, rho, nu)
            return (b_rho * tilt,
                    b_nu * tilt[..., None] + eps * np.stack([b * a for a in axis], axis=-1))

        out_params = {"base": base.family, "epsilon": eps, "axis": tuple(axis),
                      **{f"base_{key}": val for key, val in base.params.items()}}
    else:
        raise ValueError(f"unknown prescription family {family!r}; choose from {FAMILIES}")
    if params:
        raise ValueError(f"unused parameters for family {family!r}: {sorted(params)}")
    return Prescription(fn, partials, family, out_params, k=k, model=model)


@dataclass
class ConditionReport:
    """Outcome of the solvability-condition checkers.

    Barrier margins are the signed slack of the inequalities (>= 0 passes).
    The monotonicity field stores the worst (largest) radial derivative of
    warp^k * psi over the sample set; the check passes when it does not
    exceed MONOTONE_TOL.
    """

    barrier_low_ok: Optional[bool] = None
    barrier_high_ok: Optional[bool] = None
    monotone_ok: Optional[bool] = None
    barrier_low_margin: Optional[float] = None
    barrier_high_margin: Optional[float] = None
    monotone_max_derivative: Optional[float] = None
    barrier_samples: int = 0
    monotone_samples: int = 0
    R1: Optional[float] = None
    R2: Optional[float] = None

    @property
    def all_ok(self) -> bool:
        flags = [f for f in (self.barrier_low_ok, self.barrier_high_ok, self.monotone_ok)
                 if f is not None]
        return bool(flags) and all(flags)


def check_barriers(psi: Prescription, model: SpaceFormModel, R1: float, R2: float,
                   n_theta: int = 16, n_phi: int = 32) -> ConditionReport:
    """Report the two-radius barrier inequalities.

    At the inner radius the prescription evaluated at the radial normal
    must dominate sigma_k = C(2,k) q(R1)^k of the centered sphere; at the
    outer radius it must be dominated by C(2,k) q(R2)^k.  Margins are
    worst-case over the sampled directions.
    """
    if not (0.0 < R1 < R2 < model.a):
        raise ValueError(f"need 0 < R1 < R2 < a, got R1={R1}, R2={R2}, a={model.a}")
    g = build_grid(n_theta, n_phi)
    z, _, _ = g.unit_vectors()
    z = z.reshape(-1, 3)
    low_vals = psi(z, np.full(len(z), float(R1)), z)
    high_vals = psi(z, np.full(len(z), float(R2)), z)
    low_margin = float(np.min(low_vals - model.sphere_sigma(R1, psi.k)))
    high_margin = float(np.min(model.sphere_sigma(R2, psi.k) - high_vals))
    return ConditionReport(
        barrier_low_ok=low_margin >= 0.0,
        barrier_high_ok=high_margin >= 0.0,
        barrier_low_margin=low_margin,
        barrier_high_margin=high_margin,
        barrier_samples=len(z),
        R1=float(R1), R2=float(R2))


def default_rho_samples(model: SpaceFormModel) -> np.ndarray:
    hi = model.a - 1e-6 if model.K == 1 else min(model.a, 3.0)
    lo = 0.05 * hi
    return np.linspace(lo, 0.95 * hi, MONOTONE_SAMPLES)


def check_monotonicity(psi: Prescription, model: SpaceFormModel,
                       rho_samples) -> ConditionReport:
    """Report the radial monotonicity condition at frozen normal.

    For every fourth direction z of an 8x16 grid, at the radial normal
    nu = z, and each radius rho of rho_samples, the derivative
    d/d(rho) [warp(rho)^k psi(z, rho, nu)] = warp^k (k q psi + psi_rho),
    q = warp' / warp, with psi_rho from psi.partials; the condition requires
    it to stay <= MONOTONE_TOL everywhere.  The normal components are held
    fixed in the chart while rho varies.  Every sample must lie in (0, a);
    warp raises DomainError otherwise.
    """
    z, _, _ = build_grid(8, 16).unit_vectors()
    k = psi.k

    rr = np.asarray(rho_samples, dtype=float)[None, :]
    zz = z.reshape(-1, 3)[::4][:, None, :]
    wk = model.warp(rr) ** k
    psi_rho, _ = psi.partials(zz, rr, zz)
    deriv = wk * (k * model.sphere_curvature(rr) * psi(zz, rr, zz) + psi_rho)
    worst = float(deriv.max())
    return ConditionReport(
        monotone_ok=worst <= MONOTONE_TOL,
        monotone_max_derivative=worst,
        monotone_samples=int(deriv.size))
