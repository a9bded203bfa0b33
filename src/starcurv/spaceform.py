"""Closed-form data of the three rotationally symmetric model spaces.

The ambient metric is ``d(rho)^2 + warp(rho)^2 dz^2`` over the unit sphere,
with warp(rho) = rho, sin(rho), sinh(rho) for curvature K = 0, +1, -1.
Everything here is a pure function of (model, rho) and is safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Open-interval guard at the pi/2 cap of the spherical model: the
# geodesic-sphere curvature cot(rho) degenerates to 0 there, so radii
# within 1e-12 of the cap are rejected outright.
SPHERE_CAP_GUARD = 1e-12

# Practical stand-in for an unbounded radial domain (K = 0, -1).
DEFAULT_DOMAIN_CAP = 50.0

# The warp, its derivative and its antiderivative vanishing at 0, per K.
WARP_FORMULAS = {
    0: (lambda r: r, np.ones_like, lambda r: 0.5 * r * r),
    1: (np.sin, np.cos, lambda r: 1.0 - np.cos(r)),
    -1: (np.sinh, np.cosh, lambda r: np.cosh(r) - 1.0),
}


class DomainError(ValueError):
    """Radius outside the admissible interval (0, a) of the model."""


@dataclass(frozen=True)
class SpaceFormModel:
    """Ambient space of constant sectional curvature K in {-1, 0, +1}.

    Attributes
    ----------
    K : int
        Sectional curvature of the ambient space.
    a : float
        Right endpoint of the admissible radial interval.  pi/2 for
        K = +1, a finite practical cap otherwise (radii must stay
        strictly inside (0, a)).
    """

    K: int
    a: float

    def check_domain(self, rho, allow_zero: bool = False) -> None:
        """Raise DomainError unless every entry of rho lies in (0, a).

        The passing path is one min and one max reduction: NaN fails both
        comparisons, so non-finite radii fall through to the failure path.
        """
        r = np.asarray(rho, dtype=float)
        if r.size == 0:
            return
        lo, top = r.min(), r.max()
        lo_ok = lo >= 0.0 if allow_zero else lo > 0.0
        hi = self.a - SPHERE_CAP_GUARD if self.K == 1 else self.a
        if lo_ok and top < hi:
            return
        if not np.all(np.isfinite(r)):
            raise DomainError("radius contains non-finite values")
        bad = float(top) if lo_ok else float(lo)
        raise DomainError(
            f"radius {bad!r} outside admissible interval (0, {hi!r}) for K={self.K}"
        )

    def _warp_parts(self, rho, parts, allow_zero: bool = False) -> list:
        """The warp formulas numbered in parts, at rho, behind one domain check."""
        self.check_domain(rho, allow_zero=allow_zero)
        r = np.asarray(rho, dtype=float)
        out = [WARP_FORMULAS[self.K][i](r) for i in parts]
        return [v if v.ndim else float(v) for v in out]

    def warps(self, rho):
        """(warp, warp_deriv) of rho behind one domain check."""
        return tuple(self._warp_parts(rho, (0, 1)))

    def warp(self, rho):
        """Warping factor: rho, sin(rho), or sinh(rho)."""
        return self._warp_parts(rho, (0,))[0]

    def warp_deriv(self, rho):
        """Derivative of the warping factor: 1, cos(rho), or cosh(rho)."""
        return self._warp_parts(rho, (1,))[0]

    def warp_integral(self, rho):
        """Antiderivative of the warp vanishing at 0: rho^2/2, 1-cos, cosh-1."""
        return self._warp_parts(rho, (2,), allow_zero=True)[0]

    def sphere_curvature(self, rho):
        """Principal curvature of the centered geodesic sphere of radius rho.

        Equals warp_deriv/warp: 1/rho, cot(rho), or coth(rho).  Strictly
        decreasing on (0, a) for every K.
        """
        phi, dphi = self.warps(rho)
        return dphi / phi

    def sphere_sigma(self, rho, k: int):
        """sigma_k of the centered sphere of radius rho, a surface: C(2,k) q(rho)^k."""
        return math.comb(2, k) * self.sphere_curvature(rho) ** k


def spaceform(K: int, domain_cap: Optional[float] = None) -> SpaceFormModel:
    """Build the model space of curvature K with a finite domain endpoint.

    K = +1 ends at pi/2 and takes no domain_cap; K = 0 and -1 end at
    domain_cap, DEFAULT_DOMAIN_CAP when it is None."""
    if K not in (-1, 0, 1):
        raise ValueError(f"K must be -1, 0 or +1, got {K!r}")
    if K == 1 and domain_cap is not None:
        raise ValueError(f"K = +1 takes no domain_cap: its radial domain ends at pi/2, "
                         f"got {domain_cap!r}")
    cap = DEFAULT_DOMAIN_CAP if domain_cap is None else domain_cap
    if not (cap > 0.0 and math.isfinite(cap)):
        raise ValueError(f"domain_cap must be positive and finite, got {cap!r}")
    a = math.pi / 2.0 if K == 1 else float(cap)
    return SpaceFormModel(K=K, a=a)
