"""Property suites behind the `verify` command.

Each property returns a PropertyResult with a machine-readable value and
a pass flag; the CLI prints one line per property and fails the run if
any property fails.  Suites cover the warp-function identities, the
symmetric-function algebra, the discrete geometric identities under
refinement, rotation equivariance, the Jacobian oracle, and the
Euclidean scaling law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (assemble, codazzi_residual, hessian_identity_residual,
                       support_gradient_residual, support_hessian_residual)
from .grid import ScalarField, build_grid, field_from_function
from .prescription import builtin
from .solver import jacobian, residual
from .spaceform import spaceform
from .symfunc import in_gamma_cone, sigma, sigma_partial

ALL_K = (-1, 0, 1)

IDENTITY_FIELDS = {
    "axisym": lambda tt, pp: 1.0 + 0.1 * np.cos(tt),
    "tilt": lambda tt, pp: 1.0 + 0.05 * np.sin(tt) * np.cos(pp),
}


@dataclass
class PropertyResult:
    name: str
    value: str
    ok: bool


def _brute_sigma(lam, k):
    return sum(math.prod(c) for c in itertools.combinations(lam, k))


def check_spaceform_identities() -> list:
    out = []
    rng = np.random.default_rng(100)
    for K in ALL_K:
        m = spaceform(K)
        hi = m.a - 1e-3 if K == 1 else 5.0
        rho = rng.uniform(0.05, hi, size=64)
        h = 1e-4
        second = (m.warp(rho + h) - 2.0 * m.warp(rho) + m.warp(rho - h)) / h**2
        # relative to the warp scale: the stencil is roundoff-limited at
        # cosh magnitudes, eps * warp / h^2
        worst = float((np.abs(second + K * m.warp(rho)) / np.maximum(1.0, m.warp(rho))).max())
        out.append(PropertyResult(f"warp_second_derivative_K{K:+d}",
                                  f"{worst:.3e}", worst < 1e-6))
        dint = (m.warp_integral(rho + h) - m.warp_integral(rho - h)) / (2 * h)
        worst = float((np.abs(dint - m.warp(rho)) / np.maximum(1.0, m.warp(rho))).max())
        out.append(PropertyResult(f"warp_integral_derivative_K{K:+d}",
                                  f"{worst:.3e}", worst < 1e-7))
        qs = m.sphere_curvature(np.linspace(0.01, m.a - 1e-6 if K == 1 else 8.0, 200))
        out.append(PropertyResult(f"sphere_curvature_decreasing_K{K:+d}",
                                  f"{float(np.diff(qs).max()):.3e}",
                                  bool(np.all(np.diff(qs) < 0.0))))
        pyth = m.warp_deriv(rho) ** 2 + K * m.warp(rho) ** 2
        scale = float((1.0 + m.warp_deriv(rho) ** 2).max())
        worst = float(np.abs(pyth - 1.0).max())
        out.append(PropertyResult(f"warp_pythagorean_K{K:+d}",
                                  f"{worst:.3e}", worst < 1e-13 * scale))
    return out


def check_algebra_identities(draws: int = 300) -> list:
    rng = np.random.default_rng(101)
    worst_sum = worst_euler = worst_brute = 0.0
    nest_ok = True
    for _ in range(draws):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        lam = rng.uniform(-2.0, 2.0, size=n)
        grad = sigma_partial(lam, k)
        scale = 1.0 + float(np.abs(grad).sum())
        lower = _brute_sigma(lam.tolist(), k - 1) if k > 1 else 1.0
        worst_sum = max(worst_sum, abs(float(grad.sum()) - (n - k + 1) * lower) / scale)
        worst_euler = max(worst_euler,
                          abs(float((lam * grad).sum()) - k * float(sigma(lam, k))) / scale)
        worst_brute = max(worst_brute,
                          abs(float(sigma(lam, k)) - _brute_sigma(lam.tolist(), k)) / scale)
        if k > 1 and in_gamma_cone(lam, k):
            nest_ok = nest_ok and all(in_gamma_cone(lam, j) for j in range(1, k))
    return [
        PropertyResult("algebra_sum_rule", f"{worst_sum:.3e}", worst_sum < 1e-12),
        PropertyResult("algebra_euler_relation", f"{worst_euler:.3e}", worst_euler < 1e-12),
        PropertyResult("algebra_brute_force", f"{worst_brute:.3e}", worst_brute < 1e-12),
        PropertyResult("algebra_cone_nesting", "all nested", nest_ok),
    ]


def check_identity_refinement(n_theta: int = 16, n_phi: int = 32) -> list:
    checks = {
        "identity_potential_hessian": hessian_identity_residual,
        "identity_support_gradient": support_gradient_residual,
        "identity_support_hessian": support_hessian_residual,
    }
    pairs = ((n_theta, n_phi), (2 * n_theta, 2 * n_phi))
    out = []
    for cname, check in checks.items():
        ratios = []
        for K in ALL_K:
            m = spaceform(K)
            for fn in IDENTITY_FIELDS.values():
                res = [check(m, field_from_function(build_grid(nt, np_), fn))
                       for nt, np_ in pairs]
                ratios.append(res[0] / res[1])
        lo, hi = min(ratios), max(ratios)
        order_lo = math.log2(lo) if lo > 0 else -math.inf
        order_hi = math.log2(hi) if hi > 0 else -math.inf
        out.append(PropertyResult(
            cname,
            f"ratio_min={lo:.2f} ratio_max={hi:.2f} "
            f"order_min={order_lo:.2f} order_max={order_hi:.2f}",
            3.0 <= lo and hi <= 5.0))
    ratios = []
    for K in ALL_K:
        m = spaceform(K)
        for fn in IDENTITY_FIELDS.values():
            res = [codazzi_residual(m, field_from_function(build_grid(nt, np_), fn))
                   for nt, np_ in pairs]
            ratios.append(res[0] / res[1])
    out.append(PropertyResult("identity_codazzi_symmetry",
                              f"ratio_min={min(ratios):.2f}", min(ratios) >= 3.0))
    return out


def check_rotation_equivariance(n_theta: int = 16, n_phi: int = 32) -> list:
    m = spaceform(-1)
    g = build_grid(n_theta, n_phi)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.1 * np.cos(tt)
                            + 0.05 * np.sin(tt) * np.cos(pp))
    shift = n_phi // 4
    rolled = ScalarField(g, np.roll(f.values, shift, axis=1))
    s0, s1 = assemble(m, f), assemble(m, rolled)
    exact = all(np.array_equal(np.roll(getattr(s0, name), shift, axis=1), getattr(s1, name))
                for name in ("g_tt", "g_tp", "g_pp", "h_tt", "h_tp", "h_pp",
                             "kappa1", "kappa2", "u"))
    psi = builtin(m, "radial_power", c=1.0, m=4.0)
    r0 = residual(m, f, psi, 2).values
    r1 = residual(m, rolled, psi, 2).values
    exact = exact and np.array_equal(np.roll(r0, shift, axis=1), r1)
    return [PropertyResult("rotation_equivariance", "bitwise", bool(exact))]


def check_jacobian_oracle(n_theta: int = 16, n_phi: int = 32, cases: int = 3) -> list:
    rng = np.random.default_rng(102)
    worst = 0.0
    for case in range(cases):
        K = ALL_K[case % 3]
        m = spaceform(K)
        g = build_grid(n_theta, n_phi)
        tt, pp = g.mesh()
        r_base = 0.55 if K == 1 else 1.0 + 0.3 * rng.random()
        amp = 0.04 * rng.random()
        vals = r_base * (1.0 + amp * np.cos(tt) + amp * np.sin(tt) * np.cos(pp))
        f = ScalarField(g, vals)
        base = builtin(m, "round_target", r_bar=r_base, m=4.0)
        psi = builtin(m, "anisotropic", base=base, epsilon=0.1, axis=(0.0, 0.0, 1.0))
        J = jacobian(m, f, psi, 2)
        v = rng.standard_normal(g.shape)
        eps = 1e-6
        rp = residual(m, ScalarField(g, vals + eps * v), psi, 2).values
        rm = residual(m, ScalarField(g, vals - eps * v), psi, 2).values
        dirfd = ((rp - rm) / (2 * eps)).ravel()
        jv = J @ v.ravel()
        worst = max(worst, float(np.abs(jv - dirfd).max() / np.abs(jv).max()))
    return [PropertyResult("jacobian_oracle", f"{worst:.3e}", worst < 1e-5)]


def check_scaling_covariance(n_theta: int = 16, n_phi: int = 32) -> list:
    m = spaceform(0)
    g = build_grid(n_theta, n_phi)
    f = field_from_function(g, lambda tt, pp: 1.0 + 0.06 * np.sin(tt) * np.cos(pp))
    c = 1.9
    s2 = residual(m, f, None, 2).values
    s2c = residual(m, ScalarField(g, c * f.values), None, 2).values
    worst = float(np.abs(s2c - s2 / c**2).max() / np.abs(s2).max())
    state = assemble(m, f)
    ubound = bool(np.all(state.u <= state.phi + 1e-14))
    return [
        PropertyResult("scaling_covariance", f"{worst:.3e}", worst < 1e-11),
        PropertyResult("support_bounded_by_warp", "holds", ubound),
    ]


def run_all(n_theta: int = 16, n_phi: int = 32) -> list:
    results = []
    results += check_spaceform_identities()
    results += check_algebra_identities()
    results += check_identity_refinement(n_theta, n_phi)
    results += check_rotation_equivariance(n_theta, n_phi)
    results += check_jacobian_oracle(n_theta, n_phi)
    results += check_scaling_covariance(n_theta, n_phi)
    return results
