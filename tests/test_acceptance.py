"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line.  Expensive
solves are session fixtures shared across criteria; criterion 7 audits
the admissibility traces of every solver run the suite performed.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from starcurv.cli import main as cli_main
from starcurv.export import read_report
from starcurv.geometry import (hessian_identity_residual,
                               support_gradient_residual,
                               support_hessian_residual)
from starcurv.grid import ScalarField, build_grid, constant_field, field_from_function
from starcurv.prescription import builtin, check_barriers, check_monotonicity
from starcurv.solver import (CONE_MARGIN, SolverOptions, continuity_solve, jacobian,
                             newton_solve, residual, uniqueness_probe)
from starcurv.spaceform import spaceform
from starcurv.symfunc import sigma, sigma_partial

OPTS = SolverOptions(newton_tol=1e-11)


def report_line(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def radial_oracle(model, psi_value, lo, hi):
    """Independent 1-D root of q(r)^2 = psi for the round-sphere solution."""
    return brentq(lambda r: model.sphere_curvature(r) ** 2 - psi_value,
                  lo, hi, xtol=1e-15, rtol=8.9e-16)


def aniso_prescription(model):
    base = builtin(model, "round_target", r_bar=1.0, m=4.0)
    return builtin(model, "anisotropic", base=base, epsilon=0.2, axis=(0.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def round_runs():
    """Criterion 1 solves: (model, target radius, solution, report)."""
    runs = []
    g = build_grid(16, 32)
    cases = ((0, 1.0, 1.3), (-1, 0.5, 0.65), (1, 0.6, 0.78))
    for K, r_star, seed in cases:
        m = spaceform(K)
        psi_val = m.sphere_curvature(r_star) ** 2
        psi = builtin(m, "constant", c=psi_val)
        fieldv, report = newton_solve(m, constant_field(g, seed), psi, 2, OPTS)
        runs.append((m, r_star, psi_val, fieldv, report))
    return runs


@pytest.fixture(scope="module")
def family_c_run():
    m = spaceform(0)
    g = build_grid(16, 32)
    psi = builtin(m, "round_target", r_bar=1.5, m=4.0)  # m = k + 2
    fieldv, report = continuity_solve(m, g, psi, 2, OPTS)
    return m, psi, fieldv, report


@pytest.fixture(scope="module")
def aniso_run_32():
    m = spaceform(0)
    g = build_grid(32, 64)
    fieldv, report = continuity_solve(m, g, aniso_prescription(m), 2, OPTS)
    return m, fieldv, report


@pytest.fixture(scope="module")
def aniso_run_64():
    m = spaceform(0)
    g = build_grid(64, 128)
    fieldv, report = continuity_solve(m, g, aniso_prescription(m), 2, OPTS)
    return m, fieldv, report


def test_criterion_1_round_sphere_recovery(round_runs):
    ok = True
    for m, r_star, psi_val, fieldv, report in round_runs:
        oracle = radial_oracle(m, psi_val, 0.05, m.a - 1e-6 if m.K == 1 else 10.0)
        ok = ok and abs(oracle - r_star) < 1e-12
        ok = ok and np.abs(fieldv.values - oracle).max() < 1e-8
        ok = ok and report.residual_inf < 1e-10
        ok = ok and report.converged
    assert report_line(1, "round-sphere recovery in all three space forms", ok)


def test_criterion_2_constructed_solution(family_c_run, tmp_path):
    m, psi, fieldv, report = family_c_run
    ok = report.converged
    ok = ok and np.abs(fieldv.values - 1.5).max() < 1e-8
    # the radial monotonicity condition holds with strict margin, via the
    # check command
    cfg = tmp_path / "check.cfg"
    cfg.write_text(
        "model.K = 0\ngrid.n_theta = 16\ngrid.n_phi = 32\nproblem.k = 2\n"
        "psi.family = round_target\npsi.r_bar = 1.5\npsi.m = 4.0\n"
        "check.monotonicity = true\ncheck.rho_lo = 0.5\ncheck.rho_hi = 2.5\n")
    code = cli_main(["check", str(cfg)])
    rep = read_report(tmp_path / "report.txt")
    ok = ok and code == 0
    ok = ok and rep["monotone_ok"] == "true"
    ok = ok and float(rep["monotone_max_derivative"]) < -1e-3
    assert report_line(2, "constructed solution family and strict monotonicity", ok)


def test_criterion_3_barrier_confinement(aniso_run_32, family_c_run):
    ok = True
    # configuration A: non-radial prescription (anisotropy 0.2), barriers
    # hand-solved from 0.8/R^4 >= 1/R^2 and 1.2/R^4 <= 1/R^2
    m, fieldv, _ = aniso_run_32
    rep = check_barriers(aniso_prescription(m), m, 0.89, 1.10)
    ok = ok and rep.barrier_low_ok and rep.barrier_high_ok
    ok = ok and fieldv.values.min() >= 0.89 - 1e-6
    ok = ok and fieldv.values.max() <= 1.10 + 1e-6
    # configuration B: radial prescription with a wide passing interval
    m, psi, fieldv, _ = family_c_run
    rep = check_barriers(psi, m, 1.2, 1.8)
    ok = ok and rep.barrier_low_ok and rep.barrier_high_ok
    ok = ok and fieldv.values.min() >= 1.2 - 1e-6
    ok = ok and fieldv.values.max() <= 1.8 + 1e-6
    assert report_line(3, "barrier confinement of converged solutions", ok)


def test_criterion_4_identity_suite_second_order():
    fields = (lambda tt, pp: 1.0 + 0.1 * np.cos(tt),
              lambda tt, pp: 1.0 + 0.05 * np.sin(tt) * np.cos(pp))
    checks = (hessian_identity_residual, support_gradient_residual,
              support_hessian_residual)
    ok = True
    worst = (math.inf, -math.inf)
    for K, fn, check in itertools.product((-1, 0, 1), fields, checks):
        m = spaceform(K)
        res = [check(m, field_from_function(build_grid(nt, 2 * nt), fn))
               for nt in (16, 32)]
        ratio = res[0] / res[1]
        worst = (min(worst[0], ratio), max(worst[1], ratio))
        ok = ok and 3.0 <= ratio <= 5.0
    print(f"\n  identity refinement ratios in [{worst[0]:.2f}, {worst[1]:.2f}]")
    assert report_line(4, "discrete identity suite second-order convergence", ok)


def test_criterion_5_algebraic_identities():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        lam = rng.uniform(-2.0, 2.0, size=n)
        grad = sigma_partial(lam, k)
        scale = 1.0 + float(np.abs(grad).sum()) + abs(float(sigma(lam, k)))
        brute = sum(math.prod(c) for c in itertools.combinations(lam.tolist(), k))
        brute_lower = (sum(math.prod(c) for c in itertools.combinations(lam.tolist(), k - 1))
                       if k > 1 else 1.0)
        ok = ok and abs(float(grad.sum()) - (n - k + 1) * brute_lower) < 1e-12 * scale
        ok = ok and abs(float((lam * grad).sum()) - k * float(sigma(lam, k))) < 1e-12 * scale
        ok = ok and abs(float(sigma(lam, k)) - brute) < 1e-12 * scale
    assert report_line(5, "algebraic identities at machine precision", ok)


def test_criterion_6_jacobian_oracle():
    rng = np.random.default_rng(1234)
    g = build_grid(16, 32)
    tt, pp = g.mesh()
    ok = True
    worst = 0.0
    for case in range(20):
        K = (-1, 0, 1)[case % 3]
        m = spaceform(K)
        r0 = 0.55 if K == 1 else float(rng.uniform(0.8, 1.6))
        amps = 0.04 * rng.random(3)
        vals = r0 * (1.0 + amps[0] * np.cos(tt) + amps[1] * np.sin(tt) * np.cos(pp)
                     + amps[2] * np.sin(tt) * np.sin(pp))
        fieldv = ScalarField(g, vals)
        base = builtin(m, "round_target", r_bar=r0, m=4.0)
        psi = builtin(m, "anisotropic", base=base, epsilon=0.1, axis=(0.0, 0.0, 1.0))
        res0 = residual(m, fieldv, psi, 2)  # also asserts admissible geometry
        J = jacobian(m, fieldv, psi, 2)
        v = rng.standard_normal(g.shape)
        eps = 1e-6
        rp = residual(m, ScalarField(g, vals + eps * v), psi, 2).values
        rm = residual(m, ScalarField(g, vals - eps * v), psi, 2).values
        dirfd = ((rp - rm) / (2 * eps)).ravel()
        jv = J @ v.ravel()
        rel = float(np.abs(jv - dirfd).max() / np.abs(jv).max())
        worst = max(worst, rel)
        ok = ok and rel < 1e-5
    print(f"\n  worst relative Jacobian gap: {worst:.3e}")
    assert report_line(6, "finite-difference Jacobian oracle", ok)


def test_criterion_7_admissibility_invariant(round_runs, family_c_run,
                                             aniso_run_32, aniso_run_64):
    reports = [run[-1] for run in round_runs]
    reports.append(family_c_run[-1])
    reports.append(aniso_run_32[-1])
    reports.append(aniso_run_64[-1])
    violations = 0
    iterates = 0
    for rep in reports:
        for margin in rep.cone_margin:
            iterates += 1
            if margin < CONE_MARGIN:
                violations += 1
    ok = violations == 0 and iterates > 0
    print(f"\n  {iterates} accepted iterates audited, {violations} cone violations")
    assert report_line(7, "every accepted iterate admissible with margin", ok)


def test_criterion_8_anisotropic_existence(aniso_run_32):
    m, fieldv, report = aniso_run_32
    ok = report.converged and report.residual_inf < 1e-10
    ok = ok and report.u_min[-1] > 0.0
    ok = ok and np.isfinite(report.kappa_max[-1])
    # hand-computed barrier interval: R1 <= sqrt(0.8), R2 >= sqrt(1.2)
    ok = ok and fieldv.values.min() >= 0.89 - 1e-6
    ok = ok and fieldv.values.max() <= 1.10 + 1e-6
    dev = uniqueness_probe(m, fieldv.grid, aniso_prescription(m), 2, OPTS,
                           seeds=(0.95, 1.05))
    ok = ok and dev < 1e-6
    print(f"\n  uniqueness probe deviation: {dev:.3e}")
    assert report_line(8, "anisotropic existence probe with uniqueness", ok)


def test_criterion_9_condition_checker_fidelity():
    ok = True
    m0 = spaceform(0)
    coth = lambda x: math.cosh(x) / math.sinh(x)
    # barrier example 1: wide interval, both inequalities hold
    rep = check_barriers(builtin(m0, "round_target", r_bar=1.5, m=4.0), m0, 1.0, 2.0)
    ok = ok and abs(rep.barrier_low_margin - 1.25) < 1e-10
    ok = ok and abs(rep.barrier_high_margin - 0.109375) < 1e-10
    ok = ok and rep.barrier_low_ok and rep.barrier_high_ok
    # barrier example 2: tight interval, both hold
    rep = check_barriers(builtin(m0, "round_target", r_bar=1.5, m=4.0), m0, 1.4, 1.6)
    ok = ok and abs(rep.barrier_low_margin - ((4 / 9) * (1.5 / 1.4) ** 4 - 1 / 1.4**2)) < 1e-10
    ok = ok and abs(rep.barrier_high_margin - (1 / 1.6**2 - (4 / 9) * (1.5 / 1.6) ** 4)) < 1e-10
    ok = ok and rep.barrier_low_ok and rep.barrier_high_ok
    # barrier example 3: constant at an intermediate sphere level fails both
    mh = spaceform(-1)
    c = coth(0.5) ** 2
    rep = check_barriers(builtin(mh, "constant", c=c), mh, 0.4, 0.7)
    ok = ok and abs(rep.barrier_low_margin - (c - coth(0.4) ** 2)) < 1e-10
    ok = ok and abs(rep.barrier_high_margin - (coth(0.7) ** 2 - c)) < 1e-10
    ok = ok and not rep.barrier_low_ok and not rep.barrier_high_ok
    # monotonicity examples: pass / fail / boundary
    rs = np.linspace(0.5, 2.5, 64)
    rep = check_monotonicity(builtin(m0, "radial_power", c=1.0, m=4.0), m0, rho_samples=rs)
    ok = ok and rep.monotone_ok
    ok = ok and abs(rep.monotone_max_derivative - (-2.0 / rs**3).max()) < 1e-10
    rep = check_monotonicity(builtin(m0, "constant", c=1.0), m0, rho_samples=rs)
    ok = ok and not rep.monotone_ok
    ok = ok and abs(rep.monotone_max_derivative - 2.0 * rs.max()) < 1e-10
    rep = check_monotonicity(builtin(m0, "round_target", r_bar=1.5, m=2.0), m0,
                             rho_samples=rs)
    ok = ok and rep.monotone_ok
    ok = ok and abs(rep.monotone_max_derivative) < 1e-10
    assert report_line(9, "condition checkers match symbolic hand evaluation", ok)


def test_criterion_10_monitor_stability(aniso_run_32, aniso_run_64):
    _, _, rep32 = aniso_run_32
    _, _, rep64 = aniso_run_64
    k32, k64 = rep32.kappa_max[-1], rep64.kappa_max[-1]
    g32, g64 = rep32.grad_inf[-1], rep64.grad_inf[-1]
    dk = abs(k64 - k32) / abs(k32)
    dg = abs(g64 - g32) / abs(g32)
    ok = dk < 0.02 and dg < 0.02
    print(f"\n  kappa_max drift {dk:.4%}, grad_inf drift {dg:.4%}")
    assert report_line(10, "curvature and gradient monitors stable under refinement", ok)
