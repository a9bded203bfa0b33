import math

import numpy as np
import pytest

from starcurv.grid import build_grid
from starcurv.prescription import (ConditionReport, Prescription, builtin, check_barriers,
                                   check_monotonicity)
from starcurv.spaceform import DomainError, spaceform

Z = np.array([0.0, 0.0, 1.0])


def coth(x):
    return math.cosh(x) / math.sinh(x)


def test_builtin_constant():
    m = spaceform(0)
    psi = builtin(m, "constant", c=1.0)
    assert psi(Z, 0.7, Z) == pytest.approx(1.0, abs=0)
    vals = psi(np.tile(Z, (5, 1)), np.linspace(0.5, 2.0, 5), np.tile(Z, (5, 1)))
    np.testing.assert_array_equal(vals, np.ones(5))


def test_builtin_radial_power():
    m = spaceform(0)
    psi = builtin(m, "radial_power", c=1.0, m=4.0)
    assert psi(Z, 2.0, Z) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_builtin_round_target_exact_at_anchor():
    # constructed so the centered sphere of radius r_bar is an exact
    # solution: at rho = r_bar the value is C(n,k) q(r_bar)^k
    m = spaceform(0)
    psi = builtin(m, "round_target", r_bar=1.5, m=4.0)
    assert psi(Z, 1.5, Z) == pytest.approx(1.0 / 2.25, abs=1e-15)


def test_builtin_anisotropic():
    m = spaceform(0)
    base = builtin(m, "constant", c=2.0)
    psi = builtin(m, "anisotropic", base=base, epsilon=0.25, axis=(0, 0, 2.0))
    # axis is normalized; at nu = +z the factor is 1 + eps
    assert psi(Z, 1.0, Z) == pytest.approx(2.0 * 1.25, abs=1e-14)
    south = np.array([0.0, 0.0, -1.0])
    assert psi(south, 1.0, south) == pytest.approx(2.0 * 0.75, abs=1e-14)


def _partials_cases(m, r_bar):
    target = builtin(m, "round_target", r_bar=r_bar, m=4.0)
    radial = builtin(m, "radial_power", c=1.3, m=3.0)
    tilted = (0.3, 0.4, 0.866)
    blend = radial.blend(builtin(m, "anisotropic", base=target, epsilon=0.2, axis=tilted), 0.7)
    return {
        "constant": builtin(m, "constant", c=2.0),
        "radial_power": radial,
        "round_target": target,
        "anisotropic": builtin(m, "anisotropic", base=target, epsilon=0.3, axis=tilted),
        "blend": blend,
        # the product rule applied to a base whose own psi_nu is nonzero
        "anisotropic_of_blend": builtin(m, "anisotropic", base=blend, epsilon=-0.25,
                                        axis=(1.0, -0.5, 0.2)),
    }


@pytest.mark.parametrize("name", ["constant", "radial_power", "round_target", "anisotropic",
                                  "blend", "anisotropic_of_blend"])
@pytest.mark.parametrize("K,r_bar", [(-1, 1.0), (0, 1.0), (1, 0.6)])
def test_partials_match_central_differences(K, r_bar, name):
    # psi_rho against a central difference in rho, psi_nu against central
    # differences along each Cartesian component of nu (nu free in R^3)
    m = spaceform(K)
    psi = _partials_cases(m, r_bar)[name]
    rng = np.random.default_rng(7)
    z = rng.standard_normal((40, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    nu = z + 0.3 * rng.standard_normal((40, 3))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    rho = r_bar * rng.uniform(0.6, 1.4, 40)
    psi_rho, psi_nu = psi.partials(z, rho, nu)
    psi_rho = np.broadcast_to(psi_rho, rho.shape)
    psi_nu = np.broadcast_to(psi_nu, nu.shape)
    h = 1e-6
    scale = np.abs(psi(z, rho, nu)).max()
    fd_rho = (psi(z, rho + h, nu) - psi(z, rho - h, nu)) / (2 * h)
    assert np.abs(psi_rho - fd_rho).max() <= 1e-7 * scale
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd_nu = (psi(z, rho, nu + step) - psi(z, rho, nu - step)) / (2 * h)
        assert np.abs(psi_nu[:, j] - fd_nu).max() <= 1e-7 * scale


def test_builtin_rejections():
    m = spaceform(0)
    with pytest.raises(ValueError):
        builtin(m, "constant", c=0.0)
    with pytest.raises(ValueError):
        builtin(m, "constant", c=-2.0)
    with pytest.raises(ValueError):
        builtin(m, "radial_power", c=-1.0, m=2.0)
    base = builtin(m, "constant", c=1.0)
    with pytest.raises(ValueError):
        builtin(m, "anisotropic", base=base, epsilon=1.0)
    with pytest.raises(ValueError):
        builtin(m, "anisotropic", base=base, epsilon=-1.3)
    with pytest.raises(ValueError):
        builtin(m, "round_target", r_bar=1.0, m=1.0)  # m < k
    with pytest.raises(ValueError):
        builtin(m, "nosuch", c=1.0)
    with pytest.raises(ValueError):
        builtin(m, "constant", c=1.0, bogus=3.0)


def test_dimension_is_not_a_parameter():
    # surfaces only: the degree is 1 or 2 and there is no dimension knob
    m = spaceform(0)
    with pytest.raises(TypeError):
        Prescription(lambda z, rho, nu: np.ones_like(rho), lambda z, rho, nu: (0.0, 0.0),
                     family="custom", params={}, k=2, n=2, model=m)
    with pytest.raises(ValueError, match="'n'"):
        builtin(m, "constant", c=1.0, n=2)
    for k in (0, 3):
        with pytest.raises(ValueError, match="outside 1..2"):
            builtin(m, "constant", k=k, c=1.0)
    assert not hasattr(builtin(m, "constant", c=1.0), "n")


def test_blend_interpolates():
    m = spaceform(0)
    a = builtin(m, "constant", c=1.0)
    b = builtin(m, "constant", c=3.0)
    mid = a.blend(b, 0.25)
    assert mid(Z, 1.0, Z) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("epsilon", [0.2, -0.2])
def test_blend_at_one_calls_only_the_target(epsilon):
    # at t = 1 the start's functions are never called, and values and
    # partials are bitwise those of 0.0 * start + 1.0 * target
    m = spaceform(0)
    start = builtin(m, "round_target", r_bar=1.0, m=4.0)
    calls = []
    spy = Prescription(lambda *a: calls.append("eval") or start.eval_fn(*a),
                       lambda *a: calls.append("partials") or start.partials(*a),
                       "spy", {}, model=m, validate=False)
    target = builtin(m, "anisotropic", base=start, epsilon=epsilon, axis=(0.0, 0.0, 1.0))
    end = spy.blend(target, 1.0)
    assert end.family == "blend" and end.params["t"] == 1.0
    z, e_t, _ = build_grid(8, 16).unit_vectors()
    nu = (z + 0.3 * e_t) / np.sqrt(1.09)
    rho = 1.0 + 0.1 * z[..., 2]
    value, partials = end(z, rho, nu), end.partials(z, rho, nu)
    assert calls == []
    assert value.tobytes() == (0.0 * start(z, rho, nu) + 1.0 * target(z, rho, nu)).tobytes()
    for got, p0, p1 in zip(partials, start.partials(z, rho, nu), target.partials(z, rho, nu)):
        assert np.asarray(got).tobytes() == np.asarray(0.0 * p0 + 1.0 * p1).tobytes()
    spy.blend(target, 0.5)(z, rho, nu)
    assert calls == ["eval"]


# --- checker fidelity: margins frozen from symbolic hand evaluation -------

def test_barriers_round_target_wide_interval():
    # K=0, k=2: psi(rho) = (4/9)(1.5/rho)^4 against thresholds 1/R^2.
    # At R1=1: 2.25 - 1 = 1.25; at R2=2: 0.25 - 0.140625 = 0.109375.
    m = spaceform(0)
    psi = builtin(m, "round_target", r_bar=1.5, m=4.0)
    rep = check_barriers(psi, m, 1.0, 2.0)
    assert rep.barrier_low_ok and rep.barrier_high_ok
    assert rep.barrier_low_margin == pytest.approx(1.25, abs=1e-10)
    assert rep.barrier_high_margin == pytest.approx(0.109375, abs=1e-10)


def test_barriers_round_target_tight_interval():
    m = spaceform(0)
    psi = builtin(m, "round_target", r_bar=1.5, m=4.0)
    rep = check_barriers(psi, m, 1.4, 1.6)
    low = (4.0 / 9.0) * (1.5 / 1.4) ** 4 - 1.0 / 1.4**2
    high = 1.0 / 1.6**2 - (4.0 / 9.0) * (1.5 / 1.6) ** 4
    assert rep.barrier_low_ok and rep.barrier_high_ok
    assert rep.barrier_low_margin == pytest.approx(low, abs=1e-10)
    assert rep.barrier_high_margin == pytest.approx(high, abs=1e-10)


def test_barriers_constant_between_radii_fails_both():
    # c = q^k(R0) with R1 < R0 < R2 in the hyperbolic model: q = coth is
    # strictly decreasing, so c < q^2(R1) fails the low barrier and
    # c > q^2(R2) fails the high one; both margins are negative.
    m = spaceform(-1)
    c = coth(0.5) ** 2
    psi = builtin(m, "constant", c=c)
    rep = check_barriers(psi, m, 0.4, 0.7)
    assert not rep.barrier_low_ok and not rep.barrier_high_ok
    assert rep.barrier_low_margin == pytest.approx(c - coth(0.4) ** 2, abs=1e-10)
    assert rep.barrier_high_margin == pytest.approx(coth(0.7) ** 2 - c, abs=1e-10)
    assert rep.barrier_low_margin < 0.0 and rep.barrier_high_margin < 0.0


def test_barriers_validates_interval():
    m = spaceform(0)
    psi = builtin(m, "constant", c=1.0)
    with pytest.raises(ValueError):
        check_barriers(psi, m, 2.0, 1.0)


def test_monotonicity_radial_power_passes():
    # warp^2 * c warp^-4 = c / warp^2 is strictly decreasing; the worst
    # derivative over the samples is -2 c / rho^3 at the largest radius
    m = spaceform(0)
    psi = builtin(m, "radial_power", c=1.0, m=4.0)
    rs = np.linspace(0.5, 2.5, 64)
    rep = check_monotonicity(psi, m, rho_samples=rs)
    assert rep.monotone_ok
    assert rep.monotone_max_derivative == pytest.approx((-2.0 / rs**3).max(), abs=1e-10)


def test_monotonicity_constant_fails():
    m = spaceform(0)
    psi = builtin(m, "constant", c=1.0)
    rs = np.linspace(0.5, 2.5, 64)
    rep = check_monotonicity(psi, m, rho_samples=rs)
    assert not rep.monotone_ok
    assert rep.monotone_max_derivative == pytest.approx(2.0 * rs.max(), abs=1e-10)
    assert rep.monotone_max_derivative > 0.0


def test_monotonicity_round_target_boundary_case():
    # m = k makes warp^k * psi constant: passes with margin exactly zero
    m = spaceform(0)
    psi = builtin(m, "round_target", r_bar=1.5, m=2.0)
    rep = check_monotonicity(psi, m, rho_samples=np.linspace(0.5, 2.5, 64))
    assert rep.monotone_ok
    assert abs(rep.monotone_max_derivative) < 1e-10


def test_monotonicity_closed_form_down_to_small_radii():
    # d/drho [rho^2 rho^-4] = -2 rho^-3 at every sample inside (0, a), however
    # close to 0; a sample outside still raises DomainError
    m = spaceform(0)
    psi = builtin(m, "radial_power", c=1.0, m=4.0)
    for r in np.geomspace(1e-5, 2.0, 12):
        rep = check_monotonicity(psi, m, rho_samples=[r])
        assert rep.monotone_ok
        assert rep.monotone_max_derivative == pytest.approx(-2.0 * r**-3, rel=1e-14)
    assert check_monotonicity(psi, m, rho_samples=np.linspace(1e-5, 1.0, 64)).monotone_ok
    for bad in (0.0, -1.0, m.a):
        with pytest.raises(DomainError):
            check_monotonicity(psi, m, rho_samples=np.linspace(bad, 1.0, 8))


def test_monotonicity_spherical_model():
    # constant prescription in the spherical model: d/drho sin^2 = sin 2 rho
    m = spaceform(1)
    psi = builtin(m, "constant", c=1.0)
    rs = np.linspace(0.2, 1.3, 40)
    rep = check_monotonicity(psi, m, rho_samples=rs)
    assert not rep.monotone_ok
    assert rep.monotone_max_derivative == pytest.approx(np.sin(2 * rs).max(), abs=1e-10)


def test_condition_report_merge_and_all_ok():
    a = ConditionReport(barrier_low_ok=True, barrier_high_ok=True,
                        barrier_low_margin=0.5, barrier_high_margin=0.1,
                        barrier_samples=128, R1=1.0, R2=2.0)
    mixed = ConditionReport(barrier_low_ok=True, barrier_high_ok=True,
                            monotone_ok=False, monotone_max_derivative=0.3,
                            monotone_samples=64)
    assert not mixed.all_ok
    assert a.all_ok
    assert not ConditionReport().all_ok


def test_positivity_probe_rejects_sign_changing_eval():
    m = spaceform(0)
    # z-dependent sign change must be caught by the constructor probe
    with pytest.raises(ValueError):
        Prescription(lambda z, rho, nu: z[..., 2] * np.ones_like(rho),
                     lambda z, rho, nu: (0.0, 0.0), family="custom", params={}, model=m)
